// Function-level dependency graph for the incremental engine's dirty-slice
// computation (DESIGN.md §18).
//
// When a commit changes a set of functions, the engine must re-run checkers
// on every function whose detect result *could* observe the change. The
// conservative rule implemented here:
//
//   dirty(changed) = changed
//                  ∪ callers(changed) ∪ callees(changed)     (direct edges)
//                  ∪ alias-affected                          (if changed ≠ ∅)
//
// where "alias-affected" is every function containing an indirect call
// (callee resolvable only through points-to) and every function whose address
// is taken (a potential indirect-call target): any edit can, in principle,
// reroute those edges, so they never trust the cache while anything changed.
//
// This over-approximates today's checkers — every function_local() checker is
// a pure function of its own file's content — but it is the contract that
// keeps the cache sound if a future checker starts peeking one call level
// deep, and it is cheap: edges come straight from the IR call sites the
// function index already records.

#ifndef VALUECHECK_SRC_CORE_DEP_GRAPH_H_
#define VALUECHECK_SRC_CORE_DEP_GRAPH_H_

#include <map>
#include <set>
#include <string>

#include "src/core/project.h"

namespace vc {

class DepGraph {
 public:
  // Builds edges from the live slots of `project` (unit_order iteration).
  explicit DepGraph(const Project& project);

  // The dirty slice seeded by `changed` function names. Names not defined in
  // the project (externs) still propagate to their callers.
  std::set<std::string> DirtyClosure(const std::set<std::string>& changed) const;

 private:
  std::map<std::string, std::set<std::string>> callees_;  // f -> names f calls
  std::map<std::string, std::set<std::string>> callers_;  // f -> names calling f
  std::set<std::string> alias_affected_;
};

}  // namespace vc

#endif  // VALUECHECK_SRC_CORE_DEP_GRAPH_H_
