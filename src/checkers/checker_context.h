// Per-function analysis context shared by every checker.
//
// N checkers pay for one liveness pass: the context computes each shared
// analysis (liveness, DefineSets, Andersen points-to) on first request and
// memoizes the result for the rest of the function's checkers. All analyses
// charge the same per-function BudgetMeter, so the PR-5 resource-budget
// contract extends unchanged to multi-checker runs — the meter's step count
// covers the union of whatever analyses the enabled checkers touched.

#ifndef VALUECHECK_SRC_CHECKERS_CHECKER_CONTEXT_H_
#define VALUECHECK_SRC_CHECKERS_CHECKER_CONTEXT_H_

#include <memory>
#include <string>

#include "src/core/project.h"
#include "src/core/unused_def.h"
#include "src/dataflow/define_sets.h"
#include "src/dataflow/liveness.h"
#include "src/pointer/andersen.h"

namespace vc {

class CheckerContext {
 public:
  // `meter` may be null (unmetered run); it is shared across every analysis
  // and checker for this function.
  CheckerContext(const Project& project, FileId file, const IrFunction& func,
                 BudgetMeter* meter = nullptr);

  const Project& project() const { return project_; }
  FileId file() const { return file_; }
  const std::string& path() const { return path_; }
  const IrFunction& func() const { return func_; }
  BudgetMeter* meter() const { return meter_; }

  // Shared analyses, computed on first access and memoized. Access order
  // matters for budget accounting: the unused-definition checker requests
  // liveness then define sets, preserving the pre-framework charge order.
  // The slot layout (field slots, store ids) is unmetered set-up.
  const SlotLayout& layout();
  const LivenessResult& liveness();
  const DefineSetResult& defines();
  const PointsTo& points_to();

  // Shorthand for liveness().address_taken (forces the liveness pass).
  const SlotSet& address_taken() { return liveness().address_taken; }

  // The one candidate builder: a finding on `slot` defined at `loc`, with
  // the function, file and slot fields filled in. Checkers add the rest.
  UnusedDefCandidate SlotCandidate(SlotId slot, SourceLoc loc,
                                   CandidateKind kind = CandidateKind::kPlainUnused) const;

  // True once some checker has forced the points-to pass; lets the driver
  // attribute points-to memory without computing the analysis just to
  // measure it.
  bool points_to_computed() const { return points_to_ != nullptr; }

 private:
  const Project& project_;
  FileId file_;
  const std::string& path_;
  const IrFunction& func_;
  BudgetMeter* meter_;

  std::unique_ptr<SlotLayout> layout_;
  std::unique_ptr<LivenessResult> liveness_;
  std::unique_ptr<DefineSetResult> defines_;
  std::unique_ptr<PointsTo> points_to_;
};

}  // namespace vc

#endif  // VALUECHECK_SRC_CHECKERS_CHECKER_CONTEXT_H_
