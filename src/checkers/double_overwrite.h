// double-overwrite: a store overwritten by a second store to the same slot
// with no intervening read, on every path between them.
//
// The unused-definition detector suppresses all candidates on address-taken
// slots (the paper's checkAlias rule), which is sound but blind: a store
// that is definitely killed by a later store — no load, no address use, no
// call that could reach the slot in between — is dead even when the slot's
// address escapes elsewhere in the function. This checker recovers exactly
// that envelope with a forward must-analysis (intersection meet), so it
// stays precise across branches: a read on any path between the two stores
// cancels the report. It runs on address-taken slots only — non-escaping
// slots are the unused-def checker's territory — so the two envelopes are
// disjoint and never double-report one dead store.

#ifndef VALUECHECK_SRC_CHECKERS_DOUBLE_OVERWRITE_H_
#define VALUECHECK_SRC_CHECKERS_DOUBLE_OVERWRITE_H_

#include <vector>

#include "src/checkers/checker.h"
#include "src/dataflow/slot_layout.h"
#include "src/dataflow/slot_set.h"

namespace vc {

// The checker's must analysis: at each point, the stores (store ids of the
// SlotLayout) written to a tracked slot and not yet possibly read, on every
// path from a block without predecessors. A tracked slot is an address-taken,
// non-global, non-synthetic whole local; each has at most one pending store.
class PendingStores {
 public:
  PendingStores(const SlotLayout& layout, const SlotSet& address_taken);

  bool Tracked(SlotId slot) const { return tracked_.Contains(slot); }
  bool TracksAny() const { return tracked_.Count() > 0; }

  // Forward transfer: a store to a tracked slot becomes its pending store; a
  // load or address-take of a slot ends its pending store; a call or an
  // indirect load or store may read any escaped slot, so it ends them all.
  void Transfer(const Instruction& inst, SlotSet& pending) const;

  // Solves to the fixpoint into `in`/`out` (block entry/exit) and returns the
  // pass count. Blocks no start reaches keep empty states.
  int Solve(std::vector<SlotSet>& in, std::vector<SlotSet>& out, BudgetMeter* meter) const;

 private:
  const SlotLayout& layout_;
  SlotSet tracked_;
};

class DoubleOverwriteChecker : public Checker {
 public:
  std::string name() const override { return "double-overwrite"; }
  std::string description() const override {
    return "store killed by a second store on every path, with no read in between";
  }
  std::vector<UnusedDefCandidate> Check(CheckerContext& ctx) const override;
};

}  // namespace vc

#endif  // VALUECHECK_SRC_CHECKERS_DOUBLE_OVERWRITE_H_
