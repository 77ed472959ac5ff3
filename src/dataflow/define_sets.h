// Backward "next definition" analysis — the paper's DefineSet (Fig. 3/4).
//
// For every program point it records, per slot, the set of nearest stores
// that overwrite the slot on some path to the exit. When the detector finds
// an unused store, the DefineSet at that point names the overwriting
// definitions; the authorship phase compares their authors against the
// store's author to classify a cross-scope overwritten definition (§3.1
// scenario 3 and the overwritten-parameter variant of scenario 2).

#ifndef VALUECHECK_SRC_DATAFLOW_DEFINE_SETS_H_
#define VALUECHECK_SRC_DATAFLOW_DEFINE_SETS_H_

#include <algorithm>
#include <map>
#include <vector>

#include "src/ir/ir.h"
#include "src/support/fault.h"

namespace vc {

// The nearest next definitions of each slot, keyed by slot id. Values are the
// source locations of the overwriting stores, sorted and deduplicated.
class DefineMap {
 public:
  void Replace(SlotId slot, SourceLoc loc) { defs_[slot] = {loc}; }

  const std::vector<SourceLoc>* Find(SlotId slot) const {
    auto it = defs_.find(slot);
    return it == defs_.end() ? nullptr : &it->second;
  }

  // this = union(this, other) per slot. Returns true if this changed.
  bool UnionWith(const DefineMap& other) {
    bool changed = false;
    for (const auto& [slot, locs] : other.defs_) {
      std::vector<SourceLoc>& mine = defs_[slot];
      for (const SourceLoc& loc : locs) {
        if (std::find(mine.begin(), mine.end(), loc) == mine.end()) {
          mine.push_back(loc);
          changed = true;
        }
      }
      std::sort(mine.begin(), mine.end());
    }
    return changed;
  }

  friend bool operator==(const DefineMap& a, const DefineMap& b) { return a.defs_ == b.defs_; }

 private:
  std::map<SlotId, std::vector<SourceLoc>> defs_;
};

struct DefineSetResult {
  // Indexed by block id: state at block entry (in) and exit (out), in
  // backward-analysis orientation (in = before the first instruction).
  std::vector<DefineMap> in;
  std::vector<DefineMap> out;
  int iterations = 0;
};

// Applies one instruction's backward transfer: a store to slot s replaces the
// next-definition set of s with {this store}.
void ApplyDefineTransfer(const IrFunction& func, const Instruction& inst, DefineMap& defs);

// A non-null `meter` is charged one step per instruction per pass and may
// throw BudgetExceededError (see ComputeLiveness).
DefineSetResult ComputeDefineSets(const IrFunction& func, BudgetMeter* meter = nullptr);

}  // namespace vc

#endif  // VALUECHECK_SRC_DATAFLOW_DEFINE_SETS_H_
