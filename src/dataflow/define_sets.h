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

#include <vector>

#include "src/dataflow/slot_layout.h"
#include "src/dataflow/slot_set.h"
#include "src/ir/ir.h"
#include "src/support/fault.h"

namespace vc {

// The nearest next definitions of every slot: a set of store ids of the
// function's SlotLayout. SlotLayout::StoreLocs(defs, slot) reads one slot's
// overwriting locations back, sorted.
using DefineMap = SlotSet;

struct DefineSetResult {
  // Indexed by block id: state at block entry (in) and exit (out), in
  // backward-analysis orientation (in = before the first instruction).
  std::vector<DefineMap> in;
  std::vector<DefineMap> out;
  int iterations = 0;
};

// Applies one instruction's backward transfer: a store to slot s replaces the
// next-definition set of s with {this store}.
void ApplyDefineTransfer(const SlotLayout& layout, const Instruction& inst, DefineMap& defs);

// A non-null `meter` is charged one step per instruction per pass and may
// throw BudgetExceededError (see ComputeLiveness).
DefineSetResult ComputeDefineSets(const SlotLayout& layout, BudgetMeter* meter = nullptr);

}  // namespace vc

#endif  // VALUECHECK_SRC_DATAFLOW_DEFINE_SETS_H_
