// Backward flow-sensitive liveness over memory slots (paper §2.1, §4.1).
//
// The analysis is field-sensitive (a struct-typed local's fields are separate
// slots) and struct-copy aware: loading a whole struct variable counts as a
// use of every field slot, and storing the whole variable kills them.
//
// Alias handling follows the paper's conservative rule: a slot whose address
// is taken is "referenced by pointers" and may be used through indirection,
// so kAddrSlot both generates a use and lands the slot in `address_taken`
// (the detector additionally suppresses all candidates on such slots).

#ifndef VALUECHECK_SRC_DATAFLOW_LIVENESS_H_
#define VALUECHECK_SRC_DATAFLOW_LIVENESS_H_

#include <vector>

#include "src/dataflow/slot_layout.h"
#include "src/dataflow/slot_set.h"
#include "src/ir/ir.h"
#include "src/support/fault.h"

namespace vc {

struct LivenessResult {
  // Indexed by block id.
  std::vector<SlotSet> live_in;
  std::vector<SlotSet> live_out;
  // Slots whose address is taken anywhere in the function (plus, for struct
  // variables, their sibling field slots).
  SlotSet address_taken;
  // Number of worklist iterations until the fix point (loops need > 1).
  int iterations = 0;
};

// Applies one instruction's backward transfer function to `live`. Exposed so
// the detector can replay block-internal states from the block's live-out.
void ApplyLivenessTransfer(const SlotLayout& layout, const Instruction& inst, SlotSet& live);

// Runs the analysis to its fix point. A non-null `meter` is charged one step
// per instruction per pass and may throw BudgetExceededError, which the
// detector's per-unit isolation turns into a quarantine.
LivenessResult ComputeLiveness(const SlotLayout& layout, BudgetMeter* meter = nullptr);

// Computes the address-taken slot set alone (also part of LivenessResult).
SlotSet ComputeAddressTaken(const SlotLayout& layout);

}  // namespace vc

#endif  // VALUECHECK_SRC_DATAFLOW_LIVENESS_H_
