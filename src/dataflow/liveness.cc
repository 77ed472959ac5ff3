#include "src/dataflow/liveness.h"

#include "src/dataflow/solver.h"

namespace vc {

void ApplyLivenessTransfer(const SlotLayout& layout, const Instruction& inst, SlotSet& live) {
  bool use = false;
  switch (inst.op) {
    case Opcode::kLoad:
      use = true;
      break;
    case Opcode::kAddrSlot:
      // Escaped address: the slot may be read through a pointer after this
      // point, so treat the address-taking itself as a use (conservative, the
      // paper's rule from §4.1 "Pointer and Alias").
      use = true;
      break;
    case Opcode::kStore:
      break;
    default:
      // Loads/stores through pointers and all value operations touch no slot
      // directly; escaped slots are handled by the address-taken suppression.
      return;
  }
  auto apply = [&](SlotId slot) { use ? live.Add(slot) : live.Remove(slot); };
  apply(inst.slot);
  // Reading (overwriting) a whole struct reads (overwrites) each field.
  for (SlotId field : layout.FieldSlots(inst.slot)) {
    apply(field);
  }
}

SlotSet ComputeAddressTaken(const SlotLayout& layout) {
  // The kAddrSlot transfer adds exactly the escaped slots: a struct variable
  // with its fields, a field alone.
  SlotSet taken(layout.num_slots());
  for (const auto& block : layout.func().blocks) {
    for (const Instruction& inst : block->insts) {
      if (inst.op == Opcode::kAddrSlot) {
        ApplyLivenessTransfer(layout, inst, taken);
      }
    }
  }
  return taken;
}

LivenessResult ComputeLiveness(const SlotLayout& layout, BudgetMeter* meter) {
  const IrFunction& func = layout.func();
  LivenessResult result;
  result.live_in.assign(func.blocks.size(), SlotSet(layout.num_slots()));
  result.live_out.assign(func.blocks.size(), SlotSet(layout.num_slots()));
  result.address_taken = ComputeAddressTaken(layout);
  result.iterations = SolveBlocks<Direction::kBackward, Join::kMay>(
      func, result.live_in, result.live_out,
      [](SlotSet& into, const SlotSet& from) { return into.UnionWith(from); },
      [&layout](const Instruction& inst, SlotSet& live) {
        ApplyLivenessTransfer(layout, inst, live);
      },
      meter);
  return result;
}

}  // namespace vc
