#include "src/dataflow/liveness.h"

#include "src/dataflow/solver.h"

namespace vc {

namespace {

bool IsStructVarSlot(const IrFunction& func, SlotId slot) {
  const Slot& s = func.slots[slot];
  return s.var != nullptr && s.field_index < 0 && s.var->type != nullptr &&
         s.var->type->IsStruct();
}

// Applies `fn` to every field slot of the same variable as `slot` (which must
// be a whole-variable slot).
template <typename Fn>
void ForEachFieldSlot(const IrFunction& func, SlotId slot, Fn fn) {
  const VarDecl* var = func.slots[slot].var;
  for (SlotId other = 0; other < func.slots.size(); ++other) {
    const Slot& candidate = func.slots[other];
    if (candidate.var == var && candidate.field_index >= 0) {
      fn(other);
    }
  }
}

}  // namespace

void ApplyLivenessTransfer(const IrFunction& func, const Instruction& inst, SlotSet& live) {
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
  if (IsStructVarSlot(func, inst.slot)) {
    // Reading (overwriting) the whole struct reads (overwrites) each field.
    ForEachFieldSlot(func, inst.slot, apply);
  }
}

SlotSet ComputeAddressTaken(const IrFunction& func) {
  // The kAddrSlot transfer adds exactly the escaped slots: a struct variable
  // with its fields, a field alone.
  SlotSet taken(func.slots.size());
  for (const auto& block : func.blocks) {
    for (const Instruction& inst : block->insts) {
      if (inst.op == Opcode::kAddrSlot) {
        ApplyLivenessTransfer(func, inst, taken);
      }
    }
  }
  return taken;
}

LivenessResult ComputeLiveness(const IrFunction& func, BudgetMeter* meter) {
  LivenessResult result;
  result.live_in.assign(func.blocks.size(), SlotSet(func.slots.size()));
  result.live_out.assign(func.blocks.size(), SlotSet(func.slots.size()));
  result.address_taken = ComputeAddressTaken(func);
  result.iterations = SolveBlocks<Direction::kBackward, Join::kMay>(
      func, result.live_in, result.live_out,
      [](SlotSet& into, const SlotSet& from) { return into.UnionWith(from); },
      [&func](const Instruction& inst, SlotSet& live) { ApplyLivenessTransfer(func, inst, live); },
      meter);
  return result;
}

}  // namespace vc
