#include "src/dataflow/define_sets.h"

#include "src/dataflow/solver.h"

namespace vc {

void ApplyDefineTransfer(const SlotLayout& layout, const Instruction& inst, DefineMap& defs) {
  if (inst.op != Opcode::kStore) {
    return;
  }
  const StoreRange range = layout.Stores(inst.slot);
  defs.RemoveRange(range.begin, range.end);
  defs.Add(layout.StoreOf(inst));
}

DefineSetResult ComputeDefineSets(const SlotLayout& layout, BudgetMeter* meter) {
  const IrFunction& func = layout.func();
  DefineSetResult result;
  result.in.assign(func.blocks.size(), DefineMap(layout.num_stores()));
  result.out.assign(func.blocks.size(), DefineMap(layout.num_stores()));
  result.iterations = SolveBlocks<Direction::kBackward, Join::kMay>(
      func, result.in, result.out,
      [](DefineMap& into, const DefineMap& from) { return into.UnionWith(from); },
      [&layout](const Instruction& inst, DefineMap& defs) {
        ApplyDefineTransfer(layout, inst, defs);
      },
      meter);
  return result;
}

}  // namespace vc
