#include "src/dataflow/define_sets.h"

#include "src/dataflow/solver.h"

namespace vc {

void ApplyDefineTransfer(const IrFunction& func, const Instruction& inst, DefineMap& defs) {
  if (inst.op != Opcode::kStore) {
    return;
  }
  defs.Replace(inst.slot, inst.loc);
}

DefineSetResult ComputeDefineSets(const IrFunction& func, BudgetMeter* meter) {
  DefineSetResult result;
  result.in.assign(func.blocks.size(), DefineMap());
  result.out.assign(func.blocks.size(), DefineMap());
  result.iterations = SolveBlocks<Direction::kBackward, Join::kMay>(
      func, result.in, result.out,
      [](DefineMap& into, const DefineMap& from) { return into.UnionWith(from); },
      [&func](const Instruction& inst, DefineMap& defs) { ApplyDefineTransfer(func, inst, defs); },
      meter);
  return result;
}

}  // namespace vc
