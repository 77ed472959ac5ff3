#include "src/checkers/out_param.h"

#include <map>
#include <set>

#include "src/dataflow/solver.h"

namespace vc {

std::vector<UnusedDefCandidate> OutParamChecker::Check(CheckerContext& ctx) const {
  const IrFunction& func = ctx.func();
  const LivenessResult& liveness = ctx.liveness();
  std::vector<UnusedDefCandidate> candidates;

  // Prepass: which value is the address of which slot, and how many times
  // each slot's address is taken. A slot whose address is taken more than
  // once may be read later through a saved pointer — out of the envelope.
  std::map<ValueId, SlotId> addr_of;
  std::map<SlotId, int> addr_count;
  for (const auto& block : func.blocks) {
    for (const Instruction& inst : block->insts) {
      if (inst.op == Opcode::kAddrSlot && inst.result != kNoValue) {
        addr_of[inst.result] = inst.slot;
        ++addr_count[inst.slot];
      }
    }
  }
  if (addr_of.empty()) {
    return candidates;
  }

  auto eligible = [&](SlotId id) {
    const Slot& slot = func.slots[id];
    return slot.var != nullptr && !slot.var->is_global && !slot.is_synthetic &&
           !slot.IsFieldSlot() && addr_count[id] == 1;
  };

  // Backward replay from each block's live-out: at a direct call taking
  // &slot, the live set holds exactly the slots read on some path after the
  // call. Not live there means the callee's write is never consumed.
  Replay<Direction::kBackward>(
      func, [&](const BasicBlock& block) { return liveness.live_out[block.id]; },
      [&layout = ctx.layout()](const Instruction& inst, SlotSet& live) {
        ApplyLivenessTransfer(layout, inst, live);
      },
      [&](const Instruction& inst, const SlotSet& live) {
        if (inst.op != Opcode::kCall || inst.callee == nullptr) {
          return;
        }
        std::set<SlotId> out_args;
        for (ValueId v : inst.operands) {
          auto it = addr_of.find(v);
          if (it != addr_of.end()) {
            out_args.insert(it->second);
          }
        }
        for (SlotId x : out_args) {
          if (!eligible(x) || live.Contains(x)) {
            continue;
          }
          UnusedDefCandidate cand = ctx.SlotCandidate(x, inst.loc, CandidateKind::kOutParamUnused);
          cand.origin_callee = inst.callee;
          cand.callee_name = inst.callee->name;
          candidates.push_back(std::move(cand));
        }
      },
      ctx.meter());
  return candidates;
}

}  // namespace vc
