#include "src/checkers/dead_global_store.h"

#include <map>

namespace vc {

std::vector<UnusedDefCandidate> DeadGlobalStoreChecker::Check(CheckerContext& ctx) const {
  const IrFunction& func = ctx.func();
  std::vector<UnusedDefCandidate> candidates;

  auto eligible = [&](SlotId id) {
    const Slot& slot = func.slots[id];
    return slot.var != nullptr && slot.var->is_global && !slot.is_synthetic &&
           !slot.IsFieldSlot();
  };

  for (const auto& block : func.blocks) {
    if (ctx.meter() != nullptr) {
      ctx.meter()->Charge(block->insts.size() + 1);
    }
    // Pending global stores: written in this block, not yet observable.
    std::map<SlotId, const Instruction*> pending;
    for (const Instruction& inst : block->insts) {
      switch (inst.op) {
        case Opcode::kLoad:
        case Opcode::kAddrSlot:
          pending.erase(inst.slot);
          break;
        case Opcode::kCall:
        case Opcode::kLoadInd:
        case Opcode::kStoreInd:
          // A call (or indirect memory op) may read any global.
          pending.clear();
          break;
        case Opcode::kStore: {
          if (!eligible(inst.slot)) {
            pending.erase(inst.slot);
            break;
          }
          auto it = pending.find(inst.slot);
          if (it != pending.end() && !(it->second->loc == inst.loc)) {
            UnusedDefCandidate cand = ctx.SlotCandidate(inst.slot, it->second->loc,
                                                        CandidateKind::kDeadGlobalStore);
            cand.overwritten = true;
            cand.overwriter_locs.push_back(inst.loc);
            candidates.push_back(std::move(cand));
          }
          pending[inst.slot] = &inst;
          break;
        }
        default:
          break;
      }
    }
    // Stores still pending at the block's end survive to a point another
    // function could observe — not dead, not reported.
  }
  return candidates;
}

}  // namespace vc
