#include "src/checkers/stale_copy.h"

#include <map>

namespace vc {

std::vector<UnusedDefCandidate> StaleCopyChecker::Check(CheckerContext& ctx) const {
  const IrFunction& func = ctx.func();
  const SlotSet& address_taken = ctx.address_taken();
  std::vector<UnusedDefCandidate> candidates;

  auto eligible = [&](SlotId id) {
    const Slot& slot = func.slots[id];
    return slot.var != nullptr && !slot.var->is_global && !slot.is_synthetic &&
           !slot.IsFieldSlot() && !address_taken.Contains(id);
  };

  struct CopyInfo {
    SlotId src = kInvalidSlot;
    SourceLoc copy_loc;
    bool stale = false;
    SourceLoc mod_loc;
  };

  for (const auto& block : func.blocks) {
    if (ctx.meter() != nullptr) {
      ctx.meter()->Charge(block->insts.size() + 1);
    }
    std::map<SlotId, CopyInfo> copies;       // keyed by the copy slot
    std::map<ValueId, SlotId> loaded_from;   // value -> slot it was loaded from
    for (const Instruction& inst : block->insts) {
      switch (inst.op) {
        case Opcode::kLoad: {
          auto it = copies.find(inst.slot);
          if (it != copies.end() && it->second.stale) {
            UnusedDefCandidate cand = ctx.SlotCandidate(inst.slot, it->second.copy_loc,
                                                        CandidateKind::kStaleCopy);
            cand.overwritten = true;
            cand.overwriter_locs.push_back(it->second.mod_loc);
            candidates.push_back(std::move(cand));
            copies.erase(it);  // one report per copy
          }
          if (inst.result != kNoValue && eligible(inst.slot)) {
            loaded_from[inst.result] = inst.slot;
          }
          break;
        }
        case Opcode::kStore: {
          // A store to the source invalidates its copies — unless it is the
          // cursor/post-increment idiom (`old = x; x++;` snapshots x on
          // purpose), which drops the pair instead of flagging it.
          for (auto it = copies.begin(); it != copies.end();) {
            if (it->second.src == inst.slot) {
              if (inst.is_increment) {
                it = copies.erase(it);
                continue;
              }
              it->second.stale = true;
              it->second.mod_loc = inst.loc;
            }
            ++it;
          }
          copies.erase(inst.slot);  // the copy itself was rewritten
          if (eligible(inst.slot) && !inst.is_increment && !inst.operands.empty()) {
            auto src = loaded_from.find(inst.operands[0]);
            if (src != loaded_from.end() && src->second != inst.slot) {
              copies[inst.slot] = CopyInfo{src->second, inst.loc, false, SourceLoc()};
            }
          }
          break;
        }
        case Opcode::kAddrSlot:
          // eligible() already excludes address-taken slots function-wide;
          // nothing tracked here can be affected.
          break;
        default:
          break;
      }
    }
  }
  return candidates;
}

}  // namespace vc
