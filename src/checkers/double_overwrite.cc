#include "src/checkers/double_overwrite.h"

#include <algorithm>
#include <map>
#include <set>
#include <vector>

#include "src/dataflow/solver.h"

namespace vc {

namespace {

// Must-analysis state: per slot, the one store location that is pending
// (written, not yet read) on every path reaching this point.
using PendingMap = std::map<SlotId, SourceLoc>;

// into = intersection of the pending maps (same slot, same store). Returns
// true if `into` changed.
bool IntersectInto(PendingMap& into, const PendingMap& other) {
  bool changed = false;
  for (auto it = into.begin(); it != into.end();) {
    auto found = other.find(it->first);
    if (found == other.end() || !(found->second == it->second)) {
      it = into.erase(it);
      changed = true;
    } else {
      ++it;
    }
  }
  return changed;
}

}  // namespace

std::vector<UnusedDefCandidate> DoubleOverwriteChecker::Check(CheckerContext& ctx) const {
  const IrFunction& func = ctx.func();
  const SlotSet& address_taken = ctx.address_taken();

  // Only address-taken slots: everything else is already covered (better) by
  // the unused-def checker, and disjoint envelopes keep the two checkers'
  // findings from double-reporting one dead store.
  auto eligible = [&](SlotId id) {
    const Slot& slot = func.slots[id];
    return slot.var != nullptr && !slot.var->is_global && !slot.is_synthetic &&
           !slot.IsFieldSlot() && address_taken.Contains(id);
  };

  auto transfer = [&](const Instruction& inst, PendingMap& pending) {
    switch (inst.op) {
      case Opcode::kLoad:
        pending.erase(inst.slot);
        break;
      case Opcode::kAddrSlot:
        // The address flows somewhere; any later use could read the slot.
        pending.erase(inst.slot);
        break;
      case Opcode::kCall:
      case Opcode::kLoadInd:
      case Opcode::kStoreInd:
        // May read any slot whose address escaped.
        for (auto it = pending.begin(); it != pending.end();) {
          if (address_taken.Contains(it->first)) {
            it = pending.erase(it);
          } else {
            ++it;
          }
        }
        break;
      case Opcode::kStore:
        if (eligible(inst.slot)) {
          pending[inst.slot] = inst.loc;
        } else {
          pending.erase(inst.slot);
        }
        break;
      default:
        break;
    }
  };

  // Forward must fixpoint. The solver keeps a block whose preds are all
  // still TOP at TOP: seeding it with the empty map (BOTTOM) once made a
  // loop with recursion, an address-taken local and an if oscillate forever.
  const size_t num_blocks = func.blocks.size();
  std::vector<PendingMap> in(num_blocks);
  std::vector<PendingMap> out(num_blocks);
  SolveBlocks<Direction::kForward, Join::kMust>(func, in, out, IntersectInto, transfer,
                                                ctx.meter());

  // Replay from the converged in-states to collect the kills once: a store
  // to an eligible slot with a different store still pending kills it.
  std::set<std::pair<SourceLoc, SourceLoc>> seen;
  std::vector<std::pair<SlotId, std::pair<SourceLoc, SourceLoc>>> kills;
  Replay<Direction::kForward>(
      func, [&](const BasicBlock& block) { return in[block.id]; }, transfer,
      [&](const Instruction& inst, const PendingMap& pending) {
        if (inst.op != Opcode::kStore || !eligible(inst.slot)) {
          return;
        }
        auto it = pending.find(inst.slot);
        if (it != pending.end() && !(it->second == inst.loc) &&
            seen.insert({it->second, inst.loc}).second) {
          kills.push_back({inst.slot, {it->second, inst.loc}});
        }
      });

  std::sort(kills.begin(), kills.end(),
            [](const auto& a, const auto& b) { return a.second < b.second; });

  std::vector<UnusedDefCandidate> candidates;
  for (const auto& [slot_id, pair] : kills) {
    UnusedDefCandidate cand =
        ctx.SlotCandidate(slot_id, pair.first, CandidateKind::kDoubleOverwrite);
    cand.overwritten = true;
    cand.overwriter_locs.push_back(pair.second);
    candidates.push_back(std::move(cand));
  }
  return candidates;
}

}  // namespace vc
