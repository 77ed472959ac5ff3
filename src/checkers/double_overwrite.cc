#include "src/checkers/double_overwrite.h"

#include <algorithm>
#include <set>
#include <utility>

#include "src/dataflow/solver.h"

namespace vc {

PendingStores::PendingStores(const SlotLayout& layout, const SlotSet& address_taken)
    : layout_(layout), tracked_(layout.num_slots()) {
  // Only address-taken slots: everything else is already covered (better) by
  // the unused-def checker, and disjoint envelopes keep the two checkers'
  // findings from double-reporting one dead store.
  const IrFunction& func = layout.func();
  for (SlotId id = 0; id < layout.num_slots(); ++id) {
    const Slot& slot = func.slots[id];
    if (slot.var != nullptr && !slot.var->is_global && !slot.is_synthetic &&
        !slot.IsFieldSlot() && address_taken.Contains(id)) {
      tracked_.Add(id);
    }
  }
}

void PendingStores::Transfer(const Instruction& inst, SlotSet& pending) const {
  switch (inst.op) {
    case Opcode::kLoad:
    case Opcode::kAddrSlot: {
      // A read, or an address that flows somewhere any later use could
      // read the slot through.
      const StoreRange range = layout_.Stores(inst.slot);
      pending.RemoveRange(range.begin, range.end);
      break;
    }
    case Opcode::kCall:
    case Opcode::kLoadInd:
    case Opcode::kStoreInd:
      // May read any slot whose address escaped, and every tracked slot's
      // address did.
      pending.Clear();
      break;
    case Opcode::kStore:
      if (Tracked(inst.slot)) {
        const StoreRange range = layout_.Stores(inst.slot);
        pending.RemoveRange(range.begin, range.end);
        pending.Add(layout_.StoreOf(inst));
      }
      break;
    default:
      break;
  }
}

int PendingStores::Solve(std::vector<SlotSet>& in, std::vector<SlotSet>& out,
                         BudgetMeter* meter) const {
  // The solver keeps a block whose preds are all still TOP at TOP: seeding
  // it with the empty set (BOTTOM) once made a loop with recursion, an
  // address-taken local and an if oscillate forever.
  const size_t num_blocks = layout_.func().blocks.size();
  in.assign(num_blocks, SlotSet());
  out.assign(num_blocks, SlotSet());
  auto join = [](SlotSet& into, const SlotSet& from) { return into.IntersectWith(from); };
  if (!TracksAny()) {
    // No store can become pending, so every state stays empty: the passes
    // (and their charges) are the same without walking the instructions.
    return SolveBlocks<Direction::kForward, Join::kMust>(
        layout_.func(), in, out, join, [](const Instruction&, SlotSet&) {}, meter);
  }
  return SolveBlocks<Direction::kForward, Join::kMust>(
      layout_.func(), in, out, join,
      [this](const Instruction& inst, SlotSet& pending) { Transfer(inst, pending); }, meter);
}

std::vector<UnusedDefCandidate> DoubleOverwriteChecker::Check(CheckerContext& ctx) const {
  const IrFunction& func = ctx.func();
  const SlotLayout& layout = ctx.layout();
  const PendingStores analysis(layout, ctx.address_taken());
  std::vector<SlotSet> in;
  std::vector<SlotSet> out;
  analysis.Solve(in, out, ctx.meter());
  if (!analysis.TracksAny()) {
    return {};  // nothing was ever pending, so the replay would find no kill
  }

  // Replay from the converged in-states to collect the kills once: a store
  // to a tracked slot with a different store still pending kills it. Kills
  // are deduplicated by their location pair.
  std::set<std::pair<SourceLoc, SourceLoc>> seen;
  std::vector<std::pair<SlotId, std::pair<SourceLoc, SourceLoc>>> kills;
  Replay<Direction::kForward>(
      func, [&](const BasicBlock& block) { return in[block.id]; },
      [&](const Instruction& inst, SlotSet& pending) { analysis.Transfer(inst, pending); },
      [&](const Instruction& inst, const SlotSet& pending) {
        if (inst.op != Opcode::kStore || !analysis.Tracked(inst.slot)) {
          return;
        }
        const StoreRange range = layout.Stores(inst.slot);
        pending.ForEachInRange(range.begin, range.end, [&](StoreId killed) {
          const SourceLoc& killed_loc = layout.StoreLoc(killed);
          if (killed_loc != inst.loc && seen.insert({killed_loc, inst.loc}).second) {
            kills.push_back({inst.slot, {killed_loc, inst.loc}});
          }
        });
      },
      ctx.meter());

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
