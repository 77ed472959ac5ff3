#include "src/core/detector.h"

#include "src/checkers/driver.h"
#include "src/checkers/registry.h"
#include "src/dataflow/solver.h"

namespace vc {

namespace {

const char* kKindNames[] = {"overwritten-def",  "unused-retval",    "unused-param",
                            "overwritten-param", "plain-unused",    "double-overwrite",
                            "dead-global-store", "out-param-unused", "stale-copy"};
const char* kPruneNames[] = {"none", "config-dependency", "cursor", "unused-hint",
                             "peer-definition", "stale-code"};

}  // namespace

const char* CandidateKindName(CandidateKind kind) {
  return kKindNames[static_cast<int>(kind)];
}

const char* PruneReasonName(PruneReason reason) { return kPruneNames[static_cast<int>(reason)]; }

std::vector<UnusedDefCandidate> DetectInFunction(CheckerContext& ctx) {
  // Liveness first, then define sets: the charge order budget quarantines
  // have always been computed with.
  const LivenessResult& liveness = ctx.liveness();
  const DefineSetResult& defines = ctx.defines();
  const SlotLayout& layout = ctx.layout();
  const IrFunction& func = ctx.func();
  std::vector<UnusedDefCandidate> candidates;

  // Replay both analyses in lockstep from each block's out-state, checking
  // stores against the live set before applying their own transfer (the
  // state "after" the store in program order).
  struct Point {
    SlotSet live;
    DefineMap defs;
  };
  Replay<Direction::kBackward>(
      func,
      [&](const BasicBlock& block) {
        return Point{liveness.live_out[block.id], defines.out[block.id]};
      },
      [&layout](const Instruction& inst, Point& point) {
        ApplyLivenessTransfer(layout, inst, point.live);
        ApplyDefineTransfer(layout, inst, point.defs);
      },
      [&](const Instruction& inst, const Point& point) {
        if (inst.op != Opcode::kStore || point.live.Contains(inst.slot)) {
          return;
        }
        const Slot& slot = func.slots[inst.slot];
        if ((slot.var != nullptr && slot.var->is_global) ||     // out of scope (§3.1)
            (slot.is_synthetic && !inst.is_synthetic_store) ||  // lowering fallback temp
            liveness.address_taken.Contains(inst.slot)) {       // may be read via a pointer
          return;
        }
        UnusedDefCandidate cand = ctx.SlotCandidate(inst.slot, inst.loc);
        cand.origin_callee = inst.origin_callee;
        if (inst.origin_callee != nullptr) {
          cand.callee_name = inst.origin_callee->name;
        }
        cand.is_increment = inst.is_increment;
        cand.increment_amount = inst.increment_amount;
        cand.overwriter_locs = layout.StoreLocs(point.defs, inst.slot);
        cand.overwritten = !cand.overwriter_locs.empty();
        candidates.push_back(std::move(cand));
      },
      ctx.meter());

  // Unused parameters: not live at function entry means the argument value is
  // never read (an implicit unused definition at the call boundary).
  if (func.Entry() != nullptr) {
    const SlotSet& entry_live = liveness.live_in[func.Entry()->id];
    const DefineMap& entry_defs = defines.in[func.Entry()->id];
    for (SlotId param_slot : func.param_slots) {
      if (entry_live.Contains(param_slot) || liveness.address_taken.Contains(param_slot)) {
        continue;
      }
      UnusedDefCandidate cand = ctx.SlotCandidate(param_slot, func.slots[param_slot].var->loc);
      cand.is_param = true;
      cand.overwriter_locs = layout.StoreLocs(entry_defs, param_slot);
      cand.overwritten = !cand.overwriter_locs.empty();
      candidates.push_back(std::move(cand));
    }
  }

  return candidates;
}

std::vector<UnusedDefCandidate> DetectAll(const Project& project) {
  return RunCheckers(project, {CheckerRegistry::Global().Find("unused-def")}, ProjectTraits(),
                     /*jobs=*/1, /*budget=*/nullptr, /*fault=*/nullptr, /*isolate=*/false)
      .candidates;
}

}  // namespace vc
