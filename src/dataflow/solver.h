// The one block fixpoint solver and the one replay behind every per-function
// fact in the detect layer (paper Fig. 4: solve, then replay each block from
// its solved state). An analysis is a direction (kBackward: reverse block
// order, joining successors; kForward: block order, joining predecessors), a
// join `join(into, from)` that reports change (union for kMay; intersection
// for kMust, where a block with no state yet is TOP) and a per-instruction
// `transfer(inst, state)`. Every visit charges the meter `insts + 1`.
// DESIGN.md §3 states the update, TOP and replay rules in full.

#ifndef VALUECHECK_SRC_DATAFLOW_SOLVER_H_
#define VALUECHECK_SRC_DATAFLOW_SOLVER_H_

#include <vector>

#include "src/dataflow/slot_set.h"
#include "src/ir/ir.h"
#include "src/support/fault.h"

namespace vc {

enum class Direction { kForward, kBackward };
enum class Join { kMay, kMust };

// Walks `block` in direction kDir from `state`, calling visit(inst, state)
// before each transfer: a backward visitor sees the state just after `inst`
// in program order, a forward visitor the state just before it.
template <Direction kDir, typename State, typename TransferFn, typename VisitFn>
void WalkBlock(const BasicBlock& block, State& state, TransferFn&& transfer, VisitFn&& visit) {
  const size_t n = block.insts.size();
  for (size_t k = 0; k < n; ++k) {
    const Instruction& inst = block.insts[kDir == Direction::kBackward ? n - 1 - k : k];
    visit(inst, static_cast<const State&>(state));
    transfer(inst, state);
  }
}

// Solves to the fixpoint and returns the number of passes. `entry` and `exit`
// (indexed by block id; entry = before the first instruction, exit = after
// the last) hold the initial states on entry: bottom for kMay, optionally
// seeded at a boundary. Each visit joins its fresh states into the stored
// ones, and a pass repeats while a join changed one. kMay stores both sides;
// kMust only the far side, since a boundary joined over still-TOP neighbours
// is no fact yet, and joins its boundaries once at the end. A kMust block
// whose neighbours all are still TOP is skipped for the pass; one without
// neighbours starts empty. On return both sides hold the fixpoint; a block
// that stayed TOP has empty states.
template <Direction kDir, Join kJoin, typename State, typename JoinFn, typename TransferFn>
int SolveBlocks(const IrFunction& func, std::vector<State>& entry, std::vector<State>& exit,
                JoinFn&& join, TransferFn&& transfer, BudgetMeter* meter) {
  constexpr bool kBackward = kDir == Direction::kBackward;
  // The near side faces the neighbours the join reads; the transfer carries
  // it to the far side, which the neighbours read in turn.
  std::vector<State>& near = kBackward ? exit : entry;
  std::vector<State>& far = kBackward ? entry : exit;
  auto neighbours = [](const BasicBlock& block) -> const std::vector<BlockId>& {
    return kBackward ? block.succs : block.preds;
  };
  const size_t num_blocks = func.blocks.size();
  // The blocks that have a state; every block counts as reached for kMay.
  SlotSet reached;
  auto has_state = [&reached](BlockId b) { return kJoin == Join::kMay || reached.Contains(b); };
  auto must_boundary = [&](const BasicBlock& block, State& into) {
    bool any = false;
    for (BlockId nb : neighbours(block)) {
      if (!has_state(nb)) {
        continue;
      }
      if (any) {
        join(into, far[nb]);
      } else {
        into = far[nb];
      }
      any = true;
    }
    return any;
  };

  // One scratch state for every visit: assigning into it reuses its storage,
  // so a pass allocates nothing once each block has a state.
  State state;
  int iterations = 0;
  for (bool changed = true; changed;) {
    changed = false;
    ++iterations;
    for (size_t k = 0; k < num_blocks; ++k) {
      const BasicBlock& block = *func.blocks[kBackward ? num_blocks - 1 - k : k];
      if (meter != nullptr) {
        meter->Charge(block.insts.size() + 1);
      }
      if constexpr (kJoin == Join::kMay) {
        for (BlockId nb : neighbours(block)) {
          changed |= join(near[block.id], far[nb]);
        }
        state = near[block.id];
      } else if (!must_boundary(block, state)) {
        if (!neighbours(block).empty()) {
          continue;  // every neighbour is still TOP
        }
        state = State();
      }
      WalkBlock<kDir>(block, state, transfer, [](const Instruction&, const State&) {});
      if (has_state(block.id)) {
        changed |= join(far[block.id], state);
      } else {
        far[block.id] = state;
        reached.Add(block.id);
        changed = true;
      }
    }
  }
  if constexpr (kJoin == Join::kMust) {
    for (const auto& block : func.blocks) {
      near[block->id] = State();
      must_boundary(*block, near[block->id]);
    }
  }
  return iterations;
}

// The one replay: walks every block, in block order, from `boundary(block)`,
// its solved boundary state (exit for kBackward, entry for kForward; a
// product of several analyses' states replays them in lockstep), visiting as
// WalkBlock does. A non-null `meter` is charged `insts + 1` per block.
template <Direction kDir, typename BoundaryFn, typename TransferFn, typename VisitFn>
void Replay(const IrFunction& func, BoundaryFn&& boundary, TransferFn&& transfer,
            VisitFn&& visit, BudgetMeter* meter = nullptr) {
  for (const auto& block : func.blocks) {
    if (meter != nullptr) {
      meter->Charge(block->insts.size() + 1);
    }
    auto state = boundary(*block);
    WalkBlock<kDir>(*block, state, transfer, visit);
  }
}

}  // namespace vc

#endif  // VALUECHECK_SRC_DATAFLOW_SOLVER_H_
