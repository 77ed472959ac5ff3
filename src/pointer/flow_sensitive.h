// Flow-sensitive points-to analysis — the alternative the paper weighs
// against Andersen's and rejects on scalability grounds (§4.1, citing Hind &
// Pioli's finding that the precision difference barely matters for this use).
// This implementation exists to *reproduce that design comparison*: the
// ablation bench runs both analyses over the same functions and reports
// points-to set sizes, fix-point costs, and whether any detection outcome
// changes.
//
// The analysis propagates per-slot points-to maps through the CFG (join =
// union at block entries) and applies strong updates on direct stores —
// the precision Andersen's flow-insensitive solution gives up.

#ifndef VALUECHECK_SRC_POINTER_FLOW_SENSITIVE_H_
#define VALUECHECK_SRC_POINTER_FLOW_SENSITIVE_H_

#include <map>
#include <set>
#include <vector>

#include "src/ir/ir.h"

namespace vc {

class FlowSensitivePointsTo {
 public:
  explicit FlowSensitivePointsTo(const IrFunction& func);

  // Slots that `value` may point to at its definition point.
  const std::set<SlotId>& SlotsPointedBy(ValueId value) const;
  const std::set<const FunctionDecl*>& FunctionsPointedBy(ValueId value) const;
  bool PointsToUnknown(ValueId value) const;

  // True when some pointer value may point to `slot` anywhere.
  bool SlotIsPointee(SlotId slot) const;

  int iterations() const { return iterations_; }

  // Sum of per-value pointee-set sizes: the precision metric the ablation
  // bench compares against Andersen's (smaller = more precise).
  size_t TotalPointsToSize() const;

 private:
  struct NodeState {
    std::set<SlotId> slots;
    std::set<const FunctionDecl*> funcs;
    bool unknown = false;

    bool MergeFrom(const NodeState& other);
  };
  // Pointer contents of slots at a program point.
  using SlotMap = std::map<SlotId, NodeState>;

  static bool MergeMap(SlotMap& into, const SlotMap& from);
  void Transfer(const IrFunction& func, const Instruction& inst, SlotMap& state);

  std::vector<NodeState> values_;  // indexed by ValueId, at definition point
  std::vector<SlotMap> block_in_;
  std::set<SlotId> pointee_slots_;
  int iterations_ = 0;

  static const std::set<SlotId> kEmptySlots;
  static const std::set<const FunctionDecl*> kEmptyFuncs;
};

}  // namespace vc

#endif  // VALUECHECK_SRC_POINTER_FLOW_SENSITIVE_H_
