// Per-function tables the dataflow kernel indexes by slot, built once per
// function before any analysis runs:
//
//  * Field slots. A struct variable's whole slot lists its field slots, so a
//    whole-struct load or store reaches its fields without scanning the
//    function's slot table.
//  * The store table. Every distinct (slot, loc) store gets one id, sorted by
//    slot and then by loc, so each slot's stores form one contiguous id range.
//    A DefineSet or a pending-store state is a SlotSet over these ids:
//    replacing a slot's stores clears its range and sets one bit, and reading
//    a range in id order yields the slot's store locations already sorted and
//    deduplicated. Two store instructions with the same location share an id,
//    exactly as they shared one map entry when the states were keyed by
//    location.

#ifndef VALUECHECK_SRC_DATAFLOW_SLOT_LAYOUT_H_
#define VALUECHECK_SRC_DATAFLOW_SLOT_LAYOUT_H_

#include <span>
#include <vector>

#include "src/dataflow/slot_set.h"
#include "src/ir/ir.h"

namespace vc {

using StoreId = int32_t;

// The ids [begin, end) of one slot's stores.
struct StoreRange {
  StoreId begin = 0;
  StoreId end = 0;
};

class SlotLayout {
 public:
  explicit SlotLayout(const IrFunction& func);

  const IrFunction& func() const { return func_; }
  int num_slots() const { return func_.slots.size(); }
  int num_stores() const { return static_cast<int>(store_locs_.size()); }

  // The field slots of `slot` when it is a struct variable's whole slot, in
  // slot order; empty for every other slot.
  std::span<const SlotId> FieldSlots(SlotId slot) const {
    return {field_slots_.data() + field_begin_[slot], field_slots_.data() + field_begin_[slot + 1]};
  }

  StoreRange Stores(SlotId slot) const { return {store_begin_[slot], store_begin_[slot + 1]}; }
  // The id of `store`, a kStore instruction of func().
  StoreId StoreOf(const Instruction& store) const;
  const SourceLoc& StoreLoc(StoreId id) const { return store_locs_[id]; }

  // The locations of `slot`'s stores in `stores`, sorted.
  std::vector<SourceLoc> StoreLocs(const SlotSet& stores, SlotId slot) const;

 private:
  const IrFunction& func_;
  // CSR lists indexed by slot: field_slots_[field_begin_[s], field_begin_[s+1])
  // and store ids [store_begin_[s], store_begin_[s+1]).
  std::vector<int> field_begin_;
  std::vector<SlotId> field_slots_;
  std::vector<StoreId> store_begin_;
  std::vector<SourceLoc> store_locs_;
};

}  // namespace vc

#endif  // VALUECHECK_SRC_DATAFLOW_SLOT_LAYOUT_H_
