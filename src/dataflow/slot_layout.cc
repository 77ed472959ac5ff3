#include "src/dataflow/slot_layout.h"

#include <algorithm>
#include <utility>

namespace vc {

namespace {

// Turns per-slot counts into CSR offsets: begin[s] = sum of counts below s.
template <typename T>
std::vector<T> Offsets(const std::vector<T>& counts) {
  std::vector<T> begin(counts.size() + 1, 0);
  for (size_t s = 0; s < counts.size(); ++s) {
    begin[s + 1] = begin[s] + counts[s];
  }
  return begin;
}

}  // namespace

SlotLayout::SlotLayout(const IrFunction& func) : func_(func) {
  const int num_slots = func.slots.size();

  // Each field slot joins its variable's whole slot, if that slot is a
  // struct variable; slots are visited in order, so each list is sorted.
  std::vector<std::pair<SlotId, SlotId>> fields;  // (whole slot, field slot)
  for (SlotId s = 0; s < num_slots; ++s) {
    const Slot& slot = func.slots[s];
    if (slot.var == nullptr || !slot.IsFieldSlot()) {
      continue;
    }
    const SlotId whole = func.slots.FindVar(slot.var);
    if (whole != kInvalidSlot && slot.var->type != nullptr && slot.var->type->IsStruct()) {
      fields.push_back({whole, s});
    }
  }
  std::stable_sort(fields.begin(), fields.end(),
                   [](const auto& a, const auto& b) { return a.first < b.first; });
  std::vector<int> field_counts(num_slots, 0);
  for (const auto& [whole, field] : fields) {
    ++field_counts[whole];
    field_slots_.push_back(field);
  }
  field_begin_ = Offsets(field_counts);

  std::vector<std::pair<SlotId, SourceLoc>> stores;
  for (const auto& block : func.blocks) {
    for (const Instruction& inst : block->insts) {
      if (inst.op == Opcode::kStore) {
        stores.push_back({inst.slot, inst.loc});
      }
    }
  }
  std::sort(stores.begin(), stores.end());
  stores.erase(std::unique(stores.begin(), stores.end()), stores.end());
  std::vector<StoreId> store_counts(num_slots, 0);
  store_locs_.reserve(stores.size());
  for (const auto& [slot, loc] : stores) {
    ++store_counts[slot];
    store_locs_.push_back(loc);
  }
  store_begin_ = Offsets(store_counts);
}

StoreId SlotLayout::StoreOf(const Instruction& store) const {
  const StoreRange range = Stores(store.slot);
  return static_cast<StoreId>(
      std::lower_bound(store_locs_.begin() + range.begin, store_locs_.begin() + range.end,
                       store.loc) -
      store_locs_.begin());
}

std::vector<SourceLoc> SlotLayout::StoreLocs(const SlotSet& stores, SlotId slot) const {
  std::vector<SourceLoc> locs;
  const StoreRange range = Stores(slot);
  stores.ForEachInRange(range.begin, range.end,
                        [&](StoreId id) { locs.push_back(store_locs_[id]); });
  return locs;
}

}  // namespace vc
