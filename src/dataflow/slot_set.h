// Dense bitset over a function's memory slots, the lattice element of the
// liveness analysis.

#ifndef VALUECHECK_SRC_DATAFLOW_SLOT_SET_H_
#define VALUECHECK_SRC_DATAFLOW_SLOT_SET_H_

#include <cstdint>
#include <vector>

#include "src/ir/ir.h"

namespace vc {

class SlotSet {
 public:
  SlotSet() = default;
  explicit SlotSet(int num_slots) : bits_(static_cast<size_t>(num_slots), false) {}

  bool Contains(SlotId slot) const {
    return slot >= 0 && slot < static_cast<SlotId>(bits_.size()) && bits_[slot];
  }

  void Add(SlotId slot) {
    if (slot >= static_cast<SlotId>(bits_.size())) {
      bits_.resize(static_cast<size_t>(slot) + 1, false);
    }
    if (slot >= 0) {
      bits_[slot] = true;
    }
  }

  void Remove(SlotId slot) {
    if (slot >= 0 && slot < static_cast<SlotId>(bits_.size())) {
      bits_[slot] = false;
    }
  }

  // this |= other. Returns true if this changed.
  bool UnionWith(const SlotSet& other) {
    if (other.bits_.size() > bits_.size()) {
      bits_.resize(other.bits_.size(), false);
    }
    bool changed = false;
    for (size_t i = 0; i < other.bits_.size(); ++i) {
      if (other.bits_[i] && !bits_[i]) {
        bits_[i] = true;
        changed = true;
      }
    }
    return changed;
  }

  int Count() const {
    int n = 0;
    for (bool bit : bits_) {
      n += bit ? 1 : 0;
    }
    return n;
  }

  friend bool operator==(const SlotSet& a, const SlotSet& b) {
    size_t common = std::min(a.bits_.size(), b.bits_.size());
    for (size_t i = 0; i < common; ++i) {
      if (a.bits_[i] != b.bits_[i]) {
        return false;
      }
    }
    const auto& longer = a.bits_.size() > b.bits_.size() ? a.bits_ : b.bits_;
    for (size_t i = common; i < longer.size(); ++i) {
      if (longer[i]) {
        return false;
      }
    }
    return true;
  }

 private:
  std::vector<bool> bits_;
};

}  // namespace vc

#endif  // VALUECHECK_SRC_DATAFLOW_SLOT_SET_H_
