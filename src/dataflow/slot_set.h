// Word bitset over a function's dense ids, the lattice element of the
// dataflow kernel: memory slots for liveness and the address-taken set, store
// ids (SlotLayout) for DefineSets and double-overwrite's pending stores.
//
// Ids 0..63 live in one inline word; higher ids spill to a vector of further
// words that grows on demand, so a function with at most 64 ids never touches
// the heap. Joins, equality and counts work a word at a time.

#ifndef VALUECHECK_SRC_DATAFLOW_SLOT_SET_H_
#define VALUECHECK_SRC_DATAFLOW_SLOT_SET_H_

#include <algorithm>
#include <bit>
#include <cstdint>
#include <vector>

namespace vc {

class SlotSet {
 public:
  SlotSet() = default;
  // Reserves room for ids below `num_ids`, so later adds do not grow.
  explicit SlotSet(int num_ids) : spill_(num_ids > kBits ? (num_ids - 1) / kBits : 0, 0) {}

  bool Contains(int id) const {
    if (id < 0 || id >= Capacity()) {
      return false;
    }
    return (Word(id / kBits) >> (id % kBits)) & 1;
  }

  // Ids below zero are ignored.
  void Add(int id) {
    if (id < 0) {
      return;
    }
    if (id >= Capacity()) {
      spill_.resize(id / kBits, 0);
    }
    Word(id / kBits) |= Bit(id);
  }

  void Remove(int id) {
    if (id >= 0 && id < Capacity()) {
      Word(id / kBits) &= ~Bit(id);
    }
  }

  // Removes every id in [begin, end).
  void RemoveRange(int begin, int end) {
    end = std::min(end, Capacity());
    for (int w = begin / kBits; begin < end; ++w, begin = w * kBits) {
      Word(w) &= ~RangeMask(w, begin, end);
    }
  }

  void Clear() {
    head_ = 0;
    std::fill(spill_.begin(), spill_.end(), 0);
  }

  // this |= other. Returns true if this changed.
  bool UnionWith(const SlotSet& other) {
    if (other.spill_.size() > spill_.size()) {
      spill_.resize(other.spill_.size(), 0);
    }
    uint64_t added = other.head_ & ~head_;
    head_ |= other.head_;
    for (size_t i = 0; i < other.spill_.size(); ++i) {
      added |= other.spill_[i] & ~spill_[i];
      spill_[i] |= other.spill_[i];
    }
    return added != 0;
  }

  // this &= other. Returns true if this changed.
  bool IntersectWith(const SlotSet& other) {
    uint64_t removed = head_ & ~other.head_;
    head_ &= other.head_;
    for (size_t i = 0; i < spill_.size(); ++i) {
      const uint64_t keep = i < other.spill_.size() ? other.spill_[i] : 0;
      removed |= spill_[i] & ~keep;
      spill_[i] &= keep;
    }
    return removed != 0;
  }

  int Count() const {
    int n = std::popcount(head_);
    for (uint64_t word : spill_) {
      n += std::popcount(word);
    }
    return n;
  }

  // Calls fn(id) for every id in [begin, end), in increasing order.
  template <typename Fn>
  void ForEachInRange(int begin, int end, Fn&& fn) const {
    end = std::min(end, Capacity());
    for (int w = begin / kBits; begin < end; ++w, begin = w * kBits) {
      for (uint64_t bits = Word(w) & RangeMask(w, begin, end); bits != 0; bits &= bits - 1) {
        fn(w * kBits + std::countr_zero(bits));
      }
    }
  }

  template <typename Fn>
  void ForEach(Fn&& fn) const {
    ForEachInRange(0, Capacity(), fn);
  }

  // Sets compare by their ids; spilled words that are all zero do not count.
  friend bool operator==(const SlotSet& a, const SlotSet& b) {
    if (a.head_ != b.head_) {
      return false;
    }
    const std::vector<uint64_t>& longer = a.spill_.size() > b.spill_.size() ? a.spill_ : b.spill_;
    const size_t common = std::min(a.spill_.size(), b.spill_.size());
    return std::equal(a.spill_.begin(), a.spill_.begin() + common, b.spill_.begin()) &&
           std::all_of(longer.begin() + common, longer.end(), [](uint64_t w) { return w == 0; });
  }

 private:
  static constexpr int kBits = 64;

  static uint64_t Bit(int id) { return uint64_t{1} << (id % kBits); }

  // The bits of word `w` that fall in [begin, end); begin lies in word w.
  static uint64_t RangeMask(int w, int begin, int end) {
    const int lo = begin - w * kBits;
    const int hi = std::min(end - w * kBits, kBits);
    const uint64_t below_hi = hi == kBits ? ~uint64_t{0} : (uint64_t{1} << hi) - 1;
    return below_hi & (~uint64_t{0} << lo);
  }

  int Capacity() const { return kBits * (1 + static_cast<int>(spill_.size())); }
  uint64_t& Word(int w) { return w == 0 ? head_ : spill_[w - 1]; }
  uint64_t Word(int w) const { return w == 0 ? head_ : spill_[w - 1]; }

  uint64_t head_ = 0;
  std::vector<uint64_t> spill_;
};

}  // namespace vc

#endif  // VALUECHECK_SRC_DATAFLOW_SLOT_SET_H_
