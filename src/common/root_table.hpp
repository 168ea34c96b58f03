// Flat open-addressing table keyed by RootId.
//
// The acker's pending roots and the spout's replay cache each hold one
// entry per in-flight root and touch it a few times per tuple.  A
// std::unordered_map pays a heap node per root; this table keeps keys,
// occupancy and values in three parallel power-of-two arrays with linear
// probing, so inserting, finding and erasing a root allocate nothing once
// the arrays have grown to the working set.
//
//  * Any 64-bit key is valid, 0 included: occupancy is one byte per slot,
//    not a reserved key value.
//  * A key's home slot is the top bits of key · 2⁶⁴/φ (Fibonacci
//    hashing), so small sequential ids spread as well as random root ids.
//  * A probe reads only the dense key and occupancy arrays; the value is
//    touched once, at the slot found.
//  * erase() shifts the rest of the probe chain back (no tombstones), so
//    churn never lengthens a chain; erase(value) reuses the probe find()
//    already made.
//  * The arrays double past half load, which keeps chains short, and never
//    shrink; nothing is allocated before the first insert.
//
// Iteration walks slot order, which depends on the keys and on the insert
// and erase history.  rill_lint R2 treats RootTable like the std unordered
// containers: a range-for over one must sort or carry a waiver.
#pragma once

#include <bit>
#include <cstddef>
#include <cstdint>
#include <iterator>
#include <utility>
#include <vector>

#include "common/ids.hpp"

namespace rill {

template <typename V>
class RootTable {
 public:
  /// Iterates the occupied slots in slot order, as (key, value) pairs.
  class const_iterator {
   public:
    using iterator_category = std::input_iterator_tag;
    using value_type = std::pair<RootId, const V&>;
    using difference_type = std::ptrdiff_t;
    using pointer = void;
    using reference = value_type;

    const_iterator() = default;
    reference operator*() const noexcept {
      return {table_->keys_[i_], table_->values_[i_]};
    }
    const_iterator& operator++() noexcept {
      ++i_;
      skip_empty();
      return *this;
    }
    const_iterator operator++(int) noexcept {
      const_iterator was = *this;
      ++*this;
      return was;
    }
    friend bool operator==(const const_iterator& a,
                           const const_iterator& b) noexcept {
      return a.i_ == b.i_;
    }

   private:
    friend class RootTable;
    const_iterator(const RootTable* table, std::size_t i) noexcept
        : table_(table), i_(i) {
      skip_empty();
    }
    void skip_empty() noexcept {
      while (i_ < table_->used_.size() && table_->used_[i_] == 0) ++i_;
    }

    const RootTable* table_{nullptr};
    std::size_t i_{0};
  };

  RootTable() = default;
  /// A moved-from table is empty.
  RootTable(RootTable&& other) noexcept
      : keys_(std::move(other.keys_)),
        used_(std::move(other.used_)),
        values_(std::move(other.values_)),
        size_(std::exchange(other.size_, 0)) {
    other.clear_arrays();
  }
  RootTable& operator=(RootTable&& other) noexcept {
    if (this != &other) {
      keys_ = std::move(other.keys_);
      used_ = std::move(other.used_);
      values_ = std::move(other.values_);
      size_ = std::exchange(other.size_, 0);
      other.clear_arrays();
    }
    return *this;
  }

  [[nodiscard]] std::size_t size() const noexcept { return size_; }
  /// Slots per array: 0 before the first insert, else a power of two.
  [[nodiscard]] std::size_t capacity() const noexcept { return keys_.size(); }

  /// Home slot of `key` in arrays of `capacity` slots (a power of two of
  /// at least kMinCapacity).  Public so tests can build colliding keys.
  [[nodiscard]] static std::size_t home(RootId key,
                                        std::size_t capacity) noexcept {
    const int bits = std::countr_zero(capacity);
    return static_cast<std::size_t>((key * 0x9E37'79B9'7F4A'7C15ull) >>
                                    (64 - bits));
  }

  /// The value held for `key`, or nullptr.  Valid until the next insert
  /// or erase.
  [[nodiscard]] V* find(RootId key) noexcept {
    const std::size_t i = find_slot(key);
    return i == kAbsent ? nullptr : &values_[i];
  }
  [[nodiscard]] const V* find(RootId key) const noexcept {
    const std::size_t i = find_slot(key);
    return i == kAbsent ? nullptr : &values_[i];
  }
  [[nodiscard]] bool contains(RootId key) const noexcept {
    return find_slot(key) != kAbsent;
  }

  /// Map `key` to `value`, overwriting the value it already has.  Returns
  /// the stored value.  Probes once unless the arrays have to grow.
  template <typename U>
  V& insert_or_assign(RootId key, U&& value) {
    if (!keys_.empty()) {
      const std::size_t mask = keys_.size() - 1;
      std::size_t i = home(key, keys_.size());
      for (; used_[i] != 0; i = (i + 1) & mask) {
        if (keys_[i] == key) {
          values_[i] = std::forward<U>(value);
          return values_[i];
        }
      }
      if (!over_load(size_ + 1)) return fill(i, key, std::forward<U>(value));
    }
    grow();
    return fill(free_slot(key), key, std::forward<U>(value));
  }

  /// Remove the entry whose value find() returned, without probing again.
  void erase(V* value) {
    const std::size_t mask = keys_.size() - 1;
    auto hole = static_cast<std::size_t>(value - values_.data());
    // Backward shift: walk the chain after the hole; an entry may move into
    // the hole iff the hole lies on its probe path, i.e. its home is no
    // later (cyclically) than the hole.  The walk ends at the first empty
    // slot, which load ≤ 1/2 guarantees.
    for (std::size_t j = (hole + 1) & mask; used_[j] != 0;
         j = (j + 1) & mask) {
      const std::size_t home_to_j = (j - home(keys_[j], keys_.size())) & mask;
      if (home_to_j >= ((j - hole) & mask)) {
        keys_[hole] = keys_[j];
        values_[hole] = std::move(values_[j]);
        hole = j;
      }
    }
    values_[hole] = V{};  // release what the value held now, not later
    used_[hole] = 0;
    --size_;
  }

  /// Remove `key`; returns whether it was present.
  bool erase(RootId key) {
    V* value = find(key);
    if (value == nullptr) return false;
    erase(value);
    return true;
  }

  [[nodiscard]] const_iterator begin() const noexcept { return {this, 0}; }
  [[nodiscard]] const_iterator end() const noexcept {
    return {this, keys_.size()};
  }

  static constexpr std::size_t kMinCapacity = 16;

 private:
  static constexpr std::size_t kAbsent = ~std::size_t{0};

  [[nodiscard]] bool over_load(std::size_t n) const noexcept {
    return n * 2 > keys_.size();
  }

  [[nodiscard]] std::size_t find_slot(RootId key) const noexcept {
    if (keys_.empty()) return kAbsent;
    const std::size_t mask = keys_.size() - 1;
    for (std::size_t i = home(key, keys_.size()); used_[i] != 0;
         i = (i + 1) & mask) {
      if (keys_[i] == key) return i;
    }
    return kAbsent;
  }

  /// First empty slot on `key`'s probe path (the key must be absent).
  [[nodiscard]] std::size_t free_slot(RootId key) const noexcept {
    const std::size_t mask = keys_.size() - 1;
    std::size_t i = home(key, keys_.size());
    while (used_[i] != 0) i = (i + 1) & mask;
    return i;
  }

  template <typename U>
  V& fill(std::size_t i, RootId key, U&& value) {
    keys_[i] = key;
    values_[i] = std::forward<U>(value);
    used_[i] = 1;
    ++size_;
    return values_[i];
  }

  void grow() {
    std::vector<RootId> old_keys = std::move(keys_);
    std::vector<std::uint8_t> old_used = std::move(used_);
    std::vector<V> old_values = std::move(values_);
    const std::size_t capacity =
        old_keys.empty() ? kMinCapacity : old_keys.size() * 2;
    keys_.assign(capacity, 0);
    used_.assign(capacity, 0);
    values_ = std::vector<V>(capacity);
    for (std::size_t i = 0; i < old_keys.size(); ++i) {
      if (old_used[i] == 0) continue;
      const std::size_t j = free_slot(old_keys[i]);
      keys_[j] = old_keys[i];
      values_[j] = std::move(old_values[i]);
      used_[j] = 1;
    }
  }

  void clear_arrays() noexcept {
    keys_.clear();
    used_.clear();
    values_.clear();
  }

  std::vector<RootId> keys_;
  std::vector<std::uint8_t> used_;
  std::vector<V> values_;
  std::size_t size_{0};
};

}  // namespace rill
