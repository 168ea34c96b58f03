// Growable ring-buffer deque for trivially copyable values.
//
// Executor input queues, transport buffers and holding pens, and the
// spout's backlog, push at the back and pop at the front; releasing a held
// buffer pushes at the front.  A std::deque allocates its map and a first
// chunk when it is constructed and another chunk every few elements.  This
// ring allocates nothing until the first push and then only when it is
// full: it copies into a power-of-two array twice the size, with the head
// at slot 0.  It never shrinks; clear() and pop_front() keep the array.
#pragma once

#include <cstddef>
#include <iterator>
#include <memory>
#include <type_traits>
#include <utility>

namespace rill {

template <typename T>
class RingQueue {
  static_assert(std::is_trivially_copyable_v<T>,
                "vacated slots keep stale values, which must own nothing");

 public:
  /// Forward iterator over the elements, front to back.
  template <bool Const>
  class basic_iterator {
    using Ring = std::conditional_t<Const, const RingQueue, RingQueue>;

   public:
    using iterator_category = std::forward_iterator_tag;
    using value_type = T;
    using difference_type = std::ptrdiff_t;
    using pointer = std::conditional_t<Const, const T*, T*>;
    using reference = std::conditional_t<Const, const T&, T&>;

    basic_iterator() = default;
    reference operator*() const noexcept { return (*ring_)[i_]; }
    pointer operator->() const noexcept { return &(*ring_)[i_]; }
    basic_iterator& operator++() noexcept {
      ++i_;
      return *this;
    }
    basic_iterator operator++(int) noexcept {
      basic_iterator was = *this;
      ++i_;
      return was;
    }
    friend bool operator==(const basic_iterator& a,
                           const basic_iterator& b) noexcept {
      return a.i_ == b.i_;
    }

   private:
    friend class RingQueue;
    basic_iterator(Ring* ring, std::size_t i) noexcept : ring_(ring), i_(i) {}

    Ring* ring_{nullptr};
    std::size_t i_{0};
  };
  using iterator = basic_iterator<false>;
  using const_iterator = basic_iterator<true>;

  RingQueue() = default;
  /// A moved-from queue is empty and holds no array.
  RingQueue(RingQueue&& other) noexcept
      : buf_(std::move(other.buf_)),
        capacity_(std::exchange(other.capacity_, 0)),
        head_(std::exchange(other.head_, 0)),
        size_(std::exchange(other.size_, 0)) {}
  RingQueue& operator=(RingQueue&& other) noexcept {
    if (this != &other) {
      buf_ = std::move(other.buf_);
      capacity_ = std::exchange(other.capacity_, 0);
      head_ = std::exchange(other.head_, 0);
      size_ = std::exchange(other.size_, 0);
    }
    return *this;
  }

  [[nodiscard]] std::size_t size() const noexcept { return size_; }
  [[nodiscard]] bool empty() const noexcept { return size_ == 0; }
  /// Slots in the array: 0 before the first push, else a power of two.
  [[nodiscard]] std::size_t capacity() const noexcept { return capacity_; }

  /// The i-th element from the front (i < size()).
  [[nodiscard]] T& operator[](std::size_t i) noexcept {
    return buf_[(head_ + i) & (capacity_ - 1)];
  }
  [[nodiscard]] const T& operator[](std::size_t i) const noexcept {
    return buf_[(head_ + i) & (capacity_ - 1)];
  }
  [[nodiscard]] T& front() noexcept { return buf_[head_]; }
  [[nodiscard]] const T& front() const noexcept { return buf_[head_]; }

  void push_back(const T& value) {
    if (size_ == capacity_) grow();
    buf_[(head_ + size_) & (capacity_ - 1)] = value;
    ++size_;
  }
  void push_front(const T& value) {
    if (size_ == capacity_) grow();
    head_ = (head_ + capacity_ - 1) & (capacity_ - 1);
    buf_[head_] = value;
    ++size_;
  }
  void pop_front() noexcept {
    head_ = (head_ + 1) & (capacity_ - 1);
    --size_;
  }
  /// Drop every element; the array keeps its capacity.
  void clear() noexcept {
    head_ = 0;
    size_ = 0;
  }

  [[nodiscard]] iterator begin() noexcept { return {this, 0}; }
  [[nodiscard]] iterator end() noexcept { return {this, size_}; }
  [[nodiscard]] const_iterator begin() const noexcept { return {this, 0}; }
  [[nodiscard]] const_iterator end() const noexcept { return {this, size_}; }

  static constexpr std::size_t kMinCapacity = 8;

 private:
  void grow() {
    const std::size_t capacity =
        capacity_ == 0 ? kMinCapacity : capacity_ * 2;
    auto next = std::make_unique<T[]>(capacity);
    for (std::size_t i = 0; i < size_; ++i) next[i] = (*this)[i];
    buf_ = std::move(next);
    capacity_ = capacity;
    head_ = 0;
  }

  std::unique_ptr<T[]> buf_;
  std::size_t capacity_{0};
  std::size_t head_{0};
  std::size_t size_{0};
};

}  // namespace rill
