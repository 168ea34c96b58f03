// Move-only `void()` callable with inline storage.
//
// Every scheduled engine event and every message in flight on the network
// holds one of these.  The common captures — an executor pointer plus a
// copy of an Event — are about 100 B, so std::function would heap-allocate
// on every tuple hop.  A Callback keeps any capture of up to kInlineBytes
// in the object itself and falls back to one heap allocation only for
// larger (or throwing-move) captures.  Being move-only, it also accepts
// move-only captures and never copies the one it holds.
#pragma once

#include <cstddef>
#include <new>
#include <type_traits>
#include <utility>

namespace rill::sim {

class Callback {
 public:
  /// Fits the executor's service-completion capture (this + Event + epoch,
  /// 104 B) and the network delivery capture (Executor& + Event, 96 B).
  static constexpr std::size_t kInlineBytes = 112;

  Callback() noexcept = default;

  template <typename F, typename Fn = std::decay_t<F>>
    requires(!std::is_same_v<Fn, Callback> && std::is_invocable_r_v<void, Fn&>)
  Callback(F&& f) {
    if constexpr (fits_inline<Fn>()) {
      ::new (static_cast<void*>(buf_)) Fn(std::forward<F>(f));
      ops_ = &kInlineOps<Fn>;
    } else {
      ::new (static_cast<void*>(buf_)) Fn*(new Fn(std::forward<F>(f)));
      ops_ = &kHeapOps<Fn>;
    }
  }

  Callback(Callback&& other) noexcept { take(other); }
  Callback& operator=(Callback&& other) noexcept {
    if (this != &other) {
      reset();
      take(other);
    }
    return *this;
  }
  Callback(const Callback&) = delete;
  Callback& operator=(const Callback&) = delete;
  ~Callback() { reset(); }

  /// Invokes the held callable; undefined when empty.
  void operator()() { ops_->invoke(buf_); }

  /// True when a callable of type F is stored without a heap allocation.
  template <typename F>
  static constexpr bool fits_inline() noexcept {
    return sizeof(F) <= kInlineBytes &&
           alignof(F) <= alignof(std::max_align_t) &&
           std::is_nothrow_move_constructible_v<F>;
  }

 private:
  struct Ops {
    void (*invoke)(void* self);
    /// Move-constructs the callable at `dst` from `src`, then destroys `src`.
    void (*relocate)(void* dst, void* src) noexcept;
    void (*destroy)(void* self) noexcept;
  };

  /// The object of type T that placement-new created in a buffer.
  template <typename T>
  static T* held(void* buf) noexcept {
    return std::launder(static_cast<T*>(buf));
  }

  template <typename Fn>
  static constexpr Ops kInlineOps{
      [](void* self) { (*held<Fn>(self))(); },
      [](void* dst, void* src) noexcept {
        Fn* from = held<Fn>(src);
        ::new (dst) Fn(std::move(*from));
        from->~Fn();
      },
      [](void* self) noexcept { held<Fn>(self)->~Fn(); }};

  template <typename Fn>
  static constexpr Ops kHeapOps{
      [](void* self) { (**held<Fn*>(self))(); },
      [](void* dst, void* src) noexcept { ::new (dst) Fn*(*held<Fn*>(src)); },
      [](void* self) noexcept { delete *held<Fn*>(self); }};

  /// Destroys the held callable, and with it its captures.
  void reset() noexcept {
    if (ops_ != nullptr) {
      ops_->destroy(buf_);
      ops_ = nullptr;
    }
  }

  void take(Callback& other) noexcept {
    if (other.ops_ != nullptr) {
      other.ops_->relocate(buf_, other.buf_);
      ops_ = other.ops_;
      other.ops_ = nullptr;
    }
  }

  alignas(std::max_align_t) unsigned char buf_[kInlineBytes];
  const Ops* ops_{nullptr};
};

}  // namespace rill::sim
