// sim::Callback: the engine's event closure.
//
// A move-only, type-erased `void()` callable with a 56-byte inline buffer.
// Closures up to 56 bytes are stored inline, so scheduling them allocates
// nothing; larger captures fall back to one heap box. The simulator's own
// per-item closures fit: a server completion captures only the server and
// a slot index (sim::Server keeps the item's `done` in its slot table), and
// a resource grant schedules the waiter's own callback. The alloc_guard test
// (tests/alloc_guard_test.cpp) fails if warm server submit/complete cycles
// allocate. Unlike std::function it never copies, so it also accepts
// move-only captures such as std::unique_ptr.
//
// Moves and lifetime. Moving a Callback relocates its target: a trivially
// copyable inline target (the common `[this, slot]` capture) moves as a
// copy of the whole 56-byte buffer, a fixed size the compiler inlines; a
// boxed target moves its box pointer the same way; any other inline target
// is move-constructed and the source destroyed. The moved-from Callback is
// empty. The target is destroyed exactly once, by whichever Callback holds
// it last. The scheduling APIs take `Callback&&` so that a closure is
// relocated only where it is stored: an engine event's closure moves twice
// between scheduling and call (into its calendar slot, out to run), and a
// sim::Server item's `done` likewise, plus once if it waited in the FIFO.
//
// An empty std::function or null function pointer converts to an empty
// Callback, which keeps the engine's "scheduling an empty callback" check
// meaningful for callers that pass std::function objects through.
#pragma once

#include <cstddef>
#include <cstring>
#include <functional>
#include <new>
#include <type_traits>
#include <utility>

namespace flotilla::sim {

class Callback {
 public:
  static constexpr std::size_t kInlineSize = 56;

  Callback() noexcept = default;

  template <typename F, typename D = std::decay_t<F>,
            typename = std::enable_if_t<!std::is_same_v<D, Callback> &&
                                        std::is_invocable_v<D&>>>
  Callback(F&& f) {  // NOLINT(google-explicit-constructor)
    if constexpr (kNullable<D>) {
      if (!f) return;
    }
    if constexpr (kFitsInline<D>) {
      ::new (static_cast<void*>(storage_)) D(std::forward<F>(f));
      ops_ = &kInlineOps<D>;
    } else {
      D* boxed = new D(std::forward<F>(f));
      std::memcpy(storage_, &boxed, sizeof boxed);
      ops_ = &kHeapOps<D>;
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

  explicit operator bool() const noexcept { return ops_ != nullptr; }

  // Precondition: non-empty.
  void operator()() { ops_->invoke(storage_); }

 private:
  struct Ops {
    void (*invoke)(void* storage);
    // Null when copying the buffer moves the callable.
    void (*relocate)(void* dst, void* src) noexcept;
    // Null when destruction is a no-op.
    void (*destroy)(void* storage) noexcept;
  };

  template <typename D>
  static constexpr bool kNullable =
      std::is_pointer_v<D> || std::is_same_v<D, std::function<void()>>;

  template <typename D>
  static constexpr bool kFitsInline =
      sizeof(D) <= kInlineSize && alignof(D) <= alignof(std::max_align_t) &&
      std::is_nothrow_move_constructible_v<D>;

  template <typename D>
  static D* inline_target(void* storage) {
    return std::launder(static_cast<D*>(storage));
  }
  template <typename D>
  static D* heap_target(void* storage) {
    D* boxed = nullptr;
    std::memcpy(&boxed, storage, sizeof boxed);
    return boxed;
  }

  template <typename D>
  static constexpr Ops kInlineOps{
      [](void* s) { std::invoke(*inline_target<D>(s)); },
      std::is_trivially_copyable_v<D>
          ? nullptr
          : +[](void* dst, void* src) noexcept {
              D* from = inline_target<D>(src);
              ::new (dst) D(std::move(*from));
              from->~D();
            },
      std::is_trivially_destructible_v<D>
          ? nullptr
          : +[](void* s) noexcept { inline_target<D>(s)->~D(); },
  };

  template <typename D>
  static constexpr Ops kHeapOps{
      [](void* s) { std::invoke(*heap_target<D>(s)); },
      nullptr,  // the buffer holds only the box pointer
      [](void* s) noexcept { delete heap_target<D>(s); },
  };

  void take(Callback& other) noexcept {
    ops_ = other.ops_;
    if (ops_ == nullptr) return;
    if (ops_->relocate != nullptr) {
      ops_->relocate(storage_, other.storage_);
    } else {
      // The whole buffer, bytes past the callable included: a copy of a
      // compile-time size is a few register moves, not a libc call.
      std::memcpy(storage_, other.storage_, kInlineSize);
    }
    other.ops_ = nullptr;
  }

  void reset() noexcept {
    if (ops_ != nullptr && ops_->destroy != nullptr) ops_->destroy(storage_);
    ops_ = nullptr;
  }

  alignas(std::max_align_t) unsigned char storage_[kInlineSize];
  const Ops* ops_ = nullptr;
};

}  // namespace flotilla::sim
