// steelnet::sim -- a `void()` callable built and fired in fixed inline
// storage.
//
// The event kernel's replacement for std::function<void()>: every capture
// set is constructed inside the object itself (emplace), called where it
// lies and destroyed there, so scheduling an event never touches the heap
// and a closure is never moved after it is built. Oversized captures are
// a compile error (static_assert), not a silent heap fallback -- the
// kernel's allocation-free guarantee is enforced at build time. See
// DESIGN.md "Event kernel" for the capture budget and how it was sized.
#pragma once

#include <cstddef>
#include <new>
#include <type_traits>
#include <utility>

namespace steelnet::sim {

/// Inline capture budget of the event kernel, in bytes. Sized to fit the
/// largest closure the kernel itself schedules: a frame-delivery
/// continuation capturing a net::Frame (~80 bytes) plus routing metadata.
/// Two cache lines.
inline constexpr std::size_t kEventCallbackCapacity = 128;

/// A `void()` callable with `Capacity` bytes of inline storage.
///
/// Unlike std::function there is no small-buffer *optimization* -- inline
/// storage is the only storage. Emplacing a callable whose size or
/// alignment exceeds the budget fails to compile. The object is neither
/// copyable nor movable: a callable lives where it was emplaced until
/// reset() destroys it, which is what lets the event queue fire it in its
/// slab slot.
template <std::size_t Capacity,
          std::size_t Align = alignof(std::max_align_t)>
class InplaceFunction {
 public:
  InplaceFunction() = default;
  InplaceFunction(const InplaceFunction&) = delete;
  InplaceFunction& operator=(const InplaceFunction&) = delete;
  ~InplaceFunction() { reset(); }

  /// Destroys the current target, if any, and constructs `f`'s decayed
  /// type in the inline storage. If that constructor throws, the object
  /// is left empty.
  template <typename F>
  void emplace(F&& f) {
    using D = std::decay_t<F>;
    static_assert(std::is_invocable_r_v<void, D&>,
                  "InplaceFunction target must be callable as void()");
    static_assert(sizeof(D) <= Capacity,
                  "callback captures exceed the event kernel's inline "
                  "budget (kEventCallbackCapacity); shrink the capture set "
                  "or raise the budget in inplace_function.hpp");
    static_assert(alignof(D) <= Align,
                  "callback captures over-aligned for the event kernel");
    reset();
    ::new (static_cast<void*>(storage_)) D(std::forward<F>(f));
    ops_ = &kOpsFor<D>;
  }

  void operator()() { ops_->invoke(storage_); }

  void reset() {
    if (ops_ != nullptr) {
      ops_->destroy(storage_);
      ops_ = nullptr;
    }
  }

 private:
  struct Ops {
    void (*invoke)(void* self);
    void (*destroy)(void* self);
  };

  template <typename D>
  static constexpr Ops kOpsFor{
      [](void* self) { (*static_cast<D*>(self))(); },
      [](void* self) { static_cast<D*>(self)->~D(); },
  };

  const Ops* ops_ = nullptr;
  alignas(Align) unsigned char storage_[Capacity];
};

}  // namespace steelnet::sim
