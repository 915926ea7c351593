#pragma once

// Move-only callable with inline storage for its captures.
//
// The event engine and the OSD message path hand every continuation on
// exactly once, so they need neither std::function's copyability nor its
// heap box for any capture wider than two pointers.  An InlineFunction
// stores a callable of up to `Cap` bytes inside itself (in an event's
// arena node, in a message's hop record) and only a larger one on the
// heap.  Moving it relocates the callable; destroying it, or the event
// that holds it, destroys the captures, so a dropped continuation frees
// what it owned.
//
// Like std::function, operator() is const and calls the stored callable
// as a non-const object, and an empty std::function (or a null function
// pointer) converts to an empty InlineFunction.

#include <cstddef>
#include <new>
#include <type_traits>
#include <utility>

namespace gdedup {

template <typename Sig, size_t Cap = 48>
class InlineFunction;

template <typename R, typename... Args, size_t Cap>
class InlineFunction<R(Args...), Cap> {
 public:
  InlineFunction() noexcept = default;
  InlineFunction(std::nullptr_t) noexcept {}  // NOLINT

  template <typename F,
            typename D = std::decay_t<F>,
            typename = std::enable_if_t<
                !std::is_same_v<D, InlineFunction> &&
                std::is_invocable_r_v<R, D&, Args...>>>
  InlineFunction(F&& f) {  // NOLINT: converts like std::function
    if constexpr (std::is_constructible_v<bool, const D&>) {
      if (!static_cast<bool>(f)) return;  // empty std::function / null ptr
    }
    if constexpr (stored_inline<D>()) {
      ::new (static_cast<void*>(buf_)) D(std::forward<F>(f));
      ops_ = &kInlineOps<D>;
    } else {
      ::new (static_cast<void*>(buf_)) D*(new D(std::forward<F>(f)));
      ops_ = &kHeapOps<D>;
    }
  }

  InlineFunction(InlineFunction&& o) noexcept : ops_(o.ops_) {
    if (ops_ != nullptr) {
      ops_->relocate(buf_, o.buf_);
      o.ops_ = nullptr;
    }
  }
  InlineFunction& operator=(InlineFunction&& o) noexcept {
    if (this != &o) {
      reset();
      if (o.ops_ != nullptr) {
        o.ops_->relocate(buf_, o.buf_);
        ops_ = o.ops_;
        o.ops_ = nullptr;
      }
    }
    return *this;
  }
  InlineFunction& operator=(std::nullptr_t) noexcept {
    reset();
    return *this;
  }
  InlineFunction(const InlineFunction&) = delete;
  InlineFunction& operator=(const InlineFunction&) = delete;

  ~InlineFunction() { reset(); }

  explicit operator bool() const noexcept { return ops_ != nullptr; }

  R operator()(Args... args) const {
    return ops_->invoke(buf_, std::forward<Args>(args)...);
  }

  // True if a callable of type F would be stored without a heap box.
  template <typename F>
  static constexpr bool stored_inline() {
    return sizeof(F) <= Cap && alignof(F) <= alignof(std::max_align_t) &&
           std::is_nothrow_move_constructible_v<F>;
  }

 private:
  struct Ops {
    R (*invoke)(void* self, Args&&... args);
    void (*relocate)(void* dst, void* src) noexcept;
    void (*destroy)(void* self) noexcept;
  };

  template <typename D>
  static constexpr Ops kInlineOps = {
      [](void* self, Args&&... args) -> R {
        return (*static_cast<D*>(self))(std::forward<Args>(args)...);
      },
      [](void* dst, void* src) noexcept {
        D* s = static_cast<D*>(src);
        ::new (dst) D(std::move(*s));
        s->~D();
      },
      [](void* self) noexcept { static_cast<D*>(self)->~D(); },
  };

  template <typename D>
  static constexpr Ops kHeapOps = {
      [](void* self, Args&&... args) -> R {
        return (**static_cast<D**>(self))(std::forward<Args>(args)...);
      },
      [](void* dst, void* src) noexcept {
        ::new (dst) D*(*static_cast<D**>(src));
      },
      [](void* self) noexcept { delete *static_cast<D**>(self); },
  };

  void reset() noexcept {
    if (ops_ != nullptr) {
      ops_->destroy(buf_);
      ops_ = nullptr;
    }
  }

  alignas(std::max_align_t) mutable unsigned char buf_[Cap];
  const Ops* ops_ = nullptr;
};

}  // namespace gdedup
