// Small-buffer callable for event actions.
//
// Every event the kernel executes carries a callback. With
// std::function<void()> each capture beyond the library's tiny SBO is a
// heap allocation, and a scenario sweep instantiating thousands of
// kernels turns that into the dominant cost. Action stores captures up
// to kInlineSize bytes inline (covering every callback in this codebase,
// including a copied std::function, which is itself 32 bytes) and only
// falls back to the heap for oversized captures. Move-only: an event's
// action has exactly one owner — the queue slot — until it fires.
#pragma once

#include <cstddef>
#include <functional>
#include <new>
#include <type_traits>
#include <utility>

namespace emc::sim {

class Action {
 public:
  /// Inline capture budget. 48 bytes holds six pointers/references — more
  /// than any gate, supply or bench callback in the tree captures.
  static constexpr std::size_t kInlineSize = 48;

  Action() noexcept = default;

  template <typename F,
            typename D = std::decay_t<F>,
            typename = std::enable_if_t<!std::is_same_v<D, Action> &&
                                        std::is_invocable_r_v<void, D&>>>
  Action(F&& f) {
    using Ops = OpsFor<D, fits_inline<D>()>;
    Ops::construct(buf_, std::forward<F>(f));
    ops_ = &Ops::table;
  }

  Action(Action&& other) noexcept { move_from(other); }

  Action& operator=(Action&& other) noexcept {
    if (this != &other) {
      destroy();
      move_from(other);
    }
    return *this;
  }

  Action(const Action&) = delete;
  Action& operator=(const Action&) = delete;

  ~Action() { destroy(); }

  explicit operator bool() const noexcept { return ops_ != nullptr; }

  /// Invoking an empty Action throws, matching the std::function this
  /// type replaced (a silent nullptr call would be an undebuggable crash).
  void operator()() {
    if (!ops_) throw std::bad_function_call();
    ops_->invoke(buf_);
  }

  /// Invoke then destroy through a single dispatch — the hot-loop form
  /// for an action that fires exactly once and is never needed again.
  /// Leaves the Action empty (even if the callable throws), so a reused
  /// local costs only a null check on its next move-assignment.
  void consume() {
    if (!ops_) throw std::bad_function_call();
    const Ops* ops = ops_;
    ops_ = nullptr;
    ops->invoke_destroy(buf_);
  }

 private:
  struct Ops {
    void (*invoke)(void*);
    void (*move)(void* dst, void* src);  // src is destroyed
    void (*destroy)(void*);
    void (*invoke_destroy)(void*);  // fused fire-once path (see consume)
  };

  template <typename D>
  static constexpr bool fits_inline() {
    return sizeof(D) <= kInlineSize &&
           alignof(D) <= alignof(std::max_align_t) &&
           std::is_nothrow_move_constructible_v<D>;
  }

  template <typename D, bool Inline>
  struct OpsFor;

  // Inline storage: the callable lives in buf_ itself.
  template <typename D>
  struct OpsFor<D, true> {
    template <typename F>
    static void construct(void* buf, F&& f) {
      ::new (buf) D(std::forward<F>(f));
    }
    static void invoke(void* buf) { (*static_cast<D*>(buf))(); }
    static void move(void* dst, void* src) {
      ::new (dst) D(std::move(*static_cast<D*>(src)));
      static_cast<D*>(src)->~D();
    }
    static void destroy(void* buf) { static_cast<D*>(buf)->~D(); }
    static void invoke_destroy(void* buf) {
      D* d = static_cast<D*>(buf);
      struct Guard {
        D* d;
        ~Guard() { d->~D(); }
      } guard{d};
      (*d)();
    }
    static constexpr Ops table{&invoke, &move, &destroy, &invoke_destroy};
  };

  // Heap fallback: buf_ holds a D*.
  template <typename D>
  struct OpsFor<D, false> {
    template <typename F>
    static void construct(void* buf, F&& f) {
      *static_cast<D**>(buf) = new D(std::forward<F>(f));
    }
    static D* ptr(void* buf) { return *static_cast<D**>(buf); }
    static void invoke(void* buf) { (*ptr(buf))(); }
    static void move(void* dst, void* src) {
      *static_cast<D**>(dst) = ptr(src);
    }
    static void destroy(void* buf) { delete ptr(buf); }
    static void invoke_destroy(void* buf) {
      D* d = ptr(buf);
      struct Guard {
        D* d;
        ~Guard() { delete d; }
      } guard{d};
      (*d)();
    }
    static constexpr Ops table{&invoke, &move, &destroy, &invoke_destroy};
  };

  void destroy() noexcept {
    if (ops_) {
      ops_->destroy(buf_);
      ops_ = nullptr;
    }
  }

  void move_from(Action& other) noexcept {
    ops_ = other.ops_;
    if (ops_) {
      ops_->move(buf_, other.buf_);
      other.ops_ = nullptr;
    }
  }

  alignas(std::max_align_t) unsigned char buf_[kInlineSize];
  const Ops* ops_ = nullptr;
};

}  // namespace emc::sim
