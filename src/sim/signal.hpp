// Digital wires with observer notification.
//
// A Wire is a named boolean node inside a Kernel. Its driver sets it
// (`set`); every change notifies the wire's listeners synchronously, in
// registration order. Delay and pulse filtering live in the driving
// element (see gates::Gate), not in the wire.
//
// Listener storage is allocation-free on the common path: subscriptions
// live in a small inline array of {context, function-pointer} slots that
// spills to a vector only past kInlineListeners entries, and dispatch is
// one indirect call per listener — no std::function, no per-subscription
// heap allocation. Use `subscribe<&C::member>(obj)` for the typed path
// and `subscribe_raw(ctx, fn)` for a plain function pointer.
#pragma once

#include <cstdint>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "sim/kernel.hpp"

namespace emc::sim {

class Wire {
 public:
  /// Listener shape: a context pointer plus a plain function pointer.
  using RawListener = void (*)(void* ctx, const Wire&);

  Wire(Kernel& kernel, std::string name, bool initial = false)
      : kernel_(&kernel), name_(std::move(name)), value_(initial) {}

  Wire(const Wire&) = delete;
  Wire& operator=(const Wire&) = delete;

  const std::string& name() const { return name_; }
  Kernel& kernel() const { return *kernel_; }

  bool read() const { return value_; }

  /// Number of value changes since construction.
  std::uint64_t transitions() const { return transitions_; }

  /// Write the wire; notifies listeners synchronously when the value
  /// actually changes.
  void set(bool v) {
    if (v == value_) return;
    value_ = v;
    ++transitions_;
    // Snapshot the count: a listener subscribed mid-walk first hears the
    // next change. Each slot is copied before the call, so a mid-walk
    // spill reallocation cannot invalidate the entry being invoked.
    const std::uint32_t n = listener_count_;
    for (std::uint32_t i = 0; i < n; ++i) {
      const Slot s = slot(i);
      s.fn(s.ctx, *this);
    }
  }

  // --- subscriptions ----------------------------------------------------
  //
  // Lifetime contract: a listener (its `ctx` object) must outlive the
  // wire — the wire calls through the stored pointer on every change and
  // never checks liveness. Circuits are built once and torn down
  // together, so subscriptions are permanent.

  /// Typed subscription: calls `(obj->*Member)()` or
  /// `(obj->*Member)(const Wire&)` on every value change.
  ///   wire.subscribe<&Gate::on_input_change>(this);
  template <auto Member, typename C>
  void subscribe(C* obj) {
    subscribe_raw(obj, [](void* ctx, const Wire& w) {
      C* self = static_cast<C*>(ctx);
      if constexpr (std::is_invocable_v<decltype(Member), C&, const Wire&>) {
        (self->*Member)(w);
      } else {
        (void)w;
        (self->*Member)();
      }
    });
  }

  /// Untyped subscription (the primitive the typed helper rides on):
  /// `fn(ctx, wire)` on every value change.
  void subscribe_raw(void* ctx, RawListener fn) {
    const Slot s{ctx, fn};
    if (listener_count_ < kInlineListeners) {
      inline_[listener_count_] = s;
    } else {
      spill_.push_back(s);
    }
    ++listener_count_;
  }

 private:
  /// Small inline capacity: nearly every wire in the paper's circuits has
  /// 1-3 observers (its fan-out gates plus maybe a checker or trace).
  static constexpr std::uint32_t kInlineListeners = 4;

  struct Slot {
    void* ctx;
    RawListener fn;
  };

  const Slot& slot(std::uint32_t i) const {
    return i < kInlineListeners ? inline_[i] : spill_[i - kInlineListeners];
  }

  Kernel* kernel_;
  std::string name_;
  bool value_;
  std::uint64_t transitions_ = 0;
  std::uint32_t listener_count_ = 0;
  Slot inline_[kInlineListeners];
  std::vector<Slot> spill_;
};

}  // namespace emc::sim
