#include "gates/gate.hpp"

namespace emc::gates {

Gate::Gate(Context& ctx, std::string name, sim::Wire& out, double delay_stages,
           double cap_factor, double vth_offset, double leak_width)
    : ctx_(&ctx), name_(std::move(name)), out_(&out) {
  const double c_inv = ctx.model.tech().c_inv;
  hot_ = ctx.drives.acquire(cap_factor * c_inv * delay_stages,
                            cap_factor * c_inv, vth_offset, /*strength=*/1.0);
  meter_id_ = ctx.meter.add(name_, leak_width);
  // Wake with the supply: a recharged storage cap re-animates every
  // parked gate. Registration happens once, here, for the gate's
  // lifetime; the callback is a no-op unless the gate is stalled.
  ctx_->supply.on_wake([this] {
    if (stalled_) retry();
  });
}

Gate::~Gate() { ctx_->drives.release(hot_); }

void Gate::listen(sim::Wire& w) {
  w.subscribe<&Gate::on_input_change>(this);
}

void Gate::on_input_change() {
  const bool target = evaluate(out_->read());
  if (stalled_) {
    // Park with the freshest target; the retry path re-evaluates anyway.
    stall_target_ = target;
    return;
  }
  if (pending_) {
    if (target == pending_value_) return;  // already on the way
    // Retract: the cause vanished before the output could move.
    pending_ = false;
    ++generation_;
    if (target == out_->read()) return;  // pulse swallowed
  } else if (target == out_->read()) {
    return;  // stable
  }
  schedule_output(target);
}

void Gate::schedule_output(bool target) {
  if (!ctx_->refresh_drive(hot_)) {
    stall_target_ = target;
    enter_stall();
    return;
  }
  pending_ = true;
  pending_value_ = target;
  const std::uint64_t gen = ++generation_;
  ctx_->kernel.schedule(ctx_->drives.delay(hot_, ctx_->model),
                        [this, target, gen] { apply_output(target, gen); });
}

void Gate::apply_output(bool target, std::uint64_t generation) {
  if (!pending_ || generation != generation_) return;  // retracted
  pending_ = false;
  if (!ctx_->refresh_drive(hot_)) {
    // Supply collapsed while the transition was in flight: the output
    // never made it; park and retry on recovery.
    stall_target_ = target;
    enter_stall();
    return;
  }
  ctx_->bill(meter_id_, ctx_->drives.charge(hot_), ctx_->drives.energy(hot_));
  out_->set(target);
  on_output_committed();
}

void Gate::enter_stall() {
  stalled_ = true;
  const sim::Time hint = ctx_->supply.retry_hint();
  if (hint != sim::kTimeMax) {
    ctx_->kernel.schedule(hint, [this] {
      if (stalled_) retry();
    });
  }
  // else: wait for the supply's wake callback (registered in the ctor).
}

void Gate::retry() {
  const double vdd = ctx_->supply.cached_voltage();
  const double resume = ctx_->model.tech().vmin_operate +
                        ctx_->model.tech().vmin_hysteresis;
  if (vdd < resume) {
    // Still brown: keep polling if the supply is time-driven.
    const sim::Time hint = ctx_->supply.retry_hint();
    if (hint != sim::kTimeMax) {
      ctx_->kernel.schedule(hint, [this] {
        if (stalled_) retry();
      });
    }
    return;
  }
  stalled_ = false;
  // Sync the arena's operational lane even when the output ends up not
  // moving — quiescence probes read it, and a stale stalled flag would
  // misreport a recovered circuit as kQuiesced.
  ctx_->refresh_drive(hot_);
  // Re-derive the target from the (possibly changed) inputs.
  const bool target = evaluate(out_->read());
  if (target != out_->read()) schedule_output(target);
}

}  // namespace emc::gates
