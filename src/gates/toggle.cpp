#include "gates/toggle.hpp"

namespace emc::gates {

Toggle::Toggle(Context& ctx, std::string name, sim::Wire& in, sim::Wire& dot,
               sim::Wire& blank, double vth_offset)
    : ctx_(&ctx), dot_(&dot), blank_(&blank) {
  const double c_inv = ctx.model.tech().c_inv;
  hot_ = ctx.drives.acquire(c_inv * kDelayStages, kCapFactor * c_inv,
                            vth_offset, /*strength=*/1.0);
  meter_id_ = ctx.meter.add(std::move(name), kLeakWidth);
  in.subscribe<&Toggle::on_input>(this);
  ctx_->supply.on_wake([this] {
    if (stalled_) retry();
  });
}

Toggle::~Toggle() { ctx_->drives.release(hot_); }

void Toggle::on_input() {
  ++unserved_;
  if (!in_flight_ && !stalled_) try_fire();
}

void Toggle::try_fire() {
  if (unserved_ == 0) return;
  if (!ctx_->refresh_drive(hot_)) {
    enter_stall();
    return;
  }
  in_flight_ = true;
  ctx_->kernel.schedule(ctx_->drives.delay(hot_, ctx_->model),
                        [this] { apply(); });
}

void Toggle::apply() {
  in_flight_ = false;
  if (!ctx_->refresh_drive(hot_)) {
    enter_stall();
    return;
  }
  ctx_->bill(meter_id_, ctx_->drives.charge(hot_), ctx_->drives.energy(hot_));
  --unserved_;
  ++fires_;
  if (phase_dot_) {
    dot_->set(!dot_->read());
  } else {
    blank_->set(!blank_->read());
  }
  phase_dot_ = !phase_dot_;
  if (unserved_ > 0) try_fire();
}

void Toggle::enter_stall() {
  stalled_ = true;
  const sim::Time hint = ctx_->supply.retry_hint();
  if (hint != sim::kTimeMax) {
    ctx_->kernel.schedule(hint, [this] {
      if (stalled_) retry();
    });
  }
}

void Toggle::retry() {
  const double vdd = ctx_->supply.cached_voltage();
  const double resume = ctx_->model.tech().vmin_operate +
                        ctx_->model.tech().vmin_hysteresis;
  if (vdd < resume) {
    const sim::Time hint = ctx_->supply.retry_hint();
    if (hint != sim::kTimeMax) {
      ctx_->kernel.schedule(hint, [this] {
        if (stalled_) retry();
      });
    }
    return;
  }
  stalled_ = false;
  // Keep the arena's operational lane honest even when nothing is queued
  // (quiescence probes read it).
  ctx_->refresh_drive(hot_);
  try_fire();
}

}  // namespace emc::gates
