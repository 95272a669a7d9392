#include "sram/si_controller.hpp"

#include <cassert>

namespace emc::sram {

namespace {
// Dynamic-energy split across phases (fractions of E_dyn0 * V^2).
constexpr double kFracDecode = 0.10;
constexpr double kFracPrecharge = 0.35;
constexpr double kFracDevelop = 0.15;
constexpr double kFracDrive = 0.30;
constexpr double kFracControl = 0.10;
}  // namespace

SiSram::SiSram(gates::Context& ctx, std::string name, SiSramParams params)
    : ctx_(&ctx),
      circuit_(ctx, std::move(name)),
      params_(params),
      cell_(ctx.model, params.cell),
      bitline_(cell_, params.bitline),
      energy_(std::make_unique<SramEnergyModel>(bitline_, params.timings,
                                                params.anchors)),
      array_(std::make_unique<SramArray>(params.geometry)),
      req_(&circuit_.wire("req")),
      ack_(&circuit_.wire("ack")),
      pch_(&circuit_.wire("pch")),
      wl_(&circuit_.wire("wl")),
      we_(&circuit_.wire("we")),
      done_(&circuit_.wire("done")) {
  // One meter entry covers the whole macro: its dynamic energy is the
  // per-op billing below; its leak width is the calibrated array+
  // periphery leakage so global leakage integration is correct.
  meter_id_ =
      ctx.meter.add(circuit_.name() + ".macro", energy_->leak_width_units());

  // The phase sequencer (pump/finish) is behavioural, but its port
  // connectivity is the Fig. 6 handshake: the controller drives every
  // phase wire and answers req with ack.
  const std::string ctl = circuit_.name() + ".ctl";
  circuit_.note_element(ctl, netlist::ElementKind::kEndpoint);
  circuit_.note_edge(req_->name(), ctl);
  for (const sim::Wire* w : {ack_, pch_, wl_, we_, done_}) {
    circuit_.note_edge(ctl, w->name());
  }
  // req is raised by the op pump on behalf of the requester (the
  // environment), not by a gate in this circuit.
  circuit_.mark_env_driven(*req_);
  circuit_.note_handshake(req_->name(), ack_->name());
}

void SiSram::read(std::size_t addr, ReadCallback cb) {
  assert(addr < params_.geometry.words);
  Op op;
  op.is_write = false;
  op.addr = addr;
  op.value = 0;
  op.read_cb = std::move(cb);
  queue_.push_back(std::move(op));
  if (!busy()) pump();
}

void SiSram::write(std::size_t addr, std::uint16_t value, WriteCallback cb) {
  assert(addr < params_.geometry.words);
  Op op;
  op.is_write = true;
  op.addr = addr;
  op.value = value;
  op.write_cb = std::move(cb);
  queue_.push_back(std::move(op));
  if (!busy()) pump();
}

void SiSram::bill(double fraction) {
  const double vdd = ctx_->supply.voltage();
  const double e = fraction *
                   (current_->is_write ? energy_->dynamic_write_j(vdd)
                                       : energy_->dynamic_read_j(vdd));
  current_->result.energy_j += e;
  ctx_->bill(meter_id_, vdd > 0.0 ? e / vdd : 0.0, e);
}

void SiSram::phase_logic(double stages, std::function<void()> next) {
  // Control/decoder logic: `stages` reference-inverter delays, executed
  // in two sub-steps so a brown-out mid-phase parks the op.
  access_ = std::make_unique<SteppedAccess>(
      ctx_->kernel, ctx_->supply, ctx_->model,
      [this, stages](double vdd) {
        return stages * ctx_->model.inverter_delay_seconds(vdd);
      },
      2, [this, next = std::move(next)] {
        if (access_->stall_events() > 0) current_->result.stalled = true;
        next();
      });
  access_->start();
}

void SiSram::phase_precharge(std::function<void()> next) {
  pch_->set(true);
  access_ = std::make_unique<SteppedAccess>(
      ctx_->kernel, ctx_->supply, ctx_->model,
      [this](double vdd) { return energy_->precharge_time_s(vdd); }, 4,
      [this, next = std::move(next)] {
        if (access_->stall_events() > 0) current_->result.stalled = true;
        pch_->set(false);
        bill(kFracPrecharge);
        next();
      });
  access_->start();
}

void SiSram::phase_bitline(bool is_write_drive, std::function<void()> next) {
  access_ = std::make_unique<SteppedAccess>(
      ctx_->kernel, ctx_->supply, ctx_->model,
      [this, is_write_drive](double vdd) {
        return is_write_drive ? bitline_.write_delay_seconds(vdd)
                              : bitline_.read_delay_seconds(vdd);
      },
      bitline_.params().substeps, [this, next = std::move(next)] {
        if (access_->stall_events() > 0) current_->result.stalled = true;
        next();
      });
  access_->start();
}

void SiSram::pump() {
  if (queue_.empty()) return;
  current_ = std::move(queue_.front());
  queue_.pop_front();
  current_->result.started = ctx_->kernel.now();
  req_->set(true);

  // DECODE -> PRECHARGE -> WL+ -> DEVELOP -> [DRIVE] -> WL- -> ack.
  phase_logic(params_.timings.decode_stages, [this] {
    bill(kFracDecode);
    phase_precharge([this] {
      wl_->set(true);
      phase_bitline(/*is_write_drive=*/false, [this] {
        bill(kFracDevelop);
        done_->set(true);  // completion detector fired (read developed)
        if (!current_->is_write) {
          // Latch data, drop WL, finish through the control tail.
          phase_logic(params_.timings.control_read_stages, [this] {
            bill(kFracControl);
            wl_->set(false);
            done_->set(false);
            finish();
          });
          return;
        }
        // Write path: the old value has been read (read-before-write);
        // now drive the new one and wait for bit-line equality.
        we_->set(true);
        phase_bitline(/*is_write_drive=*/true, [this] {
          bill(kFracDrive);
          const double vdd = ctx_->supply.voltage();
          if (cell_.write_ok(vdd)) {
            array_->write_word(current_->addr, current_->value);
          } else {
            current_->result.ok = false;
            current_->result.write_margin_failure = true;
            ++write_failures_;
          }
          we_->set(false);
          phase_logic(params_.timings.control_write_stages +
                          params_.timings.wl_pulse_stages,
                      [this] {
                        bill(kFracControl);
                        wl_->set(false);
                        done_->set(false);
                        finish();
                      });
        });
      });
    });
  });
}

void SiSram::finish() {
  if (access_ && access_->stall_events() > 0) current_->result.stalled = true;
  ack_->set(true);
  current_->result.finished = ctx_->kernel.now();
  current_->result.latency_s =
      sim::to_seconds(current_->result.finished - current_->result.started);
  Op op = std::move(*current_);
  // Release-phase of the handshake (req-/ack-) folded into op turnaround.
  req_->set(false);
  ack_->set(false);
  current_.reset();
  access_.reset();
  if (op.is_write) {
    ++writes_done_;
    if (op.write_cb) op.write_cb(op.result);
  } else {
    ++reads_done_;
    const std::uint16_t data = array_->read_word(op.addr);
    if (op.read_cb) op.read_cb(data, op.result);
  }
  if (!queue_.empty()) {
    // Back-to-back ops separated by one control round-trip.
    ctx_->kernel.schedule(
        ctx_->model.delay(std::max(ctx_->supply.voltage(), 0.15),
                          2.0 * ctx_->model.tech().c_inv),
        [this] {
          if (!busy() && !queue_.empty()) pump();
        });
  }
}

}  // namespace emc::sram
