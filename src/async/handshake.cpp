#include "async/handshake.hpp"

#include "netlist/module.hpp"
#include "sim/time.hpp"

namespace emc::async {

HandshakeSource::HandshakeSource(gates::Context& ctx, std::string name,
                                 Channel ch)
    : ctx_(&ctx), name_(std::move(name)), ch_(ch) {
  ch_.ack->subscribe<&HandshakeSource::on_ack>(this);
}

void HandshakeSource::register_in(netlist::Circuit& c) const {
  c.note_element(name_, netlist::ElementKind::kEndpoint);
  c.note_external_wire(ch_.req->name());
  c.note_external_wire(ch_.ack->name());
  c.note_edge(name_, ch_.req->name());
  c.note_edge(ch_.ack->name(), name_);
  c.note_handshake(ch_.req->name(), ch_.ack->name());
}

void HandshakeSource::start(std::uint64_t cycles,
                            std::function<void()> on_done) {
  remaining_ = cycles;
  on_done_ = std::move(on_done);
  if (remaining_ > 0) raise_req();
}

void HandshakeSource::raise_req() {
  cycle_start_ = ctx_->kernel.now();
  ch_.req->set(true);
}

void HandshakeSource::on_ack() {
  if (ch_.ack->read()) {
    // Ack received: release the request.
    ch_.req->set(false);
    return;
  }
  // Ack released: cycle complete.
  last_cycle_s_ = sim::to_seconds(ctx_->kernel.now() - cycle_start_);
  ++completed_;
  if (remaining_ > 0) --remaining_;
  if (remaining_ > 0) {
    raise_req();
  } else if (on_done_) {
    auto done = std::move(on_done_);
    on_done_ = nullptr;
    done();
  }
}

HandshakeSink::HandshakeSink(gates::Context& ctx, std::string name,
                             Channel ch, double delay_stages)
    : ctx_(&ctx), name_(std::move(name)), ch_(ch),
      delay_stages_(delay_stages) {
  ch_.req->subscribe<&HandshakeSink::on_req>(this);
  // Brownout recovery for wake-driven supplies: replay the req level the
  // brownout parked (registered once, for the sink's lifetime — a no-op
  // unless an edge is actually outstanding).
  ctx_->supply.on_wake([this] {
    if (!stalled_ && edge_pending()) on_req();
  });
}

void HandshakeSink::register_in(netlist::Circuit& c) const {
  c.note_element(name_, netlist::ElementKind::kEndpoint);
  c.note_external_wire(ch_.req->name());
  c.note_external_wire(ch_.ack->name());
  c.note_edge(ch_.req->name(), name_);
  c.note_edge(name_, ch_.ack->name());
  c.note_handshake(ch_.req->name(), ch_.ack->name());
}

void HandshakeSink::resume() {
  if (!stalled_) return;
  stalled_ = false;
  if (edge_pending()) on_req();
}

void HandshakeSink::on_req() {
  if (stalled_) return;  // fault: the edge stays pending until resume()
  const bool target = ch_.req->read();
  const double vdd = ctx_->supply.voltage();
  if (!ctx_->model.operational(vdd)) {
    // The sink's logic is browned out: poll time-driven supplies at
    // their hint; wake-driven supplies replay via the ctor registration.
    const sim::Time hint = ctx_->supply.retry_hint();
    if (hint != sim::kTimeMax) {
      ctx_->kernel.schedule(hint, [this] { on_req(); });
    }
    return;
  }
  const sim::Time d = ctx_->model.delay(
      vdd, delay_stages_ * ctx_->model.tech().c_inv);
  ctx_->kernel.schedule(d, [this, target] {
    if (ch_.ack->read() != target) ch_.ack->set(target);
  });
}

}  // namespace emc::async
