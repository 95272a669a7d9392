#include "sim/trace.hpp"

#include <algorithm>

namespace emc::sim {

VcdWriter::VcdWriter(std::string path) : path_(std::move(path)) {}

VcdWriter::~VcdWriter() { finalize(); }

std::string VcdWriter::id_for(std::size_t index) {
  // VCD identifiers are short printable-ASCII strings; base-94 encode.
  std::string id;
  do {
    id.push_back(static_cast<char>('!' + index % 94));
    index /= 94;
  } while (index > 0);
  return id;
}

void VcdWriter::add(Wire& wire) {
  const std::size_t channel = channels_.size();
  channels_.push_back(
      Channel{id_for(channel), wire.name(), wire.read(), this, channel});
  // &channels_.back() stays valid: channels_ is a deque.
  wire.subscribe_raw(&channels_.back(), &VcdWriter::on_wire_change);
}

void VcdWriter::on_wire_change(void* ctx, const Wire& w) {
  auto* ch = static_cast<Channel*>(ctx);
  ch->owner->record(ch->index, w.read(), w.kernel().now());
}

void VcdWriter::record(std::size_t channel, bool value, Time t) {
  Channel& ch = channels_[channel];
  ch.last = value;
  body_.emplace_back(t, (value ? "1" : "0") + ch.id);
  ++changes_;
}

void VcdWriter::finalize() {
  if (finalized_) return;
  finalized_ = true;
  out_.open(path_);
  if (!out_) return;
  out_ << "$timescale 1 fs $end\n$scope module emc $end\n";
  for (const auto& ch : channels_) {
    out_ << "$var wire 1 " << ch.id << " " << ch.name << " $end\n";
  }
  out_ << "$upscope $end\n$enddefinitions $end\n";
  std::stable_sort(
      body_.begin(), body_.end(),
      [](const auto& a, const auto& b) { return a.first < b.first; });
  Time last = kTimeMax;
  for (const auto& [t, change] : body_) {
    if (t != last) {
      out_ << '#' << t << '\n';
      last = t;
    }
    out_ << change << '\n';
  }
  out_.close();
}

void AnalogTrace::write_csv(const std::string& path) const {
  std::ofstream out(path);
  if (!out) return;
  out << "time_s," << name_ << '\n';
  for (const auto& [t, v] : points_) {
    out << to_seconds(t) << ',' << v << '\n';
  }
}

}  // namespace emc::sim
