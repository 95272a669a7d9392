#include "sim/trace.hpp"

#include <algorithm>
#include <cstdio>
#include <fstream>

namespace emc::sim {

VcdWriter::VcdWriter(std::string path) : path_(std::move(path)) {}

VcdWriter::~VcdWriter() { (void)finalize(); }

namespace {

// Close before checking: a full device fails on the final flush.
bool close_checked(std::ofstream& out, const std::string& path) {
  out.close();
  if (!out) {
    std::fprintf(stderr, "warning: could not write %s\n", path.c_str());
    return false;
  }
  return true;
}

}  // namespace

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

bool VcdWriter::finalize() {
  if (finalized_) return written_;
  finalized_ = true;
  std::ofstream out(path_);
  out << "$timescale 1 fs $end\n$scope module emc $end\n";
  for (const auto& ch : channels_) {
    out << "$var wire 1 " << ch.id << " " << ch.name << " $end\n";
  }
  out << "$upscope $end\n$enddefinitions $end\n";
  std::stable_sort(
      body_.begin(), body_.end(),
      [](const auto& a, const auto& b) { return a.first < b.first; });
  Time last = kTimeMax;
  for (const auto& [t, change] : body_) {
    if (t != last) {
      out << '#' << t << '\n';
      last = t;
    }
    out << change << '\n';
  }
  written_ = close_checked(out, path_);
  return written_;
}

bool AnalogTrace::write_csv(const std::string& path) const {
  std::ofstream out(path);
  out << "time_s," << name_ << '\n';
  for (const auto& [t, v] : points_) {
    out << to_seconds(t) << ',' << v << '\n';
  }
  return close_checked(out, path);
}

}  // namespace emc::sim
