#include "exp/param_set.hpp"

#include <limits>

namespace emc::exp {

namespace {

const char* type_name(const ParamSet::Value& v) {
  switch (v.index()) {
    case 0:
      return "double";
    case 1:
      return "int";
    default:
      return "string";
  }
}

[[noreturn]] void throw_type(const std::string& name,
                             const ParamSet::Value& v, const char* wanted) {
  throw ParamError("ParamSet: parameter \"" + name + "\" holds a " +
                   type_name(v) + ", requested " + wanted);
}

}  // namespace

ParamSet& ParamSet::put(const std::string& name, Value v) {
  for (auto& e : entries_) {
    if (e.first == name) {
      e.second = std::move(v);
      return *this;
    }
  }
  entries_.emplace_back(name, std::move(v));
  return *this;
}

const ParamSet::Value* ParamSet::find(const std::string& name) const {
  for (const auto& e : entries_) {
    if (e.first == name) return &e.second;
  }
  return nullptr;
}

const ParamSet::Value& ParamSet::find_or_throw(const std::string& name) const {
  const Value* v = find(name);
  if (v == nullptr) {
    std::string known;
    for (const auto& e : entries_) {
      known += known.empty() ? "\"" : ", \"";
      known += e.first + "\"";
    }
    throw ParamError("ParamSet: unknown parameter \"" + name + "\" (have " +
                     (known.empty() ? std::string("none") : known) + ")");
  }
  return *v;
}

template <>
double ParamSet::as<double>(const std::string& name, const Value& v) {
  if (std::holds_alternative<double>(v)) return std::get<double>(v);
  // Deliberate widening: integer grid axes are routinely consumed as
  // physics values.
  if (std::holds_alternative<std::int64_t>(v)) {
    return static_cast<double>(std::get<std::int64_t>(v));
  }
  throw_type(name, v, "double");
}

template <>
std::int64_t ParamSet::as<std::int64_t>(const std::string& name,
                                        const Value& v) {
  if (std::holds_alternative<std::int64_t>(v)) return std::get<std::int64_t>(v);
  throw_type(name, v, "int");
}

template <>
int ParamSet::as<int>(const std::string& name, const Value& v) {
  const std::int64_t i = as<std::int64_t>(name, v);
  if (i < std::numeric_limits<int>::min() ||
      i > std::numeric_limits<int>::max()) {
    throw ParamError("ParamSet: parameter \"" + name + "\" (" +
                     std::to_string(i) + ") does not fit in int");
  }
  return static_cast<int>(i);
}

template <>
std::uint64_t ParamSet::as<std::uint64_t>(const std::string& name,
                                          const Value& v) {
  const std::int64_t i = as<std::int64_t>(name, v);
  if (i < 0) {
    throw ParamError("ParamSet: parameter \"" + name +
                     "\" is negative, requested unsigned");
  }
  return static_cast<std::uint64_t>(i);
}

template <>
std::string ParamSet::as<std::string>(const std::string& name,
                                      const Value& v) {
  if (std::holds_alternative<std::string>(v)) return std::get<std::string>(v);
  throw_type(name, v, "string");
}

}  // namespace emc::exp
