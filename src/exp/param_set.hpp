// Named, typed scenario parameters.
//
// A ParamSet is what a scenario *is*: a small ordered dictionary of
// typed operating-point values ("vdd" -> 0.25, "seed" -> 11, "scheme" ->
// "banded"). It replaced the positional doubles the figure benches used
// to smuggle their operating points through — a mislabeled grid now
// fails loudly (`ParamError`) instead of silently reading the wrong
// column.
//
// Access is checked both ways: `get<T>("vdd")` throws on an unknown key
// and on a type mismatch (the one deliberate widening: `get<double>` of
// an integer parameter is allowed — grids over integers are often
// consumed as physics values).
#pragma once

#include <cstdint>
#include <stdexcept>
#include <string>
#include <utility>
#include <variant>
#include <vector>

namespace emc::exp {

/// Thrown on unknown parameter names and parameter type mismatches.
class ParamError : public std::runtime_error {
 public:
  explicit ParamError(const std::string& what) : std::runtime_error(what) {}
};

class ParamSet {
 public:
  using Value = std::variant<double, std::int64_t, std::string>;

  ParamSet() = default;

  /// Set (or overwrite) a parameter. Insertion order is preserved.
  ParamSet& set(const std::string& name, double v) { return put(name, v); }
  ParamSet& set(const std::string& name, std::int64_t v) {
    return put(name, v);
  }
  ParamSet& set(const std::string& name, int v) {
    return put(name, static_cast<std::int64_t>(v));
  }
  ParamSet& set(const std::string& name, unsigned v) {
    return put(name, static_cast<std::int64_t>(v));
  }
  /// There are no bool parameters; without this a bool would promote
  /// silently to the int overload.
  ParamSet& set(const std::string& name, bool v) = delete;
  ParamSet& set(const std::string& name, std::string v) {
    return put(name, Value(std::move(v)));
  }
  ParamSet& set(const std::string& name, const char* v) {
    return put(name, Value(std::string(v)));
  }

  /// Checked typed access; throws ParamError on unknown key or type
  /// mismatch. Supported T: double, std::int64_t, int, std::uint64_t,
  /// std::string.
  template <typename T>
  T get(const std::string& name) const {
    return as<T>(name, find_or_throw(name));
  }

  bool has(const std::string& name) const { return find(name) != nullptr; }

  std::size_t size() const { return entries_.size(); }

 private:
  ParamSet& put(const std::string& name, Value v);
  const Value* find(const std::string& name) const;
  const Value& find_or_throw(const std::string& name) const;

  template <typename T>
  static T as(const std::string& name, const Value& v);

  std::vector<std::pair<std::string, Value>> entries_;
};

template <>
double ParamSet::as<double>(const std::string& name, const Value& v);
template <>
std::int64_t ParamSet::as<std::int64_t>(const std::string& name,
                                        const Value& v);
template <>
int ParamSet::as<int>(const std::string& name, const Value& v);
template <>
std::uint64_t ParamSet::as<std::uint64_t>(const std::string& name,
                                          const Value& v);
template <>
std::string ParamSet::as<std::string>(const std::string& name, const Value& v);

}  // namespace emc::exp
