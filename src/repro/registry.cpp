#include "repro/registry.hpp"

#include <algorithm>
#include <cstdio>
#include <cstdlib>

namespace emc::repro {

Registry& Registry::instance() {
  // Leaky singleton: registration runs from static initializers across
  // translation units, so the registry must outlive (and never race)
  // ordinary static destruction.
  static Registry* r = new Registry();
  return *r;
}

FigureBuilder& FigureBuilder::seed(std::uint64_t s) {
  if (s == 0) {
    std::fprintf(stderr,
                 "repro: figure \"%s\" registers seed 0, which reads as "
                 "unseeded\n",
                 fig_.name.c_str());
    std::abort();
  }
  fig_.default_seed = s;
  return *this;
}

void Registry::add(Figure f) {
  if (f.name.empty() || f.run == nullptr) {
    std::fprintf(stderr,
                 "repro: refusing to register figure with empty name or "
                 "null run function\n");
    std::abort();
  }
  for (const Figure& existing : figures_) {
    if (existing.name == f.name) {
      std::fprintf(stderr,
                   "repro: duplicate figure registration \"%s\" — two "
                   "benches claim the same name\n",
                   f.name.c_str());
      std::abort();
    }
  }
  figures_.push_back(std::move(f));
}

std::vector<const Figure*> Registry::figures() const {
  std::vector<const Figure*> out;
  out.reserve(figures_.size());
  for (const Figure& f : figures_) out.push_back(&f);
  std::sort(out.begin(), out.end(),
            [](const Figure* a, const Figure* b) { return a->name < b->name; });
  return out;
}

const Figure* Registry::find(const std::string& name) const {
  for (const Figure& f : figures_) {
    if (f.name == name) return &f;
  }
  return nullptr;
}

}  // namespace emc::repro
