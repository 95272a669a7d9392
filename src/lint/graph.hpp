// Shared graph machinery for the static analyzers (emc::lint, emc::sta).
//
// Both layers work on the same distillation of a Circuit's inventory — a
// bipartite digraph over its wire and element ids — and both need cycle
// detection (lint to flag combinational loops, sta to exclude deliberate
// oscillator rings from longest-path propagation). The model and the
// iterative Tarjan SCC pass live here so the two analyzers agree on the
// structure by construction.
#pragma once

#include <algorithm>
#include <cstddef>
#include <numeric>
#include <string>
#include <vector>

#include "netlist/module.hpp"

namespace emc::lint {

/// Ids 0..n-1 sorted by `name_of(id)`, ties in id order: the order every
/// report prints in, whatever order the inventory recorded.
template <typename NameOf>
std::vector<std::size_t> by_name(std::size_t n, NameOf name_of) {
  std::vector<std::size_t> ids(n);
  std::iota(ids.begin(), ids.end(), 0);
  std::stable_sort(ids.begin(), ids.end(),
                   [&](std::size_t a, std::size_t b) {
                     return name_of(a) < name_of(b);
                   });
  return ids;
}

/// Graph model distilled from a Circuit's inventory, indexed by its wire
/// and element ids. Every edge joins a wire and an element: an element
/// reads wires and drives wires.
struct Graph {
  const netlist::Circuit* circuit = nullptr;
  /// Wire and element ids in name order.
  std::vector<netlist::WireId> wire_order;
  std::vector<netlist::ElementId> element_order;
  /// Position of each element id in element_order.
  std::vector<std::size_t> element_rank;
  /// Per wire: its driving and its reading elements, in name order and
  /// without repeats.
  std::vector<std::vector<netlist::ElementId>> drivers;
  std::vector<std::vector<netlist::ElementId>> readers;
  /// Per element: the wires it drives, and whether any edge touches it.
  std::vector<std::vector<netlist::WireId>> outputs;
  std::vector<bool> touched;

  const std::string& wire_name(netlist::WireId w) const {
    return circuit->wire_infos()[w].name();
  }
  bool driven(netlist::WireId w) const {
    return circuit->wire_infos()[w].env_driven || !drivers[w].empty();
  }
};

Graph build_graph(const netlist::Circuit& c);

/// Iterative Tarjan over an index graph: returns the node sets of every
/// SCC that contains a cycle (size >= 2, or a self-loop).
std::vector<std::vector<std::size_t>> cyclic_sccs(
    std::size_t n, const std::vector<std::vector<std::size_t>>& adj);

}  // namespace emc::lint
