#include "lint/graph.hpp"

#include <algorithm>

namespace emc::lint {

Graph build_graph(const netlist::Circuit& c) {
  const auto& wires = c.wire_infos();
  const auto& elements = c.elements();
  Graph g;
  g.circuit = &c;
  g.wire_order = by_name(wires.size(), [&](std::size_t w) -> const auto& {
    return wires[w].name();
  });
  g.element_order = by_name(elements.size(),
                            [&](std::size_t e) -> const auto& {
                              return elements[e].name;
                            });
  g.element_rank.resize(elements.size());
  for (std::size_t i = 0; i < elements.size(); ++i) {
    g.element_rank[g.element_order[i]] = i;
  }

  g.drivers.resize(wires.size());
  g.readers.resize(wires.size());
  g.outputs.resize(elements.size());
  g.touched.resize(elements.size(), false);
  for (const auto& e : c.edges()) {
    g.touched[e.element] = true;
    if (e.drive) {
      g.drivers[e.wire].push_back(e.element);
      g.outputs[e.element].push_back(e.wire);
    } else {
      g.readers[e.wire].push_back(e.element);
    }
  }
  const auto by_rank = [&](netlist::ElementId a, netlist::ElementId b) {
    return g.element_rank[a] < g.element_rank[b];
  };
  for (auto* lists : {&g.drivers, &g.readers}) {
    for (auto& l : *lists) {
      std::sort(l.begin(), l.end(), by_rank);
      l.erase(std::unique(l.begin(), l.end()), l.end());
    }
  }
  return g;
}

std::vector<std::vector<std::size_t>> cyclic_sccs(
    std::size_t n, const std::vector<std::vector<std::size_t>>& adj) {
  std::vector<int> index(n, -1), low(n, 0);
  std::vector<bool> on_stack(n, false);
  std::vector<std::size_t> stack;
  std::vector<std::vector<std::size_t>> out;
  int next = 0;

  struct Frame {
    std::size_t v;
    std::size_t child;
  };
  for (std::size_t root = 0; root < n; ++root) {
    if (index[root] != -1) continue;
    std::vector<Frame> call;
    call.push_back({root, 0});
    while (!call.empty()) {
      Frame& f = call.back();
      const std::size_t v = f.v;
      if (f.child == 0) {
        index[v] = low[v] = next++;
        stack.push_back(v);
        on_stack[v] = true;
      }
      if (f.child < adj[v].size()) {
        const std::size_t w = adj[v][f.child++];
        if (index[w] == -1) {
          call.push_back({w, 0});
        } else if (on_stack[w]) {
          low[v] = std::min(low[v], low[w]);
        }
        continue;
      }
      if (low[v] == index[v]) {
        std::vector<std::size_t> scc;
        for (;;) {
          const std::size_t w = stack.back();
          stack.pop_back();
          on_stack[w] = false;
          scc.push_back(w);
          if (w == v) break;
        }
        const bool self_loop =
            scc.size() == 1 &&
            std::find(adj[scc[0]].begin(), adj[scc[0]].end(), scc[0]) !=
                adj[scc[0]].end();
        if (scc.size() >= 2 || self_loop) out.push_back(std::move(scc));
      }
      call.pop_back();
      if (!call.empty()) {
        low[call.back().v] = std::min(low[call.back().v], low[v]);
      }
    }
  }
  return out;
}

}  // namespace emc::lint
