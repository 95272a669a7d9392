#include "lint/graph.hpp"

#include <algorithm>

namespace emc::lint {

Graph build_graph(const netlist::Circuit& c) {
  Graph g;
  for (const auto& w : c.wire_infos()) g.wires.emplace(w.name, w);
  for (const auto& e : c.elements()) g.elements.emplace(e.name, e.kind);

  // Classify names seen only in edges. Two passes so an unknown name
  // adjacent to a known element in *any* edge lands as a wire.
  for (const auto& [from, to] : c.edges()) {
    for (const std::string* n : {&from, &to}) {
      if (g.wires.count(*n) > 0 || g.elements.count(*n) > 0) continue;
      const std::string& other = (n == &from) ? to : from;
      if (g.is_element(other)) {
        g.wires.emplace(*n, netlist::WireInfo{*n, false, false});
      } else {
        g.elements.emplace(*n, netlist::ElementKind::kOther);
      }
    }
  }

  for (const auto& [from, to] : c.edges()) {
    if (!g.edges.emplace(from, to).second) continue;
    g.adj[from].insert(to);
    g.radj[to].insert(from);
    g.touched.insert(from);
    g.touched.insert(to);
    const bool fe = g.is_element(from);
    const bool te = g.is_element(to);
    if (fe && !te) g.drivers[to].insert(from);
    if (!fe && te) g.readers[from].insert(to);
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
