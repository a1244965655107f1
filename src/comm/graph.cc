#include "src/comm/graph.h"

#include <algorithm>
#include <cmath>

#include "src/base/log.h"
#include "src/base/rng.h"

namespace malt {

void Graph::AddEdge(int src, int dst) {
  MALT_CHECK(src >= 0 && src < size() && dst >= 0 && dst < size())
      << "edge (" << src << "," << dst << ") out of range for n=" << size();
  if (src == dst || HasEdge(src, dst)) {
    return;
  }
  out_[static_cast<size_t>(src)].push_back(dst);
  in_[static_cast<size_t>(dst)].push_back(src);
}

bool Graph::HasEdge(int src, int dst) const {
  const auto& edges = out_[static_cast<size_t>(src)];
  return std::find(edges.begin(), edges.end(), dst) != edges.end();
}

int64_t Graph::EdgeCount() const {
  int64_t count = 0;
  for (const auto& edges : out_) {
    count += static_cast<int64_t>(edges.size());
  }
  return count;
}

int Graph::MaxOutDegree() const {
  size_t max_degree = 0;
  for (const auto& edges : out_) {
    max_degree = std::max(max_degree, edges.size());
  }
  return static_cast<int>(max_degree);
}

namespace {

void Dfs(const std::vector<std::vector<int>>& adj, int start, std::vector<bool>& visited) {
  std::vector<int> stack = {start};
  visited[static_cast<size_t>(start)] = true;
  while (!stack.empty()) {
    const int node = stack.back();
    stack.pop_back();
    for (int next : adj[static_cast<size_t>(node)]) {
      if (!visited[static_cast<size_t>(next)]) {
        visited[static_cast<size_t>(next)] = true;
        stack.push_back(next);
      }
    }
  }
}

}  // namespace

bool Graph::StronglyConnected() const {
  const int n = size();
  if (n <= 1) {
    return true;
  }
  // Kosaraju check: reachability from node 0 in the graph and its transpose.
  std::vector<bool> fwd(static_cast<size_t>(n), false);
  Dfs(out_, 0, fwd);
  if (!std::all_of(fwd.begin(), fwd.end(), [](bool v) { return v; })) {
    return false;
  }
  std::vector<bool> bwd(static_cast<size_t>(n), false);
  Dfs(in_, 0, bwd);
  return std::all_of(bwd.begin(), bwd.end(), [](bool v) { return v; });
}

Graph Graph::InducedSubgraph(const std::vector<int>& survivors) const {
  Graph sub(static_cast<int>(survivors.size()));
  std::vector<int> relabel(static_cast<size_t>(size()), -1);
  for (size_t i = 0; i < survivors.size(); ++i) {
    relabel[static_cast<size_t>(survivors[i])] = static_cast<int>(i);
  }
  for (int old_src : survivors) {
    for (int old_dst : OutEdges(old_src)) {
      const int new_dst = relabel[static_cast<size_t>(old_dst)];
      if (new_dst >= 0) {
        sub.AddEdge(relabel[static_cast<size_t>(old_src)], new_dst);
      }
    }
  }
  return sub;
}

std::string Graph::ToString() const {
  std::string out;
  for (int src = 0; src < size(); ++src) {
    out += std::to_string(src) + " ->";
    for (int dst : OutEdges(src)) {
      out += ' ';
      out += std::to_string(dst);
    }
    out += "\n";
  }
  return out;
}

Graph AllToAllGraph(int n) {
  Graph g(n);
  for (int src = 0; src < n; ++src) {
    for (int dst = 0; dst < n; ++dst) {
      g.AddEdge(src, dst);
    }
  }
  return g;
}

double HaltonNumber(int64_t index, int base) {
  double fraction = 1.0;
  double result = 0.0;
  int64_t i = index;
  while (i > 0) {
    fraction /= base;
    result += fraction * static_cast<double>(i % base);
    i /= base;
  }
  return result;
}

std::vector<int> HaltonOffsets(int n, int k) {
  std::vector<int> offsets;
  int64_t index = 1;
  // The sequence 1/2, 1/4, 3/4, 1/8, 3/8, 5/8, 7/8, ... scaled by n gives the
  // paper's N/2, N/4, 3N/4, N/8, ... fan-out (§3.4).
  while (static_cast<int>(offsets.size()) < k && index <= 8LL * n) {
    const int offset = static_cast<int>(std::floor(HaltonNumber(index, 2) * n));
    ++index;
    if (offset == 0) {
      continue;
    }
    if (std::find(offsets.begin(), offsets.end(), offset) == offsets.end()) {
      offsets.push_back(offset);
    }
  }
  return offsets;
}

namespace {

Graph CirculantGraph(int n, const std::vector<int>& offsets) {
  Graph g(n);
  for (int src = 0; src < n; ++src) {
    for (int offset : offsets) {
      g.AddEdge(src, (src + offset) % n);
    }
  }
  return g;
}

}  // namespace

Graph HaltonGraph(int n) {
  if (n <= 1) {
    return Graph(n);
  }
  // The paper uses log(N) outbound nodes per machine (2 for N=6). A circulant
  // graph whose offsets share a common factor with n is disconnected (e.g.
  // N=12 gives {6,3,9}; any power of two gives all-even offsets), so when the
  // base construction is not strongly connected we append the ring offset 1,
  // which restores connectivity at the cost of one extra edge per node —
  // convergence requires a connected dataflow (§3.4).
  const int degree = std::max(1, static_cast<int>(std::floor(std::log2(n))));
  std::vector<int> offsets = HaltonOffsets(n, degree);
  Graph g = CirculantGraph(n, offsets);
  if (g.StronglyConnected()) {
    return g;
  }
  if (std::find(offsets.begin(), offsets.end(), 1) == offsets.end()) {
    offsets.back() = 1;  // keep out-degree at log(N); offset 1 forms a ring
    g = CirculantGraph(n, offsets);
  }
  MALT_CHECK(g.StronglyConnected()) << "Halton graph n=" << n << " not strongly connected";
  return g;
}

Graph RingGraph(int n) {
  Graph g(n);
  for (int i = 0; i < n; ++i) {
    g.AddEdge(i, (i + 1) % n);
  }
  return g;
}

Graph ParameterServerGraph(int n, int server) {
  MALT_CHECK(server >= 0 && server < n) << "server rank out of range";
  Graph g(n);
  for (int worker = 0; worker < n; ++worker) {
    if (worker == server) {
      continue;
    }
    g.AddEdge(worker, server);
    g.AddEdge(server, worker);
  }
  return g;
}

Graph RandomRegularGraph(int n, int k, uint64_t seed) {
  MALT_CHECK(k >= 1 && k < n) << "random graph requires 1 <= k < n";
  // A purely random k-out digraph almost surely leaves some node with
  // in-degree 0 (so it is not strongly connected). The first edge is the ring
  // edge i -> i+1 — guaranteeing connectivity — and the remaining k-1 are
  // uniform over the other peers, giving the "random" dissemination the
  // paper warns must still keep the graph connected (§3.4).
  Xoshiro256 rng(seed);
  Graph g(n);
  std::vector<int> peers;
  for (int src = 0; src < n; ++src) {
    const int ring = (src + 1) % n;
    g.AddEdge(src, ring);
    peers.clear();
    for (int dst = 0; dst < n; ++dst) {
      if (dst != src && dst != ring) {
        peers.push_back(dst);
      }
    }
    rng.Shuffle(peers.data(), peers.size());
    for (int j = 0; j < k - 1 && j < static_cast<int>(peers.size()); ++j) {
      g.AddEdge(src, peers[static_cast<size_t>(j)]);
    }
  }
  MALT_CHECK(g.StronglyConnected());
  return g;
}

Result<Graph> GraphFromSpec(int n, const std::string& spec) {
  Graph g(n);
  size_t pos = 0;
  while (pos < spec.size()) {
    size_t comma = spec.find(',', pos);
    if (comma == std::string::npos) {
      comma = spec.size();
    }
    const std::string edge = spec.substr(pos, comma - pos);
    const size_t arrow = edge.find('>');
    if (arrow == std::string::npos) {
      return InvalidArgumentError("bad edge '" + edge + "' (expected src>dst)");
    }
    const int src = std::atoi(edge.substr(0, arrow).c_str());
    const int dst = std::atoi(edge.substr(arrow + 1).c_str());
    if (src < 0 || src >= n || dst < 0 || dst >= n) {
      return InvalidArgumentError("edge '" + edge + "' out of range for n=" + std::to_string(n));
    }
    g.AddEdge(src, dst);
    pos = comma + 1;
  }
  if (!g.StronglyConnected()) {
    return FailedPreconditionError("dataflow graph must be strongly connected");
  }
  return g;
}

}  // namespace malt
