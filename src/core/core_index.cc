#include "core/core_index.h"

#include <algorithm>
#include <numeric>
#include <utility>

namespace locs {

namespace {

/// Union-find with path halving and union by size, tracking the merge-tree
/// node owned by each component root.
class MergeDsu {
 public:
  explicit MergeDsu(uint32_t capacity)
      : parent_(capacity), size_(capacity, 1), node_(capacity) {
    std::iota(parent_.begin(), parent_.end(), 0u);
    std::iota(node_.begin(), node_.end(), 0u);  // leaf node i for vertex i
  }

  uint32_t Find(uint32_t v) {
    while (parent_[v] != v) {
      parent_[v] = parent_[parent_[v]];
      v = parent_[v];
    }
    return v;
  }

  /// Merges the components of roots ra != rb; returns the surviving root.
  uint32_t Link(uint32_t ra, uint32_t rb) {
    if (size_[ra] < size_[rb]) std::swap(ra, rb);
    parent_[rb] = ra;
    size_[ra] += size_[rb];
    return ra;
  }

  uint32_t NodeOf(uint32_t root) const { return node_[root]; }
  void SetNode(uint32_t root, uint32_t node) { node_[root] = node; }

 private:
  std::vector<uint32_t> parent_;
  std::vector<uint32_t> size_;
  std::vector<uint32_t> node_;
};

}  // namespace

CoreIndex::CoreIndex(const Graph& graph, BuildStats* stats) {
  CoreDecomposition cores = ComputeCores(graph);
  const VertexId n = graph.NumVertices();
  // The tree is grown in plain vectors and only wrapped into ConstArrays
  // once the shape is final.
  std::vector<uint32_t> level(n);
  std::vector<uint32_t> parent(n, kNil);
  std::vector<uint32_t> first_child(n, kNil);
  std::vector<uint32_t> next_sibling(n, kNil);
  std::vector<VertexId> vertex(n);
  // Child-list length per node, build-time only: a fold moves the
  // shorter list into the longer one.
  std::vector<uint32_t> num_children(n, 0);
  BuildStats counts;
  // Leaves 0..n-1 mirror the vertices.
  for (VertexId v = 0; v < n; ++v) {
    level[v] = cores.core[v];
    vertex[v] = v;
  }

  auto new_node = [&](uint32_t node_level) {
    const auto id = static_cast<uint32_t>(level.size());
    level.push_back(node_level);
    parent.push_back(kNil);
    first_child.push_back(kNil);
    next_sibling.push_back(kNil);
    vertex.push_back(kNil);
    num_children.push_back(0);
    return id;
  };
  auto attach = [&](uint32_t p, uint32_t child) {
    parent[child] = p;
    next_sibling[child] = first_child[p];
    first_child[p] = child;
    ++num_children[p];
  };

  if (n > 0) {
    MergeDsu dsu(n);
    // Vertices grouped by core number; peel_order is sorted by
    // non-decreasing core number, so iterate it backwards for the
    // decreasing-level sweep.
    const std::vector<VertexId>& order = cores.peel_order;
    size_t hi = order.size();
    while (hi > 0) {
      // [lo, hi) is the block of vertices with this core number.
      const uint32_t block_level = cores.core[order[hi - 1]];
      size_t lo = hi;
      while (lo > 0 && cores.core[order[lo - 1]] == block_level) --lo;
      // All level-`block_level` vertices are now active; union each with
      // its already-active neighbors (core >= block_level).
      for (size_t i = lo; i < hi; ++i) {
        const VertexId v = order[i];
        for (VertexId w : graph.Neighbors(v)) {
          if (cores.core[w] < block_level) continue;
          uint32_t rv = dsu.Find(v);
          const uint32_t rw = dsu.Find(w);
          if (rv == rw) continue;
          const uint32_t nv = dsu.NodeOf(rv);
          const uint32_t nw = dsu.NodeOf(rw);
          // A component may be represented by an internal node already
          // created at this level — reuse it as the merge target so leaf
          // paths stay short (one node per (component, level)). Leaves
          // are never targets: they cannot adopt children.
          const bool nv_reusable =
              level[nv] == block_level && vertex[nv] == kNil;
          const bool nw_reusable =
              level[nw] == block_level && vertex[nw] == kNil;
          uint32_t target;
          if (nv_reusable && nw_reusable) {
            // Fold the node with fewer children into the other; it becomes
            // an orphan no leaf path traverses. A moved child always lands
            // in a list at least twice as long as the one it left, so each
            // child moves O(log n) times: O(n log n) moves in all.
            target = num_children[nv] >= num_children[nw] ? nv : nw;
            const uint32_t source = target == nv ? nw : nv;
            uint32_t child = first_child[source];
            while (child != kNil) {
              const uint32_t next = next_sibling[child];
              attach(target, child);
              child = next;
            }
            counts.child_moves += num_children[source];
            ++counts.folds;
            first_child[source] = kNil;
            num_children[source] = 0;
          } else if (nv_reusable) {
            target = nv;
            attach(nv, nw);
          } else if (nw_reusable) {
            target = nw;
            attach(nw, nv);
          } else {
            target = new_node(block_level);
            attach(target, nv);
            attach(target, nw);
          }
          const uint32_t root = dsu.Link(rv, rw);
          dsu.SetNode(root, target);
        }
      }
      hi = lo;
    }
  }

  if (stats != nullptr) *stats = counts;
  degeneracy_ = cores.degeneracy;
  core_ = ConstArray<uint32_t>(std::move(cores.core));
  node_level_ = ConstArray<uint32_t>(std::move(level));
  node_parent_ = ConstArray<uint32_t>(std::move(parent));
  node_first_child_ = ConstArray<uint32_t>(std::move(first_child));
  node_next_sibling_ = ConstArray<uint32_t>(std::move(next_sibling));
  node_vertex_ = ConstArray<VertexId>(std::move(vertex));
}

CoreIndex CoreIndex::FromParts(ConstArray<uint32_t> core, uint32_t degeneracy,
                               ConstArray<uint32_t> node_level,
                               ConstArray<uint32_t> node_parent,
                               ConstArray<uint32_t> node_first_child,
                               ConstArray<uint32_t> node_next_sibling,
                               ConstArray<VertexId> node_vertex) {
  CoreIndex index;
  index.core_ = std::move(core);
  index.degeneracy_ = degeneracy;
  index.node_level_ = std::move(node_level);
  index.node_parent_ = std::move(node_parent);
  index.node_first_child_ = std::move(node_first_child);
  index.node_next_sibling_ = std::move(node_next_sibling);
  index.node_vertex_ = std::move(node_vertex);
  return index;
}

uint32_t CoreIndex::AncestorAtLevel(VertexId v, uint32_t k) const {
  if (core_[v] < k) return kNil;
  uint32_t node = v;  // leaf
  while (node_parent_[node] != kNil &&
         node_level_[node_parent_[node]] >= k) {
    node = node_parent_[node];
  }
  return node;
}

std::vector<VertexId> CoreIndex::SubtreeLeaves(uint32_t node) const {
  std::vector<VertexId> members;
  std::vector<uint32_t> stack = {node};
  while (!stack.empty()) {
    const uint32_t cur = stack.back();
    stack.pop_back();
    if (node_vertex_[cur] != kNil) {
      members.push_back(node_vertex_[cur]);
      continue;
    }
    for (uint32_t child = node_first_child_[cur]; child != kNil;
         child = node_next_sibling_[child]) {
      stack.push_back(child);
    }
  }
  return members;
}

std::vector<VertexId> CoreIndex::CstMembers(VertexId v, uint32_t k) const {
  LOCS_CHECK_LT(v, core_.size());
  const uint32_t node = AncestorAtLevel(v, k);
  if (node == kNil) return {};
  return SubtreeLeaves(node);
}

Community CoreIndex::Csm(VertexId v) const {
  LOCS_CHECK_LT(v, core_.size());
  Community community;
  community.min_degree = core_[v];
  community.members = CstMembers(v, core_[v]);
  return community;
}

}  // namespace locs
