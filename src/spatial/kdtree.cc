#include "src/spatial/kdtree.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <numeric>

#include "src/util/arena.h"
#include "src/util/check.h"
#include "src/util/simd.h"

namespace pnn {

// Tie contract (the cross-width identity rule): every query that returns a
// single winner resolves equal-distance (equal-score) candidates to the
// LOWEST point index — the pnn::MinIndex rule the SIMD argmin kernels
// already pin within a leaf. Two pieces make it hold across the whole
// tree at any leaf width:
//   * both constructors sort each leaf's order_ range ascending, so the
//     kernels' first-position tie IS the lowest index within a leaf, and
//   * the traversals never prune a node whose lower bound equals the
//     current best (strict >) and break cross-leaf ties by index.
// With that, Nearest/NearestSquared/MinAdditivelyWeighted winners and the
// Incremental emission order are pure functions of the point set —
// width-8 and width-64 trees answer bit-identically
// (tests/kd_width_test.cc).

namespace {
// Stack-buffer chunk for leaf distance scans. Leaves hold at most
// KdBuildOptions::leaf_size points (adoption now validates the leaf
// partition, so adopted trees honor their build's bound too), but the
// width is a runtime option, so the scan loops chunk rather than assume a
// compile-time bound. 128 covers every swept width in one pass.
constexpr int kScanChunk = 128;
constexpr double kInf = std::numeric_limits<double>::infinity();

// Node count of the subtree over n points. The split point of a range
// [begin, begin + n) is begin + n/2 regardless of begin, so the subtree
// shape — and with it every preorder node id — is a pure function of the
// subtree sizes and the leaf capacity. This is what lets the parallel
// build place each subtree's nodes into a precomputed id range with no
// cross-task coordination.
int SubtreeNodes(int n, int leaf_size) {
  if (n <= leaf_size) return 1;
  int left = n / 2;
  return 1 + SubtreeNodes(left, leaf_size) + SubtreeNodes(n - left, leaf_size);
}

// Both constructors' weight rule: all-zero weights are no weights, so an
// unweighted tree stores none whichever way it was spelled.
void DropZeroWeights(std::vector<double>* weights) {
  if (std::all_of(weights->begin(), weights->end(),
                  [](double w) { return w == 0.0; })) {
    std::vector<double>().swap(*weights);
  }
}
}  // namespace

void KdTree::BuildScanArrays(const std::vector<Point2>& points,
                             const std::vector<double>& weights) {
  size_t n = order_.size();
  sx_.resize(n);
  sy_.resize(n);
  for (size_t i = 0; i < n; ++i) {
    sx_[i] = points[order_[i]].x;
    sy_[i] = points[order_[i]].y;
  }
  if (weights.empty()) return;
  sw_.resize(n);
  for (size_t i = 0; i < n; ++i) sw_[i] = weights[order_[i]];
}

std::vector<Point2> KdTree::points() const {
  std::vector<Point2> out(order_.size());
  for (size_t i = 0; i < order_.size(); ++i) out[order_[i]] = {sx_[i], sy_[i]};
  return out;
}

std::vector<double> KdTree::weights() const {
  std::vector<double> out(order_.size(), 0.0);
  for (size_t i = 0; i < sw_.size(); ++i) out[order_[i]] = sw_[i];
  return out;
}

void KdTree::ScanDists(int first, int cnt, Point2 q, double* out) const {
  if (metric_ == Metric::kEuclidean) {
    // Bit-identical to Distance(q, p): sqrt(dx^2 + dy^2) (point2.h) is
    // exactly the kernel's per-element contract.
    simd::DistScan(sx_.data() + first, sy_.data() + first,
                   static_cast<size_t>(cnt), q.x, q.y, out);
    return;
  }
  for (int k = 0; k < cnt; ++k) {
    out[k] = std::max(std::abs(sx_[first + k] - q.x),
                      std::abs(sy_[first + k] - q.y));
  }
}

double KdTree::BoxDist(const Box2& box, Point2 p) const {
  if (metric_ == Metric::kChebyshev) return box.ChebyshevDistanceTo(p);
  return std::sqrt(box.SquaredDistanceTo(p));
}

KdTree::KdTree(std::vector<Point2> points, std::vector<double> weights, Metric metric,
               const BuildOptions& build)
    : metric_(metric) {
  PNN_CHECK(weights.empty() || weights.size() == points.size());
  PNN_CHECK_MSG(build.leaf_size >= 1, "leaf_size must be >= 1");
  DropZeroWeights(&weights);
  order_.resize(points.size());
  std::iota(order_.begin(), order_.end(), 0);
  if (!points.empty()) {
    int n = static_cast<int>(points.size());
    // Preallocating against the precomputed node count lets BuildRange
    // write each subtree's nodes into its own id range — no push_back, no
    // shared cursor, hence no cross-task ordering effects.
    nodes_.resize(static_cast<size_t>(SubtreeNodes(n, build.leaf_size)));
    root_ = 0;
    BuildRange(points, weights, 0, n, root_, build);
  }
  for (const Node& node : nodes_) {
    if (node.left < 0) leaf_width_ = std::max(leaf_width_, node.end - node.begin);
  }
  BuildScanArrays(points, weights);
  // The index-order arguments were build scratch; the leaf-ordered arrays
  // are the tree's only copy of the points from here on.
  std::vector<Point2>().swap(points);
  std::vector<double>().swap(weights);
}

KdTree::KdTree(std::vector<Point2> points, std::vector<double> weights, Metric metric,
               std::vector<int> order, std::vector<Node> nodes, int root)
    : metric_(metric),
      order_(std::move(order)),
      nodes_(std::move(nodes)),
      root_(root) {
  // O(n) validation: bounds checks (exactly what later array accesses
  // index with) plus the leaf-partition invariant the scan loops rely on —
  // leaves must tile [0, n) contiguously and order_ must be a permutation.
  // The store's checksum covers bit-rot; this catches structurally corrupt
  // segments (overlapping or gapped leaves) before a query walks them. A
  // fully structural validation would cost as much as the build this
  // constructor exists to skip.
  int n = static_cast<int>(points.size());
  PNN_CHECK_MSG(weights.empty() || weights.size() == points.size(),
                "weights must be empty or parallel points");
  PNN_CHECK_MSG(order_.size() == points.size(), "order must parallel points");
  DropZeroWeights(&weights);
  if (n == 0) {
    PNN_CHECK_MSG(root_ == -1 && nodes_.empty(), "empty tree must have no nodes");
    return;
  }
  int node_count = static_cast<int>(nodes_.size());
  PNN_CHECK_MSG(root_ >= 0 && root_ < node_count, "adopted root out of range");
  std::vector<char> seen(static_cast<size_t>(n), 0);
  for (int idx : order_) {
    PNN_CHECK_MSG(idx >= 0 && idx < n, "adopted order entry out of range");
    PNN_CHECK_MSG(!seen[idx], "adopted order is not a permutation");
    seen[idx] = 1;
  }
  std::vector<std::pair<int, int>> leaves;
  for (const Node& node : nodes_) {
    PNN_CHECK_MSG(node.left >= -1 && node.left < node_count &&
                      node.right >= -1 && node.right < node_count,
                  "adopted node child out of range");
    PNN_CHECK_MSG((node.left < 0) == (node.right < 0),
                  "adopted node must be leaf or have both children");
    PNN_CHECK_MSG(node.begin >= 0 && node.begin <= node.end && node.end <= n,
                  "adopted node range out of bounds");
    if (node.left < 0) leaves.emplace_back(node.begin, node.end);
  }
  std::sort(leaves.begin(), leaves.end());
  int cursor = 0;
  for (const auto& range : leaves) {
    PNN_CHECK_MSG(range.first == cursor, "adopted leaves must tile [0, n)");
    PNN_CHECK_MSG(range.second > range.first, "adopted leaf must be non-empty");
    cursor = range.second;
    leaf_width_ = std::max(leaf_width_, range.second - range.first);
  }
  PNN_CHECK_MSG(cursor == n, "adopted leaves must cover all points");
  // Tie contract: adopted leaves get the same ascending-index order the
  // building constructor produces, so adopted and fresh trees of the same
  // width stay structurally identical (and pre-sort segments upgrade
  // transparently — the next checkpoint re-serializes the sorted order).
  for (Node& node : nodes_) {
    if (node.left < 0) {
      std::sort(order_.begin() + node.begin, order_.begin() + node.end);
    }
  }
  // The segment stores points in index order; the tree keeps them only in
  // leaf order.
  BuildScanArrays(points, weights);
}

void KdTree::BuildRange(const std::vector<Point2>& points,
                        const std::vector<double>& weights, int begin, int end, int id,
                        const BuildOptions& build) {
  Node node;
  node.begin = begin;
  node.end = end;
  for (int i = begin; i < end; ++i) {
    node.box.Expand(points[order_[i]]);
  }
  if (!weights.empty()) {  // Unweighted trees keep min_w = max_w = 0.
    node.min_w = kInf;
    node.max_w = -kInf;
    for (int i = begin; i < end; ++i) {
      node.min_w = std::min(node.min_w, weights[order_[i]]);
      node.max_w = std::max(node.max_w, weights[order_[i]]);
    }
  }
  int n = end - begin;
  if (n > build.leaf_size) {
    bool split_x = node.box.Width() >= node.box.Height();
    int mid = (begin + end) / 2;
    // The partition runs before the children fork, on this task's own
    // disjoint range — every root-to-leaf call sequence therefore sees
    // exactly the element order the serial build saw.
    std::nth_element(order_.begin() + begin, order_.begin() + mid, order_.begin() + end,
                     [&](int a, int b) {
                       return split_x ? points[a].x < points[b].x
                                      : points[a].y < points[b].y;
                     });
    node.left = id + 1;  // Preorder: left subtree follows its parent.
    node.right = id + 1 + SubtreeNodes(mid - begin, build.leaf_size);
    nodes_[id] = node;
    if (build.pool != nullptr && n > build.parallel_cutoff) {
      int left_id = node.left, right_id = node.right;
      build.pool->ParallelFor(2, [&](size_t child) {
        if (child == 0) {
          BuildRange(points, weights, begin, mid, left_id, build);
        } else {
          BuildRange(points, weights, mid, end, right_id, build);
        }
      });
    } else {
      BuildRange(points, weights, begin, mid, node.left, build);
      BuildRange(points, weights, mid, end, node.right, build);
    }
  } else {
    // Tie contract: leaves hold ascending point indices, so the argmin
    // kernels' first-position tie is the lowest index within the leaf.
    std::sort(order_.begin() + begin, order_.begin() + end);
    nodes_[id] = node;
  }
}

bool KdTree::SameStructure(const KdTree& other) const {
  if (metric_ != other.metric_ || root_ != other.root_ || order_ != other.order_ ||
      sx_ != other.sx_ || sy_ != other.sy_ || sw_ != other.sw_ ||
      nodes_.size() != other.nodes_.size()) {
    return false;
  }
  for (size_t i = 0; i < nodes_.size(); ++i) {
    const Node& a = nodes_[i];
    const Node& b = other.nodes_[i];
    if (a.left != b.left || a.right != b.right || a.begin != b.begin ||
        a.end != b.end || a.min_w != b.min_w || a.max_w != b.max_w ||
        a.box.xmin != b.box.xmin || a.box.ymin != b.box.ymin ||
        a.box.xmax != b.box.xmax || a.box.ymax != b.box.ymax) {
      return false;
    }
  }
  return true;
}

int KdTree::Nearest(Point2 q, double* out_dist, const std::vector<char>* skip) const {
  PNN_CHECK_MSG(!order_.empty(), "Nearest on empty tree");
  double best = kInf;
  int best_idx = -1;
  // Iterative DFS with pruning; visits the closer child first. The stack
  // is a scratch lease: Nearest runs once per Monte-Carlo round per query,
  // so a per-call allocation here would dominate the hot path.
  util::ScratchVec<int> lease;
  std::vector<int>& stack = *lease;
  stack.clear();
  stack.push_back(root_);
  while (!stack.empty()) {
    int id = stack.back();
    stack.pop_back();
    const Node& n = nodes_[id];
    // Strict >: a subtree whose bound ties the current best may hold an
    // equal-distance point with a lower index (the tie contract).
    if (BoxDist(n.box, q) > best) continue;
    if (n.left < 0) {
      double d[kScanChunk];
      for (int i = n.begin; i < n.end; i += kScanChunk) {
        int cnt = std::min(n.end - i, kScanChunk);
        ScanDists(i, cnt, q, d);
        for (int k = 0; k < cnt; ++k) {
          if (skip != nullptr && (*skip)[order_[i + k]]) continue;
          int idx = order_[i + k];
          if (d[k] < best || (d[k] == best && idx < best_idx)) {
            best = d[k];
            best_idx = idx;
          }
        }
      }
      continue;
    }
    double dl = BoxDist(nodes_[n.left].box, q);
    double dr = BoxDist(nodes_[n.right].box, q);
    if (dl < dr) {
      stack.push_back(n.right);
      stack.push_back(n.left);
    } else {
      stack.push_back(n.left);
      stack.push_back(n.right);
    }
  }
  if (out_dist != nullptr) *out_dist = best;
  return best_idx;
}

int KdTree::NearestSquared(Point2 q, double* out_sq,
                           const std::vector<char>* skip) const {
  PNN_CHECK_MSG(metric_ == Metric::kEuclidean,
                "NearestSquared requires the Euclidean metric");
  PNN_CHECK_MSG(!order_.empty(), "NearestSquared on empty tree");
  double best = kInf;
  int best_idx = -1;
  util::ScratchVec<int> lease;
  std::vector<int>& stack = *lease;
  stack.clear();
  stack.push_back(root_);
  while (!stack.empty()) {
    int id = stack.back();
    stack.pop_back();
    const Node& n = nodes_[id];
    // Pruning and child ordering compare squared box distances — the same
    // predicates Nearest evaluates post-sqrt, minus the sqrt. Strict >
    // keeps tied subtrees visitable (the tie contract).
    if (n.box.SquaredDistanceTo(q) > best) continue;
    if (n.left < 0) {
      if (skip == nullptr) {
        double leaf_min;
        ptrdiff_t rel = simd::ArgminSquaredDist(
            sx_.data() + n.begin, sy_.data() + n.begin,
            static_cast<size_t>(n.end - n.begin), q.x, q.y, &leaf_min);
        if (rel >= 0) {
          // Leaves are index-sorted, so the kernel's first-position
          // minimum is the lowest tied index within this leaf.
          int idx = order_[n.begin + static_cast<int>(rel)];
          if (leaf_min < best || (leaf_min == best && idx < best_idx)) {
            best = leaf_min;
            best_idx = idx;
          }
        }
      } else {
        double d[kScanChunk];
        for (int i = n.begin; i < n.end; i += kScanChunk) {
          int cnt = std::min(n.end - i, kScanChunk);
          simd::SquaredDistScan(sx_.data() + i, sy_.data() + i,
                                static_cast<size_t>(cnt), q.x, q.y, d);
          for (int k = 0; k < cnt; ++k) {
            if ((*skip)[order_[i + k]]) continue;
            int idx = order_[i + k];
            if (d[k] < best || (d[k] == best && idx < best_idx)) {
              best = d[k];
              best_idx = idx;
            }
          }
        }
      }
      continue;
    }
    double dl = nodes_[n.left].box.SquaredDistanceTo(q);
    double dr = nodes_[n.right].box.SquaredDistanceTo(q);
    if (dl < dr) {
      stack.push_back(n.right);
      stack.push_back(n.left);
    } else {
      stack.push_back(n.left);
      stack.push_back(n.right);
    }
  }
  if (out_sq != nullptr) *out_sq = best;
  return best_idx;
}

std::vector<int> KdTree::KNearest(Point2 q, int k) const {
  std::vector<int> out;
  Incremental inc(*this, q);
  while (static_cast<int>(out.size()) < k && inc.HasNext()) out.push_back(inc.Next());
  return out;
}

double KdTree::MinAdditivelyWeighted(Point2 q, int* arg,
                                     const std::vector<char>* skip) const {
  PNN_CHECK_MSG(!order_.empty(), "MinAdditivelyWeighted on empty tree");
  const double* sw = sw_.empty() ? nullptr : sw_.data();  // Null: all zero.
  double best = kInf;
  int best_idx = -1;
  util::ScratchVec<int> lease;
  std::vector<int>& stack = *lease;
  stack.clear();
  stack.push_back(root_);
  while (!stack.empty()) {
    int id = stack.back();
    stack.pop_back();
    const Node& n = nodes_[id];
    // Lower bound on d(q, p) + w within the subtree. Strict > keeps tied
    // subtrees visitable (the tie contract).
    double lb = BoxDist(n.box, q) + n.min_w;
    if (lb > best) continue;
    if (n.left < 0) {
      double d[kScanChunk];
      for (int i = n.begin; i < n.end; i += kScanChunk) {
        int cnt = std::min(n.end - i, kScanChunk);
        ScanDists(i, cnt, q, d);
        for (int k = 0; k < cnt; ++k) {
          int idx = order_[i + k];
          if (skip != nullptr && (*skip)[idx]) continue;
          double v = sw != nullptr ? d[k] + sw[i + k] : d[k];
          if (v < best || (v == best && idx < best_idx)) {
            best = v;
            best_idx = idx;
          }
        }
      }
      continue;
    }
    double ll = BoxDist(nodes_[n.left].box, q) + nodes_[n.left].min_w;
    double lr = BoxDist(nodes_[n.right].box, q) + nodes_[n.right].min_w;
    if (ll < lr) {
      stack.push_back(n.right);
      stack.push_back(n.left);
    } else {
      stack.push_back(n.left);
      stack.push_back(n.right);
    }
  }
  if (arg != nullptr) *arg = best_idx;
  return best;
}

std::vector<int> KdTree::ReportSubtractiveLess(Point2 q, double bound) const {
  std::vector<int> out;
  ReportSubtractiveLessInto(q, bound, &out);
  return out;
}

void KdTree::ReportSubtractiveLessInto(Point2 q, double bound,
                                       std::vector<int>* out) const {
  if (root_ < 0) return;
  const double* sw = sw_.empty() ? nullptr : sw_.data();  // Null: all zero.
  util::ScratchVec<int> lease;
  std::vector<int>& stack = *lease;
  stack.clear();
  stack.push_back(root_);
  while (!stack.empty()) {
    int id = stack.back();
    stack.pop_back();
    const Node& n = nodes_[id];
    // Lower bound on d(q, p) - w within the subtree.
    double lb = BoxDist(n.box, q) - n.max_w;
    if (lb >= bound) continue;
    if (n.left < 0) {
      double d[kScanChunk];
      for (int i = n.begin; i < n.end; i += kScanChunk) {
        int cnt = std::min(n.end - i, kScanChunk);
        ScanDists(i, cnt, q, d);
        for (int k = 0; k < cnt; ++k) {
          double v = sw != nullptr ? d[k] - sw[i + k] : d[k];
          if (v < bound) out->push_back(order_[i + k]);
        }
      }
      continue;
    }
    stack.push_back(n.left);
    stack.push_back(n.right);
  }
}

KdTree::Incremental::Incremental(const KdTree& tree, Point2 q) : tree_(tree), q_(q) {
  heap_->clear();
  if (tree_.root_ >= 0) PushNode(tree_.root_);
}

void KdTree::Incremental::Push(Entry e) {
  heap_->push_back(e);
  std::push_heap(heap_->begin(), heap_->end());
}

KdTree::Incremental::Entry KdTree::Incremental::Pop() {
  std::pop_heap(heap_->begin(), heap_->end());
  Entry e = heap_->back();
  heap_->pop_back();
  return e;
}

void KdTree::Incremental::PushNode(int node) {
  const Node& n = tree_.nodes_[node];
  Push({tree_.BoxDist(n.box, q_), node, -1});
}

int KdTree::Incremental::Next(double* dist) {
  while (!heap_->empty()) {
    Entry top = Pop();
    if (top.node < 0) {
      if (dist != nullptr) *dist = top.key;
      return top.point;
    }
    const Node& n = tree_.nodes_[top.node];
    if (n.left < 0) {
      double d[kScanChunk];
      for (int i = n.begin; i < n.end; i += kScanChunk) {
        int cnt = std::min(n.end - i, kScanChunk);
        tree_.ScanDists(i, cnt, q_, d);
        for (int k = 0; k < cnt; ++k) {
          Push({d[k], -1, tree_.order_[i + k]});
        }
      }
    } else {
      PushNode(n.left);
      PushNode(n.right);
    }
  }
  PNN_CHECK_MSG(false, "Next() called with no remaining points");
  return -1;
}

}  // namespace pnn
