// Dynamic hierarchical clustering (paper §3.3.2). Maintains the expertise
// domains discovered so far. Each round, the new tasks start as singleton
// clusters next to the existing domain clusters, and the average-linkage
// merging process runs until the closest pair of clusters is at distance
// >= γ·d* (d* = the largest pairwise task distance observed so far).
//
// The round's outcome is reported as:
//  * a domain id for every new task,
//  * the list of freshly created domain ids, and
//  * the list of (kept, absorbed) merges of pre-existing domains — the truth
//    module uses these to merge expertise records (paper §4.2).
#ifndef ETA2_CLUSTERING_DYNAMIC_CLUSTERER_H
#define ETA2_CLUSTERING_DYNAMIC_CLUSTERER_H

#include <cstdint>
#include <iosfwd>
#include <span>
#include <vector>

#include "clustering/linkage.h"
#include "text/embedding.h"

namespace eta2::clustering {

using DomainId = std::uint32_t;

// Pairwise task-distance matrix (paper Eq. 2) over a set of semantic
// vectors. Rows are built on the parallel runtime; each cell is a pure
// function of its two points, so the result is bit-identical to a serial
// build for every thread count.
[[nodiscard]] SymmetricMatrix pairwise_task_distances(
    std::span<const text::Embedding> points);

struct DomainMerge {
  DomainId kept = 0;
  DomainId absorbed = 0;
};

struct ClusterUpdate {
  std::vector<DomainId> assignments;  // one per new task, in input order
  std::vector<DomainId> new_domains;
  std::vector<DomainMerge> merges;
};

class DynamicClusterer {
 public:
  // gamma in [0, 1]: merge-stop threshold as a fraction of d*.
  explicit DynamicClusterer(double gamma);

  // Adds a batch of task semantic vectors (all with one fixed, even
  // dimension) and runs the merging round. The first call plays the role of
  // the paper's warm-up clustering (every task starts as a singleton). A
  // round computes only the distances that involve the batch: O(B·H·dim +
  // (K+B)²) for B new tasks, H earlier tasks and K live domains. Throws
  // std::invalid_argument on a bad batch and leaves the state unchanged.
  ClusterUpdate add_tasks(std::span<const text::Embedding> vectors);

  [[nodiscard]] double gamma() const { return gamma_; }
  [[nodiscard]] double dstar() const { return dstar_; }
  [[nodiscard]] std::size_t task_count() const { return point_domain_.size(); }
  // Number of currently live domains. O(1): the live list is maintained
  // incrementally as batches are added.
  [[nodiscard]] std::size_t domain_count() const { return live_domains_.size(); }
  // Domain of the idx-th task ever added (insertion order).
  [[nodiscard]] DomainId domain_of(std::size_t task_index) const;
  // All live domain ids, ascending.
  [[nodiscard]] const std::vector<DomainId>& live_domains() const {
    return live_domains_;
  }

  // State persistence (points, labels, d*, id counter) as a text block.
  void save(std::ostream& out) const;
  [[nodiscard]] static DynamicClusterer load(std::istream& in);

 private:
  double gamma_;
  double dstar_ = 0.0;
  std::size_t dim_ = 0;
  // Every task ever added, row-major: task_count() rows of dim_ values.
  std::vector<double> points_;
  std::vector<DomainId> point_domain_;
  // Sorted-unique live domain ids. Position k in this list is the domain's
  // slot: domain_size_[k] counts its tasks, and cross_sums_(a, b) holds
  // S(a, b) = Σ_{p∈a, q∈b} d(p, q) for slots a ≠ b. The sums are derived
  // state: maintained across rounds, rebuilt by load(), never saved.
  std::vector<DomainId> live_domains_;
  std::vector<double> domain_size_;
  SymmetricMatrix cross_sums_{0};
  DomainId next_domain_ = 0;
};

}  // namespace eta2::clustering

#endif  // ETA2_CLUSTERING_DYNAMIC_CLUSTERER_H
