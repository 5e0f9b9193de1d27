#include "clustering/dynamic_clusterer.h"

#include <algorithm>
#include <charconv>
#include <istream>
#include <ostream>
#include <string>

#include "clustering/linkage.h"
#include "common/check.h"
#include "common/error.h"
#include "common/parallel.h"
#include "text/pairword.h"

namespace eta2::clustering {
namespace {

// Exact inline mirror of text::task_distance over two rows of a flattened
// row-major buffer: identical operation order (ascending index within each
// half, then 0.5·(q + t)), with the per-pair validation hoisted to the
// caller — so results are bit-identical to task_distance on the same data.
double task_distance_rows(const double* a, const double* b, std::size_t dim) {
  const std::size_t half = dim / 2;
  double q = 0.0;
  for (std::size_t k = 0; k < half; ++k) {
    const double d = a[k] - b[k];
    q += d * d;
  }
  double t = 0.0;
  for (std::size_t k = half; k < dim; ++k) {
    const double d = a[k] - b[k];
    t += d * d;
  }
  return 0.5 * (q + t);
}

// Gathers per-vector heap storage into one contiguous n × dim buffer so the
// distance kernels stream rows instead of chasing Embedding pointers.
std::vector<double> flatten_points(std::span<const text::Embedding> points,
                                   std::size_t dim) {
  std::vector<double> flat(points.size() * dim);
  for (std::size_t i = 0; i < points.size(); ++i) {
    std::copy(points[i].begin(), points[i].end(),
              flat.begin() + static_cast<std::ptrdiff_t>(i * dim));
  }
  return flat;
}

// Tile edges for the blocked distance pass: a 32-row block of 64-dim
// embeddings is 16 KiB, so a history tile stays L1-resident while the 16
// batch rows of a row block sweep it (DESIGN.md §11). Row blocks are the
// unit of parallel work.
constexpr std::size_t kDistanceBlock = 32;
constexpr std::size_t kRowBlock = 16;
// Rows per batch_pass call when load() rebuilds the domain sums: bounds the
// pass's slot-sum buffer at kRebuildBlock × K doubles.
constexpr std::size_t kRebuildBlock = 256;

// Position of a live domain id in the ascending live list (its slot).
std::size_t slot_of(const std::vector<DomainId>& live, DomainId id) {
  return static_cast<std::size_t>(
      std::lower_bound(live.begin(), live.end(), id) - live.begin());
}

// Result of one pass over every pair that involves a batch of B rows.
struct BatchPass {
  // B × K: slot_sums[t·K + k] = Σ d(t, q) over the history rows q in slot k,
  // added in ascending q.
  std::vector<double> slot_sums;
  // Distances between batch rows (lower triangle).
  SymmetricMatrix batch_dist{0};
  // Largest distance over all the pairs above (0 when there are none).
  double max_distance = 0.0;
};

// Compares each batch row with every history row, in ascending order, and
// with every earlier batch row. Each row block writes only its own rows of
// slot_sums and batch_dist, and every cell is a pure function of its rows
// and the ascending visit order, so the result is bit-identical at any
// thread count. Inputs are validated by the callers.
BatchPass batch_pass(const double* history,
                     std::span<const std::size_t> history_slot,
                     std::size_t slots, const double* batch,
                     std::size_t batch_count, std::size_t dim) {
  BatchPass pass;
  pass.slot_sums.assign(batch_count * slots, 0.0);
  pass.batch_dist = SymmetricMatrix(batch_count);
  const std::size_t history_count = history_slot.size();
  const std::size_t row_blocks = (batch_count + kRowBlock - 1) / kRowBlock;
  pass.max_distance = parallel::parallel_reduce(
      row_blocks, 1, 0.0,
      [&](std::size_t block_begin, std::size_t block_end) {
        double local = 0.0;
        for (std::size_t ib = block_begin; ib < block_end; ++ib) {
          const std::size_t i_begin = ib * kRowBlock;
          const std::size_t i_end = std::min(i_begin + kRowBlock, batch_count);
          // History tiles in ascending order, so every slot sum adds its
          // terms in ascending point order.
          for (std::size_t j_begin = 0; j_begin < history_count;
               j_begin += kDistanceBlock) {
            const std::size_t j_end =
                std::min(j_begin + kDistanceBlock, history_count);
            for (std::size_t i = i_begin; i < i_end; ++i) {
              const double* row = batch + i * dim;
              double* sums = pass.slot_sums.data() + i * slots;
              for (std::size_t j = j_begin; j < j_end; ++j) {
                const double d =
                    task_distance_rows(row, history + j * dim, dim);
                sums[history_slot[j]] += d;
                local = std::max(local, d);
              }
            }
          }
          for (std::size_t j_begin = 0; j_begin < i_end;
               j_begin += kDistanceBlock) {
            const std::size_t j_cap = std::min(j_begin + kDistanceBlock, i_end);
            for (std::size_t i = i_begin; i < i_end; ++i) {
              const double* row = batch + i * dim;
              const std::size_t j_end = std::min(j_cap, i);
              for (std::size_t j = j_begin; j < j_end; ++j) {
                const double d = task_distance_rows(row, batch + j * dim, dim);
                pass.batch_dist.set_unchecked(i, j, d);
                local = std::max(local, d);
              }
            }
          }
        }
        return local;
      },
      [](double a, double b) { return std::max(a, b); });
  return pass;
}

}  // namespace

SymmetricMatrix pairwise_task_distances(
    std::span<const text::Embedding> points) {
  const std::size_t n = points.size();
  if (n < 2) return SymmetricMatrix(n);
  // Hoisted validation: the same checks text::task_distance would apply to
  // every pair, performed once per call instead of n(n−1)/2 times inside
  // the parallel region.
  const std::size_t dim = points.front().size();
  std::size_t bad = 0;
  for (const auto& point : points) bad += point.size() == dim ? 0u : 1u;
  require(bad == 0, "pairwise_task_distances: dimension mismatch");
  require(dim % 2 == 0,
          "pairwise_task_distances: expected concatenated [V_Q; V_T]");
  const std::vector<double> flat = flatten_points(points, dim);
  return batch_pass(nullptr, {}, 0, flat.data(), n, dim).batch_dist;
}

DynamicClusterer::DynamicClusterer(double gamma) : gamma_(gamma) {
  require(gamma >= 0.0 && gamma <= 1.0, "DynamicClusterer: gamma in [0,1]");
}

DomainId DynamicClusterer::domain_of(std::size_t task_index) const {
  require(task_index < point_domain_.size(),
          "DynamicClusterer::domain_of: index out of range");
  return point_domain_[task_index];
}

void DynamicClusterer::save(std::ostream& out) const {
  const auto write_number = [&out](double value) {
    char buffer[64];
    const auto [ptr, ec] = std::to_chars(buffer, buffer + sizeof(buffer), value);
    ensure(ec == std::errc(), "DynamicClusterer::save: formatting failure");
    out.write(buffer, ptr - buffer);
  };
  out << "dynamic-clusterer v1\n";
  write_number(gamma_);
  out << ' ';
  write_number(dstar_);
  out << ' ' << next_domain_ << ' ' << task_count() << ' '
      << (task_count() == 0 ? 0 : dim_) << '\n';
  for (std::size_t p = 0; p < task_count(); ++p) {
    out << point_domain_[p];
    for (std::size_t k = 0; k < dim_; ++k) {
      out << ' ';
      write_number(points_[p * dim_ + k]);
    }
    out << '\n';
  }
}

DynamicClusterer DynamicClusterer::load(std::istream& in) {
  std::string tag;
  std::string version;
  require(static_cast<bool>(in >> tag >> version) &&
              tag == "dynamic-clusterer" && version == "v1",
          "DynamicClusterer::load: bad header");
  double gamma = 0.0;
  double dstar = 0.0;
  DomainId next_domain = 0;
  std::size_t point_count = 0;
  std::size_t dim = 0;
  require(static_cast<bool>(in >> gamma >> dstar >> next_domain >>
                            point_count >> dim),
          "DynamicClusterer::load: bad dimensions");
  // The rebuilt sums below assume what add_tasks guarantees: an even
  // (concatenated [V_Q; V_T]) dimension and ids below the id counter.
  require(dim % 2 == 0, "DynamicClusterer::load: odd vector dimension");
  DynamicClusterer clusterer(gamma);
  clusterer.dstar_ = dstar;
  clusterer.next_domain_ = next_domain;
  clusterer.dim_ = dim;
  for (std::size_t p = 0; p < point_count; ++p) {
    DomainId domain = 0;
    require(static_cast<bool>(in >> domain),
            "DynamicClusterer::load: truncated points");
    require(domain < next_domain,
            "DynamicClusterer::load: domain id beyond the id counter");
    clusterer.point_domain_.push_back(domain);
    for (std::size_t k = 0; k < dim; ++k) {
      double v = 0.0;
      require(static_cast<bool>(in >> v),
              "DynamicClusterer::load: truncated vector");
      clusterer.points_.push_back(v);
    }
  }

  // Rebuild the derived domain state once: each block of rows against every
  // row before it, folded into the cross sums by domain.
  auto& live = clusterer.live_domains_;
  live = clusterer.point_domain_;
  std::sort(live.begin(), live.end());
  live.erase(std::unique(live.begin(), live.end()), live.end());
  const std::size_t slots = live.size();
  std::vector<std::size_t> slot(point_count);
  clusterer.domain_size_.assign(slots, 0.0);
  for (std::size_t p = 0; p < point_count; ++p) {
    slot[p] = slot_of(live, clusterer.point_domain_[p]);
    clusterer.domain_size_[slot[p]] += 1.0;
  }
  SymmetricMatrix& sums = clusterer.cross_sums_;
  sums = SymmetricMatrix(slots);
  const double* rows = clusterer.points_.data();
  for (std::size_t begin = 0; begin < point_count; begin += kRebuildBlock) {
    const std::size_t end = std::min(begin + kRebuildBlock, point_count);
    const BatchPass pass =
        batch_pass(rows, std::span(slot).first(begin), slots,
                   rows + begin * dim, end - begin, dim);
    for (std::size_t t = 0; t < end - begin; ++t) {
      const std::size_t a = slot[begin + t];
      const double* row_sums = pass.slot_sums.data() + t * slots;
      for (std::size_t b = 0; b < slots; ++b) {
        if (b != a) sums.add_unchecked(a, b, row_sums[b]);
      }
      for (std::size_t s = 0; s < t; ++s) {
        const std::size_t b = slot[begin + s];
        if (b != a) sums.add_unchecked(a, b, pass.batch_dist.at_unchecked(t, s));
      }
    }
  }
  return clusterer;
}

ClusterUpdate DynamicClusterer::add_tasks(
    std::span<const text::Embedding> vectors) {
  ClusterUpdate update;
  if (vectors.empty()) return update;
  // Validate the whole batch before any state changes, so a rejected batch
  // leaves the clusterer as it was.
  const std::size_t dim = vectors.front().size();
  for (const auto& v : vectors) {
    require(v.size() == dim, "DynamicClusterer: inconsistent vector dimension");
  }
  require(task_count() == 0 || dim == dim_,
          "DynamicClusterer: dimension differs from previous batches");
  require(dim % 2 == 0, "DynamicClusterer: expected concatenated [V_Q; V_T]");

  const std::size_t history = task_count();
  const std::size_t batch_count = vectors.size();
  // Units for this round: one unit per existing live domain (slot order),
  // then one singleton unit per new task.
  const std::size_t existing = live_domains_.size();
  const std::size_t n_units = existing + batch_count;
  const std::vector<double> batch = flatten_points(vectors, dim);
  std::vector<std::size_t> history_slot(history);
  for (std::size_t p = 0; p < history; ++p) {
    history_slot[p] = slot_of(live_domains_, point_domain_[p]);
  }

  // 1. One pass over the new-vs-all pairs: the d* update and, per new task,
  //    its distance sum over each existing domain.
  const BatchPass pass = batch_pass(points_.data(), history_slot, existing,
                                    batch.data(), batch_count, dim);
  const double dstar = std::max(dstar_, pass.max_distance);
  const auto raw_sum = [&](std::size_t u, std::size_t v) {  // v < u
    if (u < existing) return cross_sums_.at_unchecked(u, v);
    if (v < existing) return pass.slot_sums[(u - existing) * existing + v];
    return pass.batch_dist.at_unchecked(u - existing, v - existing);
  };

  // 2. Average pairwise distance between units (paper Eq. 2): the unit's
  //    raw distance sum over the product of the two sizes.
  std::vector<double> sizes = domain_size_;
  sizes.resize(n_units, 1.0);
  SymmetricMatrix dist(n_units);
  for (std::size_t u = 1; u < n_units; ++u) {
    for (std::size_t v = 0; v < u; ++v) {
      dist.set_unchecked(u, v, raw_sum(u, v) / (sizes[u] * sizes[v]));
    }
  }

  // 3. Linkage.
  const auto dendrogram = upgma_dendrogram(dist, sizes);
  const auto labels = cut_dendrogram(dendrogram, n_units, gamma_ * dstar);
  // Every unit gets exactly one flat label; the relabel loops below index
  // labels[u] for every unit.
  ETA2_ENSURES(labels.size() == n_units);

  // Map each final cluster to a domain id: reuse the id of the existing
  // domain with most members; clusters of only-new units get fresh ids.
  std::size_t label_count = 0;
  for (const std::size_t l : labels) label_count = std::max(label_count, l + 1);

  std::vector<DomainId> label_domain(label_count, 0);
  std::vector<bool> label_has_domain(label_count, false);
  // Pick the largest existing domain inside each label as the survivor.
  std::vector<double> best_size(label_count, 0.0);
  for (std::size_t u = 0; u < existing; ++u) {
    const std::size_t l = labels[u];
    if (!label_has_domain[l] || sizes[u] > best_size[l]) {
      label_has_domain[l] = true;
      label_domain[l] = live_domains_[u];
      best_size[l] = sizes[u];
    }
  }
  // Absorbed existing domains produce merge events.
  for (std::size_t u = 0; u < existing; ++u) {
    const std::size_t l = labels[u];
    if (label_domain[l] != live_domains_[u]) {
      update.merges.push_back(DomainMerge{label_domain[l], live_domains_[u]});
    }
  }
  // Only-new clusters get fresh domain ids.
  DomainId next_domain = next_domain_;
  for (std::size_t l = 0; l < label_count; ++l) {
    if (!label_has_domain[l]) {
      label_domain[l] = next_domain++;
      label_has_domain[l] = true;
      update.new_domains.push_back(label_domain[l]);
    }
  }

  // 4. Fold: every final cluster is non-empty and has its own id, so the
  //    sorted ids are the next live list. Sizes and cross sums of the units
  //    are summed by final cluster; sums inside one cluster drop out.
  std::vector<DomainId> live = label_domain;
  std::sort(live.begin(), live.end());
  std::vector<std::size_t> label_slot(label_count);
  for (std::size_t l = 0; l < label_count; ++l) {
    label_slot[l] = slot_of(live, label_domain[l]);
  }
  std::vector<double> live_size(label_count, 0.0);
  SymmetricMatrix live_sums(label_count);
  for (std::size_t u = 0; u < n_units; ++u) {
    const std::size_t a = label_slot[labels[u]];
    live_size[a] += sizes[u];
    for (std::size_t v = 0; v < u; ++v) {
      const std::size_t b = label_slot[labels[v]];
      if (a != b) live_sums.add_unchecked(a, b, raw_sum(u, v));
    }
  }

  // Relabel every point (absorbed domains move to the surviving id).
  std::vector<DomainId> point_domain(history + batch_count);
  for (std::size_t p = 0; p < history; ++p) {
    point_domain[p] = label_domain[labels[history_slot[p]]];
  }
  update.assignments.reserve(batch_count);
  for (std::size_t t = 0; t < batch_count; ++t) {
    point_domain[history + t] = label_domain[labels[existing + t]];
    update.assignments.push_back(point_domain[history + t]);
  }

  // Commit.
  points_.insert(points_.end(), batch.begin(), batch.end());
  dim_ = dim;
  dstar_ = dstar;
  next_domain_ = next_domain;
  point_domain_ = std::move(point_domain);
  live_domains_ = std::move(live);
  domain_size_ = std::move(live_size);
  cross_sums_ = std::move(live_sums);
  return update;
}

}  // namespace eta2::clustering
