// Cross-symptom factor cache.
//
// A batch diagnosis runs one full FactorSet training per symptom, but the
// symptoms of one incident overwhelmingly share their relationship-graph
// neighborhoods: the same (entity, metric) conditional, fit on the same
// window against the same in-neighbor candidate set, is re-trained once per
// symptom. This cache trains each such factor exactly once and shares the
// fitted model across symptoms.
//
// Why sharing is bitwise safe: a ridge factor is a pure function of
//   (target history, candidate feature histories in selection order,
//    training options),
// none of which depend on the graph's node numbering. Feature selection is
// graph-invariant too — candidates are scored by |pearson| (a pure function
// of the two histories) and ties break on (entity, kind), not VarIndex (see
// FactorSet). The cache key is (entity, kind, hash of the sorted in-neighbor
// entity set): equal keys imply an identical candidate set, hence an
// identical scored list, selection, fit, residual and historical moments.
// Ridge's closed-form fit ignores the per-target RNG seed; stochastic model
// families (MLP/SVR/GMM) seed by VarIndex and are therefore NOT cacheable —
// FactorSet bypasses the cache for them.
//
// Validity is a generation fingerprint derived from (train window,
// MonitoringDb::data_version(), MonitoringDb::uid() — a process-unique id,
// immune to the address recycling that made the old &db fingerprint an ABA
// hazard — and the training-option fingerprint); reset() drops every entry
// when it changes. Entries build exactly once across threads
// (shared-mutex map + per-entry once_flag), so the parallel per-symptom loop
// of BatchDiagnoser needs no external locking.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <shared_mutex>
#include <unordered_map>
#include <vector>

#include "src/common/ids.h"
#include "src/stats/predictor.h"

namespace murphy::core {

// One trained factor in graph-independent form: features are (entity, kind)
// refs, not VarIndex, so any graph containing the entities can rebind it.
struct CachedFactor {
  std::vector<MetricRef> features;  // selection order
  std::shared_ptr<const stats::Predictor> model;  // null when no features
  double hist_mean = 0.0;
  double hist_sigma = 0.0;
  double robust_center = 0.0;
  double robust_sigma = 0.0;
  std::size_t considered = 0;  // candidates scored before top-B pruning
};

// 64-bit hash chaining for cache keys/fingerprints (splitmix64 finalizer —
// not cryptographic, just well-mixed).
[[nodiscard]] std::uint64_t hash_mix(std::uint64_t h, std::uint64_t v);

class FactorCache {
 public:
  using Trainer = std::function<CachedFactor()>;

  // Drops all entries unless `fingerprint` matches the current generation.
  void reset(std::uint64_t fingerprint);
  [[nodiscard]] std::uint64_t fingerprint() const { return fingerprint_; }

  // Returns the factor for `key`, invoking `trainer` exactly once per
  // generation across all threads. `trained` (optional) reports whether THIS
  // call did the training (a miss).
  const CachedFactor& get_or_train(std::uint64_t key, const Trainer& trainer,
                                   bool* trained = nullptr);

  [[nodiscard]] std::uint64_t hits() const;
  [[nodiscard]] std::uint64_t misses() const;
  [[nodiscard]] std::size_t size() const;

  // Drops every entry (keeping the fingerprint) when the map holds more than
  // `max_entries` — the size bound for epoch-keyed callers, whose stale
  // entries are retired by key change rather than generation reset. Only
  // safe when no CachedFactor reference from this cache is live (the service
  // prunes under its exclusive db lock).
  void prune(std::size_t max_entries);

 private:
  struct Entry {
    std::once_flag once;
    CachedFactor factor;
  };

  mutable std::shared_mutex mu_;
  std::unordered_map<std::uint64_t, std::unique_ptr<Entry>> entries_;
  std::uint64_t fingerprint_ = 0;
  std::atomic<std::uint64_t> hits_{0};
  std::atomic<std::uint64_t> misses_{0};
};

}  // namespace murphy::core
