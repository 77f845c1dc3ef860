// Cross-symptom training caches and their one invalidation regime.
//
// A batch diagnosis runs one full FactorSet training per symptom, but the
// symptoms of one incident overwhelmingly share their relationship-graph
// neighborhoods: the same (entity, metric) conditional, fit on the same
// window against the same in-neighbor candidate set, is re-trained once per
// symptom. FactorCache trains each such factor exactly once and shares the
// fitted model across symptoms (and, in the diagnosis service, across
// requests).
//
// Why sharing is bitwise safe: a ridge factor is a pure function of
//   (target history, candidate feature histories in selection order,
//    training options),
// none of which depend on the graph's node numbering. Feature selection is
// graph-invariant too — candidates are scored by |pearson| (a pure function
// of the two histories) and ties break on (entity, kind), not VarIndex (see
// FactorSet). The cache key is (entity, kind, hash of the sorted in-neighbor
// entity set) plus the train window and the write epochs of every series
// the fit may read — each metric kind of the target's entity and of its
// in-neighbors, so a freshly appearing series changes the key too (a
// WindowStats key likewise mixes the epoch of the one series its column
// reads). Equal keys imply an identical candidate set over
// identical histories, hence an identical scored list, selection, fit,
// residual and historical moments.
//
// Validity (TrainingCaches): one generation fingerprint over
// MonitoringDb::uid() — a process-unique id, immune to the address
// recycling that made an &db fingerprint an ABA hazard — plus
// structural_data_version() and the fit-shaping options (top_b, l2,
// recency_half_life). Value writes do not move it: they change the epoch
// keys of exactly the entries that read the touched series, and everything
// else keeps hitting. Structural changes (entities, associations, axis
// swap, erasure) and a different db reset both caches. Entries build
// exactly once across threads (shared-mutex map + per-entry once_flag), so
// parallel trainings need no external locking.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <shared_mutex>
#include <unordered_map>
#include <vector>

#include "src/common/ids.h"
#include "src/stats/ridge.h"
#include "src/stats/window_stats.h"

namespace murphy::telemetry {
class MonitoringDb;
}  // namespace murphy::telemetry

namespace murphy::core {

struct FactorTrainingOptions;  // factor_model.h

// One trained factor in graph-independent form: features are (entity, kind)
// refs, not VarIndex, so any graph containing the entities can rebind it.
struct CachedFactor {
  std::vector<MetricRef> features;  // selection order
  std::shared_ptr<const stats::RidgeRegression> model;  // null: no features
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

  // Returns the factor for `key`, invoking `trainer` exactly once per
  // generation across all threads. `trained` (optional) reports whether THIS
  // call did the training (a miss).
  const CachedFactor& get_or_train(std::uint64_t key, const Trainer& trainer,
                                   bool* trained = nullptr);

  // Drops every entry (keeping the fingerprint) when the map holds more than
  // `max_entries` — the size bound for epoch keys, whose stale entries are
  // retired by key change rather than generation reset. Only safe when no
  // CachedFactor reference from this cache is live.
  void prune(std::size_t max_entries);

 private:
  struct Entry {
    std::once_flag once;
    CachedFactor factor;
  };

  mutable std::shared_mutex mu_;
  std::unordered_map<std::uint64_t, std::unique_ptr<Entry>> entries_;
  std::uint64_t fingerprint_ = 0;
};

// The window-moment cache and the factor cache under one generation
// fingerprint (see the file comment). BatchDiagnoser and DiagnosisService
// both train through one of these.
class TrainingCaches {
 public:
  // The size bound both callers prune to (DiagnosisServiceOptions'
  // default, BatchDiagnoser's fixed bound).
  static constexpr std::size_t kDefaultMaxEntries = 8192;

  // Resets both caches unless (db identity, db structure, `opts`' fit-
  // shaping fields) matches the current generation, then points `opts` at
  // them. The db must not change until the training that uses `opts` ends.
  void attach(const telemetry::MonitoringDb& db, FactorTrainingOptions& opts);

  // Drops either cache's entries when it holds more than `max_entries`.
  // Only safe when no reference obtained from the caches is live.
  void prune(std::size_t max_entries);

 private:
  stats::WindowStats window_stats_;
  FactorCache factor_cache_;
};

}  // namespace murphy::core
