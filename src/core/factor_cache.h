// Training caches and their one invalidation regime.
//
// Two layers sit under every FactorSet training, both owned by
// TrainingCaches:
//
// FactorCache — the exact-repeat layer. A batch diagnosis trains one
// FactorSet per symptom, and the symptoms of one incident overwhelmingly
// share their relationship-graph neighborhoods: the same (entity, metric)
// conditional, fit on the same window against the same in-neighbor
// candidate set, recurs once per symptom (and, in the diagnosis service,
// once per request). FactorCache trains each such factor once and shares
// the fitted model. Sharing is bitwise safe: a ridge factor is a pure
// function of (target history, candidate feature histories, training
// options), none of which depend on the graph's node numbering; selection
// ties break on (entity, kind), not VarIndex. The key is (entity, kind,
// sorted in-neighbor entity set, train window) plus one digest per entity
// of the (kind, write epoch) of each of its series, for the target's entity
// and each in-neighbor — so a write to any series the fit may read, or a
// freshly appearing series, changes the key and everything else keeps
// hitting.
//
// MomentStore — the incremental layer behind a FactorCache miss. It keeps
// one MomentBlock per target problem: the row-sequential sufficient
// statistics (stats::CrossMoments) of the target and all its candidates,
// plus the target's window values in sorted order, keyed by the column set,
// train_begin and the history id of every column's series
// (telemetry::MetricStore). Selection, the historical moments, the robust
// center/scale and the ridge fit all derive from the block, so a DIAGNOSE
// whose window grew by a few appended rows folds only those rows instead of
// refitting the whole history. A block persists only rows below the
// minimum append mark of its series (rows past it may still be written
// without moving the history id); the rest of the window is folded into a
// per-request copy. A request whose window ends before the block's rows, or
// starts elsewhere, trains from a transient block built cold. Cold and
// extended blocks run the same row-sequential accumulation from zero, so
// their factors are bitwise identical by construction.
//
// Validity (TrainingCaches): one generation fingerprint over
// MonitoringDb::uid() — a process-unique id, immune to the address
// recycling that made an &db fingerprint an ABA hazard — plus
// structural_data_version() and the fit-shaping options (top_b, l2,
// recency_half_life). Value writes do not move it: they change the epoch
// keys (and, below an append mark, the history ids) of exactly the entries
// that read the touched series. Structural changes (entities, associations,
// axis swap, erasure) and a different db reset both layers. Each layer has
// its own size bound. Factor entries build exactly once across threads
// (shared-mutex map + per-entry once_flag); each block has its own mutex,
// so workers extend blocks concurrently under the service's shared lock.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <shared_mutex>
#include <span>
#include <unordered_map>
#include <vector>

#include "src/common/ids.h"
#include "src/common/time_axis.h"
#include "src/stats/moments.h"
#include "src/stats/ridge.h"

namespace murphy::telemetry {
class MonitoringDb;
class TimeSeries;
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

// One target's training problem in sufficient-statistic form (see the
// file comment): column 0 is the target, the rest its candidate features in
// (entity, kind) order, over rows [begin, begin + rows()).
struct MomentBlock {
  TimeIndex begin = 0;
  std::vector<MetricRef> cols;
  std::vector<std::uint64_t> history;  // per column; 0 = no series
  stats::CrossMoments plain;    // uniform weights
  stats::CrossMoments decayed;  // recency weights; 0 columns when off
  std::vector<double> sorted_target;  // target window values, ascending

  [[nodiscard]] std::size_t rows() const { return plain.rows(); }
  [[nodiscard]] TimeIndex end() const { return begin + rows(); }

  // Folds rows [end(), to) of `series` (one per column; null reads as
  // missing) with the engine's missing-value fallback 0.0.
  void extend(std::span<const telemetry::TimeSeries* const> series,
              TimeIndex to);
};

class MomentStore {
 public:
  // The store's own size bound (blocks), independent of FactorCache's.
  static constexpr std::size_t kMaxBlocks = 16384;

  struct Slot {
    std::mutex mu;  // guards `block`
    MomentBlock block;
  };

  // Drops all blocks unless `fingerprint` matches the current generation.
  void reset(std::uint64_t fingerprint);
  // The slot for `key`, created empty on first use. Lock its mutex.
  Slot& slot(std::uint64_t key);
  // Drops every block when the store holds more than `max_blocks`
  // (counter `cache.moment_prunes`). Only safe when no slot is in use.
  void prune(std::size_t max_blocks);
  [[nodiscard]] std::size_t size() const;

 private:
  mutable std::shared_mutex mu_;
  std::unordered_map<std::uint64_t, std::unique_ptr<Slot>> slots_;
  std::uint64_t fingerprint_ = 0;
};

// The factor cache and the moment store under one generation fingerprint
// (see the file comment). BatchDiagnoser and DiagnosisService both train
// through one of these.
class TrainingCaches {
 public:
  // The factor-cache size bound both callers prune to
  // (DiagnosisServiceOptions' default, BatchDiagnoser's fixed bound).
  static constexpr std::size_t kDefaultMaxEntries = 8192;

  // Resets both layers unless (db identity, db structure, `opts`' fit-
  // shaping fields) matches the current generation, then points `opts` at
  // them. The db must not change until the training that uses `opts` ends.
  void attach(const telemetry::MonitoringDb& db, FactorTrainingOptions& opts);

  // Drops the factor cache's entries when it holds more than
  // `max_entries`, and the moment store's past MomentStore::kMaxBlocks.
  // Only safe when no reference obtained from the caches is live.
  void prune(std::size_t max_entries);

 private:
  FactorCache factor_cache_;
  MomentStore moment_store_;
};

}  // namespace murphy::core
