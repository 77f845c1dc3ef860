// The training cache and its one invalidation regime.
//
// MomentStore keeps one Slot per target problem, and every FactorSet that
// has a store trains through it. A slot holds the target's MomentBlock:
// the row-sequential sufficient statistics (stats::CrossMoments) of the
// target and all its candidates, plus the target's window values in sorted
// order. It is keyed by the column set, train_begin, the recency decay and
// the history id of every column's series (telemetry::MetricStore).
// Selection, the historical moments, the robust center/scale and the ridge
// fit all derive from the block, so a DIAGNOSE whose window grew by a few
// appended rows folds only those rows instead of refitting the whole
// history. A block persists only rows below the minimum append mark of its
// series (rows past it may still be written without moving the history
// id); the rest of the window is folded into a per-request copy. A request
// whose window ends before the block's rows trains from a transient block
// built cold. Cold and extended blocks run the same row-sequential
// accumulation from zero, so their factors are bitwise identical by
// construction.
//
// The block determines its factor bit for bit, so the slot also memoizes
// the last factor it fit, tagged with the window end and a second digest
// of the key's inputs plus each column's append mark within the window:
// rows below a mark are fixed by the history id and rows past it were
// never written, so the tag fixes every value the fit read, per-request
// rows included. A FactorSet whose target problem another symptom or
// request already fit at the same window binds the memo in place, under
// the slot mutex, sharing its model (counter `cache.factor_hits`) instead
// of fitting (`cache.factor_misses`); a hit
// reads no block data. A fit from a transient block (a window older than
// the block) stores no memo. Sharing is bitwise safe: the factor is a pure
// function of the block's columns and rows and the fit options, none of
// which depend on the graph's node numbering; selection ties break on
// (entity, kind), not VarIndex.
//
// Validity (TrainingCaches): one generation fingerprint over
// MonitoringDb::uid() — a process-unique id, immune to the address
// recycling that made an &db fingerprint an ABA hazard — plus
// structural_data_version() and the fit-shaping options (top_b, l2,
// recency_half_life). Value writes do not move it: a write below a series'
// append mark moves its history id, which retires exactly the slots that
// read it; a write at or past the mark moves only the mark, which retires
// the memos of fits that read rows past it.
// Structural changes (entities, associations, axis swap, erasure) and a
// different db reset the store. Each slot has its own mutex, held across
// its first fit, so a factor is fit once across threads while workers
// extend different blocks concurrently under the service's shared lock.
#pragma once

#include <cstdint>
#include <limits>
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

// One trained factor in graph-independent form: features are column
// positions in its MomentBlock ((entity, kind) order), not VarIndex, so any
// graph that builds the same block can rebind it.
struct CachedFactor {
  std::vector<std::size_t> features;  // selection order
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
  struct Slot {
    std::mutex mu;  // guards `block` and `memo`
    MomentBlock block;
    // The factor fit at window end `memo.end`, tagged with a second digest
    // of the block's columns, history ids and append marks (see above), so
    // a hit need not read the block.
    struct {
      TimeIndex end = std::numeric_limits<TimeIndex>::max();  // none yet
      std::uint64_t tag = 0;
      CachedFactor factor;
    } memo;
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

// The moment store under its generation fingerprint (see the file
// comment). BatchDiagnoser and DiagnosisService both train through one of
// these.
class TrainingCaches {
 public:
  // The size bound (slots) both callers prune to (DiagnosisServiceOptions'
  // default, BatchDiagnoser's fixed bound).
  static constexpr std::size_t kMaxBlocks = 16384;

  // Resets the store unless (db identity, db structure, `opts`' fit-shaping
  // fields) matches the current generation, then points `opts` at it. The
  // db must not change until the training that uses `opts` ends.
  void attach(const telemetry::MonitoringDb& db, FactorTrainingOptions& opts);

  // Drops every slot when the store holds more than `max_blocks`. Only
  // safe when no slot is in use.
  void prune(std::size_t max_blocks);

 private:
  MomentStore moment_store_;
};

}  // namespace murphy::core
