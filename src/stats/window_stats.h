// Training-window column moment cache.
//
// Every correlation in Murphy's training hot path (feature scoring, the
// baselines' edge weighting) re-derives the same per-column statistics: the
// mean, the centered column, and its sum of squared deviations. WindowStats
// materializes them once per column per cache key,
// turning each pairwise pearson()/spearman()/abnormality_correlation() into
// a single cached-dot-product kernel (pearson_centered) instead of a
// three-pass rescan.
//
// Bit-identity contract: every cached quantity is computed with the exact
// accumulation order of the function it replaces —
//   mean     = stats::mean(values)            (index-order sum / n)
//   centered = values[i] - mean               (the dx of pearson())
//   sxx      = sum centered[i]^2, index order (pearson's sxx accumulator;
//              also variance()'s numerator, so sigma = sqrt(sxx / (n-1)))
// so kernels over cached columns reproduce the uncached results bitwise.
//
// Columns are keyed by an opaque 64-bit id chosen by the caller (the core
// layer hashes (entity, kind, series write epoch, train window); keys only
// need to identify the column's contents).
// The cache is safe for concurrent get_or_build() calls: the map is guarded
// by a shared mutex and each column is built exactly once via a per-entry
// once_flag, so parallel batch diagnoses share one materialization.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <shared_mutex>
#include <unordered_map>
#include <vector>

namespace murphy::stats {

// Fused moments of one training-window column.
struct ColumnMoments {
  std::vector<double> values;    // raw window values
  std::vector<double> centered;  // values[i] - mean
  double mean = 0.0;
  double sxx = 0.0;    // sum of squared deviations (pearson's accumulator)
  double sigma = 0.0;  // classic stddev, sqrt(sxx / (n-1)); 0 when n < 2

  // Lazy extras for the rank / abnormality kernels (built on demand, see
  // WindowStats::with_ranks / with_abnormality):
  // centered midranks + their mean and sum of squares — spearman(x, y) is
  // pearson(ranks(x), ranks(y)), so two rank columns make it one dot. The
  // means ride along because pearson_centered's scale-aware constancy test
  // needs them.
  std::vector<double> rank_centered;
  double rank_mean = 0.0;
  double rank_sxx = 0.0;
  // centered |z|-score column — abnormality_correlation(x, y) is
  // pearson(|z|(x), |z|(y)).
  std::vector<double> abn_centered;
  double abn_mean = 0.0;
  double abn_sxx = 0.0;
};

// Builds the eager (pearson) moments of one column. Non-finite values are a
// telemetry defect (DESIGN.md §8): they are replaced by 0.0 — the engine's
// missing-value fallback, matching TimeSeries::window() — before any moment
// is accumulated (counter `train.nonfinite_cells`), so one poisoned slice
// can no longer NaN a whole generation of cached moments. Finite columns
// are processed bit-identically to before.
[[nodiscard]] ColumnMoments build_column_moments(std::vector<double> values);

class WindowStats {
 public:
  using Loader = std::function<std::vector<double>()>;

  // Drops every cached column unless `fingerprint` matches the generation
  // the cache was built at. The core layer's TrainingCaches derives it from
  // the db's identity and structure (core/factor_cache.h).
  void reset(std::uint64_t fingerprint);
  [[nodiscard]] std::uint64_t fingerprint() const { return fingerprint_; }

  // Returns the moments for `key`, invoking `loader` to fetch the raw
  // column exactly once per generation (across all threads).
  const ColumnMoments& get_or_build(std::uint64_t key, const Loader& loader);

  // Same, but additionally guarantees the rank (spearman) or |z|-score
  // (abnormality) columns are populated.
  const ColumnMoments& with_ranks(std::uint64_t key, const Loader& loader);
  const ColumnMoments& with_abnormality(std::uint64_t key,
                                        const Loader& loader);

  // Lifetime hit/miss tallies (a miss builds the base column). Approximate
  // under concurrency only in the sense of being relaxed atomics; totals are
  // exact once the parallel region joins.
  [[nodiscard]] std::uint64_t hits() const;
  [[nodiscard]] std::uint64_t misses() const;

  [[nodiscard]] std::size_t size() const;

  // Drops every entry (keeping the fingerprint) when the map holds more than
  // `max_entries`. Epoch-keyed callers retire stale entries by changing
  // keys, so dead columns accumulate; this bounds them. Dropping entries is
  // always correct (just future misses), but the caller must guarantee no
  // ColumnMoments reference obtained from this cache is still live.
  void prune(std::size_t max_entries);

 private:
  struct Entry {
    std::once_flag base_once;
    std::once_flag rank_once;
    std::once_flag abn_once;
    ColumnMoments moments;
  };

  Entry& entry_for(std::uint64_t key);

  mutable std::shared_mutex mu_;
  std::unordered_map<std::uint64_t, std::unique_ptr<Entry>> columns_;
  std::uint64_t fingerprint_ = 0;
  std::atomic<std::uint64_t> hits_{0};
  std::atomic<std::uint64_t> misses_{0};
};

}  // namespace murphy::stats
