// Pure helpers of the murphyd benchmark: the seeded arrival schedule, the
// percentile-support rule and the derived per-layer ratios. Nothing here
// touches a socket, a clock or the engine, so tests/stats_test.cpp pins each
// rule down on fixed inputs.
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace perfbench {

// splitmix64: a self-contained seeded generator, so the schedule depends on
// the seed alone and not on any library's distribution implementation.
class SplitMix {
 public:
  explicit SplitMix(std::uint64_t seed) : state_(seed) {}
  std::uint64_t next();
  // Uniform in (0, 1].
  double unit();

 private:
  std::uint64_t state_;
};

// Due times (seconds from phase start, ascending, all < duration_s) of a
// Poisson arrival process with `rate_per_s` arrivals per second.
[[nodiscard]] std::vector<double> poisson_schedule(std::uint64_t seed,
                                                   double rate_per_s,
                                                   double duration_s);

// Due times of `count` events, one per equal tick of duration_s: event k
// falls at (k + lo + (hi - lo) * u_k) ticks, u_k uniform in (0, 1] from the
// seed. lo == hi gives a fixed, evenly spaced schedule.
[[nodiscard]] std::vector<double> tick_schedule(std::uint64_t seed,
                                                std::size_t count,
                                                double duration_s, double lo,
                                                double hi);

// The highest percentile (as a fraction, capped at `cap`) that still has at
// least `beyond` samples above it among n samples: 1 - beyond / n. Returns
// nullopt when n <= beyond, where no tail percentile is supported.
[[nodiscard]] std::optional<double> supported_tail(std::size_t n,
                                                   double cap = 0.99,
                                                   std::size_t beyond = 10);

// Nearest-rank quantile of an ascending sample (p in [0, 1]); 0 when empty.
[[nodiscard]] double quantile_sorted(const std::vector<double>& sorted,
                                     double p);

// Mean of an ascending sample without its lowest and highest `trim` share
// (floor(trim * n) samples dropped at each end); 0 when empty. With trim
// 0.25 this is the interquartile mean. Where the host's load splits one
// request's cost into a fast and a slow mode, the median jumps between the
// modes as the slow share crosses one half; this mean moves in proportion
// to that share, and rare stalls in the top quarter do not move it at all.
[[nodiscard]] double trimmed_mean_sorted(const std::vector<double>& sorted,
                                         double trim);

// A timing reported as its median plus its supported tail.
struct Summary {
  std::size_t n = 0;
  double p50 = 0.0;
  double tail = 0.0;     // value at tail_p (the median when no tail is)
  double tail_p = 0.5;   // the percentile `tail` reports, as a fraction
  double iqm = 0.0;      // interquartile mean: of the middle half
};
[[nodiscard]] Summary summarize(std::vector<double> samples);

// Quantile of a fixed-bucket histogram (bucket i counts values <= bounds[i],
// the last count is the overflow bucket), interpolated linearly inside the
// bucket that holds it; values in the overflow bucket report the last bound.
[[nodiscard]] double histogram_quantile(
    const std::vector<double>& bounds,
    const std::vector<std::uint64_t>& counts, double p);

// Completions binned into equal windows of a closed-loop phase; the rate
// reported is the interquartile mean over the whole windows, so a burst of
// host noise in part of the phase moves it less than it moves the mean,
// and a host that switches between a fast and a slow state moves it in
// proportion to the slow share instead of jumping as the median does.
class RateBins {
 public:
  RateBins() = default;
  // Whole windows of `width_s` that fit in [start_s, start_s + duration_s).
  RateBins(double start_s, double duration_s, double width_s);
  // Counts `n` completions at time t_s; times outside the windows are
  // ignored.
  void add(double t_s, std::uint64_t n = 1);
  [[nodiscard]] double iqm_rate() const;  // per second; 0 without bins
  [[nodiscard]] std::uint64_t total() const;
  [[nodiscard]] const std::vector<std::uint64_t>& counts() const {
    return counts_;
  }

 private:
  double start_ = 0.0;
  double width_ = 1.0;
  std::vector<std::uint64_t> counts_;
};

// num / den, or 0 when den is 0.
[[nodiscard]] double ratio(double num, double den);
// Share of lookups that hit: hits / (hits + misses).
[[nodiscard]] double hit_ratio(std::uint64_t hits, std::uint64_t misses);
// Nanoseconds per unit of work for `ms` milliseconds spent on `units`.
[[nodiscard]] double ns_per(double ms, std::uint64_t units);
// Mean time a diagnosis spent in the service outside the engine (shared
// lock wait plus set-up): (sum of service.run_ms - sum of phase.total_ms)
// over the n diagnoses, never negative.
[[nodiscard]] double lock_wait_mean_ms(double run_ms_sum,
                                       double engine_ms_sum, std::uint64_t n);

// A response line of the murphyd protocol, split at its tag: "#17 OK ..."
// gives tag 17 and body "OK ...". nullopt when the line carries no numeric
// tag.
struct TaggedLine {
  std::uint64_t tag = 0;
  std::string_view body;
};
[[nodiscard]] std::optional<TaggedLine> split_tag(std::string_view line);

// The fields of an "OK id=.. version=.. run_ms=.. 1:a 2:b .." DIAGNOSE
// response the checks use; nullopt for anything else.
struct DiagnoseReply {
  std::uint64_t version = 0;
  double run_ms = 0.0;
  std::vector<std::string> top;  // ranked cause names, at most five
};
[[nodiscard]] std::optional<DiagnoseReply> parse_diagnose_ok(
    std::string_view body);

}  // namespace perfbench
