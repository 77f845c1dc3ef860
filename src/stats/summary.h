// Descriptive statistics: summaries, z-scores, quantiles, error metrics.
#pragma once

#include <cstddef>
#include <span>
#include <vector>

namespace murphy::stats {

// Single-pass (Welford) accumulator for mean/variance; numerically stable.
class OnlineStats {
 public:
  void add(double x);

  [[nodiscard]] std::size_t count() const { return n_; }
  [[nodiscard]] double mean() const { return n_ ? mean_ : 0.0; }
  // Sample variance (n-1 denominator); 0 with fewer than 2 points.
  [[nodiscard]] double variance() const;
  [[nodiscard]] double stddev() const;
  [[nodiscard]] double min() const { return min_; }
  [[nodiscard]] double max() const { return max_; }

 private:
  std::size_t n_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;
  double min_ = 0.0;
  double max_ = 0.0;
};

[[nodiscard]] double mean(std::span<const double> xs);
[[nodiscard]] double variance(std::span<const double> xs);  // sample variance
[[nodiscard]] double stddev(std::span<const double> xs);

// (x - mean) / stddev with a floor on stddev so constant series don't blow up.
[[nodiscard]] double zscore(double x, double mu, double sigma,
                            double sigma_floor = 1e-9);

// Linear-interpolated quantile, q in [0, 1]. Copies and sorts internally.
[[nodiscard]] double quantile(std::span<const double> xs, double q);

// Median (quantile 0.5); 0 on empty input.
[[nodiscard]] double median(std::span<const double> xs);

// Robust scale estimate: 1.4826 * median(|x - median(x)|), which equals the
// standard deviation for Gaussian data but ignores up to ~50% outliers. Used
// for anomaly scoring where the training window may contain the incident
// itself (online training, §4.2). Falls back to a fraction of the classic
// stddev when the MAD is degenerate (heavily discrete data).
[[nodiscard]] double mad_sigma(std::span<const double> xs);

// median() and mad_sigma() of an already ascending-sorted sample, without
// a copy or a sort: bitwise equal to the unsorted entry points, except
// that mad_sigma_sorted's degenerate-MAD fallback is 0.1 * `sigma`, the
// caller's classic stddev of the sample.
[[nodiscard]] double median_sorted(std::span<const double> sorted);
[[nodiscard]] double mad_sigma_sorted(std::span<const double> sorted,
                                      double sigma);

// Mean Absolute Scaled Error of predictions vs actuals, scaled by the mean
// absolute one-step (naive) change of `actual`. This is the error metric of
// the paper's Figure 8a model comparison. Returns a large sentinel when the
// naive scale is ~0 but errors are not.
[[nodiscard]] double mase(std::span<const double> predicted,
                          std::span<const double> actual);

// Empirical CDF evaluation points: returns sorted copy of xs. Used by the
// bench printers to render CDF series.
[[nodiscard]] std::vector<double> sorted_copy(std::span<const double> xs);

}  // namespace murphy::stats
