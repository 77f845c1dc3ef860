#include "src/stats/summary.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <limits>

namespace murphy::stats {

void OnlineStats::add(double x) {
  if (n_ == 0) {
    min_ = max_ = x;
  } else {
    min_ = std::min(min_, x);
    max_ = std::max(max_, x);
  }
  ++n_;
  const double delta = x - mean_;
  mean_ += delta / static_cast<double>(n_);
  m2_ += delta * (x - mean_);
}

double OnlineStats::variance() const {
  if (n_ < 2) return 0.0;
  return m2_ / static_cast<double>(n_ - 1);
}

double OnlineStats::stddev() const { return std::sqrt(variance()); }

double mean(std::span<const double> xs) {
  if (xs.empty()) return 0.0;
  double s = 0.0;
  for (double x : xs) s += x;
  return s / static_cast<double>(xs.size());
}

double variance(std::span<const double> xs) {
  if (xs.size() < 2) return 0.0;
  const double mu = mean(xs);
  double s = 0.0;
  for (double x : xs) s += (x - mu) * (x - mu);
  return s / static_cast<double>(xs.size() - 1);
}

double stddev(std::span<const double> xs) { return std::sqrt(variance(xs)); }

double zscore(double x, double mu, double sigma, double sigma_floor) {
  return (x - mu) / std::max(sigma, sigma_floor);
}

namespace {

// Linear-interpolated quantile of a sorted sample, reading its order
// statistics through `at`.
template <typename At>
double sorted_quantile(std::size_t n, double q, At at) {
  const double pos = q * static_cast<double>(n - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const auto hi = static_cast<std::size_t>(std::ceil(pos));
  const double frac = pos - static_cast<double>(lo);
  return at(lo) * (1.0 - frac) + at(hi) * frac;
}

// 1.4826 * MAD, or 0.1 * sigma when the MAD degenerates to 0 (heavily
// quantized series, >50% identical values).
double robust_or_fallback(double mad, double sigma) {
  const double robust = 1.4826 * mad;
  return robust > 1e-12 ? robust : 0.1 * sigma;
}

}  // namespace

double quantile(std::span<const double> xs, double q) {
  assert(!xs.empty());
  assert(q >= 0.0 && q <= 1.0);
  std::vector<double> v(xs.begin(), xs.end());
  std::sort(v.begin(), v.end());
  return sorted_quantile(v.size(), q, [&](std::size_t i) { return v[i]; });
}

double median(std::span<const double> xs) {
  if (xs.empty()) return 0.0;
  return quantile(xs, 0.5);
}

double mad_sigma(std::span<const double> xs) {
  if (xs.size() < 2) return 0.0;
  const double med = median(xs);
  std::vector<double> dev(xs.size());
  for (std::size_t i = 0; i < xs.size(); ++i) dev[i] = std::abs(xs[i] - med);
  return robust_or_fallback(median(dev), stddev(xs));
}

double median_sorted(std::span<const double> sorted) {
  if (sorted.empty()) return 0.0;
  return sorted_quantile(sorted.size(), 0.5,
                         [&](std::size_t i) { return sorted[i]; });
}

double mad_sigma_sorted(std::span<const double> sorted, double sigma) {
  const std::size_t n = sorted.size();
  if (n < 2) return 0.0;
  const double med = median_sorted(sorted);
  // The deviations |x - med| of the values below the median, walked
  // downward (run a), and of the rest, walked upward (run b), are two
  // ascending runs; their merge is the sorted deviation sample. Its middle
  // order statistics are found by bisecting how many of the smallest
  // `take` deviations come from run a.
  const std::size_t split = static_cast<std::size_t>(
      std::lower_bound(sorted.begin(), sorted.end(), med) - sorted.begin());
  const std::size_t na = split;
  const std::size_t nb = n - split;
  const auto a = [&](std::size_t i) { return std::abs(sorted[split - 1 - i] - med); };
  const auto b = [&](std::size_t j) { return std::abs(sorted[split + j] - med); };
  const std::size_t take = (n - 1) / 2 + 1;  // through the lower middle
  std::size_t lo = take > nb ? take - nb : 0;
  std::size_t hi = std::min(take, na);
  while (lo < hi) {
    const std::size_t i = lo + (hi - lo) / 2;
    if (a(i) < b(take - 1 - i))
      lo = i + 1;
    else
      hi = i;
  }
  constexpr double kInf = std::numeric_limits<double>::infinity();
  const std::size_t from_b = take - lo;
  const double lower = std::max(lo > 0 ? a(lo - 1) : -kInf,
                                from_b > 0 ? b(from_b - 1) : -kInf);
  const double upper = std::min(lo < na ? a(lo) : kInf,
                                from_b < nb ? b(from_b) : kInf);
  const double mad = sorted_quantile(n, 0.5, [&](std::size_t i) {
    return i == (n - 1) / 2 ? lower : upper;
  });
  return robust_or_fallback(mad, sigma);
}

double mase(std::span<const double> predicted, std::span<const double> actual) {
  assert(predicted.size() == actual.size());
  if (actual.size() < 2) return 0.0;
  double err = 0.0;
  for (std::size_t i = 0; i < actual.size(); ++i)
    err += std::abs(predicted[i] - actual[i]);
  err /= static_cast<double>(actual.size());

  double naive = 0.0;
  for (std::size_t i = 1; i < actual.size(); ++i)
    naive += std::abs(actual[i] - actual[i - 1]);
  naive /= static_cast<double>(actual.size() - 1);

  if (naive < 1e-12) return err < 1e-12 ? 0.0 : 1e6;
  return err / naive;
}

std::vector<double> sorted_copy(std::span<const double> xs) {
  std::vector<double> v(xs.begin(), xs.end());
  std::sort(v.begin(), v.end());
  return v;
}

}  // namespace murphy::stats
