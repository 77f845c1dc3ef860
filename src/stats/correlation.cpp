#include "src/stats/correlation.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <numeric>

#include "src/stats/summary.h"

namespace murphy::stats {
namespace {

// Midrank computation into a caller-provided buffer. `order` is scratch for
// the argsort; both buffers are resized as needed so repeated calls on a
// thread reuse the same allocations.
void ranks_into(std::span<const double> x, std::vector<std::size_t>& order,
                std::vector<double>& r) {
  // NaN breaks operator< strict weak ordering, which makes std::sort UB.
  // Rank a sanitized copy instead (non-finite -> 0.0, the engine-wide
  // missing-value fallback, DESIGN.md §8); finite input takes the fast path
  // untouched.
  thread_local std::vector<double> clean;
  if (std::any_of(x.begin(), x.end(),
                  [](double v) { return !std::isfinite(v); })) {
    clean.assign(x.begin(), x.end());
    for (double& v : clean)
      if (!std::isfinite(v)) v = 0.0;
    x = clean;
  }
  order.resize(x.size());
  std::iota(order.begin(), order.end(), std::size_t{0});
  std::sort(order.begin(), order.end(),
            [&](std::size_t a, std::size_t b) { return x[a] < x[b]; });
  r.resize(x.size());
  std::size_t i = 0;
  while (i < order.size()) {
    std::size_t j = i;
    while (j + 1 < order.size() && x[order[j + 1]] == x[order[i]]) ++j;
    const double avg_rank =
        (static_cast<double>(i) + static_cast<double>(j)) / 2.0;
    for (std::size_t k = i; k <= j; ++k) r[order[k]] = avg_rank;
    i = j + 1;
  }
}

// Shared constancy test of pearson()/pearson_moments(): sxx at most
// kCorrelationRelTol^2 of the column's total sum of squares. The mean square
// is reconstructed as mean^2 + sxx/n, so both entry points decide from the
// exact same inputs and stay bit-identical. The negated `!(>)` form also
// routes NaN/Inf moments (from a poisoned column) into the defined 0 result.
bool column_degenerate(double sxx, double n, double mx) {
  const double mean_sq = mx * mx + sxx / n;
  return !(sxx > n * mean_sq * kCorrelationRelTol * kCorrelationRelTol);
}

}  // namespace

std::vector<double> midranks(std::span<const double> x) {
  thread_local std::vector<std::size_t> order;
  std::vector<double> r;
  ranks_into(x, order, r);
  return r;
}

double pearson(std::span<const double> x, std::span<const double> y) {
  assert(x.size() == y.size());
  const std::size_t n = x.size();
  if (n < 2) return 0.0;
  const double mx = mean(x);
  const double my = mean(y);
  double sxy = 0.0, sxx = 0.0, syy = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    const double dx = x[i] - mx;
    const double dy = y[i] - my;
    sxy += dx * dy;
    sxx += dx * dx;
    syy += dy * dy;
  }
  return pearson_moments(sxy, sxx, syy, static_cast<double>(n), mx, my);
}

double pearson_moments(double sxy, double sxx, double syy, double n,
                       double mx, double my) {
  if (n < 2.0) return 0.0;
  if (column_degenerate(sxx, n, mx) || column_degenerate(syy, n, my))
    return 0.0;
  const double r = sxy / std::sqrt(sxx * syy);
  return std::isfinite(r) ? r : 0.0;  // overflowed sxx*syy -> defined 0
}

double spearman(std::span<const double> x, std::span<const double> y) {
  assert(x.size() == y.size());
  if (x.size() < 2) return 0.0;
  thread_local std::vector<std::size_t> order;
  thread_local std::vector<double> rx, ry;
  ranks_into(x, order, rx);
  ranks_into(y, order, ry);
  return pearson(rx, ry);
}

double abnormality_correlation(std::span<const double> x,
                               std::span<const double> y) {
  assert(x.size() == y.size());
  const std::size_t n = x.size();
  if (n < 2) return 0.0;
  const double mx = mean(x), sx = stddev(x);
  const double my = mean(y), sy = stddev(y);
  thread_local std::vector<double> ax, ay;
  ax.resize(n);
  ay.resize(n);
  for (std::size_t i = 0; i < n; ++i) {
    ax[i] = std::abs(zscore(x[i], mx, sx));
    ay[i] = std::abs(zscore(y[i], my, sy));
  }
  return pearson(ax, ay);
}

double lagged_pearson(std::span<const double> x, std::span<const double> y,
                      std::size_t lag) {
  assert(x.size() == y.size());
  if (x.size() <= lag + 1) return 0.0;
  const std::size_t n = x.size() - lag;
  return pearson(x.subspan(0, n), y.subspan(lag, n));
}

}  // namespace murphy::stats
