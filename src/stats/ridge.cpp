#include "src/stats/ridge.h"

#include <algorithm>
#include <cassert>
#include <cmath>

#include "src/obs/metrics.h"
#include "src/stats/summary.h"

namespace murphy::stats {

RidgeRegression::RidgeRegression(double l2) : l2_(l2) { assert(l2 >= 0.0); }

void RidgeRegression::fit(const Matrix& x, const Vector& y) {
  fit_weighted(x, y, Vector(x.rows(), 1.0));
}

void RidgeRegression::fit_weighted(const Matrix& x, const Vector& y,
                                   const Vector& weights) {
  // Kernel-boundary guard (DESIGN.md §8): a NaN/Inf design or target cell
  // would propagate through the Gram matrix and poison every coefficient.
  // Non-finite cells degrade to 0.0 (the engine's missing-value fallback,
  // matching TimeSeries::window) in a local copy; finite inputs take the
  // fast path below untouched, so clean fits are bit-identical.
  bool finite = true;
  for (std::size_t i = 0; i < x.rows() && finite; ++i) {
    const double* row = x.row(i);
    for (std::size_t j = 0; j < x.cols(); ++j) {
      if (!std::isfinite(row[j])) {
        finite = false;
        break;
      }
    }
    if (!std::isfinite(y[i])) finite = false;
  }
  if (!finite) {
    Matrix xc = x;
    Vector yc = y;
    std::size_t cells = 0;
    for (std::size_t i = 0; i < xc.rows(); ++i) {
      for (std::size_t j = 0; j < xc.cols(); ++j) {
        double& v = xc.at(i, j);
        if (!std::isfinite(v)) {
          v = 0.0;
          ++cells;
        }
      }
      if (!std::isfinite(yc[i])) {
        yc[i] = 0.0;
        ++cells;
      }
    }
#ifndef MURPHY_OBS_DISABLED
    obs::global_metrics().counter("train.nonfinite_cells")->add(cells);
#endif
    fit_weighted(xc, yc, weights);
    return;
  }

  const std::size_t n = x.rows();
  const std::size_t p = x.cols();
#ifndef MURPHY_OBS_DISABLED
  // Hot-path accounting in the process-global registry; the instrument
  // pointers are resolved once, updates are single relaxed atomics.
  static obs::Counter* const c_fits =
      obs::global_metrics().counter("stats.ridge_fits");
  static obs::Counter* const c_cells =
      obs::global_metrics().counter("stats.ridge_cells");
  c_fits->add(1);
  c_cells->add(static_cast<std::uint64_t>(n) * p);
#endif
  assert(y.size() == n && weights.size() == n);
  assert(n >= 1);

  double w_total = 0.0;
  for (const double w : weights) {
    assert(w >= 0.0);
    w_total += w;
  }
  if (w_total <= 0.0) w_total = 1.0;

  // Weighted standardization, accumulated row-major so each design row is
  // streamed once per pass instead of once per column. The per-column
  // accumulators still receive their adds in row order, so the results are
  // bit-identical to the column-at-a-time formulation.
  feat_mean_.assign(p, 0.0);
  feat_scale_.assign(p, 1.0);
  for (std::size_t i = 0; i < n; ++i) {
    const double wi = weights[i];
    const double* row = x.row(i);
    for (std::size_t j = 0; j < p; ++j) feat_mean_[j] += wi * row[j];
  }
  for (std::size_t j = 0; j < p; ++j) feat_mean_[j] /= w_total;
  Vector var(p, 0.0);
  for (std::size_t i = 0; i < n; ++i) {
    const double wi = weights[i];
    const double* row = x.row(i);
    for (std::size_t j = 0; j < p; ++j) {
      const double d = row[j] - feat_mean_[j];
      var[j] += wi * d * d;
    }
  }
  std::size_t degenerate_cols = 0;
  for (std::size_t j = 0; j < p; ++j) {
    const double sd = std::sqrt(var[j] / w_total);
    if (sd > 1e-12) {
      feat_scale_[j] = sd;
    } else {
      feat_scale_[j] = 1.0;  // constant column -> weight 0
      ++degenerate_cols;
    }
  }
#ifndef MURPHY_OBS_DISABLED
  if (degenerate_cols > 0) {
    static obs::Counter* const c_degenerate =
        obs::global_metrics().counter("train.degenerate_columns");
    c_degenerate->add(degenerate_cols);
  }
#else
  (void)degenerate_cols;
#endif
  {
    double m = 0.0;
    for (std::size_t i = 0; i < n; ++i) m += weights[i] * y[i];
    y_mean_ = m / w_total;
  }

  // Row-scale the standardized design by sqrt(w): the normal equations then
  // solve the weighted least-squares problem.
  Matrix xs(n, p);
  Vector yc(n);
  for (std::size_t i = 0; i < n; ++i) {
    const double sw = std::sqrt(weights[i]);
    for (std::size_t j = 0; j < p; ++j)
      xs.at(i, j) = sw * (x.at(i, j) - feat_mean_[j]) / feat_scale_[j];
    yc[i] = sw * (y[i] - y_mean_);
  }

  Matrix a = xs.gram();
  // Scale-invariant regularization: lambda grows with the effective sample
  // mass so the model behaves consistently across training lengths.
  const double lambda = l2_ * std::max(1.0, w_total) / 256.0;
  for (std::size_t j = 0; j < p; ++j) a.at(j, j) += lambda + 1e-9;

  const Vector b = xs.transpose_times(yc);
  auto solved = solve_spd(a, b);
  // The diagonal loading makes the system SPD in all practical cases; fall
  // back to the mean-only model if numerics still fail — including a solve
  // that "succeeds" with non-finite coefficients (possible when the Gram
  // matrix overflowed on extreme-scale columns).
  if (solved &&
      std::any_of(solved->begin(), solved->end(),
                  [](double w) { return !std::isfinite(w); }))
    solved.reset();
  w_ = solved ? std::move(*solved) : Vector(p, 0.0);

  OnlineStats resid;
  for (std::size_t i = 0; i < n; ++i) {
    if (weights[i] <= 0.0) continue;
    double pred = y_mean_;
    for (std::size_t j = 0; j < p; ++j)
      pred += w_[j] * (x.at(i, j) - feat_mean_[j]) / feat_scale_[j];
    resid.add(y[i] - pred);
  }
  sigma_ = resid.count() >= 2 ? resid.stddev() : 0.0;
  fitted_ = true;
}

void RidgeRegression::fit_moments(
    const CenteredMoments& fit, const CenteredMoments& plain,
    const std::function<double(const RidgeRegression&)>& exact_residual) {
  const std::size_t p = fit.mean.size() - 1;
  assert(plain.mean.size() == p + 1);
#ifndef MURPHY_OBS_DISABLED
  static obs::Counter* const c_fits =
      obs::global_metrics().counter("stats.ridge_fits");
  c_fits->add(1);
#endif
  const double w_total = fit.weight > 0.0 ? fit.weight : 1.0;
  feat_mean_.assign(p, 0.0);
  feat_scale_.assign(p, 1.0);
  std::size_t degenerate_cols = 0;
  for (std::size_t j = 0; j < p; ++j) {
    feat_mean_[j] = fit.mean[j + 1];
    const double sd = std::sqrt(fit.cross.at(j + 1, j + 1) / w_total);
    if (sd > 1e-12) {
      feat_scale_[j] = sd;
    } else {
      ++degenerate_cols;  // constant column -> weight 0
    }
  }
#ifndef MURPHY_OBS_DISABLED
  if (degenerate_cols > 0) {
    static obs::Counter* const c_degenerate =
        obs::global_metrics().counter("train.degenerate_columns");
    c_degenerate->add(degenerate_cols);
  }
#else
  (void)degenerate_cols;
#endif
  y_mean_ = fit.mean[0];

  // The Gram matrix and X^T y of the standardized, sqrt(w)-scaled design:
  // the centered moments divided by the column scales.
  Matrix a(p, p);
  Vector b(p);
  for (std::size_t j = 0; j < p; ++j) {
    for (std::size_t l = 0; l < p; ++l)
      a.at(j, l) =
          fit.cross.at(j + 1, l + 1) / (feat_scale_[j] * feat_scale_[l]);
    b[j] = fit.cross.at(0, j + 1) / feat_scale_[j];
  }
  const double lambda = l2_ * std::max(1.0, w_total) / 256.0;
  for (std::size_t j = 0; j < p; ++j) a.at(j, j) += lambda + 1e-9;
  auto solved = solve_spd(a, b);
  if (solved &&
      std::any_of(solved->begin(), solved->end(),
                  [](double w) { return !std::isfinite(w); }))
    solved.reset();
  w_ = solved ? std::move(*solved) : Vector(p, 0.0);
  fitted_ = true;

  // Residual variance = Var(y - sum_j beta_j x_j) over the plain block:
  // u^T C u with u = (1, -beta), beta_j = w_j / scale_j.
  sigma_ = 0.0;
  if (plain.rows < 2) return;
  Vector u(p + 1);
  u[0] = 1.0;
  for (std::size_t j = 0; j < p; ++j) u[j + 1] = -w_[j] / feat_scale_[j];
  double q = 0.0;
  double scale = 0.0;
  for (std::size_t i = 0; i <= p; ++i)
    for (std::size_t j = 0; j <= p; ++j) {
      q += u[i] * u[j] * plain.cross.at(i, j);
      scale += std::abs(u[i] * u[j]) * plain.magnitude.at(i, j);
    }
  if (q > 1e-8 * scale && std::isfinite(q)) {
    sigma_ = std::sqrt(q / static_cast<double>(plain.rows - 1));
    return;
  }
#ifndef MURPHY_OBS_DISABLED
  static obs::Counter* const c_exact =
      obs::global_metrics().counter("train.residual_exact_passes");
  c_exact->add(1);
#endif
  sigma_ = exact_residual(*this);
}

double RidgeRegression::predict(std::span<const double> x) const {
  assert(fitted_);
  assert(x.size() == w_.size());
  double out = y_mean_;
  for (std::size_t j = 0; j < x.size(); ++j)
    out += w_[j] * (x[j] - feat_mean_[j]) / feat_scale_[j];
  return out;
}

}  // namespace murphy::stats
