// Ridge regression — the metric-prediction model Murphy ships with.
//
// Closed-form solve of (X^T X + lambda I) w = X^T y on standardized features,
// with an unpenalized intercept. Robust to collinear and constant columns,
// and well-behaved with the few hundred training points available from one
// week of telemetry.
#pragma once

#include <functional>

#include "src/stats/moments.h"
#include "src/stats/predictor.h"

namespace murphy::stats {

class RidgeRegression final : public Predictor {
 public:
  explicit RidgeRegression(double l2 = 1.0);

  void fit(const Matrix& x, const Vector& y) override;

  // Weighted fit: row r contributes with weight w[r] >= 0 to the loss (and
  // to the standardization statistics). Enables recency-weighted "offline +
  // online" training (§7 of the paper, future work): long histories inform
  // the model without drowning the freshest in-incident points.
  void fit_weighted(const Matrix& x, const Vector& y, const Vector& weights);

  // The same standardized ridge system, solved from sufficient statistics
  // over the columns (y, x_1..x_p), y first: `fit` supplies the weighted
  // moments (standardization, Gram, X^T y, intercept), `plain` the uniform
  // ones the residual sigma is taken from (sample stddev, n-1, as
  // fit_weighted() computes it row by row). The residual is a quadratic
  // form in `plain` that cancels as R^2 -> 1; when fewer than ~8
  // significant digits of it survive, `exact_residual` (one pass over the
  // rows, given the fitted model) supplies it instead and the fallback is
  // counted (`train.residual_exact_passes`).
  void fit_moments(
      const CenteredMoments& fit, const CenteredMoments& plain,
      const std::function<double(const RidgeRegression&)>& exact_residual);
  [[nodiscard]] double predict(std::span<const double> x) const override;
  [[nodiscard]] double residual_sigma() const override { return sigma_; }
  [[nodiscard]] ModelKind kind() const override { return ModelKind::kRidge; }

  // Weights in the standardized feature space (diagnostic / tests).
  [[nodiscard]] const Vector& standardized_weights() const { return w_; }

  // Standardization parameters and intercept, exposed so the sampler can
  // flatten fitted ridge models into a branch-free kernel:
  //   predict(x) = y_mean + sum_j w[j] * (x[j] - mean[j]) / scale[j].
  [[nodiscard]] const Vector& feature_means() const { return feat_mean_; }
  [[nodiscard]] const Vector& feature_scales() const { return feat_scale_; }
  [[nodiscard]] double intercept() const { return y_mean_; }

 private:
  double l2_;
  Vector w_;            // weights over standardized features
  Vector feat_mean_;    // per-feature standardization
  Vector feat_scale_;
  double y_mean_ = 0.0;
  double sigma_ = 0.0;
  bool fitted_ = false;
};

}  // namespace murphy::stats
