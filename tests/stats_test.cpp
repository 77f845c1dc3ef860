// Unit tests for the stats substrate: matrix kernels, summaries,
// correlations, t-tests and the four predictor families.
#include <cmath>
#include <limits>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "src/common/rng.h"
#include "src/stats/correlation.h"
#include "src/stats/gmm.h"
#include "src/stats/matrix.h"
#include "src/stats/moments.h"
#include "src/stats/mlp.h"
#include "src/stats/predictor.h"
#include "src/stats/ridge.h"
#include "src/stats/summary.h"
#include "src/stats/svr.h"
#include "src/stats/ttest.h"

namespace murphy::stats {
namespace {

TEST(Matrix, IdentityAndMultiply) {
  Matrix id = Matrix::identity(3);
  Vector v{1.0, 2.0, 3.0};
  EXPECT_EQ(id.times(v), v);
  EXPECT_EQ(id.transpose_times(v), v);
}

TEST(Matrix, GramIsXtX) {
  Matrix x(2, 2);
  x.at(0, 0) = 1.0;
  x.at(0, 1) = 2.0;
  x.at(1, 0) = 3.0;
  x.at(1, 1) = 4.0;
  const Matrix g = x.gram();
  EXPECT_DOUBLE_EQ(g.at(0, 0), 10.0);
  EXPECT_DOUBLE_EQ(g.at(0, 1), 14.0);
  EXPECT_DOUBLE_EQ(g.at(1, 0), 14.0);
  EXPECT_DOUBLE_EQ(g.at(1, 1), 20.0);
}

TEST(Matrix, CholeskySolvesSpdSystem) {
  // A = [[4,2],[2,3]], b = [2,1] -> x = [0.5, 0]
  Matrix a(2, 2);
  a.at(0, 0) = 4.0;
  a.at(0, 1) = 2.0;
  a.at(1, 0) = 2.0;
  a.at(1, 1) = 3.0;
  const auto x = solve_spd(a, Vector{2.0, 1.0});
  ASSERT_TRUE(x.has_value());
  EXPECT_NEAR((*x)[0], 0.5, 1e-12);
  EXPECT_NEAR((*x)[1], 0.0, 1e-12);
}

TEST(Matrix, CholeskyRejectsIndefinite) {
  Matrix a(2, 2);
  a.at(0, 0) = 1.0;
  a.at(0, 1) = 2.0;
  a.at(1, 0) = 2.0;
  a.at(1, 1) = 1.0;  // eigenvalues 3, -1
  EXPECT_FALSE(solve_spd(a, Vector{1.0, 1.0}).has_value());
}

TEST(Summary, WelfordMatchesBatch) {
  Rng rng(7);
  std::vector<double> xs;
  OnlineStats os;
  for (int i = 0; i < 1000; ++i) {
    const double v = rng.normal(5.0, 2.0);
    xs.push_back(v);
    os.add(v);
  }
  EXPECT_NEAR(os.mean(), mean(xs), 1e-9);
  EXPECT_NEAR(os.variance(), variance(xs), 1e-6);
}

TEST(Summary, QuantileInterpolates) {
  std::vector<double> xs{1.0, 2.0, 3.0, 4.0};
  EXPECT_DOUBLE_EQ(quantile(xs, 0.0), 1.0);
  EXPECT_DOUBLE_EQ(quantile(xs, 1.0), 4.0);
  EXPECT_DOUBLE_EQ(quantile(xs, 0.5), 2.5);
}

TEST(Summary, ZscoreFlooredForConstantSeries) {
  EXPECT_LT(std::abs(zscore(5.0, 5.0, 0.0)), 1e-6);
  EXPECT_GT(zscore(6.0, 5.0, 0.0), 1.0);  // finite, not inf
  EXPECT_TRUE(std::isfinite(zscore(6.0, 5.0, 0.0)));
}

TEST(Summary, MaseZeroForPerfectPrediction) {
  std::vector<double> a{1.0, 3.0, 2.0, 5.0};
  EXPECT_DOUBLE_EQ(mase(a, a), 0.0);
}

TEST(Summary, MaseScalesByNaiveError) {
  std::vector<double> actual{0.0, 1.0, 0.0, 1.0};  // naive MAE = 1
  std::vector<double> pred{0.5, 0.5, 0.5, 0.5};    // MAE = 0.5
  EXPECT_NEAR(mase(pred, actual), 0.5, 1e-12);
}

TEST(Correlation, PerfectPositiveAndNegative) {
  std::vector<double> x{1.0, 2.0, 3.0, 4.0};
  std::vector<double> y{2.0, 4.0, 6.0, 8.0};
  std::vector<double> z{8.0, 6.0, 4.0, 2.0};
  EXPECT_NEAR(pearson(x, y), 1.0, 1e-12);
  EXPECT_NEAR(pearson(x, z), -1.0, 1e-12);
}

TEST(Correlation, ConstantSeriesGivesZero) {
  std::vector<double> x{1.0, 1.0, 1.0};
  std::vector<double> y{1.0, 2.0, 3.0};
  EXPECT_DOUBLE_EQ(pearson(x, y), 0.0);
}

TEST(Correlation, SpearmanRobustToMonotoneTransform) {
  Rng rng(3);
  std::vector<double> x, y;
  for (int i = 0; i < 200; ++i) {
    const double v = rng.uniform(0.0, 4.0);
    x.push_back(v);
    y.push_back(std::exp(v));  // monotone nonlinear
  }
  EXPECT_NEAR(spearman(x, y), 1.0, 1e-9);
  EXPECT_LT(pearson(x, y), 0.95);  // pearson under-reads the relationship
}

TEST(Correlation, AbnormalityCorrelationCatchesAntiMoving) {
  // Two series that become abnormal at the same times, in opposite raw
  // directions. Pearson is strongly negative; abnormality corr is positive.
  std::vector<double> x, y;
  for (int i = 0; i < 100; ++i) {
    const bool spike = (i % 25 == 0);
    x.push_back(spike ? 10.0 : 1.0 + 0.01 * (i % 5));
    y.push_back(spike ? -10.0 : -1.0 - 0.01 * ((i + 2) % 5));
  }
  EXPECT_LT(pearson(x, y), -0.9);
  EXPECT_GT(abnormality_correlation(x, y), 0.9);
}

TEST(TTest, DetectsMeanShift) {
  Rng rng(11);
  std::vector<double> lo, hi;
  for (int i = 0; i < 200; ++i) {
    lo.push_back(rng.normal(0.0, 1.0));
    hi.push_back(rng.normal(1.0, 1.0));
  }
  const auto r = welch_t_test(lo, hi);
  EXPECT_LT(r.p_less, 1e-6);
  const auto rev = welch_t_test(hi, lo);
  EXPECT_GT(rev.p_less, 1.0 - 1e-6);
}

TEST(TTest, NoShiftGivesLargePValue) {
  Rng rng(13);
  std::vector<double> a, b;
  for (int i = 0; i < 500; ++i) {
    a.push_back(rng.normal(3.0, 1.0));
    b.push_back(rng.normal(3.0, 1.0));
  }
  const auto r = welch_t_test(a, b);
  EXPECT_GT(r.p_two_sided, 0.01);
}

TEST(TTest, StudentTCdfMatchesKnownValues) {
  // t=0 -> 0.5 for any dof; large dof approximates the normal CDF.
  EXPECT_NEAR(student_t_cdf(0.0, 5.0), 0.5, 1e-12);
  EXPECT_NEAR(student_t_cdf(1.96, 1e6), 0.975, 1e-3);
  // Symmetry.
  EXPECT_NEAR(student_t_cdf(-2.0, 10.0) + student_t_cdf(2.0, 10.0), 1.0,
              1e-10);
}

TEST(TTest, DegenerateConstantSamples) {
  std::vector<double> a{1.0, 1.0, 1.0};
  std::vector<double> b{2.0, 2.0, 2.0};
  EXPECT_DOUBLE_EQ(welch_t_test(a, b).p_less, 0.0);
  EXPECT_DOUBLE_EQ(welch_t_test(b, a).p_less, 1.0);
  EXPECT_DOUBLE_EQ(welch_t_test(a, a).p_two_sided, 1.0);
}

TEST(TTest, TinySamplesGiveNeutralFiniteResult) {
  // n < 2 on either side is defined (no UB, no assert): the evidence-free
  // verdict — neutral p = 0.5, so a degenerate sample can never implicate.
  const std::vector<double> empty;
  const std::vector<double> one{3.0};
  const std::vector<double> many{1.0, 2.0, 3.0, 4.0};
  for (const auto* x : {&empty, &one}) {
    for (const auto* y : {&empty, &one, &many}) {
      const auto r = welch_t_test(*x, *y);
      EXPECT_TRUE(std::isfinite(r.t));
      EXPECT_DOUBLE_EQ(r.t, 0.0);
      EXPECT_DOUBLE_EQ(r.p_less, 0.5);
      EXPECT_DOUBLE_EQ(r.p_two_sided, 1.0);
    }
  }
  const auto r = welch_t_test(many, one);
  EXPECT_DOUBLE_EQ(r.p_less, 0.5);
  EXPECT_DOUBLE_EQ(r.p_two_sided, 1.0);
}

TEST(TTest, NonFiniteSamplesGiveNeutralFiniteResult) {
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  const std::vector<double> clean{1.0, 2.0, 3.0};
  for (const double poison : {nan, inf, -inf}) {
    const std::vector<double> bad{1.0, poison, 3.0};
    for (const auto& [x, y] : {std::pair{bad, clean}, std::pair{clean, bad},
                               std::pair{bad, bad}}) {
      const auto r = welch_t_test(x, y);
      EXPECT_TRUE(std::isfinite(r.t));
      EXPECT_TRUE(std::isfinite(r.dof));
      EXPECT_DOUBLE_EQ(r.p_less, 0.5);
      EXPECT_DOUBLE_EQ(r.p_two_sided, 1.0);
    }
  }
}

TEST(Correlation, RelativeToleranceKeepsTinyScaleSignal) {
  // Legitimately tiny-scale metrics (nanosecond fractions, error rates):
  // variance is far below the old absolute 1e-15 epsilon, but the columns
  // carry a real, perfect linear relationship. The scale-aware tolerance
  // must keep the signal instead of misclassifying the columns as constant.
  std::vector<double> x, y;
  for (int i = 0; i < 50; ++i) {
    x.push_back(1e-9 + 1e-11 * i);
    y.push_back(3e-9 + 2e-11 * i);
  }
  EXPECT_NEAR(pearson(x, y), 1.0, 1e-9);
  EXPECT_NEAR(spearman(x, y), 1.0, 1e-9);
}

TEST(Correlation, RelativeToleranceRejectsHugeScaleJitter) {
  // A huge-scale column that is constant up to ~1-ulp rounding jitter: its
  // absolute variance dwarfs 1e-15, so the old epsilon declared it
  // informative and correlations against it were rounding noise in [-1, 1].
  // Relative to the scale it is constant, so it must read as 0.
  const double base = 1.5e9;
  const double ulp = 2.220446049250313e-16;  // 2^-52
  std::vector<double> jitter, ramp;
  for (int i = 0; i < 60; ++i) {
    jitter.push_back(base * (1.0 + (i % 3 == 0 ? ulp : 0.0)));
    ramp.push_back(static_cast<double>(i));
  }
  EXPECT_DOUBLE_EQ(pearson(jitter, ramp), 0.0);
  EXPECT_DOUBLE_EQ(pearson(ramp, jitter), 0.0);
}

TEST(Correlation, NonFiniteInputsGiveZeroNotNaN) {
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  const std::vector<double> clean{1.0, 2.0, 3.0, 4.0};
  for (const double poison : {nan, inf, -inf}) {
    const std::vector<double> bad{1.0, poison, 3.0, 4.0};
    EXPECT_DOUBLE_EQ(pearson(bad, clean), 0.0);
    EXPECT_DOUBLE_EQ(pearson(clean, bad), 0.0);
    // spearman sorts; a NaN would break strict weak ordering without the
    // rank-path sanitization — must return a finite correlation.
    EXPECT_TRUE(std::isfinite(spearman(bad, clean)));
    EXPECT_TRUE(std::isfinite(abnormality_correlation(bad, clean)));
  }
}

TEST(Correlation, CenteredKernelMatchesPearsonInBothToleranceRegimes) {
  // The cached kernel must make the exact same constancy decision as
  // pearson() at tiny and huge scales — the bit-identity contract.
  std::vector<double> tiny_x, tiny_y, huge_jitter, ramp;
  for (int i = 0; i < 50; ++i) {
    tiny_x.push_back(1e-9 + 1e-11 * i);
    tiny_y.push_back(3e-9 + 2e-11 * i);
    huge_jitter.push_back(1.5e9 *
                          (1.0 + (i % 3 == 0 ? 2.220446049250313e-16 : 0.0)));
    ramp.push_back(static_cast<double>(i));
  }
  const auto check = [](const std::vector<double>& x,
                        const std::vector<double>& y) {
    const double mx = mean(x), my = mean(y);
    double sxy = 0.0, sxx = 0.0, syy = 0.0;
    for (std::size_t i = 0; i < x.size(); ++i) {
      sxy += (x[i] - mx) * (y[i] - my);
      sxx += (x[i] - mx) * (x[i] - mx);
      syy += (y[i] - my) * (y[i] - my);
    }
    EXPECT_EQ(pearson_moments(sxy, sxx, syy, static_cast<double>(x.size()),
                              mx, my),
              pearson(x, y));
  };
  check(tiny_x, tiny_y);
  check(huge_jitter, ramp);
  check(ramp, huge_jitter);
}

TEST(RidgeHardening, NonFiniteCellsDegradeInsteadOfPoisoningFit) {
  // One NaN design cell and one Inf target: the fit must stay finite and
  // match the fit over the 0.0-sanitized copy bit for bit.
  Matrix x(4, 1), xs(4, 1);
  Vector y{1.0, 2.0, std::numeric_limits<double>::infinity(), 4.0};
  Vector ys{1.0, 2.0, 0.0, 4.0};
  const double vals[4] = {1.0, 2.0, 3.0, 4.0};
  for (std::size_t i = 0; i < 4; ++i) x.at(i, 0) = xs.at(i, 0) = vals[i];
  x.at(1, 0) = std::numeric_limits<double>::quiet_NaN();
  xs.at(1, 0) = 0.0;

  RidgeRegression poisoned(0.1), sanitized(0.1);
  poisoned.fit(x, y);
  sanitized.fit(xs, ys);
  const std::vector<double> probe{2.5};
  EXPECT_TRUE(std::isfinite(poisoned.predict(probe)));
  EXPECT_EQ(poisoned.predict(probe), sanitized.predict(probe));
  EXPECT_EQ(poisoned.residual_sigma(), sanitized.residual_sigma());
}

// Shared fixture: y = 2*x0 - 3*x1 + 5 + noise.
class LinearRecovery : public ::testing::TestWithParam<ModelKind> {
 protected:
  void make_data(std::size_t n, Matrix& x, Vector& y, double noise_sd) {
    Rng rng(42);
    x = Matrix(n, 2);
    y.assign(n, 0.0);
    for (std::size_t i = 0; i < n; ++i) {
      x.at(i, 0) = rng.uniform(0.0, 10.0);
      x.at(i, 1) = rng.uniform(-5.0, 5.0);
      y[i] = 2.0 * x.at(i, 0) - 3.0 * x.at(i, 1) + 5.0 +
             rng.normal(0.0, noise_sd);
    }
  }
};

TEST_P(LinearRecovery, PredictsHeldOutPoints) {
  Matrix x;
  Vector y;
  make_data(300, x, y, 0.1);
  PredictorOptions opts;
  opts.mlp_epochs = 400;
  opts.gmm_components = 12;
  auto model = make_predictor(GetParam(), opts);
  model->fit(x, y);

  Rng rng(99);
  double worst = 0.0;
  for (int i = 0; i < 50; ++i) {
    const double x0 = rng.uniform(1.0, 9.0);
    const double x1 = rng.uniform(-4.0, 4.0);
    const double truth = 2.0 * x0 - 3.0 * x1 + 5.0;
    const double pred = model->predict(std::vector<double>{x0, x1});
    worst = std::max(worst, std::abs(pred - truth));
  }
  // Ridge is near-exact. A diagonal-covariance GMM approximates a linear
  // surface piecewise-constantly, so its worst-case error is structurally
  // larger (this is exactly why the paper's Fig. 8a prefers ridge).
  const double budget = GetParam() == ModelKind::kRidge  ? 0.2
                        : GetParam() == ModelKind::kGmm ? 15.0
                                                        : 6.0;
  EXPECT_LT(worst, budget);
}

TEST_P(LinearRecovery, ResidualSigmaTracksNoise) {
  Matrix x;
  Vector y;
  make_data(400, x, y, 2.0);
  PredictorOptions opts;
  auto model = make_predictor(GetParam(), opts);
  model->fit(x, y);
  // All models should report sigma >= the irreducible noise scale and not
  // wildly above the raw stddev of y.
  EXPECT_GT(model->residual_sigma(), 0.5);
  EXPECT_LT(model->residual_sigma(), stddev(y) * 1.5);
}

INSTANTIATE_TEST_SUITE_P(AllModels, LinearRecovery,
                         ::testing::Values(ModelKind::kRidge, ModelKind::kGmm,
                                           ModelKind::kSvr, ModelKind::kMlp),
                         [](const auto& info) {
                           return std::string(model_kind_name(info.param));
                         });

TEST(Ridge, HandlesConstantColumn) {
  Matrix x(50, 2);
  Vector y(50);
  Rng rng(5);
  for (std::size_t i = 0; i < 50; ++i) {
    x.at(i, 0) = rng.uniform(0.0, 1.0);
    x.at(i, 1) = 7.0;  // constant
    y[i] = 3.0 * x.at(i, 0) + 1.0;
  }
  RidgeRegression m(0.1);
  m.fit(x, y);
  const double pred = m.predict(std::vector<double>{0.5, 7.0});
  EXPECT_NEAR(pred, 2.5, 0.1);
}

TEST(Ridge, HandlesMoreFeaturesThanRows) {
  // n=5, p=8: normal equations are singular without the ridge term.
  Matrix x(5, 8);
  Vector y(5);
  Rng rng(17);
  for (std::size_t i = 0; i < 5; ++i) {
    for (std::size_t j = 0; j < 8; ++j) x.at(i, j) = rng.uniform(0.0, 1.0);
    y[i] = x.at(i, 0);
  }
  RidgeRegression m(1.0);
  m.fit(x, y);  // must not crash / produce NaN
  const double pred = m.predict(std::vector<double>(8, 0.5));
  EXPECT_TRUE(std::isfinite(pred));
}

TEST(Ridge, ShrinksWithStrongRegularization) {
  Matrix x(100, 1);
  Vector y(100);
  Rng rng(23);
  for (std::size_t i = 0; i < 100; ++i) {
    x.at(i, 0) = rng.uniform(-1.0, 1.0);
    y[i] = 10.0 * x.at(i, 0);
  }
  RidgeRegression weak(0.001), strong(1e5);
  weak.fit(x, y);
  strong.fit(x, y);
  EXPECT_GT(std::abs(weak.standardized_weights()[0]),
            std::abs(strong.standardized_weights()[0]) * 2.0);
}


TEST(Ridge, WeightedFitTracksRecentRegime) {
  // The relationship changes mid-window: old regime y = 2x, recent y = 5x.
  // Uniform fit lands in between; recency weighting tracks the new slope.
  Rng rng(61);
  Matrix x(200, 1);
  Vector y(200);
  for (std::size_t i = 0; i < 200; ++i) {
    x.at(i, 0) = rng.uniform(0.0, 10.0);
    const double slope = i < 150 ? 2.0 : 5.0;
    y[i] = slope * x.at(i, 0) + rng.normal(0.0, 0.2);
  }
  RidgeRegression uniform(1.0);
  uniform.fit(x, y);
  RidgeRegression recent(1.0);
  Vector w(200);
  for (std::size_t i = 0; i < 200; ++i)
    w[i] = std::pow(0.5, static_cast<double>(199 - i) / 20.0);
  recent.fit_weighted(x, y, w);

  const std::vector<double> probe{8.0};
  const double u = uniform.predict(probe);
  const double r = recent.predict(probe);
  EXPECT_NEAR(r, 40.0, 4.0);            // tracks the fresh regime
  EXPECT_LT(u, r - 5.0);                // uniform lags behind
}

TEST(Ridge, UniformWeightsMatchUnweightedFit) {
  Rng rng(62);
  Matrix x(100, 2);
  Vector y(100);
  for (std::size_t i = 0; i < 100; ++i) {
    x.at(i, 0) = rng.uniform(-1.0, 1.0);
    x.at(i, 1) = rng.uniform(-1.0, 1.0);
    y[i] = 3.0 * x.at(i, 0) - x.at(i, 1) + rng.normal(0.0, 0.1);
  }
  RidgeRegression a(1.0), b(1.0);
  a.fit(x, y);
  b.fit_weighted(x, y, Vector(100, 1.0));
  const std::vector<double> probe{0.3, -0.4};
  EXPECT_NEAR(a.predict(probe), b.predict(probe), 1e-9);
}

TEST(Ridge, ZeroWeightRowsAreIgnored) {
  Matrix x(4, 1);
  Vector y(4);
  // Two "real" points on y = x and two poisoned points with zero weight.
  x.at(0, 0) = 1.0; y[0] = 1.0;
  x.at(1, 0) = 3.0; y[1] = 3.0;
  x.at(2, 0) = 2.0; y[2] = 500.0;
  x.at(3, 0) = 2.5; y[3] = -700.0;
  RidgeRegression m(0.01);
  m.fit_weighted(x, y, Vector{1.0, 1.0, 0.0, 0.0});
  EXPECT_NEAR(m.predict(std::vector<double>{2.0}), 2.0, 0.3);
}

TEST(Gmm, SeparatesBimodalConditional) {
  // Two clusters: x near 0 -> y near 0; x near 10 -> y near 100.
  Rng rng(31);
  Matrix x(200, 1);
  Vector y(200);
  for (std::size_t i = 0; i < 200; ++i) {
    if (i % 2 == 0) {
      x.at(i, 0) = rng.normal(0.0, 0.5);
      y[i] = rng.normal(0.0, 1.0);
    } else {
      x.at(i, 0) = rng.normal(10.0, 0.5);
      y[i] = rng.normal(100.0, 1.0);
    }
  }
  GmmRegressor m(2, 7);
  m.fit(x, y);
  EXPECT_NEAR(m.predict(std::vector<double>{0.0}), 0.0, 5.0);
  EXPECT_NEAR(m.predict(std::vector<double>{10.0}), 100.0, 5.0);
}

TEST(Gmm, CapsComponentsForTinyData) {
  Matrix x(6, 1);
  Vector y(6);
  for (std::size_t i = 0; i < 6; ++i) {
    x.at(i, 0) = static_cast<double>(i);
    y[i] = static_cast<double>(i);
  }
  GmmRegressor m(8, 3);  // more components than data supports
  m.fit(x, y);
  EXPECT_LE(m.num_components(), 1);
  EXPECT_TRUE(std::isfinite(m.predict(std::vector<double>{2.0})));
}

TEST(Mlp, LearnsNonlinearFunction) {
  // y = x^2 on [-2, 2]; linear models can't represent this.
  Rng rng(41);
  Matrix x(400, 1);
  Vector y(400);
  for (std::size_t i = 0; i < 400; ++i) {
    x.at(i, 0) = rng.uniform(-2.0, 2.0);
    y[i] = x.at(i, 0) * x.at(i, 0);
  }
  MlpRegressor m(2, 8, 600, 0.02, 5);
  m.fit(x, y);
  EXPECT_NEAR(m.predict(std::vector<double>{0.0}), 0.0, 0.5);
  EXPECT_NEAR(m.predict(std::vector<double>{1.5}), 2.25, 0.6);

  RidgeRegression lin(0.1);
  lin.fit(x, y);
  const double mlp_err =
      std::abs(m.predict(std::vector<double>{1.5}) - 2.25) +
      std::abs(m.predict(std::vector<double>{0.0}) - 0.0);
  const double lin_err =
      std::abs(lin.predict(std::vector<double>{1.5}) - 2.25) +
      std::abs(lin.predict(std::vector<double>{0.0}) - 0.0);
  EXPECT_LT(mlp_err, lin_err);
}

TEST(Svr, IgnoresSmallErrorsInsideTube) {
  // With a huge epsilon the SVR should stay at the mean model.
  Rng rng(51);
  Matrix x(100, 1);
  Vector y(100);
  for (std::size_t i = 0; i < 100; ++i) {
    x.at(i, 0) = rng.uniform(0.0, 1.0);
    y[i] = 2.0 + 0.01 * x.at(i, 0);
  }
  LinearSvr m(1.0, /*epsilon=*/100.0, 50, 3);
  m.fit(x, y);
  EXPECT_NEAR(m.predict(std::vector<double>{0.5}), 2.0, 0.2);
}

TEST(Rng, DeterministicForSeed) {
  Rng a(123), b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a(), b());
}

TEST(Rng, ForkDecorrelates) {
  Rng a(123);
  Rng child = a.fork();
  // Streams should differ immediately.
  Rng a2(123);
  (void)a2();  // advance like `a` did in fork()
  EXPECT_NE(child(), a2());
}

TEST(Rng, UniformBelowIsInRange) {
  Rng rng(9);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_LT(rng.below(7), 7u);
    const double u = rng.uniform();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
}

TEST(Rng, NormalMomentsRoughlyCorrect) {
  Rng rng(77);
  OnlineStats s;
  for (int i = 0; i < 20000; ++i) s.add(rng.normal(2.0, 3.0));
  EXPECT_NEAR(s.mean(), 2.0, 0.1);
  EXPECT_NEAR(s.stddev(), 3.0, 0.1);
}

// ---------- row-sequential moments -----------------------------------------

// Two correlated columns riding a large offset, with a few exact ties.
std::pair<std::vector<double>, std::vector<double>> make_test_columns() {
  Rng rng(123);
  std::vector<double> x(64), y(64);
  for (std::size_t i = 0; i < x.size(); ++i) {
    x[i] = 1e4 + std::sin(0.2 * static_cast<double>(i)) +
           rng.normal(0.0, 0.4);
    y[i] = 1.7 * x[i] + rng.normal(0.0, 0.6);
  }
  x[10] = x[30];
  y[5] = y[41];
  return {x, y};
}

std::vector<double> interleave(const std::vector<double>& x,
                               const std::vector<double>& y) {
  std::vector<double> rows;
  for (std::size_t i = 0; i < x.size(); ++i) {
    rows.push_back(x[i]);
    rows.push_back(y[i]);
  }
  return rows;
}

TEST(CrossMoments, MatchesTwoPassSummaries) {
  const auto [x, y] = make_test_columns();
  CrossMoments m(2, 1.0);
  m.add_rows(interleave(x, y));
  ASSERT_EQ(m.rows(), x.size());
  EXPECT_NEAR(m.mean(0), mean(x), 1e-9);
  EXPECT_NEAR(std::sqrt(m.centered(0, 0) / 63.0), stddev(x), 1e-9);
  EXPECT_NEAR(pearson_moments(m.centered(0, 1), m.centered(0, 0),
                              m.centered(1, 1), 64.0, m.mean(0), m.mean(1)),
              pearson(x, y), 1e-12);
}

TEST(CrossMoments, FoldingInPiecesIsBitwiseFoldingAtOnce) {
  const auto [x, y] = make_test_columns();
  const std::vector<double> rows = interleave(x, y);
  for (const double decay : {1.0, 0.97}) {
    CrossMoments whole(2, decay), pieces(2, decay);
    whole.add_rows(rows);
    const std::span<const double> all(rows);
    pieces.add_rows(all.subspan(0, 2));
    pieces.add_rows(all.subspan(2, 40));
    pieces.add_rows(all.subspan(42));
    EXPECT_EQ(whole.weight(), pieces.weight());
    for (std::size_t i = 0; i < 2; ++i) {
      EXPECT_EQ(whole.mean(i), pieces.mean(i));
      for (std::size_t j = 0; j < 2; ++j)
        EXPECT_EQ(whole.centered(i, j), pieces.centered(i, j));
    }
  }
}

TEST(CrossMoments, DegenerateColumnsMatchUncachedConventions) {
  CrossMoments one(2, 1.0);
  one.add_rows(std::vector<double>{42.0, 1.0});
  // n < 2: no correlation, and a single row has no spread.
  EXPECT_EQ(one.centered(0, 0), 0.0);
  EXPECT_EQ(pearson_moments(one.centered(0, 1), one.centered(0, 0),
                            one.centered(1, 1), 1.0, one.mean(0),
                            one.mean(1)),
            0.0);
  // A constant column folds to exact zeros (its shift is its value), so
  // pearson's constancy test sees the same sxx = 0 as the two-pass form.
  CrossMoments flat(2, 1.0);
  flat.add_rows(std::vector<double>{3.0, 1.0, 3.0, 2.0, 3.0, 3.0});
  EXPECT_EQ(flat.centered(0, 0), 0.0);
  EXPECT_EQ(flat.mean(0), 3.0);
  EXPECT_EQ(pearson_moments(flat.centered(0, 1), flat.centered(0, 0),
                            flat.centered(1, 1), 3.0, flat.mean(0),
                            flat.mean(1)),
            0.0);
}

TEST(Summary, SortedMedianAndMadMatchUnsorted) {
  const auto [x, y] = make_test_columns();
  for (std::size_t n : {1u, 2u, 5u, 6u, 63u, 64u}) {
    const std::vector<double> xs(x.begin(), x.begin() + n);
    const std::vector<double> sorted = sorted_copy(xs);
    EXPECT_EQ(median_sorted(sorted), median(xs)) << n;
    EXPECT_EQ(mad_sigma_sorted(sorted, stddev(xs)), mad_sigma(xs)) << n;
  }
  // Heavily quantized: the MAD degenerates and both fall back to the
  // caller's stddev.
  const std::vector<double> q{1.0, 1.0, 1.0, 1.0, 5.0};
  EXPECT_EQ(mad_sigma_sorted(q, stddev(q)), mad_sigma(q));
}

}  // namespace
}  // namespace murphy::stats
