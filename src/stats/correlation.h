// Correlation measures used for feature selection (Murphy's top-B neighbor
// metric choice), ExplainIt's ranking, and NetMedic's edge weights.
#pragma once

#include <cstddef>
#include <span>
#include <vector>

namespace murphy::stats {

// A column counts as effectively constant when its standard deviation is at
// most kCorrelationRelTol times its RMS magnitude. The tolerance is RELATIVE
// to the column's own scale: an absolute epsilon (the old 1e-15 on the sum
// of squared deviations) misclassified legitimately tiny-scale metrics
// (values ~1e-9 with O(1) relative variation) as constant while letting
// huge-scale columns whose only variation is FP rounding noise (~1e-16
// relative) pass as informative. 1e-12 relative sits ~4 decades above
// double rounding noise and ~4 below any real signal.
inline constexpr double kCorrelationRelTol = 1e-12;

// Pearson correlation coefficient in [-1, 1]; 0 when either side is
// effectively constant (see kCorrelationRelTol) or contains non-finite
// values (a NaN/Inf slice yields the defined 0, never a NaN score).
[[nodiscard]] double pearson(std::span<const double> x,
                             std::span<const double> y);

// Pearson from centered sums: sxy, sxx, syy are the sums of products of
// deviations from the means mx, my over n rows (mx/my carry the scale the
// relative constancy test needs; the sums alone can't). pearson() is this
// function over its own two-pass sums, so a caller holding the sums (the
// trainer's moment blocks) makes the same constancy decision.
[[nodiscard]] double pearson_moments(double sxy, double sxx, double syy,
                                     double n, double mx, double my);

// Midranks (average rank for ties) of x, as used by spearman(). Exposed so
// the window cache can precompute rank columns once per variable.
[[nodiscard]] std::vector<double> midranks(std::span<const double> x);

// Spearman rank correlation; robust to monotone nonlinearity.
[[nodiscard]] double spearman(std::span<const double> x,
                              std::span<const double> y);

// NetMedic-style abnormality correlation: correlation of |z-scores| of the
// two series relative to their own historical mean/stddev. Two metrics that
// become abnormal together score high even if their raw values anti-move.
[[nodiscard]] double abnormality_correlation(std::span<const double> x,
                                             std::span<const double> y);

// Cross-correlation at the given lag (y shifted `lag` slices later than x).
[[nodiscard]] double lagged_pearson(std::span<const double> x,
                                    std::span<const double> y, std::size_t lag);

}  // namespace murphy::stats
