// Row-sequential sufficient statistics of a training window.
//
// CrossMoments folds rows of d columns into shifted sums. Each column's
// shift is its value in the first folded row; the block keeps
//   W     = sum of row weights (the row count under uniform weights),
//   S1_i  = sum w (x_i - s_i),
//   S2_ij = sum w (x_i - s_i)(x_j - s_j)   (upper triangle),
// from which the means (s_i + S1_i / W) and the centered cross-products
// (S2_ij - S1_i S1_j / W) of any column subset follow. Shifting by a value
// taken from the data keeps that subtraction well conditioned for
// huge-offset, low-variance telemetry, and makes an exactly constant column
// fold to exact zeros.
//
// Determinism: every accumulator receives its adds in row order, so folding
// rows [a, b) and then [b, c) performs exactly the operations of folding
// [a, c) at once. A block extended row by row and one built cold from the
// same rows are bitwise identical by construction.
//
// Recency weighting: with decay a < 1, every accumulator (W included) is
// scaled by a before each row is added with weight 1, so after n rows row r
// carries weight a^(n-1-r). Uniform weights (a = 1) skip the scaling, which
// is exact: multiplying by 1.0 changes no bit.
#pragma once

#include <cstddef>
#include <span>
#include <vector>

#include "src/stats/matrix.h"

namespace murphy::stats {

// Centered moments of a column subset, as a least-squares solve reads them.
struct CenteredMoments {
  double weight = 0.0;  // W
  std::size_t rows = 0;
  Vector mean;          // per column
  Matrix cross;         // centered cross-products
  // |S2_ij| + |S1_i S1_j| / W: the size of the terms whose difference is
  // cross(i, j). A result far below this has lost digits to cancellation.
  Matrix magnitude;
};

class CrossMoments {
 public:
  CrossMoments() = default;
  CrossMoments(std::size_t dims, double decay);

  [[nodiscard]] std::size_t dims() const { return s1_.size(); }
  [[nodiscard]] std::size_t rows() const { return rows_; }
  [[nodiscard]] double weight() const { return weight_; }

  // Folds the rows of a row-major buffer (a multiple of dims() values).
  // Counts `stats.ridge_cells` (rows x dims).
  void add_rows(std::span<const double> rows);

  [[nodiscard]] double mean(std::size_t i) const;
  // Centered cross-product of columns i and j; the diagonal is clamped at 0.
  [[nodiscard]] double centered(std::size_t i, std::size_t j) const;
  // Centered moments of `cols` (in that order).
  [[nodiscard]] CenteredMoments select(std::span<const std::size_t> cols) const;

 private:
  [[nodiscard]] std::size_t tri(std::size_t i, std::size_t j) const;

  double decay_ = 1.0;
  std::size_t rows_ = 0;
  double weight_ = 0.0;
  std::vector<double> shift_;
  std::vector<double> s1_;
  std::vector<double> s2_;  // upper triangle, row-major
};

}  // namespace murphy::stats
