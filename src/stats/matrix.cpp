#include "src/stats/matrix.h"

#include <cassert>
#include <cmath>

namespace murphy::stats {

Matrix::Matrix(std::size_t rows, std::size_t cols, double fill)
    : rows_(rows), cols_(cols), data_(rows * cols, fill) {}

void Matrix::assign(std::size_t rows, std::size_t cols, double fill) {
  rows_ = rows;
  cols_ = cols;
  data_.assign(rows * cols, fill);
}

Matrix Matrix::identity(std::size_t n) {
  Matrix m(n, n);
  for (std::size_t i = 0; i < n; ++i) m.at(i, i) = 1.0;
  return m;
}

Matrix Matrix::gram() const {
  Matrix g(cols_, cols_);
  for (std::size_t r = 0; r < rows_; ++r) {
    const double* x = row(r);
    for (std::size_t i = 0; i < cols_; ++i) {
      const double xi = x[i];
      // Skipping zero rows short-circuits fully-downweighted (sqrt(w)=0)
      // rows and avoids perturbing signed zeros / non-finite columns.
      if (xi == 0.0) continue;
      axpy_kernel(cols_ - i, xi, x + i, g.row(i) + i);
    }
  }
  for (std::size_t i = 0; i < cols_; ++i)
    for (std::size_t j = 0; j < i; ++j) g.at(i, j) = g.at(j, i);
  return g;
}

Vector Matrix::transpose_times(const Vector& v) const {
  assert(v.size() == rows_);
  Vector out(cols_, 0.0);
  for (std::size_t r = 0; r < rows_; ++r) {
    axpy_kernel(cols_, v[r], row(r), out.data());
  }
  return out;
}

Vector Matrix::times(const Vector& v) const {
  assert(v.size() == cols_);
  Vector out(rows_, 0.0);
  for (std::size_t r = 0; r < rows_; ++r) {
    out[r] = dot_kernel(row(r), v.data(), cols_);
  }
  return out;
}

bool cholesky(Matrix& a) {
  assert(a.rows() == a.cols());
  const std::size_t n = a.rows();
  for (std::size_t j = 0; j < n; ++j) {
    double d = a.at(j, j);
    for (std::size_t k = 0; k < j; ++k) d -= a.at(j, k) * a.at(j, k);
    if (d <= 0.0 || !std::isfinite(d)) return false;
    const double ljj = std::sqrt(d);
    a.at(j, j) = ljj;
    for (std::size_t i = j + 1; i < n; ++i) {
      double s = a.at(i, j);
      for (std::size_t k = 0; k < j; ++k) s -= a.at(i, k) * a.at(j, k);
      a.at(i, j) = s / ljj;
    }
    // Zero the strictly-upper triangle so the factor is clean.
    for (std::size_t c = j + 1; c < n; ++c) a.at(j, c) = 0.0;
  }
  return true;
}

Vector cholesky_solve(const Matrix& chol, const Vector& b) {
  const std::size_t n = chol.rows();
  assert(b.size() == n);
  Vector y(n);
  for (std::size_t i = 0; i < n; ++i) {  // forward: L y = b
    double s = b[i];
    for (std::size_t k = 0; k < i; ++k) s -= chol.at(i, k) * y[k];
    y[i] = s / chol.at(i, i);
  }
  Vector x(n);
  for (std::size_t ii = n; ii-- > 0;) {  // backward: L^T x = y
    double s = y[ii];
    for (std::size_t k = ii + 1; k < n; ++k) s -= chol.at(k, ii) * x[k];
    x[ii] = s / chol.at(ii, ii);
  }
  return x;
}

std::optional<Vector> solve_spd(Matrix a, const Vector& b) {
  if (!cholesky(a)) return std::nullopt;
  return cholesky_solve(a, b);
}

double dot(const Vector& a, const Vector& b) {
  assert(a.size() == b.size());
  return dot_kernel(a.data(), b.data(), a.size());
}

double dot_kernel(const double* a, const double* b, std::size_t n) {
  // Single accumulator fed in index order: the adds form the same dependency
  // chain as the naive loop, so the result is bit-identical; the unroll lets
  // the four multiplies issue in parallel ahead of the chain.
  double s = 0.0;
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const double p0 = a[i] * b[i];
    const double p1 = a[i + 1] * b[i + 1];
    const double p2 = a[i + 2] * b[i + 2];
    const double p3 = a[i + 3] * b[i + 3];
    s += p0;
    s += p1;
    s += p2;
    s += p3;
  }
  for (; i < n; ++i) s += a[i] * b[i];
  return s;
}

void axpy_kernel(std::size_t n, double a, const double* x, double* y) {
  // Each output slot accumulates independently; unrolling cannot reorder any
  // per-slot sequence.
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    y[i] += a * x[i];
    y[i + 1] += a * x[i + 1];
    y[i + 2] += a * x[i + 2];
    y[i + 3] += a * x[i + 3];
  }
  for (; i < n; ++i) y[i] += a * x[i];
}

}  // namespace murphy::stats
