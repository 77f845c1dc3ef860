// Minimal dense linear algebra for the learning code.
//
// The models trained in this repository are tiny by ML standards (a few
// hundred rows, B <= ~20 features per the paper's one-in-ten rule), so a
// simple row-major dense matrix with Cholesky-based solves is all that is
// needed; no BLAS dependency.
#pragma once

#include <cstddef>
#include <optional>
#include <vector>

namespace murphy::stats {

using Vector = std::vector<double>;

class Matrix {
 public:
  Matrix() = default;
  Matrix(std::size_t rows, std::size_t cols, double fill = 0.0);

  // Re-dimensions to rows x cols, every cell `fill`, keeping the storage.
  void assign(std::size_t rows, std::size_t cols, double fill = 0.0);

  [[nodiscard]] std::size_t rows() const { return rows_; }
  [[nodiscard]] std::size_t cols() const { return cols_; }

  [[nodiscard]] double& at(std::size_t r, std::size_t c) {
    return data_[r * cols_ + c];
  }
  [[nodiscard]] double at(std::size_t r, std::size_t c) const {
    return data_[r * cols_ + c];
  }

  [[nodiscard]] const double* row(std::size_t r) const {
    return data_.data() + r * cols_;
  }
  [[nodiscard]] double* row(std::size_t r) { return data_.data() + r * cols_; }

  [[nodiscard]] static Matrix identity(std::size_t n);

  // C = A^T * A (Gram matrix), the core of the normal equations.
  [[nodiscard]] Matrix gram() const;
  // y = A^T * v; requires v.size() == rows().
  [[nodiscard]] Vector transpose_times(const Vector& v) const;
  // y = A * v; requires v.size() == cols().
  [[nodiscard]] Vector times(const Vector& v) const;

 private:
  std::size_t rows_ = 0;
  std::size_t cols_ = 0;
  std::vector<double> data_;
};

// In-place Cholesky factorization of a symmetric positive-definite matrix.
// Returns false if the matrix is not (numerically) positive definite.
[[nodiscard]] bool cholesky(Matrix& a);

// Solves A x = b given the Cholesky factor produced by cholesky().
[[nodiscard]] Vector cholesky_solve(const Matrix& chol, const Vector& b);

// Solves the SPD system A x = b; returns nullopt if A is not SPD.
[[nodiscard]] std::optional<Vector> solve_spd(Matrix a, const Vector& b);

[[nodiscard]] double dot(const Vector& a, const Vector& b);

// Low-level kernels shared by the matrix routines, the correlation cache and
// the sampler. Both keep the exact sequential accumulation order of the
// naive loops (dot uses a single accumulator in index order; every axpy
// output slot is independent), so calls are bit-identical to the scalar
// code they replace — unrolling only exposes instruction-level parallelism
// for the multiplies.
[[nodiscard]] double dot_kernel(const double* a, const double* b,
                                std::size_t n);
// y[i] += a * x[i] for i in [0, n).
void axpy_kernel(std::size_t n, double a, const double* x, double* y);

}  // namespace murphy::stats
