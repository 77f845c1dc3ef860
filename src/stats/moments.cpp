#include "src/stats/moments.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <cstdint>

#include "src/obs/metrics.h"

namespace murphy::stats {

CrossMoments::CrossMoments(std::size_t dims, double decay)
    : decay_(decay), shift_(dims, 0.0), s1_(dims, 0.0),
      s2_(dims * (dims + 1) / 2, 0.0) {
  assert(decay > 0.0 && decay <= 1.0);
}

std::size_t CrossMoments::tri(std::size_t i, std::size_t j) const {
  if (i > j) std::swap(i, j);
  return i * dims() - i * (i - 1) / 2 + (j - i);
}

void CrossMoments::add_rows(std::span<const double> rows) {
  const std::size_t d = dims();
  if (d == 0) return;
  assert(rows.size() % d == 0);
  const std::size_t count = rows.size() / d;
  thread_local std::vector<double> dev;
  dev.resize(d);
  for (std::size_t r = 0; r < count; ++r) {
    const double* x = rows.data() + r * d;
    if (rows_ == 0) shift_.assign(x, x + d);
    if (decay_ != 1.0) {
      weight_ *= decay_;
      for (double& v : s1_) v *= decay_;
      for (double& v : s2_) v *= decay_;
    }
    weight_ += 1.0;
    ++rows_;
    for (std::size_t i = 0; i < d; ++i) {
      dev[i] = x[i] - shift_[i];
      s1_[i] += dev[i];
    }
    double* s2 = s2_.data();
    for (std::size_t i = 0; i < d; ++i) {
      const double di = dev[i];
      for (std::size_t j = i; j < d; ++j) *s2++ += di * dev[j];
    }
  }
#ifndef MURPHY_OBS_DISABLED
  static obs::Counter* const c_cells =
      obs::global_metrics().counter("stats.ridge_cells");
  c_cells->add(static_cast<std::uint64_t>(count) * d);
#endif
}

double CrossMoments::mean(std::size_t i) const {
  return rows_ == 0 ? 0.0 : shift_[i] + s1_[i] / weight_;
}

double CrossMoments::centered(std::size_t i, std::size_t j) const {
  if (rows_ == 0) return 0.0;
  const double c = s2_[tri(i, j)] - s1_[i] * s1_[j] / weight_;
  return i == j ? std::max(c, 0.0) : c;
}

CenteredMoments CrossMoments::select(std::span<const std::size_t> cols) const {
  const std::size_t k = cols.size();
  CenteredMoments m;
  m.weight = weight_;
  m.rows = rows_;
  m.mean.resize(k);
  m.cross = Matrix(k, k);
  m.magnitude = Matrix(k, k);
  for (std::size_t a = 0; a < k; ++a) {
    m.mean[a] = mean(cols[a]);
    for (std::size_t b = 0; b < k; ++b) {
      m.cross.at(a, b) = centered(cols[a], cols[b]);
      m.magnitude.at(a, b) =
          rows_ == 0 ? 0.0
                     : std::abs(s2_[tri(cols[a], cols[b])]) +
                           std::abs(s1_[cols[a]] * s1_[cols[b]]) / weight_;
    }
  }
  return m;
}

}  // namespace murphy::stats
