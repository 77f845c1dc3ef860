#include "src/common/rng.h"

#include <cassert>
#include <cmath>

namespace murphy {

std::uint64_t splitmix64(std::uint64_t& state) {
  std::uint64_t z = (state += 0x9E3779B97F4A7C15ULL);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

std::uint64_t mix_seed(std::uint64_t seed, std::uint64_t stream) {
  std::uint64_t state = seed ^ (stream * 0xBF58476D1CE4E5B9ULL);
  (void)splitmix64(state);
  return splitmix64(state);
}

Rng::Rng(std::uint64_t seed) {
  std::uint64_t sm = seed;
  for (auto& s : s_) s = splitmix64(sm);
}

std::uint64_t Rng::below(std::uint64_t n) {
  assert(n > 0);
  // Rejection sampling to remove modulo bias.
  const std::uint64_t threshold = (~n + 1) % n;  // == 2^64 mod n
  for (;;) {
    const std::uint64_t r = (*this)();
    if (r >= threshold) return r % n;
  }
}

double Rng::exponential(double rate) {
  assert(rate > 0.0);
  // uniform() can return 0; 1-u is in (0, 1].
  return -std::log(1.0 - uniform()) / rate;
}

Rng Rng::fork() { return Rng((*this)() ^ 0xD1B54A32D192ED03ULL); }

namespace {

// 128-layer ziggurat tables for the standard normal (Marsaglia & Tsang,
// Doornik's formulation). Computed once at first use; the values depend on
// libm's exp/log/sqrt, which is fine — fill_normal backs the inference
// kernel, whose contract with the reference sampler is statistical
// equivalence; its bitwise determinism holds per platform (same seed and
// options, any thread count), not across libm versions.
struct ZigguratTables {
  static constexpr int kLayers = 128;
  static constexpr double kR = 3.442619855899;       // rightmost layer edge
  static constexpr double kV = 9.91256303526217e-3;  // layer area
  double x[kLayers + 1];  // layer x-coordinates, x[0] widest
  double r[kLayers];      // x[i+1]/x[i]: accept threshold per layer
  double y[kLayers + 1];  // exp(-x[i]^2/2): wedge rejection bounds

  ZigguratTables() {
    double f = std::exp(-0.5 * kR * kR);
    x[0] = kV / f;
    x[1] = kR;
    x[kLayers] = 0.0;
    for (int i = 2; i < kLayers; ++i) {
      x[i] = std::sqrt(-2.0 * std::log(kV / x[i - 1] + f));
      f = std::exp(-0.5 * x[i] * x[i]);
    }
    for (int i = 0; i < kLayers; ++i) r[i] = x[i + 1] / x[i];
    for (int i = 0; i <= kLayers; ++i) y[i] = std::exp(-0.5 * x[i] * x[i]);
  }
};

const ZigguratTables& ziggurat() {
  static const ZigguratTables tables;
  return tables;
}

}  // namespace

void Rng::fill_normal(std::span<double> out) {
  const ZigguratTables& z = ziggurat();
  for (double& slot : out) {
    for (;;) {
      const std::uint64_t bits = (*this)();
      const int layer = static_cast<int>(bits & 0x7F);
      // Signed uniform in (-1, 1) from the top 53 bits (sign + 52 magnitude).
      const double u =
          static_cast<double>(static_cast<std::int64_t>(bits) >> 11) *
          0x1.0p-52;
      if (std::abs(u) < z.r[layer]) {  // ~97.7%: inside the sub-rectangle
        slot = u * z.x[layer];
        break;
      }
      if (layer == 0) {
        // Tail beyond kR: Marsaglia's exact tail algorithm.
        double tx, ty;
        do {
          tx = -std::log(1.0 - uniform()) / ZigguratTables::kR;
          ty = -std::log(1.0 - uniform());
        } while (ty + ty < tx * tx);
        slot = u < 0.0 ? -(ZigguratTables::kR + tx) : ZigguratTables::kR + tx;
        break;
      }
      // Wedge: accept against the density between the layer bounds.
      const double cand = u * z.x[layer];
      if (z.y[layer + 1] + (z.y[layer] - z.y[layer + 1]) * uniform() <
          std::exp(-0.5 * cand * cand)) {
        slot = cand;
        break;
      }
    }
  }
}

}  // namespace murphy
