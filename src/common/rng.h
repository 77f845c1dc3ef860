// Deterministic pseudo-random number generation.
//
// Every stochastic component in this repository (simulators, samplers,
// degradation injectors) draws from an explicitly seeded generator so that
// benchmark tables reproduce bit-for-bit across runs. We implement
// xoshiro256** (public-domain algorithm by Blackman & Vigna) seeded through
// SplitMix64, which has far better statistical behaviour than
// std::minstd_rand and, unlike std::mt19937, a guaranteed cross-platform
// stream for a given seed.
//
// The generator step and the uniform/normal draws are defined inline: the
// Gibbs sampler draws one normal per variable per round, and a cross-TU call
// for every draw is measurable on that path. The polar method below is exact
// IEEE arithmetic (no fast-math), so inlining cannot change the stream.
#pragma once

#include <cmath>
#include <cstdint>
#include <span>

namespace murphy {

namespace detail {
constexpr std::uint64_t rotl64(std::uint64_t x, int k) {
  return (x << k) | (x >> (64 - k));
}
}  // namespace detail

// SplitMix64 step; used for seeding and as a cheap stateless mixer.
[[nodiscard]] std::uint64_t splitmix64(std::uint64_t& state);

// Deterministic mix of a base seed and a stream index, for deriving one
// independent RNG stream per parallel work item (per candidate, per
// variable, per symptom). Because the derived seed depends only on (seed,
// stream) — never on which thread runs the item or in what order — results
// are bitwise identical for any thread count.
[[nodiscard]] std::uint64_t mix_seed(std::uint64_t seed, std::uint64_t stream);

// xoshiro256** generator. Satisfies std::uniform_random_bit_generator.
class Rng {
 public:
  using result_type = std::uint64_t;

  explicit Rng(std::uint64_t seed = 0x9E3779B97F4A7C15ULL);

  [[nodiscard]] static constexpr result_type min() { return 0; }
  [[nodiscard]] static constexpr result_type max() { return ~0ULL; }

  result_type operator()() {
    const std::uint64_t result = detail::rotl64(s_[1] * 5, 7) * 9;
    const std::uint64_t t = s_[1] << 17;
    s_[2] ^= s_[0];
    s_[3] ^= s_[1];
    s_[1] ^= s_[2];
    s_[0] ^= s_[3];
    s_[2] ^= t;
    s_[3] = detail::rotl64(s_[3], 45);
    return result;
  }

  // Uniform double in [0, 1).
  [[nodiscard]] double uniform() {
    // 53 top bits -> double in [0, 1).
    return static_cast<double>((*this)() >> 11) * 0x1.0p-53;
  }
  // Uniform double in [lo, hi).
  [[nodiscard]] double uniform(double lo, double hi) {
    return lo + (hi - lo) * uniform();
  }
  // Uniform integer in [0, n). Requires n > 0.
  [[nodiscard]] std::uint64_t below(std::uint64_t n);
  // Standard normal via Marsaglia polar method (cached spare).
  [[nodiscard]] double normal() {
    if (has_spare_) {
      has_spare_ = false;
      return spare_;
    }
    double u, v, s;
    do {
      u = uniform(-1.0, 1.0);
      v = uniform(-1.0, 1.0);
      s = u * u + v * v;
    } while (s >= 1.0 || s == 0.0);
    const double m = std::sqrt(-2.0 * std::log(s) / s);
    spare_ = v * m;
    has_spare_ = true;
    return u * m;
  }
  // Normal with the given mean and standard deviation.
  [[nodiscard]] double normal(double mean, double stddev) {
    return mean + stddev * normal();
  }
  // Exponential with the given rate (mean 1/rate). Requires rate > 0.
  [[nodiscard]] double exponential(double rate);

  // Batched standard-normal fill for the inference kernel: writes
  // out.size() independent N(0,1) draws with contiguous stores, via a
  // 128-layer ziggurat over this xoshiro256** stream (~1 generator step, one
  // table compare and one multiply per draw on the ~97.7% common path —
  // several-fold cheaper than the ~60-cycle polar normal() above). The
  // sequence is a pure function of the stream state and the total number of
  // draws: fill_normal(64) twice produces the same values as one
  // fill_normal(128). It is a DIFFERENT stream from normal(): the polar
  // method stays what every other caller (simulation, stochastic fits, the
  // reference sampler) draws from.
  void fill_normal(std::span<double> out);
  // Bernoulli trial with probability p of true.
  [[nodiscard]] bool chance(double p) { return uniform() < p; }

  // Derive an independent child generator; useful to give each simulated
  // entity its own stream so adding entities doesn't perturb others.
  [[nodiscard]] Rng fork();

 private:
  std::uint64_t s_[4];
  double spare_ = 0.0;
  bool has_spare_ = false;
};

}  // namespace murphy
