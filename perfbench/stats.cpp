#include "stats.h"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdlib>

namespace perfbench {

std::uint64_t SplitMix::next() {
  std::uint64_t z = (state_ += 0x9E3779B97F4A7C15ULL);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

double SplitMix::unit() {
  // 53 random bits mapped to (0, 1]: never 0, so -log(u) stays finite.
  return (static_cast<double>(next() >> 11) + 1.0) * 0x1.0p-53;
}

std::vector<double> poisson_schedule(std::uint64_t seed, double rate_per_s,
                                     double duration_s) {
  std::vector<double> due;
  if (rate_per_s <= 0.0 || duration_s <= 0.0) return due;
  SplitMix rng(seed);
  double t = 0.0;
  for (;;) {
    t += -std::log(rng.unit()) / rate_per_s;
    if (t >= duration_s) break;
    due.push_back(t);
  }
  return due;
}

std::vector<double> tick_schedule(std::uint64_t seed, std::size_t count,
                                  double duration_s, double lo, double hi) {
  std::vector<double> due(count);
  SplitMix rng(seed);
  const double tick =
      count == 0 ? 0.0 : duration_s / static_cast<double>(count);
  for (std::size_t i = 0; i < count; ++i)
    due[i] = (static_cast<double>(i) + lo + (hi - lo) * rng.unit()) * tick;
  return due;
}

std::optional<double> supported_tail(std::size_t n, double cap,
                                     std::size_t beyond) {
  if (n <= beyond) return std::nullopt;
  const double p =
      1.0 - static_cast<double>(beyond) / static_cast<double>(n);
  return std::min(cap, p);
}

double quantile_sorted(const std::vector<double>& sorted, double p) {
  if (sorted.empty()) return 0.0;
  // Nearest rank: the smallest value with at least p * n samples at or
  // below it.
  const double rank = std::ceil(p * static_cast<double>(sorted.size()));
  const std::size_t idx =
      rank < 1.0 ? 0 : static_cast<std::size_t>(rank) - 1;
  return sorted[std::min(idx, sorted.size() - 1)];
}

double trimmed_mean_sorted(const std::vector<double>& sorted, double trim) {
  const auto cut = static_cast<std::size_t>(
      std::floor(std::clamp(trim, 0.0, 0.5) *
                 static_cast<double>(sorted.size())));
  if (sorted.size() <= 2 * cut) return quantile_sorted(sorted, 0.5);
  double sum = 0.0;
  for (std::size_t i = cut; i < sorted.size() - cut; ++i) sum += sorted[i];
  return sum / static_cast<double>(sorted.size() - 2 * cut);
}

Summary summarize(std::vector<double> samples) {
  Summary s;
  s.n = samples.size();
  if (samples.empty()) return s;
  std::sort(samples.begin(), samples.end());
  s.p50 = quantile_sorted(samples, 0.5);
  s.iqm = trimmed_mean_sorted(samples, 0.25);
  const std::optional<double> tail = supported_tail(samples.size());
  s.tail_p = tail.value_or(0.5);
  s.tail = quantile_sorted(samples, s.tail_p);
  return s;
}

double histogram_quantile(const std::vector<double>& bounds,
                          const std::vector<std::uint64_t>& counts,
                          double p) {
  std::uint64_t total = 0;
  for (std::uint64_t c : counts) total += c;
  if (total == 0 || bounds.empty()) return 0.0;
  const double target = p * static_cast<double>(total);
  double cum = 0.0;
  for (std::size_t i = 0; i < counts.size(); ++i) {
    const double next = cum + static_cast<double>(counts[i]);
    if (next >= target && counts[i] > 0) {
      if (i >= bounds.size()) return bounds.back();
      const double lo = i == 0 ? 0.0 : bounds[i - 1];
      const double frac = (target - cum) / static_cast<double>(counts[i]);
      return lo + std::clamp(frac, 0.0, 1.0) * (bounds[i] - lo);
    }
    cum = next;
  }
  return bounds.back();
}

RateBins::RateBins(double start_s, double duration_s, double width_s)
    : start_(start_s),
      width_(width_s),
      counts_(width_s > 0.0 && duration_s > 0.0
                  ? static_cast<std::size_t>(duration_s / width_s + 1e-9)
                  : 0) {}

void RateBins::add(double t_s, std::uint64_t n) {
  if (t_s < start_) return;
  const double bin = (t_s - start_) / width_;
  if (bin < static_cast<double>(counts_.size()))
    counts_[static_cast<std::size_t>(bin)] += n;
}

double RateBins::iqm_rate() const {
  std::vector<double> rates;
  for (std::uint64_t c : counts_)
    rates.push_back(static_cast<double>(c) / width_);
  std::sort(rates.begin(), rates.end());
  return trimmed_mean_sorted(rates, 0.25);
}

std::uint64_t RateBins::total() const {
  std::uint64_t t = 0;
  for (std::uint64_t c : counts_) t += c;
  return t;
}

double ratio(double num, double den) { return den == 0.0 ? 0.0 : num / den; }

double hit_ratio(std::uint64_t hits, std::uint64_t misses) {
  return ratio(static_cast<double>(hits),
               static_cast<double>(hits) + static_cast<double>(misses));
}

double ns_per(double ms, std::uint64_t units) {
  return ratio(ms * 1e6, static_cast<double>(units));
}

double lock_wait_mean_ms(double run_ms_sum, double engine_ms_sum,
                         std::uint64_t n) {
  return std::max(0.0, ratio(run_ms_sum - engine_ms_sum,
                             static_cast<double>(n)));
}

std::optional<TaggedLine> split_tag(std::string_view line) {
  if (line.size() < 2 || line[0] != '#') return std::nullopt;
  const std::size_t sp = line.find(' ');
  if (sp == std::string_view::npos) return std::nullopt;
  TaggedLine out;
  const auto [ptr, ec] =
      std::from_chars(line.data() + 1, line.data() + sp, out.tag);
  if (ec != std::errc{} || ptr != line.data() + sp) return std::nullopt;
  out.body = line.substr(sp + 1);
  return out;
}

std::optional<DiagnoseReply> parse_diagnose_ok(std::string_view body) {
  if (body.substr(0, 3) != "OK ") return std::nullopt;
  DiagnoseReply r;
  bool have_version = false;
  std::size_t pos = 3;
  while (pos < body.size()) {
    std::size_t end = body.find(' ', pos);
    if (end == std::string_view::npos) end = body.size();
    const std::string_view tok = body.substr(pos, end - pos);
    pos = end + 1;
    if (tok.substr(0, 8) == "version=") {
      const auto [ptr, ec] = std::from_chars(
          tok.data() + 8, tok.data() + tok.size(), r.version);
      have_version = ec == std::errc{} && ptr == tok.data() + tok.size();
    } else if (tok.substr(0, 7) == "run_ms=") {
      r.run_ms = std::strtod(std::string(tok.substr(7)).c_str(), nullptr);
    } else if (const std::size_t colon = tok.find(':');
               colon != std::string_view::npos && colon > 0 &&
               std::all_of(tok.begin(), tok.begin() + colon,
                           [](char c) { return c >= '0' && c <= '9'; })) {
      r.top.emplace_back(tok.substr(colon + 1));
    }
  }
  if (!have_version) return std::nullopt;
  return r;
}

}  // namespace perfbench
