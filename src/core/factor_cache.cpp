#include "src/core/factor_cache.h"

#include <algorithm>
#include <bit>

#include "src/core/factor_model.h"
#include "src/obs/metrics.h"
#include "src/telemetry/monitoring_db.h"

namespace murphy::core {

std::uint64_t hash_mix(std::uint64_t h, std::uint64_t v) {
  std::uint64_t z = h ^ (v + 0x9E3779B97F4A7C15ULL + (h << 6) + (h >> 2));
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

void MomentBlock::extend(std::span<const telemetry::TimeSeries* const> series,
                         TimeIndex to) {
  const TimeIndex from = end();
  if (to <= from) return;
  const std::size_t d = cols.size();
  const std::size_t count = to - from;
  thread_local std::vector<double> buf;
  buf.resize(count * d);
  for (std::size_t r = 0; r < count; ++r)
    for (std::size_t c = 0; c < d; ++c)
      buf[r * d + c] =
          series[c] == nullptr ? 0.0 : series[c]->value_or(from + r, 0.0);
  plain.add_rows(buf);
  if (decayed.dims() > 0) decayed.add_rows(buf);
  // Sorted insertion of the new target values. Adding 0.0 turns -0.0 into
  // +0.0, so equal values are equal bits and the sorted vector does not
  // depend on the order the rows arrived in.
  if (sorted_target.empty()) {
    for (std::size_t r = 0; r < count; ++r)
      sorted_target.push_back(buf[r * d] + 0.0);
    std::sort(sorted_target.begin(), sorted_target.end());
  } else {
    for (std::size_t r = 0; r < count; ++r) {
      const double y = buf[r * d] + 0.0;
      sorted_target.insert(
          std::upper_bound(sorted_target.begin(), sorted_target.end(), y), y);
    }
  }
}

void MomentStore::reset(std::uint64_t fingerprint) {
  std::unique_lock lock(mu_);
  if (fingerprint == fingerprint_ && !slots_.empty()) return;
  slots_.clear();
  fingerprint_ = fingerprint;
}

MomentStore::Slot& MomentStore::slot(std::uint64_t key) {
  {
    std::shared_lock lock(mu_);
    if (const auto it = slots_.find(key); it != slots_.end())
      return *it->second;
  }
  std::unique_lock lock(mu_);
  auto& slot = slots_[key];
  if (slot == nullptr) slot = std::make_unique<Slot>();
  return *slot;
}

void MomentStore::prune(std::size_t max_blocks) {
  std::unique_lock lock(mu_);
  if (slots_.size() <= max_blocks) return;
  slots_.clear();
#ifndef MURPHY_OBS_DISABLED
  obs::global_metrics().counter("cache.moment_prunes")->add(1);
#endif
}

std::size_t MomentStore::size() const {
  std::shared_lock lock(mu_);
  return slots_.size();
}

void TrainingCaches::attach(const telemetry::MonitoringDb& db,
                            FactorTrainingOptions& opts) {
  std::uint64_t fp = hash_mix(0x5E21BCE5u, db.uid());
  fp = hash_mix(fp, db.structural_data_version());
  fp = hash_mix(fp, opts.top_b);
  fp = hash_mix(fp, std::bit_cast<std::uint64_t>(opts.l2));
  fp = hash_mix(fp, std::bit_cast<std::uint64_t>(opts.recency_half_life));
  moment_store_.reset(fp);
  opts.moment_store = &moment_store_;
}

void TrainingCaches::prune(std::size_t max_blocks) {
  moment_store_.prune(max_blocks);
}

}  // namespace murphy::core
