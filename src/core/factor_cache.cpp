#include "src/core/factor_cache.h"

#include <bit>

#include "src/core/factor_model.h"
#include "src/telemetry/monitoring_db.h"

namespace murphy::core {

std::uint64_t hash_mix(std::uint64_t h, std::uint64_t v) {
  std::uint64_t z = h ^ (v + 0x9E3779B97F4A7C15ULL + (h << 6) + (h >> 2));
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

void FactorCache::reset(std::uint64_t fingerprint) {
  std::unique_lock lock(mu_);
  if (fingerprint == fingerprint_ && !entries_.empty()) return;
  entries_.clear();
  fingerprint_ = fingerprint;
}

const CachedFactor& FactorCache::get_or_train(std::uint64_t key,
                                              const Trainer& trainer,
                                              bool* trained) {
  Entry* entry = nullptr;
  {
    std::shared_lock lock(mu_);
    if (const auto it = entries_.find(key); it != entries_.end())
      entry = it->second.get();
  }
  if (entry == nullptr) {
    std::unique_lock lock(mu_);
    auto& slot = entries_[key];
    if (slot == nullptr) slot = std::make_unique<Entry>();
    entry = slot.get();
  }
  bool built = false;
  std::call_once(entry->once, [&] {
    entry->factor = trainer();
    built = true;
  });
  if (trained != nullptr) *trained = built;
  return entry->factor;
}

void FactorCache::prune(std::size_t max_entries) {
  std::unique_lock lock(mu_);
  if (entries_.size() > max_entries) entries_.clear();
}

void TrainingCaches::attach(const telemetry::MonitoringDb& db,
                            FactorTrainingOptions& opts) {
  std::uint64_t fp = hash_mix(0x5E21BCE5u, db.uid());
  fp = hash_mix(fp, db.structural_data_version());
  fp = hash_mix(fp, opts.top_b);
  fp = hash_mix(fp, std::bit_cast<std::uint64_t>(opts.l2));
  fp = hash_mix(fp, std::bit_cast<std::uint64_t>(opts.recency_half_life));
  window_stats_.reset(fp);
  factor_cache_.reset(fp);
  opts.window_stats = &window_stats_;
  opts.factor_cache = &factor_cache_;
}

void TrainingCaches::prune(std::size_t max_entries) {
  window_stats_.prune(max_entries);
  factor_cache_.prune(max_entries);
}

}  // namespace murphy::core
