#include "src/telemetry/metric_store.h"

#include <algorithm>
#include <atomic>
#include <cassert>
#include <cmath>
#include <cstring>

#include "src/obs/metrics.h"

namespace murphy::telemetry {
namespace {

// Ingest/read-side defect counters (DESIGN.md §8). Resolved once; updates
// are single relaxed atomics and only happen on the defect path.
void count_defect(const char* name, std::uint64_t n) {
#ifndef MURPHY_OBS_DISABLED
  if (n == 0) return;
  obs::global_metrics().counter(name)->add(n);
#else
  (void)name;
  (void)n;
#endif
}

// Process-wide, so a replaced or re-created series never reuses an id.
std::atomic<std::uint64_t> g_next_history{1};

const std::vector<MetricKindId> kNoKinds;

}  // namespace

TimeSeries::TimeSeries(std::vector<double> values)
    : values_(std::move(values)), valid_(values_.size(), true) {
  new_history();
  append_mark_ = values_.size();
}

TimeSeries::TimeSeries(std::vector<double> values, std::vector<bool> valid)
    : values_(std::move(values)), valid_(std::move(valid)) {
  assert(values_.size() == valid_.size());
  new_history();
  append_mark_ = values_.size();
}

void TimeSeries::new_history() {
  history_id_ = g_next_history.fetch_add(1, std::memory_order_relaxed);
}

double TimeSeries::value_or(TimeIndex t, double fallback) const {
  if (t >= values_.size() || !valid_[t]) return fallback;
  const double v = values_[t];
  if (!std::isfinite(v)) {
    // Raw writes (set / find_mutable) can store non-finite payloads past the
    // ingest sanitizer; the read path defines them as missing so a poisoned
    // slice degrades to the documented fallback instead of NaN-ing every
    // moment downstream.
    count_defect("ingest.nonfinite_reads", 1);
    return fallback;
  }
  return v;
}

void TimeSeries::set(TimeIndex t, double v) {
  assert(t < values_.size());
  values_[t] = v;
  valid_[t] = true;
}

void TimeSeries::invalidate(TimeIndex t) {
  assert(t < values_.size());
  valid_[t] = false;
}

std::size_t TimeSeries::sanitize() {
  std::size_t dropped = 0;
  for (TimeIndex t = 0; t < values_.size(); ++t) {
    if (valid_[t] && !std::isfinite(values_[t])) {
      valid_[t] = false;
      ++dropped;
    }
  }
  return dropped;
}

void TimeSeries::invalidate_before(TimeIndex t) {
  const TimeIndex end = std::min(t, values_.size());
  for (TimeIndex i = 0; i < end; ++i) valid_[i] = false;
}

std::vector<double> TimeSeries::window(TimeIndex from, TimeIndex to,
                                       double fallback) const {
  // Total on any (from, to): an inverted window is empty (the unsigned
  // to - from below would otherwise reserve ~2^64 slices), and slices beyond
  // the axis read as missing through value_or's bounds check.
  if (to < from) return {};
  std::vector<double> out;
  out.reserve(to - from);
  for (TimeIndex t = from; t < to; ++t) out.push_back(value_or(t, fallback));
  return out;
}

bool TimeSeries::bitwise_equal(const TimeSeries& other) const {
  if (values_.size() != other.values_.size() || valid_ != other.valid_)
    return false;
  // memcmp compares the stored bit patterns, so NaN payloads and -0.0/0.0
  // are distinguished exactly — the contract warm caches rely on.
  return values_.empty() ||
         std::memcmp(values_.data(), other.values_.data(),
                     values_.size() * sizeof(double)) == 0;
}

void TimeSeries::append_missing(std::size_t n) {
  values_.resize(values_.size() + n, 0.0);
  valid_.resize(valid_.size() + n, false);
}

std::uint64_t MetricStore::series_epoch(EntityId entity,
                                        MetricKindId kind) const {
  const auto it = epochs_.find(MetricRef{entity, kind});
  return it == epochs_.end() ? 0 : it->second;
}

void MetricStore::put(EntityId entity, MetricKindId kind,
                      std::vector<double> values) {
  put(entity, kind, TimeSeries(std::move(values)));
}

void MetricStore::put(EntityId entity, MetricKindId kind, TimeSeries series) {
  assert(series.size() == axis_.size());
  count_defect("ingest.nonfinite_dropped", series.sanitize());
  const MetricRef ref{entity, kind};
  const auto it = series_.find(ref);
  if (it != series_.end() && it->second.bitwise_equal(series)) {
    // Idempotent re-ingestion (a collector replaying its spool, a CSV feed
    // restarted from the top): the stored bits are already these bits, so
    // nothing downstream can observe a change — skip every version/epoch
    // bump and keep warm caches warm.
    count_defect("ingest.noop_puts", 1);
    return;
  }
  ++version_;
  ++epochs_[ref];
  const bool fresh = it == series_.end();
  // A replacement is a new history, even when `series` is a copy of a
  // stored one (a copy carries its source's id).
  series.new_history();
  series.append_mark_ = series.size();
  series_.insert_or_assign(ref, std::move(series));
  if (fresh) kinds_[entity].push_back(kind);
}

bool MetricStore::upsert_cell(EntityId entity, MetricKindId kind, TimeIndex t,
                              double v, std::uint64_t* epoch_out) {
  assert(t < axis_.size());
  const MetricRef ref{entity, kind};
  auto it = series_.find(ref);
  const bool fresh = it == series_.end();
  if (fresh) {
    it = series_
             .emplace(ref, TimeSeries(std::vector<double>(axis_.size(), 0.0),
                                      std::vector<bool>(axis_.size(), false)))
             .first;
    it->second.append_mark_ = 0;  // nothing written yet
    kinds_[entity].push_back(kind);
  }
  TimeSeries& ts = it->second;
  if (t < ts.append_mark_)
    ts.new_history();  // a rewrite: rows below the mark may change
  else
    ts.append_mark_ = t + 1;
  if (std::isfinite(v)) {
    ts.set(t, v);
  } else {
    // Same defect semantics as put(): a non-finite payload never becomes a
    // readable slice.
    ts.invalidate(t);
    count_defect("ingest.nonfinite_dropped", 1);
  }
  ++version_;
  const std::uint64_t epoch = ++epochs_[ref];
  if (epoch_out != nullptr) *epoch_out = epoch;
  return fresh;
}

void MetricStore::extend_axis(std::size_t extra_slices) {
  if (extra_slices == 0) return;
  axis_ = TimeAxis(axis_.start(), axis_.interval(),
                   axis_.size() + extra_slices);
  for (auto& [ref, series] : series_) series.append_missing(extra_slices);
  ++version_;
}

const TimeSeries* MetricStore::find(EntityId entity, MetricKindId kind) const {
  const auto it = series_.find(MetricRef{entity, kind});
  return it == series_.end() ? nullptr : &it->second;
}

TimeSeries* MetricStore::find_mutable(EntityId entity, MetricKindId kind) {
  const auto it = series_.find(MetricRef{entity, kind});
  if (it == series_.end()) return nullptr;
  // The caller may write through the pointer: bump both the global version
  // and this series' epoch (the write is attributable to exactly one series).
  ++version_;
  ++epochs_[MetricRef{entity, kind}];
  it->second.new_history();
  return &it->second;
}

const std::vector<MetricKindId>& MetricStore::kinds_of(
    EntityId entity) const {
  const auto it = kinds_.find(entity);
  return it == kinds_.end() ? kNoKinds : it->second;
}

void MetricStore::erase(EntityId entity, MetricKindId kind) {
  ++version_;
  ++structural_version_;  // the series set changed; history ids can't see it
  series_.erase(MetricRef{entity, kind});
  epochs_.erase(MetricRef{entity, kind});
  if (auto it = kinds_.find(entity); it != kinds_.end()) {
    auto& v = it->second;
    v.erase(std::remove(v.begin(), v.end(), kind), v.end());
  }
}

void MetricStore::erase_entity(EntityId entity) {
  ++version_;
  ++structural_version_;
  for (const MetricKindId kind : kinds_of(entity)) {
    series_.erase(MetricRef{entity, kind});
    epochs_.erase(MetricRef{entity, kind});
  }
  kinds_.erase(entity);
}

}  // namespace murphy::telemetry
