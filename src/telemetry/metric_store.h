// Time-series storage for entity metrics.
//
// All series share one TimeAxis (the monitoring platform's collection grid).
// Values may be missing — a newly spawned entity has no history, and the
// robustness experiments (Table 2) deliberately delete values — so each
// series carries a validity mask alongside its values.
//
// Telemetry-defect semantics (DESIGN.md §8): real collectors emit NaN/Inf
// payloads, and a single non-finite slice would otherwise poison every
// moment, factor and ranking downstream. The store therefore defines
// non-finite values as MISSING:
//  * MetricStore::put() sanitizes at ingest — non-finite slices are marked
//    invalid (counter `ingest.nonfinite_dropped`), the stored payload is
//    untouched;
//  * TimeSeries::value_or() / window() treat a stored non-finite value as
//    missing even when its validity bit is set (counter
//    `ingest.nonfinite_reads`), covering raw writes through set() /
//    find_mutable() that bypass ingest;
//  * the raw accessors value() / values() still expose the stored payload
//    (the exporter round-trips it; the importer re-drops it).
// Finite data is returned bit-for-bit unchanged on every path.
#pragma once

#include <optional>
#include <span>
#include <unordered_map>
#include <vector>

#include "src/common/ids.h"
#include "src/common/time_axis.h"

namespace murphy::telemetry {

// One metric's samples on the store's axis, with per-slice validity.
class TimeSeries {
 public:
  TimeSeries() = default;
  explicit TimeSeries(std::vector<double> values);
  TimeSeries(std::vector<double> values, std::vector<bool> valid);

  [[nodiscard]] std::size_t size() const { return values_.size(); }
  [[nodiscard]] double value(TimeIndex t) const { return values_[t]; }
  [[nodiscard]] bool is_valid(TimeIndex t) const { return valid_[t]; }
  // Value at t, or `fallback` when the slice is missing. The paper uses a
  // default (e.g. 0% CPU) as placeholder for missing history (§4.2).
  // Non-finite stored values count as missing (see header comment).
  [[nodiscard]] double value_or(TimeIndex t, double fallback) const;

  [[nodiscard]] std::span<const double> values() const { return values_; }

  void set(TimeIndex t, double v);
  void invalidate(TimeIndex t);
  // Marks every valid-but-non-finite slice invalid; returns how many were
  // dropped. put() applies this to everything it ingests.
  std::size_t sanitize();
  // Drop history before `t` (keeps values from t onward). Used by the
  // "missing values" degradation, which removes history but keeps the
  // incident window.
  void invalidate_before(TimeIndex t);

  // True when `other` stores the same payload bit-for-bit (values compared
  // by bit pattern — NaN payloads and signed zeros included) and the same
  // validity mask. The no-op-put detection in MetricStore::put uses this.
  [[nodiscard]] bool bitwise_equal(const TimeSeries& other) const;

  // Appends `n` missing slices (axis growth under streaming ingestion).
  void append_missing(std::size_t n);

  // History identity (see MetricStore). append_mark() is 1 + the highest
  // slice MetricStore::upsert_cell ever wrote (the series length for a
  // put() series). history_id() is process-unique and moves whenever a
  // slice below the mark may have changed, so two reads of [0, mark) under
  // one history id see the same bits.
  [[nodiscard]] std::uint64_t history_id() const { return history_id_; }
  [[nodiscard]] TimeIndex append_mark() const { return append_mark_; }

  // Values restricted to [from, to) with missing slices replaced by
  // `fallback`; the shape the trainers consume. Total: an inverted window
  // (to < from) is empty, slices beyond the axis read as `fallback`.
  [[nodiscard]] std::vector<double> window(TimeIndex from, TimeIndex to,
                                           double fallback = 0.0) const;

 private:
  friend class MetricStore;

  // Draws a fresh process-unique history id.
  void new_history();

  std::vector<double> values_;
  std::vector<bool> valid_;
  std::uint64_t history_id_ = 0;
  TimeIndex append_mark_ = 0;
};

class SnapshotIo;  // snapshot.cpp serializer; needs raw member access

class MetricStore {
 public:
  MetricStore() = default;
  explicit MetricStore(TimeAxis axis) : axis_(axis) {}

  [[nodiscard]] const TimeAxis& axis() const { return axis_; }
  void set_axis(TimeAxis axis) {
    axis_ = axis;
    ++version_;
    ++structural_version_;
  }

  // Monotonic data version: bumped by every mutation path, including
  // find_mutable() (conservatively — the caller may write through the
  // pointer). Caches keyed on (window, version) use this to detect staleness
  // without diffing series.
  [[nodiscard]] std::uint64_t version() const { return version_; }

  // Structural subset of version(): bumped only by mutations that change
  // WHICH series exist or how they are read (axis replacement, erase paths),
  // never by value writes to an existing or fresh series. The long-running
  // service keys its cache generation on this plus per-series epochs, so a
  // streaming append invalidates only the entries that read the touched
  // series instead of the whole cache (DESIGN.md §9).
  [[nodiscard]] std::uint64_t structural_version() const {
    return structural_version_;
  }

  // History ids and append marks (TimeSeries::history_id/append_mark): the
  // incremental trainer (core::MomentStore) keeps per-series sufficient
  // statistics over the rows below a series' append mark and trusts them
  // for as long as the history id holds. The id moves when a write lands
  // below the append mark (upsert_cell), when the series is replaced
  // (put), exposed for raw writes (find_mutable) or erased; an append at
  // or past the mark only advances the mark. Both live on the TimeSeries
  // the write already found, so upsert_cell pays no extra lookup.
  //
  // Per-series write epoch: bumped every time (entity, kind) is written
  // (put / upsert_cell / find_mutable). 0 = the series has never existed;
  // the first write makes it 1. Snapshots record it, and the stream's
  // commit observer reports it with every series a commit touched.
  [[nodiscard]] std::uint64_t series_epoch(EntityId entity,
                                           MetricKindId kind) const;

  // Replaces any existing series for (entity, kind). `values.size()` must
  // equal axis().size(). Ingest sanitizes: non-finite slices are marked
  // missing (counter `ingest.nonfinite_dropped`). A no-op put — a series
  // bitwise identical (values and validity) to the one already stored —
  // bumps nothing (counter `ingest.noop_puts`), so idempotent re-ingestion
  // keeps warm caches warm.
  void put(EntityId entity, MetricKindId kind, std::vector<double> values);
  void put(EntityId entity, MetricKindId kind, TimeSeries series);

  // Streaming ingestion: writes one slice of (entity, kind), creating the
  // series (all slices missing) when absent. Non-finite values are the usual
  // telemetry defect: the slice stays missing (`ingest.nonfinite_dropped`).
  // Bumps version() and the series epoch. Returns true when the series was
  // created by this call. When `epoch_out` is non-null it receives the
  // post-write series epoch — the commit-observer path captures it here,
  // at the write, instead of paying a second lookup per cell.
  bool upsert_cell(EntityId entity, MetricKindId kind, TimeIndex t, double v,
                   std::uint64_t* epoch_out = nullptr);

  // Grows the axis by `extra_slices`; every stored series is padded with
  // missing slices. Existing window reads are unchanged (slices past the old
  // end already read as missing), so neither series epochs nor the
  // structural version move; version() bumps conservatively.
  void extend_axis(std::size_t extra_slices);

  [[nodiscard]] const TimeSeries* find(EntityId entity,
                                       MetricKindId kind) const;
  [[nodiscard]] TimeSeries* find_mutable(EntityId entity, MetricKindId kind);

  // Metric kinds recorded for this entity, in insertion order. The
  // reference is valid until the next write that adds or erases a series
  // of this entity.
  [[nodiscard]] const std::vector<MetricKindId>& kinds_of(
      EntityId entity) const;

  // Removes one metric (Table 2 "missing metric" degradation).
  void erase(EntityId entity, MetricKindId kind);
  // Removes all series of an entity (Table 2 "missing entity").
  void erase_entity(EntityId entity);

  [[nodiscard]] std::size_t series_count() const { return series_.size(); }

 private:
  friend class SnapshotIo;

  TimeAxis axis_;
  std::uint64_t version_ = 0;
  std::uint64_t structural_version_ = 0;
  std::unordered_map<MetricRef, TimeSeries> series_;
  std::unordered_map<MetricRef, std::uint64_t> epochs_;
  std::unordered_map<EntityId, std::vector<MetricKindId>> kinds_;
};

}  // namespace murphy::telemetry
