// TelemetryStream — concurrent streaming ingestion over one MonitoringDb
// (DESIGN.md §9).
//
// The long-running service replaces the batch pipeline's "load everything,
// then diagnose" lifecycle with a db that is appended to while diagnoses
// read it. TelemetryStream owns the db and a reader/writer lock: appends
// (cells, axis growth, structure) take the lock exclusively; diagnoses hold
// it shared for their whole run, so they always see one consistent db
// version. Per-series history ids and append marks (MetricStore) are what
// make this cheap — the training cache keys on them (core::TrainingCaches),
// so an append only extends the blocks that read the series, and a rewrite
// below a series' append mark retires exactly those blocks instead of the
// whole cache.
//
// Snapshot/restore rides here too: save_snapshot under the shared lock
// (consistent cut, concurrent with diagnoses), restore under the exclusive
// lock (the db is swapped wholesale; the fresh DbUid forces every cache to
// re-key, see DbUid).
#pragma once

#include <cstdint>
#include <functional>
#include <mutex>
#include <shared_mutex>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "src/common/ids.h"
#include "src/common/time_axis.h"
#include "src/telemetry/monitoring_db.h"
#include "src/telemetry/snapshot.h"

namespace murphy::service {

// One streamed metric observation.
struct TelemetryCell {
  EntityId entity;
  MetricKindId kind;
  TimeIndex t = 0;
  double value = 0.0;
};

// One series an append batch wrote to, with the series' write epoch after
// the batch committed. The commit observer receives these so an incremental
// consumer (the watchdog detector) rescores exactly the touched series
// instead of rescanning the whole db.
struct SeriesTouch {
  MetricRef ref;
  std::uint64_t epoch = 0;
};

class TelemetryStream {
 public:
  explicit TelemetryStream(telemetry::MonitoringDb db = {});
  TelemetryStream(const TelemetryStream&) = delete;
  TelemetryStream& operator=(const TelemetryStream&) = delete;

  // RAII shared-lock view of the db. Diagnoses hold one across their whole
  // run: the data version (and therefore every cache fingerprint input)
  // cannot change while it is live.
  class ReadLock {
   public:
    [[nodiscard]] const telemetry::MonitoringDb& operator*() const {
      return *db_;
    }
    [[nodiscard]] const telemetry::MonitoringDb* operator->() const {
      return db_;
    }

   private:
    friend class TelemetryStream;
    ReadLock(std::shared_mutex& mu, const telemetry::MonitoringDb* db)
        : lock_(mu), db_(db) {}
    std::shared_lock<std::shared_mutex> lock_;
    const telemetry::MonitoringDb* db_;
  };
  [[nodiscard]] ReadLock read() const;

  // RAII exclusive-lock view for structural setup (entities, associations,
  // apps) that has no dedicated helper below. Used sparingly — every write
  // blocks all diagnoses.
  class WriteLock {
   public:
    [[nodiscard]] telemetry::MonitoringDb& operator*() const { return *db_; }
    [[nodiscard]] telemetry::MonitoringDb* operator->() const { return db_; }

   private:
    friend class TelemetryStream;
    WriteLock(std::shared_mutex& mu, telemetry::MonitoringDb* db)
        : lock_(mu), db_(db) {}
    std::unique_lock<std::shared_mutex> lock_;
    telemetry::MonitoringDb* db_;
  };
  [[nodiscard]] WriteLock write();

  // Appends one batch of cells under a single exclusive-lock acquisition
  // (the lock, not the writes, dominates streaming cost — batch at the
  // caller). Cells addressing unknown entities are dropped and counted
  // (`ingest.unknown_entity_dropped`); out-of-axis times are dropped and
  // counted (`ingest.out_of_axis_dropped`); non-finite values become missing
  // points inside the store (DESIGN.md §8). Written cells are counted in
  // `ingest.cells`. Returns the number of cells actually written.
  std::size_t append(std::span<const TelemetryCell> cells);

  // Post-commit observer: called after every append() that wrote at least
  // one cell, with the deduplicated set of touched series and their write
  // epochs as of this batch's commit. The callback runs OUTSIDE the stream
  // lock (it may freely take read()), strictly after the cells are visible
  // to readers. Concurrent appends may deliver their notifications in either
  // order; consumers must treat a touch as "this series has new data at or
  // below this epoch", not as an ordered event log. Replacing the observer
  // takes the exclusive lock; pass nullptr to detach.
  using CommitObserver = std::function<void(std::span<const SeriesTouch>)>;
  void set_commit_observer(CommitObserver observer);

  // Interns `metric` and appends a single cell (the line-protocol path).
  bool append_cell(EntityId entity, std::string_view metric, TimeIndex t,
                   double value);

  // Grows the time axis by `extra_slices` (existing series pad with
  // missing). Axis growth is a value-level change — per-series epochs are
  // untouched and caches keep hitting for windows that end before the new
  // slices.
  void extend_axis(std::size_t extra_slices);

  // Current end of the time axis (shared lock).
  [[nodiscard]] std::size_t slice_count() const;
  // MonitoringDb::data_version() under the shared lock — the "db epoch"
  // stamped into service responses.
  [[nodiscard]] std::uint64_t data_version() const;

  // Serializes a consistent cut of the db (shared lock — concurrent
  // diagnoses keep running). Returns false on I/O failure.
  bool save_snapshot(const std::string& path) const;
  // Replaces the db wholesale from a snapshot (exclusive lock). On parse
  // failure the current db is left untouched and false is returned, with
  // the reason in *error when non-null.
  bool restore_snapshot(const std::string& path,
                        telemetry::SnapshotError* error = nullptr);

 private:
  mutable std::shared_mutex mu_;
  telemetry::MonitoringDb db_;
  CommitObserver observer_;  // guarded by mu_; invoked outside it
};

}  // namespace murphy::service
