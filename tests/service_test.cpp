// The long-running diagnosis service (DESIGN.md §9): admission control,
// deadline enforcement, shutdown semantics, streaming ingestion under
// concurrent diagnoses, and the determinism contract — a kOk response is a
// pure function of (request, db version, options), bitwise identical at any
// worker count, arrival order or ingest interleaving. The soak test here is
// the TSAN target in CI.
#include <bit>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <future>
#include <map>
#include <set>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "src/common/rng.h"
#include "src/core/murphy.h"
#include "src/obs/metrics.h"
#include "src/service/diagnosis_service.h"
#include "src/service/feed.h"
#include "src/service/telemetry_stream.h"

namespace murphy::service {
namespace {

using telemetry::ConfigEvent;
using telemetry::ConfigEventKind;
using telemetry::EntityType;
using telemetry::MonitoringDb;
using telemetry::RelationKind;

// Chain A -> B -> C -> D with a surge at A near the end — small enough that
// one diagnosis costs ~1 ms, rich enough to rank several candidates and emit
// explanation chains (same shape the concurrency tests use).
struct ChainEnv {
  MonitoringDb db;
  EntityId a, b, c, d;
  MetricKindId load;
};

ChainEnv make_chain_env(std::size_t slices) {
  ChainEnv e;
  e.a = e.db.add_entity(EntityType::kVm, "A");
  e.b = e.db.add_entity(EntityType::kVm, "B");
  e.c = e.db.add_entity(EntityType::kVm, "C");
  e.d = e.db.add_entity(EntityType::kVm, "D");
  e.db.add_association(e.a, e.b, RelationKind::kGeneric);
  e.db.add_association(e.b, e.c, RelationKind::kGeneric);
  e.db.add_association(e.c, e.d, RelationKind::kGeneric);
  e.load = e.db.catalog().intern("cpu_util");
  e.db.metrics().set_axis(TimeAxis(0.0, 10.0, slices));
  Rng rng(11);
  std::vector<double> va(slices), vb(slices), vc(slices), vd(slices);
  for (std::size_t t = 0; t < slices; ++t) {
    const double surge = t + 20 >= slices ? 14.0 : 0.0;
    va[t] = 6.0 + 2.0 * std::sin(0.07 * t) + rng.normal(0.0, 0.3) + surge;
    vb[t] = 1.6 * va[t] + rng.normal(0.0, 0.3);
    vc[t] = 1.2 * vb[t] + rng.normal(0.0, 0.4);
    vd[t] = 1.1 * vc[t] + rng.normal(0.0, 0.4);
  }
  e.db.metrics().put(e.a, e.load, va);
  e.db.metrics().put(e.b, e.load, vb);
  e.db.metrics().put(e.c, e.load, vc);
  e.db.metrics().put(e.d, e.load, vd);
  e.db.config_events().record(ConfigEvent{ConfigEventKind::kResourcesResized,
                                          e.b, static_cast<TimeIndex>(slices - 5),
                                          "vCPU 4 -> 8"});
  return e;
}

core::MurphyOptions fast_opts() {
  core::MurphyOptions mopts;
  mopts.sampler.num_samples = 20;
  // Serial direct runs; the service ignores it and runs loops on its pool.
  mopts.num_threads = 1;
  mopts.seed = 7;
  return mopts;
}

ServiceRequest make_request(const ChainEnv& env, TimeIndex train_end) {
  ServiceRequest req;
  req.symptom_entity = env.d;
  req.symptom_metric = "cpu_util";
  req.now = train_end - 1;
  req.train_begin = 0;
  req.train_end = train_end;
  return req;
}

// Direct (service-less) execution of the same request against a db — the
// reference side of the determinism contract. No caches: the cache layers
// are bitwise-transparent by their own tests.
core::DiagnosisResult run_direct(const MonitoringDb& db,
                                 const ServiceRequest& r,
                                 const core::MurphyOptions& base) {
  core::MurphyDiagnoser diagnoser(base);
  core::DiagnosisRequest q;
  q.db = &db;
  q.symptom_entity = r.symptom_entity;
  q.symptom_metric = r.symptom_metric;
  q.now = r.now;
  q.train_begin = r.train_begin;
  q.train_end = r.train_end;
  q.max_hops = r.max_hops;
  return diagnoser.diagnose(q);
}

void expect_bitwise_equal(const core::DiagnosisResult& a,
                          const core::DiagnosisResult& b) {
  ASSERT_EQ(a.causes.size(), b.causes.size());
  for (std::size_t i = 0; i < a.causes.size(); ++i) {
    EXPECT_EQ(a.causes[i].entity, b.causes[i].entity) << "rank " << i;
    // Bitwise, not approximate: the determinism contract is exact.
    EXPECT_EQ(std::bit_cast<std::uint64_t>(a.causes[i].score),
              std::bit_cast<std::uint64_t>(b.causes[i].score))
        << "rank " << i;
  }
  EXPECT_EQ(a.explanations, b.explanations);
  ASSERT_EQ(a.recent_config_changes.size(), b.recent_config_changes.size());
  for (std::size_t i = 0; i < a.recent_config_changes.size(); ++i) {
    EXPECT_EQ(a.recent_config_changes[i].entity,
              b.recent_config_changes[i].entity);
    EXPECT_EQ(a.recent_config_changes[i].at, b.recent_config_changes[i].at);
  }
}

// ---------- the soak: concurrent ingest + diagnosis, nothing lost ---------

TEST(ServiceSoak, ThousandRequestsUnderStreamingIngest) {
  const ChainEnv env = make_chain_env(160);
  ReplayFeed feed = make_replay_feed(env.db, 120);
  ASSERT_EQ(feed.batches.size(), 40u);
  TelemetryStream stream(std::move(feed.warm));

  obs::MetricsRegistry registry;
  DiagnosisServiceOptions opts;
  opts.murphy = fast_opts();
  opts.murphy.obs.metrics = &registry;
  opts.num_workers = 3;
  opts.max_queue = 2048;  // soak exercises completion, not admission
  opts.cache_max_entries = 64;  // maintain() prunes for real during the run
  DiagnosisService svc(stream, opts);

  // db snapshots keyed by data_version, for post-hoc bitwise verification.
  // Only the ingester writes, only the main thread reads after join().
  // Versions between a replay's extend_axis and append have no entry and
  // are skipped — every mutation bumps data_version, so a version that IS
  // present names exactly one db state.
  std::map<std::uint64_t, MonitoringDb> db_at_version;
  {
    TelemetryStream::ReadLock lock = stream.read();
    db_at_version.emplace(lock->data_version(), *lock);
  }

  std::thread ingester([&] {
    for (std::size_t i = 0; i < feed.batches.size(); ++i) {
      replay_slice(stream, feed, i);
      {
        TelemetryStream::ReadLock lock = stream.read();
        db_at_version.emplace(lock->data_version(), *lock);
      }
      if (i % 8 == 7) svc.maintain();
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  });

  enum Category { kValid, kExpired, kInvalid };
  struct Issued {
    std::future<ServiceResponse> future;
    ServiceRequest req;
    Category category;
  };
  constexpr std::size_t kTotal = 1000;
  std::vector<Issued> issued;
  issued.reserve(kTotal);
  for (std::size_t i = 0; i < kTotal; ++i) {
    ServiceRequest req =
        make_request(env, static_cast<TimeIndex>(stream.slice_count()));
    req.train_begin = static_cast<TimeIndex>(i % 3);  // window variants
    req.priority = static_cast<int>(i % 4);
    Category cat = kValid;
    if (i % 9 == 4) {
      cat = kExpired;  // already past its deadline at submission
      req.deadline = std::chrono::steady_clock::now() -
                     std::chrono::milliseconds(1);
    } else if (i % 11 == 6) {
      cat = kInvalid;
      req.symptom_metric = "no_such_metric";
    }
    auto fut = svc.submit(req);
    issued.push_back({std::move(fut), std::move(req), cat});
    if (i % 16 == 15) std::this_thread::sleep_for(std::chrono::microseconds(200));
  }

  std::set<std::uint64_t> ids;
  std::size_t ok = 0, expired = 0, invalid = 0, other = 0;
  for (std::size_t i = 0; i < issued.size(); ++i) {
    const ServiceResponse resp = issued[i].future.get();  // never lost
    ids.insert(resp.request_id);
    switch (resp.status) {
      case RequestStatus::kOk:
        ++ok;
        EXPECT_EQ(issued[i].category, kValid);
        EXPECT_GT(resp.db_version, 0u);
        break;
      case RequestStatus::kDeadlineExceeded:
        ++expired;
        EXPECT_EQ(issued[i].category, kExpired);
        break;
      case RequestStatus::kInvalidRequest:
        ++invalid;
        EXPECT_EQ(issued[i].category, kInvalid);
        break;
      default:
        ++other;
        break;
    }
  }
  ingester.join();

  // Soak requests race the replay, so any of them may legitimately predate
  // the surge and find nothing. Now the feed is fully replayed: a final
  // deterministic batch over the complete window must rank causes.
  std::size_t with_causes = 0;
  for (std::size_t i = 0; i < 6; ++i) {
    ServiceRequest req =
        make_request(env, static_cast<TimeIndex>(stream.slice_count()));
    req.train_begin = static_cast<TimeIndex>(i % 3);
    const ServiceResponse resp = svc.submit(std::move(req)).get();
    EXPECT_EQ(resp.status, RequestStatus::kOk);
    if (!resp.result.causes.empty()) ++with_causes;
  }
  svc.stop();

  // No response lost, none duplicated, every id unique.
  EXPECT_EQ(ids.size(), kTotal);
  EXPECT_EQ(ok + expired + invalid + other, kTotal);
  EXPECT_EQ(other, 0u);
  EXPECT_GT(ok, 0u);
  EXPECT_GT(with_causes, 0u);
  EXPECT_GT(expired, 0u);
  EXPECT_GT(invalid, 0u);

  // The service's own accounting agrees with the futures (the +6 is the
  // post-replay batch above).
  EXPECT_EQ(registry.find_counter("service.completed")->value(), ok + 6);
  EXPECT_EQ(registry.find_counter("service.deadline_exceeded")->value(),
            expired);
  EXPECT_EQ(registry.find_counter("service.invalid")->value(), invalid);
  EXPECT_EQ(registry.find_counter("service.rejected")->value(), 0u);
  const obs::Histogram* total_hist = registry.find_histogram("service.total_ms");
  ASSERT_NE(total_hist, nullptr);
  EXPECT_EQ(total_hist->count(), ok + expired + invalid + 6);
  EXPECT_NE(registry.find_gauge("service.queue_depth"), nullptr);
}

// Bitwise service-vs-direct at matching db versions, while ingest churns the
// training cache. Smaller request count than the soak — every kOk
// response is re-executed directly against a version-matched db copy.
TEST(ServiceDeterminism, ResponsesMatchDirectExecutionAtSameDbVersion) {
  const ChainEnv env = make_chain_env(160);
  ReplayFeed feed = make_replay_feed(env.db, 130);
  TelemetryStream stream(std::move(feed.warm));

  DiagnosisServiceOptions opts;
  opts.murphy = fast_opts();
  opts.num_workers = 3;
  opts.max_queue = 512;
  DiagnosisService svc(stream, opts);

  std::map<std::uint64_t, MonitoringDb> db_at_version;
  {
    TelemetryStream::ReadLock lock = stream.read();
    db_at_version.emplace(lock->data_version(), *lock);
  }
  std::thread ingester([&] {
    for (std::size_t i = 0; i < feed.batches.size(); ++i) {
      replay_slice(stream, feed, i);
      TelemetryStream::ReadLock lock = stream.read();
      db_at_version.emplace(lock->data_version(), *lock);
    }
  });

  struct Issued {
    std::future<ServiceResponse> future;
    ServiceRequest req;
  };
  std::vector<Issued> issued;
  for (std::size_t i = 0; i < 60; ++i) {
    ServiceRequest req =
        make_request(env, static_cast<TimeIndex>(stream.slice_count()));
    req.train_begin = static_cast<TimeIndex>(i % 3);
    req.priority = static_cast<int>(i % 2);
    auto fut = svc.submit(req);
    issued.push_back({std::move(fut), std::move(req)});
    std::this_thread::sleep_for(std::chrono::microseconds(500));
  }

  std::vector<std::pair<ServiceRequest, ServiceResponse>> completed;
  for (auto& is : issued) {
    ServiceResponse resp = is.future.get();
    ASSERT_EQ(resp.status, RequestStatus::kOk);
    completed.emplace_back(is.req, std::move(resp));
  }
  ingester.join();
  svc.stop();

  std::size_t verified = 0, skipped = 0;
  for (const auto& [req, resp] : completed) {
    const auto it = db_at_version.find(resp.db_version);
    if (it == db_at_version.end()) {
      // Ran between a replay's extend_axis and append — no snapshot exists
      // for that version. Legitimate; just not verifiable here.
      ++skipped;
      continue;
    }
    const core::DiagnosisResult direct = run_direct(it->second, req, opts.murphy);
    expect_bitwise_equal(resp.result, direct);
    ++verified;
  }
  // The ingester pauses between slices, so the overwhelming majority of
  // requests must land on snapshotted versions.
  EXPECT_GT(verified, skipped);
  EXPECT_GE(verified, 30u);
}

// Same fixed request set, workers 0 / 1 / 3: identical bitwise output, and
// identical to direct execution (worker count is pure mechanism).
TEST(ServiceDeterminism, WorkerCountDoesNotChangeBits) {
  const ChainEnv env = make_chain_env(150);
  std::vector<ServiceRequest> reqs;
  for (std::size_t i = 0; i < 9; ++i) {
    ServiceRequest r = make_request(env, 150);
    r.train_begin = static_cast<TimeIndex>(i % 3);
    r.priority = static_cast<int>(i % 3);
    reqs.push_back(r);
  }

  // The last configuration submits one request at a time, so two of the
  // three workers are idle and help the running diagnosis's loops.
  struct Config {
    std::size_t workers;
    bool one_at_a_time;
  };
  std::vector<std::vector<core::DiagnosisResult>> per_count;
  for (const Config cfg : {Config{0, false}, Config{1, false},
                           Config{3, false}, Config{3, true}}) {
    TelemetryStream stream{MonitoringDb(env.db)};  // copy: identical values
    DiagnosisServiceOptions opts;
    opts.murphy = fast_opts();
    opts.num_workers = cfg.workers;
    DiagnosisService svc(stream, opts);
    std::vector<core::DiagnosisResult> results;
    const auto collect = [&](std::future<ServiceResponse>& f) {
      ServiceResponse resp = f.get();
      ASSERT_EQ(resp.status, RequestStatus::kOk);
      results.push_back(std::move(resp.result));
    };
    std::vector<std::future<ServiceResponse>> futs;
    for (const ServiceRequest& r : reqs) {
      futs.push_back(svc.submit(r));
      if (cfg.one_at_a_time) collect(futs.back());
    }
    if (!cfg.one_at_a_time)
      for (auto& f : futs) collect(f);
    ASSERT_EQ(results.size(), reqs.size());
    svc.stop();
    per_count.push_back(std::move(results));
  }

  for (std::size_t w = 1; w < per_count.size(); ++w)
    for (std::size_t i = 0; i < reqs.size(); ++i)
      expect_bitwise_equal(per_count[0][i], per_count[w][i]);
  for (std::size_t i = 0; i < reqs.size(); ++i) {
    core::MurphyOptions base = fast_opts();
    expect_bitwise_equal(per_count[0][i], run_direct(env.db, reqs[i], base));
  }
}

// ---------- admission control ----------------------------------------------

TEST(ServiceAdmission, QueueFullIsExplicitNeverSilent) {
  const ChainEnv env = make_chain_env(150);
  TelemetryStream stream{MonitoringDb(env.db)};
  obs::MetricsRegistry registry;
  DiagnosisServiceOptions opts;
  opts.murphy = fast_opts();
  opts.murphy.obs.metrics = &registry;
  opts.num_workers = 1;
  opts.max_queue = 2;
  DiagnosisService svc(stream, opts);

  std::vector<std::future<ServiceResponse>> futs;
  {
    // Holding the stream's write lock pins the single worker inside its
    // first execute() (it blocks on the read lock after popping), so
    // admission outcomes are fully deterministic: one popped + two queued
    // fit, everything else must be rejected — explicitly.
    TelemetryStream::WriteLock pin = stream.write();
    for (std::size_t i = 0; i < 10; ++i)
      futs.push_back(svc.submit(make_request(env, 150)));
    // Give the worker time to pop its request (it cannot finish: the write
    // lock is held). Without the pop the count below would be racy.
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
    std::size_t rejected_now = 0;
    for (auto& f : futs)
      if (f.wait_for(std::chrono::seconds(0)) == std::future_status::ready)
        ++rejected_now;
    // Rejections resolve synchronously at submit(); admitted ones are still
    // pending because the db is locked.
    EXPECT_GE(rejected_now, 10u - 3u);
  }  // release the db; the worker drains everything admitted

  std::size_t ok = 0, rejected = 0;
  for (auto& f : futs) {
    const ServiceResponse resp = f.get();
    if (resp.status == RequestStatus::kOk)
      ++ok;
    else if (resp.status == RequestStatus::kRejectedQueueFull)
      ++rejected;
    else
      FAIL() << "unexpected status " << to_string(resp.status);
  }
  EXPECT_EQ(ok + rejected, 10u);
  // At most: 1 popped by the pinned worker + 2 queued; at least the first 2
  // submissions fit (the queue cannot be full before it holds 2).
  EXPECT_LE(ok, 3u);
  EXPECT_GE(ok, 2u);
  EXPECT_EQ(registry.find_counter("service.rejected")->value(), rejected);
}

TEST(ServiceAdmission, SubmitAfterStopResolvesShuttingDown) {
  const ChainEnv env = make_chain_env(150);
  TelemetryStream stream{MonitoringDb(env.db)};
  DiagnosisServiceOptions opts;
  opts.murphy = fast_opts();
  opts.num_workers = 2;
  DiagnosisService svc(stream, opts);

  std::vector<std::future<ServiceResponse>> before;
  for (std::size_t i = 0; i < 6; ++i)
    before.push_back(svc.submit(make_request(env, 150)));
  svc.stop();
  // stop() completed every admitted request: all futures are ready now.
  for (auto& f : before) {
    ASSERT_EQ(f.wait_for(std::chrono::seconds(0)), std::future_status::ready);
    EXPECT_EQ(f.get().status, RequestStatus::kOk);
  }
  auto after = svc.submit(make_request(env, 150));
  EXPECT_EQ(after.get().status, RequestStatus::kShuttingDown);
  svc.stop();  // idempotent
}

// ---------- deadlines -------------------------------------------------------

TEST(ServiceDeadline, ExpiredBeforeDequeueNeverRuns) {
  const ChainEnv env = make_chain_env(150);
  TelemetryStream stream{MonitoringDb(env.db)};
  obs::MetricsRegistry registry;
  DiagnosisServiceOptions opts;
  opts.murphy = fast_opts();
  opts.murphy.obs.metrics = &registry;
  opts.num_workers = 1;
  DiagnosisService svc(stream, opts);

  ServiceRequest req = make_request(env, 150);
  req.deadline = std::chrono::steady_clock::now() - std::chrono::milliseconds(5);
  const ServiceResponse resp = svc.submit(std::move(req)).get();
  EXPECT_EQ(resp.status, RequestStatus::kDeadlineExceeded);
  // db_version stays 0: the diagnosis never ran.
  EXPECT_EQ(resp.db_version, 0u);
  EXPECT_TRUE(resp.result.causes.empty());
  EXPECT_EQ(registry.find_counter("service.deadline_exceeded")->value(), 1u);
}

TEST(ServiceDeadline, MidRunExpiryCancelsCooperatively) {
  const ChainEnv env = make_chain_env(150);
  TelemetryStream stream{MonitoringDb(env.db)};
  DiagnosisServiceOptions opts;
  opts.murphy = fast_opts();
  // Enough sampling work that the deadline below lands mid-run on any
  // machine (the inference kernel draws 4000 samples/side of this chain in
  // about 2 ms); the phase-boundary cancellation hook must catch it.
  opts.murphy.sampler.num_samples = 40000;
  opts.num_workers = 1;
  DiagnosisService svc(stream, opts);

  ServiceRequest req = make_request(env, 150);
  req.deadline =
      std::chrono::steady_clock::now() + std::chrono::milliseconds(2);
  const ServiceResponse resp = svc.submit(std::move(req)).get();
  EXPECT_EQ(resp.status, RequestStatus::kDeadlineExceeded);
  EXPECT_TRUE(resp.result.causes.empty());
}

// ---------- request validation ---------------------------------------------

TEST(ServiceValidation, UnknownEntityOrMetricIsInvalidRequest) {
  const ChainEnv env = make_chain_env(150);
  TelemetryStream stream{MonitoringDb(env.db)};
  DiagnosisServiceOptions opts;
  opts.murphy = fast_opts();
  opts.num_workers = 1;
  DiagnosisService svc(stream, opts);

  ServiceRequest bad_metric = make_request(env, 150);
  bad_metric.symptom_metric = "no_such_metric";
  EXPECT_EQ(svc.submit(std::move(bad_metric)).get().status,
            RequestStatus::kInvalidRequest);

  ServiceRequest bad_entity = make_request(env, 150);
  bad_entity.symptom_entity = EntityId(999);
  EXPECT_EQ(svc.submit(std::move(bad_entity)).get().status,
            RequestStatus::kInvalidRequest);
}

// ---------- stream snapshot integration ------------------------------------

TEST(ServiceSnapshot, RestoredStreamReproducesDiagnosisBitwise) {
  const ChainEnv env = make_chain_env(150);
  TelemetryStream stream{MonitoringDb(env.db)};
  const std::string path = testing::TempDir() + "/service_stream.snap";
  ASSERT_TRUE(stream.save_snapshot(path));

  TelemetryStream restored;
  telemetry::SnapshotError err;
  ASSERT_TRUE(restored.restore_snapshot(path, &err)) << err.message;
  EXPECT_EQ(restored.slice_count(), stream.slice_count());
  EXPECT_EQ(restored.data_version(), stream.data_version());

  DiagnosisServiceOptions opts;
  opts.murphy = fast_opts();
  opts.num_workers = 1;
  DiagnosisService svc_a(stream, opts);
  DiagnosisService svc_b(restored, opts);
  const ServiceResponse a = svc_a.submit(make_request(env, 150)).get();
  const ServiceResponse b = svc_b.submit(make_request(env, 150)).get();
  ASSERT_EQ(a.status, RequestStatus::kOk);
  ASSERT_EQ(b.status, RequestStatus::kOk);
  expect_bitwise_equal(a.result, b.result);
}

TEST(ServiceSnapshot, CorruptSnapshotLeavesStreamUntouched) {
  const ChainEnv env = make_chain_env(150);
  TelemetryStream stream{MonitoringDb(env.db)};
  const std::string path = testing::TempDir() + "/service_corrupt.snap";
  ASSERT_TRUE(stream.save_snapshot(path));
  {
    // Flip a payload byte past the header.
    std::fstream f(path, std::ios::in | std::ios::out | std::ios::binary);
    f.seekp(100);
    char c;
    f.seekg(100);
    f.get(c);
    f.seekp(100);
    f.put(static_cast<char>(c ^ 0x10));
  }
  const std::uint64_t version_before = stream.data_version();
  const std::size_t slices_before = stream.slice_count();
  telemetry::SnapshotError err;
  EXPECT_FALSE(stream.restore_snapshot(path, &err));
  EXPECT_FALSE(err.message.empty());
  EXPECT_EQ(stream.data_version(), version_before);
  EXPECT_EQ(stream.slice_count(), slices_before);
}

// ---------- ingestion edge cases -------------------------------------------

TEST(TelemetryStreamIngest, DropsUnknownEntitiesAndOutOfAxisCells) {
  const ChainEnv env = make_chain_env(10);
  TelemetryStream stream{MonitoringDb(env.db)};
  const std::vector<TelemetryCell> cells = {
      {env.a, env.load, 3, 1.0},          // fine
      {EntityId(999), env.load, 3, 2.0},  // unknown entity: dropped
      {env.b, env.load, 400, 3.0},        // past the axis: dropped
  };
  EXPECT_EQ(stream.append(cells), 1u);
  EXPECT_TRUE(stream.append_cell(env.a, "cpu_util", 4, 5.5));
  EXPECT_FALSE(stream.append_cell(EntityId(999), "cpu_util", 4, 5.5));
}

}  // namespace
}  // namespace murphy::service
