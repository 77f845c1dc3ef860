// Unit tests for the observability layer: span tracer nesting and flushing,
// metrics registry (including a TSAN-targeted concurrent stress), the
// deterministic Perfetto export, audit-trail JSONL round-trips and the JSON
// utilities they all rest on. The end-to-end "instrumented diagnosis is
// bitwise identical at every thread count" contract lives in
// concurrency_test.cpp next to the other determinism tests.
#include <cmath>
#include <cstdint>
#include <limits>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "src/common/thread_pool.h"
#include "src/common/time_axis.h"
#include "src/core/batch.h"
#include "src/obs/audit.h"
#include "src/obs/json.h"
#include "src/obs/markers.h"
#include "src/obs/metrics.h"
#include "src/obs/trace.h"

namespace murphy::obs {
namespace {

// ---------- JSON utilities -------------------------------------------------

TEST(Json, NumberRoundTripsBitExactly) {
  for (const double v : {0.1, 1.0 / 3.0, 1e-300, 6.02214076e23, -0.0}) {
    JsonValue parsed;
    ASSERT_TRUE(json_parse(json_number(v), parsed));
    ASSERT_EQ(parsed.kind, JsonValue::Kind::kNumber);
    EXPECT_EQ(parsed.number, v);
  }
}

TEST(Json, NonFiniteBecomesNull) {
  EXPECT_EQ(json_number(std::numeric_limits<double>::quiet_NaN()), "null");
  EXPECT_EQ(json_number(std::numeric_limits<double>::infinity()), "null");
}

TEST(Json, EscapingRoundTrips) {
  const std::string nasty = "a\"b\\c\n\t\x01 d";
  std::string doc;
  json_append_escaped(doc, nasty);
  JsonValue parsed;
  std::string error;
  ASSERT_TRUE(json_parse(doc, parsed, &error)) << error;
  ASSERT_EQ(parsed.kind, JsonValue::Kind::kString);
  EXPECT_EQ(parsed.string, nasty);
}

TEST(Json, ParsesNestedDocument) {
  JsonValue v;
  ASSERT_TRUE(json_parse(
      R"({"a":[1,2,{"b":true}],"c":null,"d":"xAy"})", v));
  ASSERT_TRUE(v.is_object());
  const JsonValue* a = v.find("a");
  ASSERT_NE(a, nullptr);
  ASSERT_TRUE(a->is_array());
  ASSERT_EQ(a->array.size(), 3u);
  EXPECT_EQ(a->array[1].number, 2.0);
  EXPECT_TRUE(a->array[2].find("b")->boolean);
  EXPECT_EQ(v.find("c")->kind, JsonValue::Kind::kNull);
  EXPECT_EQ(v.find("d")->string, "xAy");
}

TEST(Json, RejectsMalformedAndTrailingGarbage) {
  JsonValue v;
  EXPECT_FALSE(json_parse("{", v));
  EXPECT_FALSE(json_parse("[1,]", v));
  EXPECT_FALSE(json_parse("{\"a\":1} extra", v));
  EXPECT_FALSE(json_parse("", v));
}

// ---------- span tracer ----------------------------------------------------

#ifdef MURPHY_OBS_DISABLED

// Compiled-out build (-DMURPHY_OBS_COMPILED_OUT=ON): spans must not record,
// but finish() still times (PhaseTimings derive from spans).
TEST(Tracer, CompiledOutSpansTimeButRecordNothing) {
  Tracer tracer;
  {
    Span span(&tracer, "gone");
    EXPECT_FALSE(span.enabled());
    span.arg("ignored", 1.0);
    EXPECT_GE(span.finish(), 0.0);
  }
  EXPECT_TRUE(tracer.events().empty());
  EXPECT_EQ(tracer.to_chrome_json(), "{\"traceEvents\":[]}");
}

#else  // recording behaviour, stripped under MURPHY_OBS_DISABLED

TEST(Tracer, NestedSpansParentToInnermostOpenSpan) {
  Tracer tracer;
  std::uint64_t outer_id = 0, inner_id = 0;
  {
    Span outer(&tracer, "outer");
    outer_id = outer.id();
    {
      Span inner(&tracer, "inner");
      inner_id = inner.id();
    }
  }
  const auto events = tracer.events();
  ASSERT_EQ(events.size(), 2u);
  // events() sorts by stable id, so locate by name.
  const SpanEvent* outer = nullptr;
  const SpanEvent* inner = nullptr;
  for (const auto& e : events)
    (e.name == "outer" ? outer : inner) = &e;
  ASSERT_NE(outer, nullptr);
  ASSERT_NE(inner, nullptr);
  EXPECT_EQ(outer->id, outer_id);
  EXPECT_EQ(outer->parent, 0u);
  EXPECT_EQ(inner->id, inner_id);
  EXPECT_EQ(inner->parent, outer_id);
  // After both closed, a new root span parents to 0 again (stack drained).
  Span again(&tracer, "again");
  again.finish();
  for (const auto& e : tracer.events())
    if (e.name == "again") EXPECT_EQ(e.parent, 0u);
}

TEST(Tracer, StableIdsAreThreadCountInvariantInputs) {
  // Same (parent, name, stream) -> same id; any input change -> different.
  EXPECT_EQ(derive_span_id(7, "fit", 3), derive_span_id(7, "fit", 3));
  EXPECT_NE(derive_span_id(7, "fit", 3), derive_span_id(7, "fit", 4));
  EXPECT_NE(derive_span_id(7, "fit", 3), derive_span_id(8, "fit", 3));
  EXPECT_NE(derive_span_id(7, "fit", 3), derive_span_id(7, "fig", 3));
  EXPECT_NE(derive_span_id(0, "", 0), 0u);  // 0 is reserved for "no parent"
}

TEST(Tracer, FinishIsIdempotentAndReturnsElapsed) {
  Tracer tracer;
  Span span(&tracer, "once");
  const double first = span.finish();
  EXPECT_GE(first, 0.0);
  EXPECT_EQ(span.finish(), first);  // second finish: same answer, no event
  EXPECT_EQ(tracer.events().size(), 1u);
}

TEST(Tracer, NullTracerTimesButRecordsNothing) {
  Span span(nullptr, "free");
  EXPECT_FALSE(span.enabled());
  span.arg("ignored", 1.0);
  EXPECT_GE(span.finish(), 0.0);
}

TEST(Tracer, ArgsAreRecordedAsJsonFragments) {
  Tracer tracer;
  {
    Span span(&tracer, "args");
    span.arg("s", std::string_view("x\"y"));
    span.arg("d", 0.5);
    span.arg("u", std::uint64_t{42});
    span.arg("b", true);
  }
  const auto events = tracer.events();
  ASSERT_EQ(events.size(), 1u);
  ASSERT_EQ(events[0].args.size(), 4u);
  EXPECT_EQ(events[0].args[0].second, "\"x\\\"y\"");
  EXPECT_EQ(events[0].args[1].second, "0.5");
  EXPECT_EQ(events[0].args[2].second, "42");
  EXPECT_EQ(events[0].args[3].second, "true");
}

TEST(Tracer, ClearDropsEventsButKeepsRecording) {
  Tracer tracer;
  { Span s(&tracer, "a"); }
  tracer.clear();
  EXPECT_TRUE(tracer.events().empty());
  { Span s(&tracer, "b"); }
  EXPECT_EQ(tracer.events().size(), 1u);
}

// Synthetic parallel workload mirroring the engine's instrumentation idiom:
// explicit parent + loop-index stream inside parallel_for, nested
// stack-parented spans within each item.
std::string traced_parallel_run(std::size_t threads) {
  Tracer tracer;
  {
    Span root(&tracer, "root");
    const std::uint64_t root_id = root.id();
    parallel_for(threads, 16, [&](std::size_t i) {
      Span item(&tracer, "item", i, root_id);
      item.arg("i", static_cast<std::uint64_t>(i));
      Span inner(&tracer, "inner");
      inner.finish();
    });
  }
  TraceExportOptions opts;
  opts.deterministic = true;
  return tracer.to_chrome_json(opts);
}

TEST(Tracer, DeterministicExportByteIdenticalAcrossThreadCounts) {
  const std::string serial = traced_parallel_run(1);
  EXPECT_EQ(serial, traced_parallel_run(2));
  EXPECT_EQ(serial, traced_parallel_run(8));
}

TEST(Tracer, ExportIsValidTraceEventJson) {
  for (const bool deterministic : {true, false}) {
    Tracer tracer;
    {
      Span outer(&tracer, "outer");
      Span inner(&tracer, "in\"ner");  // name needing escapes
      inner.arg("k", 1.25);
    }
    TraceExportOptions opts;
    opts.deterministic = deterministic;
    JsonValue doc;
    std::string error;
    ASSERT_TRUE(json_parse(tracer.to_chrome_json(opts), doc, &error))
        << error;
    const JsonValue* events = doc.find("traceEvents");
    ASSERT_NE(events, nullptr);
    ASSERT_TRUE(events->is_array());
    ASSERT_EQ(events->array.size(), 2u);
    for (const JsonValue& e : events->array) {
      EXPECT_EQ(e.find("ph")->string, "X");
      EXPECT_EQ(e.find("cat")->string, "murphy");
      EXPECT_NE(e.find("name"), nullptr);
      EXPECT_NE(e.find("ts"), nullptr);
      EXPECT_NE(e.find("dur"), nullptr);
      EXPECT_NE(e.find("args")->find("sid"), nullptr);
    }
  }
}

#endif  // MURPHY_OBS_DISABLED

// ---------- metrics registry -----------------------------------------------

TEST(Metrics, GetOrCreateReturnsTheSameInstrument) {
  MetricsRegistry reg;
  Counter* c = reg.counter("x");
  EXPECT_EQ(c, reg.counter("x"));
  c->add(3);
  EXPECT_EQ(reg.find_counter("x")->value(), 3u);
  EXPECT_EQ(reg.find_counter("absent"), nullptr);
  EXPECT_EQ(reg.find_gauge("x"), nullptr);  // wrong kind
}

TEST(Metrics, HistogramBucketsObservations) {
  MetricsRegistry reg;
  Histogram* h = reg.histogram("lat", {1.0, 10.0});
  h->observe(0.5);
  h->observe(1.0);   // boundary counts into its bucket (<= bound)
  h->observe(5.0);
  h->observe(50.0);  // overflow
  EXPECT_EQ(h->count(), 4u);
  const auto buckets = h->bucket_counts();
  ASSERT_EQ(buckets.size(), 3u);
  EXPECT_EQ(buckets[0], 2u);
  EXPECT_EQ(buckets[1], 1u);
  EXPECT_EQ(buckets[2], 1u);
  EXPECT_DOUBLE_EQ(h->sum(), 56.5);
  // Re-registering keeps the original bounds.
  EXPECT_EQ(reg.histogram("lat", {99.0}), h);
  EXPECT_EQ(h->bounds().size(), 2u);
}

TEST(Metrics, SnapshotIsSortedAndJsonParses) {
  MetricsRegistry reg;
  reg.counter("b.count")->add(2);
  reg.gauge("a.level")->set(1.5);
  reg.histogram("c.hist", {1.0})->observe(0.5);
  const auto snap = reg.snapshot();
  ASSERT_EQ(snap.entries.size(), 3u);
  EXPECT_EQ(snap.entries[0].name, "a.level");
  EXPECT_EQ(snap.entries[1].name, "b.count");
  EXPECT_EQ(snap.entries[2].name, "c.hist");
  EXPECT_EQ(snap.entries[2].kind, "histogram");
  JsonValue doc;
  std::string error;
  ASSERT_TRUE(json_parse(reg.to_json(), doc, &error)) << error;
  EXPECT_EQ(doc.find("b.count")->find("value")->number, 2.0);
  EXPECT_EQ(doc.find("a.level")->find("value")->number, 1.5);
  EXPECT_EQ(doc.find("c.hist")->find("count")->number, 1.0);
}

TEST(Metrics, ResetZeroesButKeepsPointersValid) {
  MetricsRegistry reg;
  Counter* c = reg.counter("n");
  Histogram* h = reg.histogram("h", {1.0});
  c->add(5);
  h->observe(2.0);
  reg.reset();
  EXPECT_EQ(c->value(), 0u);
  EXPECT_EQ(h->count(), 0u);
  c->add(1);
  EXPECT_EQ(reg.find_counter("n")->value(), 1u);
}

// The cross-symptom factor memo (one per moment-store slot) must actually
// engage in a batch run: with symptoms whose relationship graphs overlap
// (here: identical), the second and later symptoms copy the memoized
// factors, and the engine reports that through the registry the caller
// attached.
TEST(Metrics, BatchDiagnosisRecordsFactorCacheHits) {
  using telemetry::EntityType;
  using telemetry::MonitoringDb;
  using telemetry::RelationKind;
  MonitoringDb db;
  const auto a = db.add_entity(EntityType::kVm, "A");
  const auto b = db.add_entity(EntityType::kVm, "B");
  const auto c = db.add_entity(EntityType::kVm, "C");
  db.add_association(a, b, RelationKind::kGeneric);
  db.add_association(b, c, RelationKind::kGeneric);
  const auto cpu = db.catalog().intern("cpu_util");
  constexpr std::size_t kSlices = 120;
  db.metrics().set_axis(TimeAxis(0.0, 10.0, kSlices));
  std::vector<double> va(kSlices), vb(kSlices), vc(kSlices);
  for (std::size_t t = 0; t < kSlices; ++t) {
    const double surge = t + 15 >= kSlices ? 9.0 : 0.0;
    va[t] = 5.0 + 2.0 * std::sin(0.11 * static_cast<double>(t)) + surge;
    vb[t] = 1.5 * va[t] + std::cos(0.07 * static_cast<double>(t));
    vc[t] = 1.2 * vb[t] + std::sin(0.05 * static_cast<double>(t));
  }
  db.metrics().put(a, cpu, va);
  db.metrics().put(b, cpu, vb);
  db.metrics().put(c, cpu, vc);

  MetricsRegistry registry;
  core::BatchOptions bopts;
  bopts.murphy.sampler.num_samples = 40;
  bopts.murphy.num_threads = 1;
  bopts.murphy.obs.metrics = &registry;
  core::BatchDiagnoser batch(bopts);
  const std::vector<core::Symptom> symptoms{
      core::Symptom{c, "cpu_util", 0.0, 4.0},
      core::Symptom{b, "cpu_util", 0.0, 3.0},
      core::Symptom{a, "cpu_util", 0.0, 2.0},
  };
  const auto result =
      batch.diagnose_symptoms(db, symptoms, kSlices - 1, 0, kSlices);
  ASSERT_FALSE(result.merged.empty());

  const Counter* hits = registry.find_counter("cache.factor_hits");
  const Counter* misses = registry.find_counter("cache.factor_misses");
  ASSERT_NE(hits, nullptr);
  ASSERT_NE(misses, nullptr);
  EXPECT_GT(misses->value(), 0u);  // somebody trained each unique factor
  EXPECT_GT(hits->value(), 0u);    // and later symptoms reused it
  // Window-column reuse flows through the same registry-backed accounting.
  EXPECT_GT(registry.find_counter("train.corr_cells")->value(), 0u);
}

// TSAN target: hammer one counter and one histogram from many threads while
// other threads register fresh instruments. Totals must come out exact.
TEST(Metrics, ConcurrentStressIsRaceFreeAndExact) {
  MetricsRegistry reg;
  constexpr std::size_t kThreads = 8;
  constexpr std::size_t kPerThread = 10000;
  Counter* shared = reg.counter("stress.shared");
  Histogram* hist = reg.histogram("stress.hist", {0.25, 0.5, 0.75});
  std::vector<std::thread> workers;
  workers.reserve(kThreads);
  for (std::size_t t = 0; t < kThreads; ++t) {
    workers.emplace_back([&reg, shared, hist, t] {
      // Per-thread get-or-create races the updates on purpose.
      Counter* own =
          reg.counter("stress.thread." + std::to_string(t));
      for (std::size_t i = 0; i < kPerThread; ++i) {
        shared->add(1);
        own->add(1);
        hist->observe(static_cast<double>(i % 4) / 4.0);
        reg.gauge("stress.gauge")->set(static_cast<double>(i));
      }
    });
  }
  for (auto& w : workers) w.join();
  EXPECT_EQ(shared->value(), kThreads * kPerThread);
  EXPECT_EQ(hist->count(), kThreads * kPerThread);
  std::uint64_t bucket_total = 0;
  for (const std::uint64_t b : hist->bucket_counts()) bucket_total += b;
  EXPECT_EQ(bucket_total, kThreads * kPerThread);
  for (std::size_t t = 0; t < kThreads; ++t)
    EXPECT_EQ(reg.find_counter("stress.thread." + std::to_string(t))->value(),
              kPerThread);
}

// ---------- audit trail ----------------------------------------------------

DiagnosisAudit sample_audit() {
  DiagnosisAudit audit;
  audit.scheme = "murphy";
  audit.symptom_entity = "web-vm \"7\"";  // exercise escaping
  audit.symptom_metric = "cpu_util";
  audit.now = 199;
  audit.graph_nodes = 12;
  audit.variables = 30;
  audit.incident_id = 41;  // watchdog linkage
  CandidateAudit accepted;
  accepted.entity = EntityId(3);
  accepted.entity_name = "db-vm";
  accepted.driver_metric = "disk_io";
  accepted.anomaly_z = 4.125;
  accepted.rank_score = 3.0625;
  accepted.evaluated = true;
  accepted.accepted = true;
  accepted.p_value = 0.001953125;
  accepted.mean_factual = 17.5;
  accepted.mean_counterfactual = 9.25;
  accepted.counterfactual_delta = -8.25;
  accepted.path_len = 3;
  accepted.rank = 1;
  accepted.path = {"db-vm", "app-vm", "web-vm \"7\""};
  CandidateAudit rejected;
  rejected.entity = EntityId(9);
  rejected.entity_name = "tor-port";
  rejected.driver_metric = "rx_bytes";
  rejected.anomaly_z = 0.1;  // exercises non-dyadic double round-trip
  rejected.rank_score = 0.1;
  rejected.evaluated = true;
  rejected.accepted = false;
  rejected.p_value = 0.75;
  audit.candidates = {accepted, rejected};
  return audit;
}

TEST(Audit, JsonlRoundTripsEveryField) {
  const DiagnosisAudit original = sample_audit();
  const std::string text = to_jsonl(original);
  DiagnosisAudit parsed;
  std::string error;
  ASSERT_TRUE(parse_jsonl(text, parsed, &error)) << error;
  EXPECT_EQ(parsed.scheme, original.scheme);
  EXPECT_EQ(parsed.symptom_entity, original.symptom_entity);
  EXPECT_EQ(parsed.symptom_metric, original.symptom_metric);
  EXPECT_EQ(parsed.now, original.now);
  EXPECT_EQ(parsed.graph_nodes, original.graph_nodes);
  EXPECT_EQ(parsed.variables, original.variables);
  EXPECT_EQ(parsed.incident_id, original.incident_id);
  ASSERT_EQ(parsed.candidates.size(), original.candidates.size());
  for (std::size_t i = 0; i < original.candidates.size(); ++i) {
    const CandidateAudit& a = original.candidates[i];
    const CandidateAudit& b = parsed.candidates[i];
    EXPECT_EQ(a.entity, b.entity);
    EXPECT_EQ(a.entity_name, b.entity_name);
    EXPECT_EQ(a.driver_metric, b.driver_metric);
    EXPECT_EQ(a.anomaly_z, b.anomaly_z);
    EXPECT_EQ(a.rank_score, b.rank_score);
    EXPECT_EQ(a.self_symptom, b.self_symptom);
    EXPECT_EQ(a.evaluated, b.evaluated);
    EXPECT_EQ(a.accepted, b.accepted);
    EXPECT_EQ(a.p_value, b.p_value);
    EXPECT_EQ(a.mean_factual, b.mean_factual);
    EXPECT_EQ(a.mean_counterfactual, b.mean_counterfactual);
    EXPECT_EQ(a.counterfactual_delta, b.counterfactual_delta);
    EXPECT_EQ(a.path_len, b.path_len);
    EXPECT_EQ(a.rank, b.rank);
    EXPECT_EQ(a.path, b.path);
  }
  // Determinism: serialize(parse(serialize(x))) == serialize(x), byte for
  // byte.
  EXPECT_EQ(to_jsonl(parsed), text);
}

TEST(Audit, EveryLineIsStandaloneJson) {
  const std::string text = to_jsonl(sample_audit());
  std::size_t lines = 0;
  std::size_t begin = 0;
  while (begin < text.size()) {
    std::size_t end = text.find('\n', begin);
    if (end == std::string::npos) end = text.size();
    JsonValue v;
    std::string error;
    ASSERT_TRUE(
        json_parse(std::string_view(text).substr(begin, end - begin), v,
                   &error))
        << error;
    const JsonValue* type = v.find("type");
    ASSERT_NE(type, nullptr);
    EXPECT_EQ(type->string, lines == 0 ? "diagnosis" : "candidate");
    ++lines;
    begin = end + 1;
  }
  EXPECT_EQ(lines, 3u);
}

TEST(IncidentJournal, JsonlRoundTripsEveryField) {
  std::vector<IncidentEvent> events(2);
  events[0].incident_id = 7;
  events[0].event = "open";
  events[0].slice = 315;
  events[0].entity = "profile \"eu\"";  // exercise escaping
  events[0].metric = "latency_ms";
  events[0].severity = 110.5;
  events[0].state = "open";
  events[1].incident_id = 7;
  events[1].event = "diagnosed";
  events[1].slice = 317;
  events[1].entity = "profile \"eu\"";
  events[1].metric = "latency_ms";
  events[1].severity = 0.1;  // non-dyadic double round-trip
  events[1].priority = 111;
  events[1].refires = 2;
  events[1].state = "diagnosed";
  events[1].causes = {"rate", "search"};
  const std::string text = to_jsonl(events);
  std::vector<IncidentEvent> parsed;
  std::string error;
  ASSERT_TRUE(parse_incident_jsonl(text, parsed, &error)) << error;
  ASSERT_EQ(parsed.size(), events.size());
  for (std::size_t i = 0; i < events.size(); ++i) {
    EXPECT_EQ(parsed[i].incident_id, events[i].incident_id);
    EXPECT_EQ(parsed[i].event, events[i].event);
    EXPECT_EQ(parsed[i].slice, events[i].slice);
    EXPECT_EQ(parsed[i].entity, events[i].entity);
    EXPECT_EQ(parsed[i].metric, events[i].metric);
    EXPECT_EQ(parsed[i].severity, events[i].severity);
    EXPECT_EQ(parsed[i].priority, events[i].priority);
    EXPECT_EQ(parsed[i].refires, events[i].refires);
    EXPECT_EQ(parsed[i].state, events[i].state);
    EXPECT_EQ(parsed[i].causes, events[i].causes);
  }
  // Byte-stable: the journal is part of the determinism contract.
  EXPECT_EQ(to_jsonl(parsed), text);
}

TEST(Markers, NameFollowsT2Convention) {
  EXPECT_EQ(marker_name("Murphyd", "service.total_ms"),
            "MurphydServiceTotalMs_split");
  EXPECT_EQ(marker_name("Murphyd", "watchdog.incidents_open"),
            "MurphydWatchdogIncidentsOpen_split");
  EXPECT_EQ(marker_name("AppGw", "cpu-util"), "AppGwCpuUtil_split");
}

TEST(Markers, PayloadIsDeterministicJson) {
  Marker m;
  m.name = "MurphydIngestCells_split";
  m.sum = 6825.0;
  m.count = 1;
  m.unit = "count";
  m.interval_sec = 5.0;
  EXPECT_EQ(marker_payload_json(m),
            "{\"sum\":6825,\"count\":1,\"unit\":\"count\","
            "\"reporting_interval_sec\":5}");
}

TEST(Markers, AggregatorDiffsCountersAndEmitsGauges) {
  MetricsRegistry reg;
  reg.counter("ingest.cells")->add(100);
  reg.counter("idle.counter");  // never incremented: must not emit
  reg.gauge("watchdog.incidents_open")->set(2.0);
  Histogram* h = reg.histogram("service.total_ms", {1.0, 10.0, 100.0});
  h->observe(10.0);
  h->observe(30.0);

  MarkerAggregator agg("Murphyd");
  const std::vector<Marker> first = agg.collect(reg.snapshot(), 5.0);
  // idle.counter has zero delta -> skipped; the other three emit.
  ASSERT_EQ(first.size(), 3u);
  EXPECT_EQ(first[0].name, "MurphydIngestCells_split");
  EXPECT_EQ(first[0].sum, 100.0);
  EXPECT_EQ(first[0].unit, "count");
  EXPECT_EQ(first[1].name, "MurphydServiceTotalMs_split");
  EXPECT_EQ(first[1].sum, 40.0);  // histogram sum delta
  EXPECT_EQ(first[1].count, 2u);  // observation-count delta
  EXPECT_EQ(first[1].unit, "ms");
  EXPECT_EQ(first[2].name, "MurphydWatchdogIncidentsOpen_split");
  EXPECT_EQ(first[2].sum, 2.0);

  // Second interval: only what changed since the first collect.
  reg.counter("ingest.cells")->add(50);
  reg.gauge("watchdog.incidents_open")->set(0.0);
  const std::vector<Marker> second = agg.collect(reg.snapshot(), 5.0);
  ASSERT_EQ(second.size(), 2u);
  EXPECT_EQ(second[0].name, "MurphydIngestCells_split");
  EXPECT_EQ(second[0].sum, 50.0);  // delta, not cumulative
  EXPECT_EQ(second[1].name, "MurphydWatchdogIncidentsOpen_split");
  EXPECT_EQ(second[1].sum, 0.0);  // gauges always report point-in-time
}

TEST(Markers, CounterResetReportsPostResetValue) {
  MetricsRegistry reg;
  reg.counter("ingest.cells")->add(100);
  MarkerAggregator agg;
  (void)agg.collect(reg.snapshot(), 1.0);
  reg.reset();
  reg.counter("ingest.cells")->add(30);
  const std::vector<Marker> after = agg.collect(reg.snapshot(), 1.0);
  ASSERT_EQ(after.size(), 1u);
  EXPECT_EQ(after[0].sum, 30.0);  // not the negative delta -70
}

TEST(Audit, ParseRejectsMissingOrDuplicateHeader) {
  DiagnosisAudit out;
  EXPECT_FALSE(parse_jsonl("{\"type\":\"candidate\"}", out));
  const std::string two_headers =
      "{\"type\":\"diagnosis\",\"scheme\":\"a\"}\n"
      "{\"type\":\"diagnosis\",\"scheme\":\"b\"}";
  EXPECT_FALSE(parse_jsonl(two_headers, out));
  EXPECT_FALSE(parse_jsonl("not json", out));
}

}  // namespace
}  // namespace murphy::obs
