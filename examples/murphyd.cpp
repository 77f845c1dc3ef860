// murphyd — the diagnosis engine as a long-running service (DESIGN.md §9),
// on the wire (DESIGN.md §12).
//
// Demonstrates the src/service stack end to end: a TelemetryStream fed by a
// replayed telemetry feed (CSV import or the built-in interference
// scenario), a DiagnosisService answering requests concurrently with
// ingestion, and snapshot save/restore for warm restarts. Commands arrive
// as newline-framed lines — on stdin, and/or on a TCP / unix-domain socket
// (--listen / --unix) served by an epoll event loop — one response line
// (OK .../ERR ...) per command:
//
//   DIAGNOSE <entity> <metric> [max_hops] [deadline_ms]
//   INGEST <entity> <metric> <slice> <value>
//   REPLAY [n]            replay the next n feed slices into the stream
//   EXTEND [n]            grow the time axis by n empty slices
//   SNAPSHOT <path>       save a consistent snapshot (diagnoses keep running)
//   STATS                 one-line summary + the full metrics-registry JSON
//   MARKERS               one-line JSON array of T2-style fleet markers
//                         (snapshot-diff since the previous MARKERS/export)
//   INCIDENTS             one-line JSON array of watchdog incidents
//   QUIT
//
// Any command may carry a '#tag' prefix; its response is prefixed with the
// same tag. Over a socket, DIAGNOSE is pipelined: responses are delivered
// when the diagnosis completes, possibly out of order — tag your requests.
// Over stdin the protocol stays strictly request/response (and bytewise
// what it always was). Per-connection in-flight and buffer limits reject
// excess load with explicit ERR lines (see net_server.h); QUIT over a
// socket closes that connection, QUIT/EOF on stdin drains and stops the
// daemon.
//
// With --watchdog the stream's commit observer feeds the always-on watchdog
// (DESIGN.md §10): every replayed slice is scanned, sustained anomalies
// auto-enqueue prioritized diagnoses, and incident lifecycle transitions are
// journaled to stderr as they happen. --marker-every N exports fleet markers
// to stderr every N replayed slices through the same aggregator MARKERS uses.
//
// Usage:
//   murphyd                               # built-in microservice scenario
//   murphyd --csv PREFIX --interval 10    # csv_export dataset
//   murphyd --snapshot FILE               # resume from a snapshot
//   common: --split F (warm fraction, default 0.75) --workers N --queue N
//           --replay-ms M (auto-replay one slice every M ms)
//           --listen PORT (TCP on 127.0.0.1; 0 = ephemeral, port on stderr)
//           --unix PATH (unix-domain listener)
//           --net-inflight N --net-max-conns N (per-connection/server caps)
//           --watchdog --marker-every N --audit-out FILE
#include <atomic>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <string>
#include <thread>

#include "src/emulation/scenarios.h"
#include "src/obs/markers.h"
#include "src/obs/metrics.h"
#include "src/service/diagnosis_service.h"
#include "src/service/feed.h"
#include "src/service/net_server.h"
#include "src/service/protocol.h"
#include "src/service/telemetry_stream.h"
#include "src/telemetry/csv_import.h"
#include "src/telemetry/snapshot.h"
#include "src/watchdog/watchdog.h"

using namespace murphy;

namespace {

struct Args {
  std::string csv_prefix;
  double interval = 10.0;
  std::string snapshot;
  double split = 0.75;
  std::size_t workers = 2;
  std::size_t queue = 64;
  long replay_ms = 0;  // 0 = manual REPLAY only
  int listen_port = -1;        // -1 = no TCP listener
  std::string unix_path;       // empty = no unix listener
  std::size_t net_inflight = 32;
  std::size_t net_max_conns = 64;
  bool watchdog = false;
  std::size_t marker_every = 0;  // 0 = MARKERS verb only
  std::string audit_out;         // incident-linked diagnosis audits (JSONL)
};

[[noreturn]] void usage_error(const std::string& flag, const std::string& why) {
  std::fprintf(stderr, "murphyd: bad value for %s: %s\n", flag.c_str(),
               why.c_str());
  std::exit(2);
}

// Strict CLI numerics via the protocol's parsers: std::stod/std::stoul
// would throw uncaught on garbage (and stoul happily wraps negatives).
double double_arg(const std::string& flag, const std::string& value) {
  const auto v = service::parse_double(value);
  if (!v.has_value()) usage_error(flag, "'" + value + "' is not a number");
  return *v;
}

std::size_t count_arg(const std::string& flag, const std::string& value) {
  const auto v = service::parse_count(value);
  if (!v.has_value())
    usage_error(flag, "'" + value + "' is not a non-negative integer");
  return static_cast<std::size_t>(*v);
}

std::atomic<bool> g_signalled{false};

void on_signal(int) { g_signalled.store(true); }

Args parse_args(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    auto next = [&]() -> std::string {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "missing value for %s\n", flag.c_str());
        std::exit(2);
      }
      return argv[++i];
    };
    if (flag == "--csv") {
      a.csv_prefix = next();
    } else if (flag == "--interval") {
      a.interval = double_arg(flag, next());
      if (a.interval <= 0.0) usage_error(flag, "must be > 0");
    } else if (flag == "--snapshot") {
      a.snapshot = next();
    } else if (flag == "--split") {
      // An out-of-range fraction would cast to a bogus TimeIndex split
      // (e.g. 1.5 * slices overflows past the axis); reject it here.
      a.split = double_arg(flag, next());
      if (a.split < 0.0 || a.split > 1.0)
        usage_error(flag, "warm fraction must be within [0,1]");
    } else if (flag == "--workers") {
      a.workers = count_arg(flag, next());
    } else if (flag == "--queue") {
      a.queue = count_arg(flag, next());
    } else if (flag == "--replay-ms") {
      a.replay_ms = static_cast<long>(count_arg(flag, next()));
    } else if (flag == "--listen") {
      const std::size_t port = count_arg(flag, next());
      if (port > 65535) usage_error(flag, "port must be within [0,65535]");
      a.listen_port = static_cast<int>(port);
    } else if (flag == "--unix") {
      a.unix_path = next();
    } else if (flag == "--net-inflight") {
      a.net_inflight = count_arg(flag, next());
      if (a.net_inflight == 0) usage_error(flag, "must be >= 1");
    } else if (flag == "--net-max-conns") {
      a.net_max_conns = count_arg(flag, next());
      if (a.net_max_conns == 0) usage_error(flag, "must be >= 1");
    } else if (flag == "--watchdog") {
      a.watchdog = true;
    } else if (flag == "--marker-every") {
      a.marker_every = count_arg(flag, next());
    } else if (flag == "--audit-out") {
      a.audit_out = next();
    } else {
      std::fprintf(stderr, "unknown flag %s\n", flag.c_str());
      std::exit(2);
    }
  }
  return a;
}

}  // namespace

int main(int argc, char** argv) {
  const Args args = parse_args(argc, argv);

  // --- source db: snapshot, CSV dataset, or the built-in scenario ----------
  telemetry::MonitoringDb source;
  if (!args.snapshot.empty()) {
    telemetry::SnapshotError err;
    auto loaded = telemetry::load_snapshot_file(args.snapshot, &err);
    if (!loaded.has_value()) {
      std::fprintf(stderr, "snapshot load failed: %s\n", err.message.c_str());
      return 1;
    }
    source = std::move(*loaded);
  } else if (!args.csv_prefix.empty()) {
    telemetry::ImportError err;
    auto imported =
        telemetry::import_csv_files(args.csv_prefix, args.interval, &err);
    if (!imported.has_value()) {
      std::fprintf(stderr, "csv import failed (line %zu): %s\n", err.line,
                   err.message.c_str());
      return 1;
    }
    source = std::move(imported->db);
  } else {
    emulation::InterferenceOptions sopts;
    source = std::move(make_interference_case(sopts).db);
  }

  // --- split into warm prefix + replayable tail -----------------------------
  const std::size_t total = source.metrics().axis().size();
  const auto split =
      static_cast<TimeIndex>(args.split * static_cast<double>(total));
  service::ReplayFeed feed = service::make_replay_feed(source, split);
  service::TelemetryStream stream(std::move(feed.warm));

  service::DiagnosisServiceOptions sopts;
  sopts.num_workers = args.workers;
  sopts.max_queue = args.queue;
  sopts.murphy.num_threads = 1;  // concurrency comes from the worker pool
  sopts.murphy.obs.metrics = &obs::global_metrics();
  sopts.murphy.obs.collect_audit = !args.audit_out.empty();
  service::DiagnosisService svc(stream, sopts);

  // --- always-on watchdog + fleet-marker export -----------------------------
  watchdog::WatchdogOptions wopts;
  wopts.on_event = [](const obs::IncidentEvent& ev) {
    std::fprintf(stderr, "murphyd incident %s\n", obs::to_json(ev).c_str());
  };
  watchdog::Watchdog wd(stream, svc, std::move(wopts), &obs::global_metrics());
  if (args.watchdog) wd.attach();

  // One aggregator serves both the MARKERS verb and --marker-every exports;
  // each collect() reports the interval since the previous one.
  obs::MarkerAggregator markers;
  std::mutex marker_mu;
  auto export_markers = [&](double interval_sec) {
    std::lock_guard<std::mutex> lock(marker_mu);
    return markers.collect(obs::global_metrics().snapshot(), interval_sec);
  };

  std::atomic<std::size_t> replayed{0};
  std::atomic<bool> quitting{false};

  // One mutex serializes replay (REPLAY verbs — from stdin AND sockets —
  // vs the auto-replay thread); the stream itself is what makes replay safe
  // against diagnoses. The watchdog scan rides here too — one scan per
  // replayed slice, which is the scan schedule the determinism contract is
  // stated against.
  std::mutex replay_mu;
  auto replay_n = [&](std::size_t n) {
    std::lock_guard<std::mutex> lock(replay_mu);
    std::size_t cells = 0;
    while (n-- > 0 && replayed.load() < feed.batches.size()) {
      cells += service::replay_slice(stream, feed, replayed.load());
      replayed.fetch_add(1);
      if (args.watchdog) wd.scan();
      if (args.marker_every > 0 && replayed.load() % args.marker_every == 0) {
        for (const obs::Marker& m :
             export_markers(static_cast<double>(args.marker_every)))
          std::fprintf(stderr, "murphyd marker %s %s\n", m.name.c_str(),
                       obs::marker_payload_json(m).c_str());
      }
    }
    svc.maintain();
    return cells;
  };

  std::thread auto_replay;
  if (args.replay_ms > 0) {
    auto_replay = std::thread([&] {
      while (!quitting.load() && replayed.load() < feed.batches.size()) {
        replay_n(1);
        std::this_thread::sleep_for(std::chrono::milliseconds(args.replay_ms));
      }
    });
  }

  // --- shared verb dispatch + socket front end ------------------------------
  service::ProtocolHooks hooks;
  hooks.replay_n = replay_n;
  hooks.replayed = [&] { return replayed.load(); };
  hooks.export_markers = export_markers;
  hooks.incidents_json = [&] {
    // Serialized against scan() (the replay mutex) — incidents_ is
    // scanner-side state.
    std::lock_guard<std::mutex> lock(replay_mu);
    return watchdog::to_json(wd.incidents());
  };
  hooks.metrics = &obs::global_metrics();
  service::Protocol proto(stream, svc, std::move(hooks));

  service::NetServer net(proto, [&] {
    service::NetServerOptions nopts;
    nopts.tcp_port = args.listen_port;
    nopts.unix_path = args.unix_path;
    nopts.max_inflight_per_conn = args.net_inflight;
    nopts.max_connections = args.net_max_conns;
    return nopts;
  }());
  const bool net_enabled = args.listen_port >= 0 || !args.unix_path.empty();
  if (net_enabled) {
    std::string err;
    if (!net.start(&err)) {
      std::fprintf(stderr, "murphyd: socket front end failed: %s\n",
                   err.c_str());
      return 1;
    }
    if (args.listen_port >= 0)
      std::fprintf(stderr, "murphyd: listening on 127.0.0.1:%d\n",
                   net.tcp_port());
    if (!args.unix_path.empty())
      std::fprintf(stderr, "murphyd: listening on unix:%s\n",
                   args.unix_path.c_str());
  }

  std::fprintf(stderr,
               "murphyd: %zu entities, %zu warm slices, %zu feed slices, %zu "
               "workers\n",
               stream.read()->entity_count(), split, feed.batches.size(),
               args.workers);

  // --- stdin command loop ---------------------------------------------------
  // Blocking dispatch: responses come back in command order, byte-identical
  // to the pre-socket protocol. Sockets get the pipelined path.
  std::string line;
  bool stdin_quit = false;
  while (std::getline(std::cin, line)) {
    std::string out;
    const auto kind = proto.dispatch(
        line, [&](std::string s) { out = std::move(s); },
        /*deliver_async=*/false);
    if (kind == service::Protocol::DispatchKind::kNone) continue;
    std::printf("%s\n", out.c_str());
    std::fflush(stdout);
    if (kind == service::Protocol::DispatchKind::kQuit) {
      stdin_quit = true;
      break;
    }
  }

  // A socket-only deployment closes stdin at launch; keep serving until a
  // signal asks for the drain (stdin QUIT still stops the daemon directly).
  if (net_enabled && !stdin_quit) {
    std::signal(SIGINT, on_signal);
    std::signal(SIGTERM, on_signal);
    std::fprintf(stderr,
                 "murphyd: stdin closed; serving sockets until "
                 "SIGINT/SIGTERM\n");
    while (!g_signalled.load())
      std::this_thread::sleep_for(std::chrono::milliseconds(50));
  }

  quitting.store(true);
  if (auto_replay.joinable()) auto_replay.join();
  // Graceful drain: stop accepting socket traffic, settle every in-flight
  // diagnosis, flush and close — before the watchdog and service wind down.
  net.shutdown();
  if (args.watchdog) {
    // Settle the lifecycle (every incident diagnosed or resolved) before
    // the service stops accepting the watchdog's re-enqueues.
    std::lock_guard<std::mutex> lock(replay_mu);
    wd.drain();
    wd.detach();
    if (!args.audit_out.empty()) {
      std::ofstream out(args.audit_out);
      out << wd.audit_jsonl();
      std::fprintf(stderr, "murphyd: wrote %zu incident audits to %s\n",
                   wd.incidents().size(), args.audit_out.c_str());
    }
  }
  svc.stop();
  return 0;
}
