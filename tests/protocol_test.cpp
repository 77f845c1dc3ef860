// The murphyd wire protocol (DESIGN.md §12): the shared Protocol verb
// dispatch over both delivery modes, the parser regressions it fixed
// (optional-operand clobbering, silent zero counts), and the socket front
// end — pipelined out-of-order completions, per-connection admission
// control, backpressure and graceful drain — over unix-domain AND TCP
// transports.
#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <netinet/in.h>
#include <arpa/inet.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cmath>
#include <condition_variable>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <future>
#include <memory>
#include <mutex>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "src/common/rng.h"
#include "src/service/diagnosis_service.h"
#include "src/service/feed.h"
#include "src/service/net_server.h"
#include "src/service/protocol.h"
#include "src/service/telemetry_stream.h"

namespace murphy::service {
namespace {

using telemetry::EntityType;
using telemetry::MonitoringDb;
using telemetry::RelationKind;

// Chain A -> B -> C -> D with a surge at A near the end (the service_test
// environment): one diagnosis costs ~1 ms, several candidates rank.
MonitoringDb make_chain_db(std::size_t slices) {
  MonitoringDb db;
  const EntityId a = db.add_entity(EntityType::kVm, "A");
  const EntityId b = db.add_entity(EntityType::kVm, "B");
  const EntityId c = db.add_entity(EntityType::kVm, "C");
  const EntityId d = db.add_entity(EntityType::kVm, "D");
  db.add_association(a, b, RelationKind::kGeneric);
  db.add_association(b, c, RelationKind::kGeneric);
  db.add_association(c, d, RelationKind::kGeneric);
  const MetricKindId load = db.catalog().intern("cpu_util");
  db.metrics().set_axis(TimeAxis(0.0, 10.0, slices));
  Rng rng(11);
  std::vector<double> va(slices), vb(slices), vc(slices), vd(slices);
  for (std::size_t t = 0; t < slices; ++t) {
    const double surge = t + 20 >= slices ? 14.0 : 0.0;
    va[t] = 6.0 + 2.0 * std::sin(0.07 * t) + rng.normal(0.0, 0.3) + surge;
    vb[t] = 1.6 * va[t] + rng.normal(0.0, 0.3);
    vc[t] = 1.2 * vb[t] + rng.normal(0.0, 0.4);
    vd[t] = 1.1 * vc[t] + rng.normal(0.0, 0.4);
  }
  db.metrics().put(a, load, va);
  db.metrics().put(b, load, vb);
  db.metrics().put(c, load, vc);
  db.metrics().put(d, load, vd);
  return db;
}

// Holds the service's workers at their first phase checkpoint (through
// MurphyOptions::cancel) until released, so a "plug" request occupies a
// worker for as long as a test needs instead of for however long one
// diagnosis happens to take.
class WorkerGate {
 public:
  void release() {
    {
      std::lock_guard<std::mutex> lock(mu_);
      held_ = false;
    }
    cv_.notify_all();
  }
  // The cancel hook: blocks while held, never cancels.
  bool wait() {
    std::unique_lock<std::mutex> lock(mu_);
    cv_.wait(lock, [this] { return !held_; });
    return false;
  }

 private:
  std::mutex mu_;
  std::condition_variable cv_;
  bool held_ = true;
};

// A murphyd-shaped runtime: stream + service + replay feed + protocol,
// minus the daemon. REPLAY/STATS hooks mirror examples/murphyd.cpp.
struct ProtoEnv {
  ~ProtoEnv() { gate.release(); }  // never tear down with a worker parked
  WorkerGate gate;  // declared first: outlives the workers that wait on it
  ReplayFeed feed;
  std::unique_ptr<TelemetryStream> stream;
  std::unique_ptr<DiagnosisService> svc;
  std::unique_ptr<Protocol> proto;
  std::atomic<std::size_t> replayed{0};
  std::mutex replay_mu;
};

// `gate_workers` parks every diagnosis at its first checkpoint until
// env->gate.release().
std::unique_ptr<ProtoEnv> make_proto_env(std::size_t slices,
                                         std::size_t workers,
                                         std::size_t num_samples = 20,
                                         bool gate_workers = false) {
  auto env = std::make_unique<ProtoEnv>();
  env->feed = make_replay_feed(make_chain_db(slices),
                               static_cast<TimeIndex>(slices - 20));
  env->stream = std::make_unique<TelemetryStream>(std::move(env->feed.warm));
  DiagnosisServiceOptions sopts;
  sopts.num_workers = workers;
  sopts.max_queue = 256;
  sopts.murphy.num_threads = 1;
  sopts.murphy.sampler.num_samples = num_samples;
  sopts.murphy.seed = 7;
  if (gate_workers)
    sopts.murphy.cancel = [e = env.get()] { return e->gate.wait(); };
  env->svc = std::make_unique<DiagnosisService>(*env->stream, sopts);
  ProtocolHooks hooks;
  ProtoEnv* e = env.get();
  hooks.replay_n = [e](std::size_t n) {
    std::lock_guard<std::mutex> lock(e->replay_mu);
    std::size_t cells = 0;
    while (n-- > 0 && e->replayed.load() < e->feed.batches.size())
      cells += replay_slice(*e->stream, e->feed, e->replayed.fetch_add(1));
    return cells;
  };
  hooks.replayed = [e] { return e->replayed.load(); };
  env->proto = std::make_unique<Protocol>(*env->stream, *env->svc,
                                          std::move(hooks));
  return env;
}

// Blocking dispatch, murphyd's stdio mode: one line in, one response out.
std::string stdio_dispatch(ProtoEnv& env, const std::string& line) {
  std::string out = "<no response>";
  env.proto->dispatch(
      line, [&](std::string s) { out = std::move(s); },
      /*deliver_async=*/false);
  return out;
}

// The ranked-cause suffix of a DIAGNOSE response (" 1:A 2:B ..."), i.e.
// everything after the per-run run_ms noise.
std::string cause_suffix(const std::string& resp) {
  const std::size_t pos = resp.find(" 1:");
  return pos == std::string::npos ? "" : resp.substr(pos);
}

// ---------------------------------------------------------------------------
// Parser regressions (stdio mode)

TEST(ProtocolParse, ReplayWithoutCountReplaysOneSlice) {
  auto env = make_proto_env(160, 1);
  // Pre-PR: the failed `in >> n` extraction zeroed the default and printed
  // OK having replayed nothing.
  EXPECT_EQ(stdio_dispatch(*env, "REPLAY"), "OK replayed_to=1 cells=4");
  EXPECT_EQ(stdio_dispatch(*env, "REPLAY 2"), "OK replayed_to=3 cells=8");
}

TEST(ProtocolParse, ReplayRejectsGarbageCounts) {
  auto env = make_proto_env(160, 1);
  EXPECT_EQ(stdio_dispatch(*env, "REPLAY xyz"),
            "ERR bad count 'xyz' (usage: REPLAY [n])");
  EXPECT_EQ(stdio_dispatch(*env, "REPLAY 2 junk"),
            "ERR trailing garbage 'junk' (usage: REPLAY [n])");
  EXPECT_EQ(stdio_dispatch(*env, "REPLAY -1"),
            "ERR bad count '-1' (usage: REPLAY [n])");
  // Nothing replayed by any of the rejected commands.
  EXPECT_EQ(env->replayed.load(), 0u);
}

TEST(ProtocolParse, ExtendDefaultsValidatesAndCaps) {
  auto env = make_proto_env(160, 1);
  const std::size_t before = env->stream->slice_count();
  EXPECT_EQ(stdio_dispatch(*env, "EXTEND"),
            "OK slices=" + std::to_string(before + 1));
  EXPECT_EQ(stdio_dispatch(*env, "EXTEND abc"),
            "ERR bad count 'abc' (usage: EXTEND [n])");
  EXPECT_EQ(stdio_dispatch(*env, "EXTEND 9999999999"),
            "ERR count too large (max 1048576)");
  EXPECT_EQ(env->stream->slice_count(), before + 1);
}

TEST(ProtocolParse, DiagnoseWithoutHopsUsesDocumentedDefault) {
  auto env = make_proto_env(160, 1);
  // Bring the surge (last 20 slices of the feed) into the stream, the way
  // murphyd replays before diagnosing.
  stdio_dispatch(*env, "REPLAY 20");
  // Pre-PR, `in >> req.max_hops` wrote 0 over the preset 4 whenever the
  // operand was absent, so a hop-less request searched nothing beyond the
  // symptom. Fixed: bare == explicit 4, and both differ from explicit 0.
  const std::string bare_resp = stdio_dispatch(*env, "DIAGNOSE D cpu_util");
  const std::string bare = cause_suffix(bare_resp);
  const std::string four =
      cause_suffix(stdio_dispatch(*env, "DIAGNOSE D cpu_util 4"));
  const std::string zero =
      cause_suffix(stdio_dispatch(*env, "DIAGNOSE D cpu_util 0"));
  ASSERT_FALSE(bare.empty()) << bare_resp;
  EXPECT_EQ(bare, four);
  EXPECT_NE(bare, zero);
  // With hops=0 the search cannot leave the symptom entity.
  EXPECT_EQ(zero, " 1:D");
}

TEST(ProtocolParse, DiagnoseRejectsGarbageOperands) {
  auto env = make_proto_env(160, 1);
  EXPECT_EQ(stdio_dispatch(*env, "DIAGNOSE D cpu_util xyz"),
            "ERR bad max_hops 'xyz' (usage: DIAGNOSE <entity> <metric> "
            "[hops] [deadline_ms])");
  EXPECT_EQ(stdio_dispatch(*env, "DIAGNOSE D cpu_util 4 5s"),
            "ERR bad deadline_ms '5s' (usage: DIAGNOSE <entity> <metric> "
            "[hops] [deadline_ms])");
  EXPECT_EQ(stdio_dispatch(*env, "DIAGNOSE D cpu_util 4 100 extra"),
            "ERR trailing garbage 'extra' (usage: DIAGNOSE <entity> "
            "<metric> [hops] [deadline_ms])");
}

TEST(ProtocolParse, SharedVerbResponsesMatchPrePrBytes) {
  // The stdio protocol's clean-transcript byte contract: exact response
  // strings for the deterministic shared verbs.
  auto env = make_proto_env(160, 1);
  EXPECT_EQ(stdio_dispatch(*env, "FOO"), "ERR unknown verb FOO");
  EXPECT_EQ(stdio_dispatch(*env, "DIAGNOSE"),
            "ERR usage: DIAGNOSE <entity> <metric> [hops] [deadline_ms]");
  EXPECT_EQ(stdio_dispatch(*env, "DIAGNOSE nosuch cpu_util"),
            "ERR unknown entity nosuch");
  EXPECT_EQ(stdio_dispatch(*env, "INGEST"),
            "ERR usage: INGEST <entity> <metric> <slice> <value>");
  EXPECT_EQ(stdio_dispatch(*env, "INGEST nosuch cpu_util 0 1.0"),
            "ERR unknown entity nosuch");
  EXPECT_EQ(stdio_dispatch(*env, "INGEST A cpu_util 0 1.0"), "OK");
  EXPECT_EQ(stdio_dispatch(*env, "INGEST A cpu_util 999999 1.0"),
            "ERR cell dropped (slice out of axis?)");
  EXPECT_EQ(stdio_dispatch(*env, "SNAPSHOT"), "ERR usage: SNAPSHOT <path>");
  EXPECT_EQ(stdio_dispatch(*env, "SNAPSHOT /no/such/dir/x.snap"),
            "ERR write /no/such/dir/x.snap");
  EXPECT_EQ(stdio_dispatch(*env, "QUIT"), "OK bye");
  std::string stats = stdio_dispatch(*env, "STATS");
  EXPECT_EQ(stats.substr(0, 10), "OK slices=");
  EXPECT_NE(stats.find(" metrics={"), std::string::npos);
}

TEST(ProtocolParse, TagPrefixesEveryResponse) {
  auto env = make_proto_env(160, 1);
  EXPECT_EQ(stdio_dispatch(*env, "#7 REPLAY"),
            "#7 OK replayed_to=1 cells=4");
  EXPECT_EQ(stdio_dispatch(*env, "#x DIAGNOSE nosuch m"),
            "#x ERR unknown entity nosuch");
  EXPECT_EQ(stdio_dispatch(*env, "#lone"), "#lone ERR empty command");
  // '#' alone is not a tag.
  EXPECT_EQ(stdio_dispatch(*env, "# REPLAY"), "ERR unknown verb #");
}

TEST(ProtocolParse, StrictNumericHelpers) {
  EXPECT_EQ(parse_count("0"), 0u);
  EXPECT_EQ(parse_count("42"), 42u);
  EXPECT_FALSE(parse_count("").has_value());
  EXPECT_FALSE(parse_count("-1").has_value());
  EXPECT_FALSE(parse_count("+1").has_value());
  EXPECT_FALSE(parse_count("1.5").has_value());
  EXPECT_FALSE(parse_count("7x").has_value());
  EXPECT_FALSE(parse_count("0x10").has_value());
  EXPECT_DOUBLE_EQ(*parse_double("0.75"), 0.75);
  EXPECT_DOUBLE_EQ(*parse_double("1e-3"), 1e-3);
  EXPECT_DOUBLE_EQ(*parse_double("-2.5"), -2.5);
  EXPECT_FALSE(parse_double("").has_value());
  EXPECT_FALSE(parse_double("abc").has_value());
  EXPECT_FALSE(parse_double("1.5x").has_value());
  EXPECT_FALSE(parse_double("inf").has_value());
  EXPECT_FALSE(parse_double("nan").has_value());
  EXPECT_FALSE(parse_double(" 1").has_value());
}

// ---------------------------------------------------------------------------
// Socket front end

// Minimal blocking line client over an already-connected fd.
class LineClient {
 public:
  explicit LineClient(int fd) : fd_(fd) {}
  ~LineClient() {
    if (fd_ >= 0) ::close(fd_);
  }
  LineClient(const LineClient&) = delete;
  LineClient& operator=(const LineClient&) = delete;

  void send_all(const std::string& data) const {
    std::size_t off = 0;
    while (off < data.size()) {
      const ssize_t w =
          ::send(fd_, data.data() + off, data.size() - off, MSG_NOSIGNAL);
      ASSERT_GT(w, 0) << "send failed: " << std::strerror(errno);
      off += static_cast<std::size_t>(w);
    }
  }

  // Next full line (without '\n'), or "<eof>" / "<timeout>".
  std::string read_line(int timeout_ms = 20000) {
    for (;;) {
      const std::size_t nl = buf_.find('\n');
      if (nl != std::string::npos) {
        std::string line = buf_.substr(0, nl);
        buf_.erase(0, nl + 1);
        return line;
      }
      pollfd pfd{fd_, POLLIN, 0};
      const int pr = ::poll(&pfd, 1, timeout_ms);
      if (pr <= 0) return "<timeout>";
      char tmp[4096];
      const ssize_t r = ::recv(fd_, tmp, sizeof tmp, 0);
      if (r <= 0) return "<eof>";
      buf_.append(tmp, static_cast<std::size_t>(r));
    }
  }

  // True when the peer closed (EOF) with no stray bytes left.
  bool at_eof(int timeout_ms = 20000) {
    return read_line(timeout_ms) == "<eof>" && buf_.empty();
  }

 private:
  int fd_;
  std::string buf_;
};

std::string test_unix_path(const char* name) {
  return "/tmp/murphy_proto_" + std::to_string(::getpid()) + "_" + name +
         ".sock";
}

int connect_unix(const std::string& path) {
  const int fd = ::socket(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0);
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  std::memcpy(addr.sun_path, path.c_str(), path.size() + 1);
  if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof addr) !=
      0) {
    ::close(fd);
    return -1;
  }
  return fd;
}

int connect_tcp(int port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(static_cast<std::uint16_t>(port));
  if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof addr) !=
      0) {
    ::close(fd);
    return -1;
  }
  return fd;
}

TEST(NetServerTest, ImmediateVerbsAnswerInOrderOnBothTransports) {
  auto env = make_proto_env(160, 2);
  NetServerOptions nopts;
  nopts.unix_path = test_unix_path("both");
  nopts.tcp_port = 0;  // ephemeral
  NetServer server(*env->proto, nopts);
  std::string err;
  ASSERT_TRUE(server.start(&err)) << err;
  ASSERT_GT(server.tcp_port(), 0);

  {
    const int fd = connect_unix(nopts.unix_path);
    ASSERT_GE(fd, 0);
    LineClient c(fd);
    c.send_all("#a REPLAY 1\n#b EXTEND\nFOO\n");
    EXPECT_EQ(c.read_line(), "#a OK replayed_to=1 cells=4");
    EXPECT_EQ(c.read_line().substr(0, 13), "#b OK slices=");
    EXPECT_EQ(c.read_line(), "ERR unknown verb FOO");
  }
  {
    const int fd = connect_tcp(server.tcp_port());
    ASSERT_GE(fd, 0);
    LineClient c(fd);
    c.send_all("#t DIAGNOSE D cpu_util\nQUIT\n");
    // DIAGNOSE pipelines past QUIT's immediate answer; collect both.
    std::vector<std::string> lines{c.read_line(), c.read_line()};
    const bool quit_first = lines[0] == "OK bye";
    EXPECT_EQ(quit_first ? lines[0] : lines[1], "OK bye");
    const std::string& diag = quit_first ? lines[1] : lines[0];
    EXPECT_EQ(diag.substr(0, 9), "#t OK id=");
    EXPECT_NE(cause_suffix(diag), "");
    EXPECT_TRUE(c.at_eof());
  }
  EXPECT_EQ(server.accepted_connections(), 2u);
  server.shutdown();
}

TEST(NetServerTest, PipelinedDiagnosesCompleteOutOfOrder) {
  auto env = make_proto_env(600, 1, /*num_samples=*/300,
                            /*gate_workers=*/true);
  NetServerOptions nopts;
  nopts.unix_path = test_unix_path("ooo");
  NetServer server(*env->proto, nopts);
  ASSERT_TRUE(server.start());

  // Occupy the single worker so the pipelined DIAGNOSE below must queue —
  // its completion deterministically lands after the immediate STATS.
  ServiceRequest plug;
  {
    const auto db = env->stream->read();
    plug.symptom_entity = db->find_entity("D");
    plug.symptom_metric = "cpu_util";
    plug.now = db->metrics().axis().size() - 1;
    plug.train_begin = 0;
    plug.train_end = db->metrics().axis().size();
  }
  auto plug_fut = env->svc->submit(plug);
  while (env->svc->queue_depth() > 0)
    std::this_thread::sleep_for(std::chrono::milliseconds(1));

  const int fd = connect_unix(nopts.unix_path);
  ASSERT_GE(fd, 0);
  LineClient c(fd);
  // One write, two commands: the DIAGNOSE needs the (busy) worker, the
  // STATS answers from the loop thread — its response arrives FIRST, which
  // the blocking stdio loop could never do.
  c.send_all("#slow DIAGNOSE D cpu_util\n#fast STATS\n");
  const std::string first = c.read_line();
  EXPECT_EQ(first.substr(0, 16), "#fast OK slices=");
  env->gate.release();
  plug_fut.get();
  const std::string second = c.read_line();
  EXPECT_EQ(second.substr(0, 12), "#slow OK id=");
  server.shutdown();
}

TEST(NetServerTest, PerConnectionInflightLimitRejects) {
  auto env = make_proto_env(600, 1, /*num_samples=*/300,
                            /*gate_workers=*/true);
  NetServerOptions nopts;
  nopts.unix_path = test_unix_path("limit");
  nopts.max_inflight_per_conn = 2;
  NetServer server(*env->proto, nopts);
  ASSERT_TRUE(server.start());

  // Plug the single worker so the pipelined DIAGNOSEs below cannot start,
  // making the in-flight window deterministic.
  ServiceRequest plug;
  {
    const auto db = env->stream->read();
    plug.symptom_entity = db->find_entity("D");
    plug.symptom_metric = "cpu_util";
    plug.now = db->metrics().axis().size() - 1;
    plug.train_begin = 0;
    plug.train_end = db->metrics().axis().size();
  }
  auto plug_fut = env->svc->submit(plug);
  // Wait until the worker popped it (queue empty = running).
  while (env->svc->queue_depth() > 0)
    std::this_thread::sleep_for(std::chrono::milliseconds(1));

  const int fd = connect_unix(nopts.unix_path);
  ASSERT_GE(fd, 0);
  LineClient c(fd);
  c.send_all(
      "#1 DIAGNOSE D cpu_util\n#2 DIAGNOSE D cpu_util\n"
      "#3 DIAGNOSE D cpu_util\n#4 DIAGNOSE D cpu_util\n"
      "#5 DIAGNOSE D cpu_util\n");
  // #1/#2 occupy the window; #3..#5 are rejected with the explicit
  // kRejectedQueueFull-style line, in order, before anything completes.
  for (const char* tag : {"#3", "#4", "#5"}) {
    EXPECT_EQ(c.read_line(),
              std::string(tag) +
                  " ERR rejected_conn_inflight_full (in_flight 2 limit 2)");
  }
  // Once the plug finishes, the two admitted requests complete fine.
  env->gate.release();
  plug_fut.get();
  std::vector<std::string> done{c.read_line(), c.read_line()};
  for (const std::string& resp : done) {
    EXPECT_TRUE(resp.substr(0, 2) == "#1" || resp.substr(0, 2) == "#2")
        << resp;
    EXPECT_NE(resp.find(" OK id="), std::string::npos) << resp;
  }
  server.shutdown();
}

TEST(NetServerTest, GracefulDrainSettlesInflightDiagnoses) {
  auto env = make_proto_env(400, 2, /*num_samples=*/100);
  NetServerOptions nopts;
  nopts.unix_path = test_unix_path("drain");
  NetServer server(*env->proto, nopts);
  ASSERT_TRUE(server.start());

  const int fd = connect_unix(nopts.unix_path);
  ASSERT_GE(fd, 0);
  LineClient c(fd);
  c.send_all(
      "#a DIAGNOSE D cpu_util\n#b DIAGNOSE C cpu_util\n"
      "#c DIAGNOSE B cpu_util\n");
  // Give the loop thread time to frame and dispatch all three, then drain:
  // stop accepting, settle the in-flight diagnoses, flush, close.
  std::this_thread::sleep_for(std::chrono::milliseconds(300));
  server.shutdown();
  std::vector<std::string> got;
  for (int i = 0; i < 3; ++i) got.push_back(c.read_line());
  for (const std::string& resp : got)
    EXPECT_NE(resp.find(" OK id="), std::string::npos) << resp;
  EXPECT_TRUE(c.at_eof());
}

TEST(NetServerTest, QuitClosesOnlyThatConnection) {
  auto env = make_proto_env(160, 1);
  NetServerOptions nopts;
  nopts.unix_path = test_unix_path("quit");
  NetServer server(*env->proto, nopts);
  ASSERT_TRUE(server.start());

  const int fd1 = connect_unix(nopts.unix_path);
  const int fd2 = connect_unix(nopts.unix_path);
  ASSERT_GE(fd1, 0);
  ASSERT_GE(fd2, 0);
  LineClient c1(fd1), c2(fd2);
  c1.send_all("QUIT\n");
  EXPECT_EQ(c1.read_line(), "OK bye");
  EXPECT_TRUE(c1.at_eof());
  c2.send_all("#x EXTEND\n");
  EXPECT_EQ(c2.read_line().substr(0, 13), "#x OK slices=");
  server.shutdown();
}

TEST(NetServerTest, OversizedLineAnswersAndCloses) {
  auto env = make_proto_env(160, 1);
  NetServerOptions nopts;
  nopts.unix_path = test_unix_path("long");
  nopts.max_line_bytes = 256;
  NetServer server(*env->proto, nopts);
  ASSERT_TRUE(server.start());

  const int fd = connect_unix(nopts.unix_path);
  ASSERT_GE(fd, 0);
  LineClient c(fd);
  c.send_all(std::string(1024, 'A'));  // no newline: framing is lost
  EXPECT_EQ(c.read_line(), "ERR line too long (limit 256 bytes)");
  EXPECT_TRUE(c.at_eof());
  server.shutdown();
}

TEST(NetServerTest, ConnectionCapAnswersServerFull) {
  auto env = make_proto_env(160, 1);
  NetServerOptions nopts;
  nopts.unix_path = test_unix_path("full");
  nopts.max_connections = 1;
  NetServer server(*env->proto, nopts);
  ASSERT_TRUE(server.start());

  const int fd1 = connect_unix(nopts.unix_path);
  ASSERT_GE(fd1, 0);
  LineClient c1(fd1);
  c1.send_all("EXTEND\n");  // ensure conn 1 is registered before conn 2
  EXPECT_EQ(c1.read_line().substr(0, 10), "OK slices=");
  const int fd2 = connect_unix(nopts.unix_path);
  ASSERT_GE(fd2, 0);
  LineClient c2(fd2);
  EXPECT_EQ(c2.read_line(), "ERR server full");
  EXPECT_TRUE(c2.at_eof());
  server.shutdown();
}

TEST(NetServerTest, ManyConnectionsPipelinedSoak) {
  // N connections x pipelined requests through a 2-worker service: every
  // command gets exactly one tagged response, none lost, none duplicated.
  auto env = make_proto_env(200, 2);
  NetServerOptions nopts;
  nopts.unix_path = test_unix_path("soak");
  NetServer server(*env->proto, nopts);
  ASSERT_TRUE(server.start());

  constexpr int kConns = 4;
  constexpr int kReqs = 6;
  std::vector<std::thread> clients;
  std::atomic<int> ok{0};
  for (int ci = 0; ci < kConns; ++ci) {
    clients.emplace_back([&, ci] {
      const int fd = connect_unix(nopts.unix_path);
      ASSERT_GE(fd, 0);
      LineClient c(fd);
      std::string batch;
      for (int r = 0; r < kReqs; ++r)
        batch += "#c" + std::to_string(ci) + "r" + std::to_string(r) +
                 " DIAGNOSE D cpu_util\n";
      c.send_all(batch);
      std::set<std::string> tags;
      for (int r = 0; r < kReqs; ++r) {
        const std::string resp = c.read_line();
        const std::size_t sp = resp.find(' ');
        ASSERT_NE(sp, std::string::npos) << resp;
        tags.insert(resp.substr(0, sp));
        EXPECT_NE(resp.find(" OK id="), std::string::npos) << resp;
        ++ok;
      }
      EXPECT_EQ(tags.size(), static_cast<std::size_t>(kReqs));
    });
  }
  for (auto& t : clients) t.join();
  EXPECT_EQ(ok.load(), kConns * kReqs);
  server.shutdown();
}

}  // namespace
}  // namespace murphy::service
