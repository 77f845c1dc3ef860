// murphy_perfbench — the murphyd benchmark.
//
// One process hosts the murphyd stack exactly as examples/murphyd.cpp wires
// it (TelemetryStream + DiagnosisService + Watchdog behind Protocol and the
// epoll NetServer on a unix-domain socket, num_threads=1 per diagnosis,
// default sampler, 3 workers) and drives it from one load-generator thread
// that polls at most four client connections. Everything reaches the stack
// through the socket line protocol.
//
//   murphy_perfbench --workload hotel_hot|fleet_live|ingest_wire
//                    --seed N --seconds S --trace 0|1 [--git-sha SHA]
//
// Workloads (the seed drives the arrival schedule and the series order; the
// scenarios themselves are fixed so every seed measures the same system):
//   hotel_hot   built-in hotel-reservation interference case, warm just past
//               the ramp, no ingest. Open-loop Poisson DIAGNOSE stream over
//               three overlapping latency symptoms, then a closed-loop
//               capacity phase. The training caches hit; inference dominates.
//   fleet_live  320-service, 3-app generated fleet with a cascade incident.
//               A feed connection sends REPLAY 1 on a fixed slice schedule
//               (watchdog attached, as murphyd --watchdog) while open-loop
//               DIAGNOSE requests rotate over the three client-latency
//               symptoms; every diagnosis sees fresh epochs, so training
//               dominates. Then a closed-loop capacity phase at the final,
//               fixed window.
//   ingest_wire the same fleet; one agent connection sends EXTEND 1 plus
//               one INGEST line per series for the fleet's later slices:
//               first on an open-loop schedule, then closed loop with a
//               bounded window of unacknowledged lines. No DIAGNOSE.
//
// Output: one JSON detail line (provenance, every named metric with its
// unit and sample count, the bases of every ratio), then, as the last line,
// {"correct", "attempted", "failed", "metrics"} with the end-to-end metrics
// (--trace 0) or the per-layer metrics (--trace 1). The traced run attaches
// a metrics registry through MurphyOptions::obs.metrics and times the
// replay hook's calls; the untraced run leaves both off. Exit code 1 when an
// output check fails.
#include <fcntl.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <algorithm>
#include <charconv>
#include <cerrno>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <deque>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "src/common/rng.h"
#include "src/emulation/scenarios.h"
#include "src/emulation/topo_gen.h"
#include "src/obs/metrics.h"
#include "src/service/diagnosis_service.h"
#include "src/service/feed.h"
#include "src/service/net_server.h"
#include "src/service/protocol.h"
#include "src/service/telemetry_stream.h"
#include "src/watchdog/watchdog.h"
#include "stats.h"

using namespace murphy;
using Clock = std::chrono::steady_clock;

namespace {

double seconds_since(Clock::time_point t0, Clock::time_point t) {
  return std::chrono::duration<double>(t - t0).count();
}
double ms_since(Clock::time_point t0) {
  return std::chrono::duration<double, std::milli>(Clock::now() - t0).count();
}

// ---------------------------------------------------------------------------
// Workloads.

struct Workload {
  std::string name;
  bool fleet = false;        // generated fleet (else the hotel case)
  bool watchdog = false;     // murphyd --watchdog wiring
  bool ingest = false;       // ingest_wire: no DIAGNOSE at all
  double open_share = 0.6;   // share of --seconds spent in the open loop
  double latency_limit_ms = 0.0;  // DIAGNOSE deadline
  double diag_rate = 0.0;    // open-loop Poisson DIAGNOSE per second
  std::size_t diag_conns = 3;
  std::size_t cap_window = 0;   // closed loop: requests in flight per conn
  std::size_t replays = 0;      // REPLAY 1 lines over the open loop
  double batch_rate = 0.0;      // ingest open loop: slice batches per second
  std::size_t ingest_window = 0;  // ingest closed loop: unacked lines
};

const std::vector<Workload>& workloads() {
  static const std::vector<Workload> all = [] {
    std::vector<Workload> w(3);
    w[0].name = "hotel_hot";
    w[0].open_share = 0.6;
    w[0].latency_limit_ms = 500;
    w[0].diag_rate = 10;
    w[0].cap_window = 3;
    w[1].name = "fleet_live";
    w[1].fleet = true;
    w[1].watchdog = true;
    w[1].open_share = 0.7;
    w[1].latency_limit_ms = 3000;
    w[1].cap_window = 3;
    w[1].replays = 95;
    w[2].name = "ingest_wire";
    w[2].fleet = true;
    w[2].ingest = true;
    w[2].diag_conns = 0;
    w[2].open_share = 0.5;
    w[2].batch_rate = 25;
    w[2].ingest_window = 8192;
    return w;
  }();
  return all;
}

// Fleet shape: the battle matrix's large-320 level and its first cascade
// case (topology seed 303, case seed of matrix cell (2, 4, 0)).
constexpr std::size_t kFleetServices = 320;
constexpr std::size_t kFleetApps = 3;
constexpr std::uint64_t kFleetTopoSeed = 303;
// Warm split of the fleet: this many slices before the incident onset, so
// the replayed tail carries the onset the watchdog must catch.
constexpr TimeIndex kFleetLeadIn = 50;

struct Symptom {
  std::string entity;
  std::string metric;
  std::size_t hops = 4;
};

struct Scenario {
  telemetry::MonitoringDb db;  // the full generated telemetry
  TimeIndex split = 0;         // warm prefix length
  std::vector<Symptom> symptoms;  // [0] is the labeled symptom
  std::vector<std::string> roots;
};

Scenario make_scenario(const Workload& w) {
  Scenario s;
  emulation::DiagnosisCase c;
  if (w.fleet) {
    emulation::TopoGenOptions to;
    to.services = kFleetServices;
    to.applications = kFleetApps;
    to.seed = kFleetTopoSeed;
    const emulation::GeneratedTopology topo = emulation::generate_topology(to);
    emulation::TopologyCaseOptions co;
    co.fault = emulation::IncidentKind::kCascade;
    co.seed = mix_seed(mix_seed(1, 2 * 131 + 4), 0);
    c = emulation::make_topology_case(topo, co);
    s.split = c.incident_start - kFleetLeadIn;
    s.symptoms.push_back({c.db.entity(c.symptom_entity).name,
                          c.symptom_metric, c.max_hops});
    for (std::size_t a = 0; a < kFleetApps; ++a) {
      const std::string client = "client-app" + std::to_string(a);
      if (client != s.symptoms[0].entity &&
          c.db.find_entity(client).valid())
        s.symptoms.push_back({client, c.symptom_metric, c.max_hops});
    }
  } else {
    emulation::InterferenceOptions io;
    c = emulation::make_interference_case(io);
    s.split = c.incident_start + 20;
    s.symptoms.push_back({c.db.entity(c.symptom_entity).name,
                          c.symptom_metric, c.max_hops});
    for (const char* other : {"client-A", "frontend"})
      s.symptoms.push_back({other, c.symptom_metric, c.max_hops});
  }
  for (EntityId r : c.all_roots) s.roots.push_back(c.db.entity(r).name);
  s.db = std::move(c.db);
  return s;
}

// ---------------------------------------------------------------------------
// The stack under test, wired as examples/murphyd.cpp wires it.

struct ReplayTimers {
  double replay_ms = 0.0;
  double scan_ms = 0.0;
  double maintain_ms = 0.0;
  std::uint64_t cells = 0;
  std::uint64_t calls = 0;
};

service::DiagnosisServiceOptions service_options(obs::MetricsRegistry* reg) {
  service::DiagnosisServiceOptions o;
  o.num_workers = 3;
  o.max_queue = 64;            // murphyd's default --queue
  o.murphy.num_threads = 1;    // concurrency comes from the worker pool
  o.murphy.obs.metrics = reg;  // null in the untraced run
  return o;
}

// The front end listens on a unix-domain socket in the working directory
// (murphyd --unix): no TCP Nagle/delayed-ACK timing in the figures.
service::NetServerOptions net_options(std::string unix_path = {}) {
  service::NetServerOptions o;
  o.unix_path = std::move(unix_path);
  o.max_inflight_per_conn = 32;
  o.max_connections = 64;
  return o;
}

class Stack {
 public:
  Stack(Scenario sc, const Workload& w, obs::MetricsRegistry* reg,
        const std::string& unix_path)
      : sc_(std::move(sc)),
        feed_(service::make_replay_feed(sc_.db, sc_.split)),
        stream_(std::move(feed_.warm)),
        svc_(stream_, service_options(reg)),
        timed_(reg != nullptr),
        proto_(stream_, svc_, hooks(reg)),
        net_(proto_, net_options(unix_path)) {
    if (w.watchdog) {
      wd_ = std::make_unique<watchdog::Watchdog>(
          stream_, svc_, watchdog::WatchdogOptions{}, reg);
      wd_->attach();
    }
  }
  Stack(const Stack&) = delete;
  Stack& operator=(const Stack&) = delete;
  ~Stack() {
    // murphyd's drain order: sockets, then the watchdog lifecycle, then
    // the service.
    net_.shutdown();
    if (wd_) {
      std::lock_guard<std::mutex> lock(replay_mu_);
      wd_->drain();
      wd_->detach();
    }
    svc_.stop();
  }

  bool start(std::string* err) { return net_.start(err); }

  const Scenario& scenario() const { return sc_; }
  const service::ReplayFeed& feed() const { return feed_; }
  service::TelemetryStream& stream() { return stream_; }
  std::size_t feed_left() const { return feed_.batches.size() - replayed_; }
  ReplayTimers timers() {
    std::lock_guard<std::mutex> lock(replay_mu_);
    return timers_;
  }

  // murphyd's replay_n: replay, one watchdog scan per slice, maintain().
  std::size_t replay_n(std::size_t n) {
    std::lock_guard<std::mutex> lock(replay_mu_);
    std::size_t cells = 0;
    while (n-- > 0 && replayed_ < feed_.batches.size()) {
      auto t = timed_ ? Clock::now() : Clock::time_point{};
      const std::size_t c = service::replay_slice(stream_, feed_, replayed_);
      cells += c;
      ++replayed_;
      if (timed_) {
        timers_.replay_ms += ms_since(t);
        timers_.cells += c;
        t = Clock::now();
      }
      if (wd_) wd_->scan();
      if (timed_) timers_.scan_ms += ms_since(t);
    }
    const auto t = timed_ ? Clock::now() : Clock::time_point{};
    svc_.maintain();
    if (timed_) {
      timers_.maintain_ms += ms_since(t);
      ++timers_.calls;
    }
    return cells;
  }

 private:
  service::ProtocolHooks hooks(obs::MetricsRegistry* reg) {
    service::ProtocolHooks h;
    h.replay_n = [this](std::size_t n) { return replay_n(n); };
    h.replayed = [this] {
      std::lock_guard<std::mutex> lock(replay_mu_);
      return replayed_;
    };
    h.incidents_json = [this] {
      std::lock_guard<std::mutex> lock(replay_mu_);
      return wd_ ? watchdog::to_json(wd_->incidents()) : std::string("[]");
    };
    h.metrics = reg;
    return h;
  }

  Scenario sc_;
  service::ReplayFeed feed_;
  service::TelemetryStream stream_;
  service::DiagnosisService svc_;
  bool timed_;
  std::mutex replay_mu_;
  std::size_t replayed_ = 0;     // guarded by replay_mu_
  ReplayTimers timers_;          // guarded by replay_mu_
  std::unique_ptr<watchdog::Watchdog> wd_;
  service::Protocol proto_;
  service::NetServer net_;
};

// ---------------------------------------------------------------------------
// The load generator's side of the wire: non-blocking unix-socket
// connections, one poll loop, newline framing.

class Wire {
 public:
  Wire(const std::string& unix_path, std::size_t n) {
    for (std::size_t i = 0; i < n; ++i) {
      Conn c;
      c.fd = ::socket(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0);
      sockaddr_un addr{};
      addr.sun_family = AF_UNIX;
      std::memcpy(addr.sun_path, unix_path.c_str(),
                  std::min(unix_path.size() + 1, sizeof addr.sun_path - 1));
      if (c.fd < 0 || ::connect(c.fd, reinterpret_cast<sockaddr*>(&addr),
                                sizeof addr) != 0) {
        ok_ = false;
      } else {
        ::fcntl(c.fd, F_SETFL, ::fcntl(c.fd, F_GETFL) | O_NONBLOCK);
      }
      conns_.push_back(std::move(c));
    }
  }
  ~Wire() {
    for (Conn& c : conns_)
      if (c.fd >= 0) ::close(c.fd);
  }
  Wire(const Wire&) = delete;
  Wire& operator=(const Wire&) = delete;

  [[nodiscard]] bool ok() const { return ok_; }
  [[nodiscard]] std::size_t size() const { return conns_.size(); }

  // Appends "#tag line\n" to `out`.
  static void frame(std::string& out, std::uint64_t tag,
                    std::string_view line) {
    out += '#';
    out += std::to_string(tag);
    out += ' ';
    out += line;
    out += '\n';
  }
  // Queues one tagged line on connection c.
  void queue(std::size_t c, std::uint64_t tag, std::string_view line) {
    frame(conns_[c].out, tag, line);
  }
  // Queues already framed text on connection c.
  void queue_raw(std::size_t c, std::string_view text) {
    conns_[c].out += text;
  }

  // Writes what the sockets take, waits up to timeout_us for input and
  // hands every complete response line to on_line(conn, line, now).
  template <class F>
  void pump(long timeout_us, F&& on_line) {
    flush();
    std::vector<pollfd> pfds(conns_.size());
    for (std::size_t i = 0; i < conns_.size(); ++i) {
      const Conn& c = conns_[i];
      pfds[i].fd = c.closed ? -1 : c.fd;
      pfds[i].events = static_cast<short>(
          POLLIN | (c.out.size() > c.out_off ? POLLOUT : 0));
    }
    timespec ts{};
    ts.tv_sec = timeout_us / 1000000;
    ts.tv_nsec = (timeout_us % 1000000) * 1000;
    if (::ppoll(pfds.data(), pfds.size(), &ts, nullptr) <= 0) return;
    const Clock::time_point now = Clock::now();
    char buf[65536];
    for (std::size_t i = 0; i < conns_.size(); ++i) {
      Conn& c = conns_[i];
      if (c.closed || !(pfds[i].revents & (POLLIN | POLLHUP | POLLERR)))
        continue;
      for (;;) {
        const ssize_t r = ::recv(c.fd, buf, sizeof buf, 0);
        if (r > 0) {
          c.in.append(buf, static_cast<std::size_t>(r));
          if (static_cast<std::size_t>(r) < sizeof buf) break;
          continue;
        }
        if (r == 0 || (errno != EAGAIN && errno != EWOULDBLOCK &&
                       errno != EINTR))
          c.closed = true;
        break;
      }
      std::size_t start = 0;
      for (;;) {
        const std::size_t nl = c.in.find('\n', start);
        if (nl == std::string::npos) break;
        on_line(i, std::string_view(c.in).substr(start, nl - start), now);
        start = nl + 1;
      }
      c.in.erase(0, start);
    }
    flush();
  }

 private:
  struct Conn {
    int fd = -1;
    std::string out;
    std::size_t out_off = 0;
    std::string in;
    bool closed = false;
  };

  void flush() {
    for (Conn& c : conns_) {
      while (!c.closed && c.out_off < c.out.size()) {
        const ssize_t w = ::send(c.fd, c.out.data() + c.out_off,
                                 c.out.size() - c.out_off, MSG_NOSIGNAL);
        if (w > 0) {
          c.out_off += static_cast<std::size_t>(w);
        } else {
          if (w < 0 && errno != EAGAIN && errno != EWOULDBLOCK &&
              errno != EINTR)
            c.closed = true;
          break;
        }
      }
      if (c.out_off == c.out.size()) {
        c.out.clear();
        c.out_off = 0;
      } else if (c.out_off > (1u << 20)) {
        c.out.erase(0, c.out_off);
        c.out_off = 0;
      }
    }
  }

  std::vector<Conn> conns_;
  bool ok_ = true;
};

// ---------------------------------------------------------------------------
// Accounting: every request line gets exactly one response, by tag.

enum class Kind : std::uint8_t { kDiagnose, kReplay };

struct Sent {
  double due = 0.0;  // seconds from the run's time origin
  Kind kind = Kind::kDiagnose;
  std::uint32_t aux = 0;  // symptom index (DIAGNOSE)
  std::uint8_t responses = 0;
};

struct Ledger {
  // Tags index `sent`, except on ordered (ingest) connections, which only
  // carry immediate verbs: their responses must come back in send order,
  // so a counter replaces the per-line record.
  std::vector<Sent> sent;
  std::uint64_t attempted = 0;
  std::uint64_t ok = 0;
  std::uint64_t failed = 0;        // ERR, rejection, deadline, no response
  std::uint64_t duplicates = 0;
  std::uint64_t unknown_tags = 0;
  std::uint64_t order_breaks = 0;  // ordered connection out of sequence
  std::uint64_t wrong_replies = 0;
  std::map<std::string, std::uint64_t> err_kinds;
  // (symptom, db version) -> top-5 of the first response seen.
  std::map<std::pair<std::uint32_t, std::uint64_t>, std::string> top5;
  std::uint64_t top5_mismatches = 0;

  std::uint64_t add(double due, Kind kind, std::uint32_t aux) {
    sent.push_back({due, kind, aux, 0});
    ++attempted;
    return sent.size() - 1;
  }
  void note_err(std::string_view body) {
    ++failed;
    std::string key(body.substr(0, body.find(" (")));
    ++err_kinds[key];
  }
  [[nodiscard]] std::uint64_t outstanding() const {
    return attempted - ok - failed;
  }
};

struct Origin {
  Clock::time_point t0 = Clock::now();
  [[nodiscard]] double at(Clock::time_point t) const {
    return seconds_since(t0, t);
  }
};

std::string diagnose_line(const Symptom& s, double limit_ms) {
  return "DIAGNOSE " + s.entity + " " + s.metric + " " +
         std::to_string(s.hops) + " " +
         std::to_string(static_cast<long>(limit_ms));
}

// Phase results.
struct DiagPhase {
  std::vector<double> latency_ms;  // DIAGNOSE, from due time
  std::vector<double> replay_ms;   // REPLAY 1, from due time
  std::vector<double> lag_ms;      // how late each line went out
  perfbench::RateBins bins;        // closed loop: completions per second
  double seconds = 0.0;
  std::uint64_t labeled_ok = 0;      // labeled-symptom OK replies counted
  std::uint64_t labeled_root_top3 = 0;
};

// Sending and response booking for DIAGNOSE and REPLAY lines.
class DiagClient {
 public:
  DiagClient(Wire& wire, Ledger& ledger, const Origin& origin,
             const Scenario& sc)
      : wire_(wire), ledger_(ledger), origin_(origin), sc_(sc) {}

  // Sends one line now; it was due at `due`.
  void send(std::size_t conn, double due, Kind kind, std::uint32_t aux,
            std::string_view line, DiagPhase* phase) {
    wire_.queue(conn, ledger_.add(due, kind, aux), line);
    if (phase != nullptr)
      phase->lag_ms.push_back(
          std::max(0.0, (origin_.at(Clock::now()) - due) * 1e3));
  }

  // One poll round; responses are booked into `phase` (may be null).
  // `count_labeled` marks replies whose training window the schedule fixes.
  void pump(long timeout_us, DiagPhase* phase, bool count_labeled,
            double window_end, std::vector<std::size_t>* completed_conns) {
    wire_.pump(timeout_us, [&](std::size_t conn, std::string_view line,
                               Clock::time_point now) {
      const auto tl = perfbench::split_tag(line);
      if (!tl || tl->tag >= ledger_.sent.size()) {
        ++ledger_.unknown_tags;
        return;
      }
      Sent& s = ledger_.sent[tl->tag];
      if (++s.responses > 1) {
        ++ledger_.duplicates;
        return;
      }
      const double t = origin_.at(now);
      const double lat_ms = (t - s.due) * 1e3;
      if (tl->body.substr(0, 2) != "OK") {
        ledger_.note_err(tl->body);
      } else {
        ++ledger_.ok;
        if (s.kind == Kind::kDiagnose) book_diagnose(s, tl->body, phase,
                                                     count_labeled);
      }
      if (phase != nullptr) {
        if (s.kind == Kind::kDiagnose) {
          phase->latency_ms.push_back(lat_ms);
          if (t <= window_end) phase->bins.add(t);
        } else if (s.kind == Kind::kReplay) {
          phase->replay_ms.push_back(lat_ms);
        }
      }
      if (completed_conns != nullptr) completed_conns->push_back(conn);
    });
  }

 private:
  void book_diagnose(const Sent& s, std::string_view body, DiagPhase* phase,
                     bool count_labeled) {
    const auto reply = perfbench::parse_diagnose_ok(body);
    if (!reply) {
      ++ledger_.wrong_replies;
      return;
    }
    std::string top;
    for (const std::string& name : reply->top) top += name + " ";
    const auto key = std::make_pair(s.aux, reply->version);
    const auto [it, fresh] = ledger_.top5.emplace(key, top);
    if (!fresh && it->second != top) ++ledger_.top5_mismatches;
    if (count_labeled && s.aux == 0 && phase != nullptr) {
      ++phase->labeled_ok;
      const std::size_t n = std::min<std::size_t>(3, reply->top.size());
      for (std::size_t i = 0; i < n; ++i)
        if (std::find(sc_.roots.begin(), sc_.roots.end(), reply->top[i]) !=
            sc_.roots.end()) {
          ++phase->labeled_root_top3;
          break;
        }
    }
  }

  Wire& wire_;
  Ledger& ledger_;
  const Origin& origin_;
  const Scenario& sc_;
};

// Waits for every outstanding response, up to `grace_s` seconds.
void drain(DiagClient& client, const Ledger& ledger, DiagPhase* phase,
           bool count_labeled, double grace_s) {
  const Clock::time_point until =
      Clock::now() + std::chrono::duration_cast<Clock::duration>(
                         std::chrono::duration<double>(grace_s));
  while (ledger.outstanding() > 0 && Clock::now() < until)
    client.pump(20000, phase, count_labeled, -1.0, nullptr);
}

// Open loop: seeded Poisson DIAGNOSE arrivals rotated over the symptoms and
// round-robin over the diagnose connections, plus (fleet) REPLAY 1 lines on
// the feed connection at a fixed slice schedule.
DiagPhase run_open_loop(DiagClient& client, const Ledger& ledger,
                        const Origin& origin, const Workload& w,
                        const Scenario& sc, std::uint64_t seed,
                        double duration_s) {
  struct Event {
    double due;
    Kind kind;
    std::size_t n;
  };
  std::vector<Event> events;
  const double start = origin.at(Clock::now()) + 0.05;
  // With a feed, one DIAGNOSE rides each slice tick, at a seeded point
  // 15-35% into the tick, after its REPLAY, so every diagnosis trains on
  // fresh epochs and, at about half a tick long, ends before the next
  // REPLAY needs the exclusive lock: its latency does not hinge on the seed
  // through that wait. Without a feed, DIAGNOSE arrivals are a seeded
  // Poisson stream.
  const std::vector<double> diag =
      w.replays > 0
          ? perfbench::tick_schedule(seed, w.replays, duration_s, 0.15, 0.35)
          : perfbench::poisson_schedule(seed, w.diag_rate, duration_s);
  for (std::size_t i = 0; i < diag.size(); ++i)
    events.push_back({start + diag[i], Kind::kDiagnose, i + seed});
  for (double d :
       perfbench::tick_schedule(seed, w.replays, duration_s, 0.05, 0.05))
    events.push_back({start + d, Kind::kReplay, 0});
  std::stable_sort(events.begin(), events.end(),
                   [](const Event& a, const Event& b) {
                     return a.due < b.due;
                   });

  DiagPhase phase;
  std::size_t next = 0;
  while (next < events.size()) {
    const double now = origin.at(Clock::now());
    while (next < events.size() && events[next].due <= now) {
      const Event& e = events[next++];
      if (e.kind == Kind::kDiagnose) {
        const std::size_t k = e.n % sc.symptoms.size();
        client.send(next % w.diag_conns, e.due, Kind::kDiagnose,
                    static_cast<std::uint32_t>(k),
                    diagnose_line(sc.symptoms[k], w.latency_limit_ms), &phase);
      } else {
        client.send(w.diag_conns, e.due, Kind::kReplay, 0, "REPLAY 1",
                    &phase);
      }
    }
    const double wait_s =
        next < events.size() ? events[next].due - origin.at(Clock::now()) : 0;
    client.pump(std::clamp<long>(static_cast<long>(wait_s * 1e6), 0, 20000),
                &phase, /*count_labeled=*/w.replays == 0, 1e300, nullptr);
  }
  drain(client, ledger, &phase, w.replays == 0,
        w.latency_limit_ms / 1e3 + 10.0);
  phase.seconds = duration_s;
  return phase;
}

// Closed loop: every diagnose connection keeps `cap_window` DIAGNOSE lines
// in flight for duration_s; completions inside the window count.
DiagPhase run_capacity(DiagClient& client, const Ledger& ledger,
                       const Origin& origin, const Workload& w,
                       const Scenario& sc, double duration_s) {
  DiagPhase phase;
  std::size_t issued = 0;
  auto issue = [&](std::size_t conn) {
    const std::size_t k = issued++ % sc.symptoms.size();
    client.send(conn, origin.at(Clock::now()), Kind::kDiagnose,
                static_cast<std::uint32_t>(k),
                diagnose_line(sc.symptoms[k], w.latency_limit_ms), nullptr);
  };
  const double start = origin.at(Clock::now());
  const double end = start + duration_s;
  phase.bins = perfbench::RateBins(start, duration_s, 1.0);
  for (std::size_t c = 0; c < w.diag_conns; ++c)
    for (std::size_t i = 0; i < w.cap_window; ++i) issue(c);
  std::vector<std::size_t> done;
  while (origin.at(Clock::now()) < end) {
    done.clear();
    client.pump(20000, &phase, /*count_labeled=*/true, end, &done);
    for (std::size_t conn : done)
      if (origin.at(Clock::now()) < end) issue(conn);
  }
  drain(client, ledger, &phase, true, w.latency_limit_ms / 1e3 + 10.0);
  phase.seconds = duration_s;
  return phase;
}

// ---------------------------------------------------------------------------
// Ingest: EXTEND 1 + one INGEST line per series of a feed slice.

struct IngestPlan {
  // Per feed batch: the INGEST line prefixes ("INGEST <entity> <metric> ")
  // and the values, in the seeded series order.
  std::vector<std::vector<std::string>> prefix;
  std::vector<std::vector<double>> value;
  std::vector<std::vector<std::pair<EntityId, MetricKindId>>> series;
  TimeIndex first_slice = 0;  // axis index the first batch lands on
};

IngestPlan make_ingest_plan(const Stack& stack, std::uint64_t seed) {
  IngestPlan plan;
  const service::ReplayFeed& feed = stack.feed();
  const telemetry::MonitoringDb& db = stack.scenario().db;
  plan.first_slice = feed.split;
  perfbench::SplitMix rng(mix_seed(seed, 0x1E57));
  for (const auto& batch : feed.batches) {
    std::vector<std::size_t> order(batch.size());
    for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
    for (std::size_t i = order.size(); i > 1; --i)
      std::swap(order[i - 1], order[rng.next() % i]);
    auto& pre = plan.prefix.emplace_back();
    auto& val = plan.value.emplace_back();
    auto& ser = plan.series.emplace_back();
    for (std::size_t i : order) {
      const service::TelemetryCell& cell = batch[i];
      pre.push_back("INGEST " + db.entity(cell.entity).name + " " +
                    std::string(db.catalog().name(cell.kind)) + " ");
      val.push_back(cell.value);
      ser.emplace_back(cell.entity, cell.kind);
    }
  }
  return plan;
}

// The value is written in its shortest round-trip form, so the cell the
// server parses is bit-identical to the one the plan holds.
std::string ingest_line(const IngestPlan& plan, std::size_t b, std::size_t i,
                        TimeIndex t) {
  char num[64];
  char* end = std::to_chars(num, num + sizeof num,
                            static_cast<std::size_t>(t)).ptr;
  *end++ = ' ';
  end = std::to_chars(end, num + sizeof num, plan.value[b][i]).ptr;
  return std::string(plan.prefix[b][i]).append(num, end);
}

struct IngestPhase {
  std::vector<double> batch_ms;  // due -> last ack of the batch
  std::vector<double> lag_ms;
  std::uint64_t lines_in_window = 0;
  perfbench::RateBins bins;  // closed loop: cells acknowledged per second
  double seconds = 0.0;
};

// The agent connection: every line is an immediate verb, so responses come
// back in send order and are checked by sequence. The next batch's text is
// formatted ahead of its due time, so sending it is one buffer append.
class IngestClient {
 public:
  // `first_batch` is the number of plan batches the stack already holds.
  IngestClient(Wire& wire, Ledger& ledger, const Origin& origin,
               const IngestPlan& plan, std::size_t first_batch = 0)
      : wire_(wire),
        ledger_(ledger),
        origin_(origin),
        plan_(plan),
        next_batch_(first_batch) {
    prepare();
  }

  // Sends the next slice batch (EXTEND 1 + its INGEST lines).
  void send_batch(double due, IngestPhase* phase) {
    if (phase != nullptr)
      phase->lag_ms.push_back(
          std::max(0.0, (origin_.at(Clock::now()) - due) * 1e3));
    wire_.queue_raw(0, ready_);
    ready_batch_.due = due;
    in_flight_.push_back(ready_batch_);
    ledger_.attempted += ready_batch_.lines;
    prepare();
  }

  void pump(long timeout_us, IngestPhase* phase, double window_end) {
    wire_.pump(timeout_us, [&](std::size_t, std::string_view line,
                               Clock::time_point now) {
      const auto tl = perfbench::split_tag(line);
      if (!tl || in_flight_.empty()) {
        ++ledger_.unknown_tags;
        return;
      }
      const Batch& b = in_flight_.front();
      if (tl->tag != next_reply_) {
        ++ledger_.order_breaks;
        return;
      }
      ++next_reply_;
      const double t = origin_.at(now);
      const bool extend = tl->tag == b.first_tag;
      const bool good =
          extend ? tl->body == "OK slices=" + std::to_string(b.slices)
                 : tl->body == "OK";
      if (good) {
        ++ledger_.ok;
      } else if (tl->body.substr(0, 2) == "OK") {
        ++ledger_.ok;
        ++ledger_.wrong_replies;
      } else {
        ledger_.note_err(tl->body);
      }
      if (phase != nullptr && t <= window_end) {
        ++phase->lines_in_window;
        if (good && !extend) phase->bins.add(t);
      }
      if (tl->tag == b.first_tag + b.lines - 1) {
        if (phase != nullptr) phase->batch_ms.push_back((t - b.due) * 1e3);
        in_flight_.pop_front();
      }
    });
  }

  // Lines sent and not yet answered (the prepared batch is not sent).
  [[nodiscard]] std::uint64_t unacked() const {
    return ready_batch_.first_tag - next_reply_;
  }
  // Index one past the last batch sent.
  [[nodiscard]] std::size_t batches_sent() const { return next_batch_ - 1; }

 private:
  struct Batch {
    std::uint64_t first_tag = 0;
    std::uint64_t lines = 0;
    std::uint64_t slices = 0;  // axis length EXTEND must report
    double due = 0.0;
  };

  // Formats batch number next_batch_ into ready_.
  void prepare() {
    const std::size_t b = next_batch_ % plan_.prefix.size();
    const TimeIndex t = plan_.first_slice + next_batch_;
    ++next_batch_;
    ready_batch_ = {next_tag_, plan_.prefix[b].size() + 1, t + 1, 0.0};
    ready_.clear();
    Wire::frame(ready_, next_tag_++, "EXTEND 1");
    for (std::size_t i = 0; i < plan_.prefix[b].size(); ++i)
      Wire::frame(ready_, next_tag_++, ingest_line(plan_, b, i, t));
  }

  Wire& wire_;
  Ledger& ledger_;
  const Origin& origin_;
  const IngestPlan& plan_;
  std::uint64_t next_tag_ = 0;    // first tag of the next prepared line
  std::uint64_t next_reply_ = 0;  // tag the next response must carry
  std::size_t next_batch_;        // index of the next batch to prepare
  std::string ready_;
  Batch ready_batch_;
  std::deque<Batch> in_flight_;
};

IngestPhase run_ingest_open(IngestClient& client, const Origin& origin,
                            const Workload& w, std::uint64_t seed,
                            double duration_s) {
  IngestPhase phase;
  const double start = origin.at(Clock::now()) + 0.05;
  const std::vector<double> due =
      perfbench::poisson_schedule(seed, w.batch_rate, duration_s);
  std::size_t next = 0;
  while (next < due.size()) {
    const double now = origin.at(Clock::now());
    while (next < due.size() && start + due[next] <= now)
      client.send_batch(start + due[next++], &phase);
    const double wait_s =
        next < due.size() ? start + due[next] - origin.at(Clock::now()) : 0;
    client.pump(std::clamp<long>(static_cast<long>(wait_s * 1e6), 0, 20000),
                &phase, 1e300);
  }
  const Clock::time_point until = Clock::now() + std::chrono::seconds(30);
  while (client.unacked() > 0 && Clock::now() < until)
    client.pump(20000, &phase, 1e300);
  phase.seconds = duration_s;
  return phase;
}

IngestPhase run_ingest_closed(IngestClient& client, const Origin& origin,
                              const Workload& w, double duration_s) {
  IngestPhase phase;
  const double start = origin.at(Clock::now());
  const double end = start + duration_s;
  phase.bins = perfbench::RateBins(start, duration_s, 1.0);
  while (origin.at(Clock::now()) < end) {
    while (client.unacked() < w.ingest_window)
      client.send_batch(origin.at(Clock::now()), nullptr);
    client.pump(20000, &phase, end);
  }
  const Clock::time_point until = Clock::now() + std::chrono::seconds(30);
  while (client.unacked() > 0 && Clock::now() < until)
    client.pump(20000, nullptr, end);
  phase.seconds = duration_s;
  return phase;
}

// Reads back every cell of the last `batches` slice batches sent and
// counts the ones whose stored value differs from what went on the wire.
std::uint64_t ingest_mismatches(Stack& stack, const IngestPlan& plan,
                                std::size_t sent, std::size_t batches) {
  std::uint64_t bad = 0;
  const auto db = stack.stream().read();
  for (std::size_t j = sent > batches ? sent - batches : 0; j < sent; ++j) {
    const std::size_t b = j % plan.prefix.size();
    const TimeIndex t = plan.first_slice + j;
    for (std::size_t i = 0; i < plan.series[b].size(); ++i) {
      const auto [e, k] = plan.series[b][i];
      const telemetry::TimeSeries* ts = db->metrics().find(e, k);
      const double want = plan.value[b][i];
      if (ts == nullptr || t >= ts->size()) {
        ++bad;
        continue;
      }
      if (ts->value(t) != want) ++bad;
    }
  }
  return bad;
}

// ---------------------------------------------------------------------------
// Registry views for the per-layer split.

struct Hist {
  double sum = 0.0;
  std::uint64_t count = 0;
  std::vector<double> bounds;
  std::vector<std::uint64_t> buckets;
};

struct RegSnap {
  std::map<std::string, double> counters;
  std::map<std::string, Hist> hists;

  static RegSnap take(const obs::MetricsRegistry* reg) {
    RegSnap s;
    if (reg == nullptr) return s;
    for (const auto& e : reg->snapshot().entries) {
      if (e.kind == "histogram") {
        s.hists[e.name] = {e.sum, static_cast<std::uint64_t>(e.value),
                           e.bounds, e.bucket_counts};
      } else {
        s.counters[e.name] = e.value;
      }
    }
    return s;
  }
  [[nodiscard]] double counter(const std::string& n) const {
    const auto it = counters.find(n);
    return it == counters.end() ? 0.0 : it->second;
  }
  [[nodiscard]] Hist hist(const std::string& n) const {
    const auto it = hists.find(n);
    return it == hists.end() ? Hist{} : it->second;
  }
  // this - earlier, counters and histograms alike.
  [[nodiscard]] RegSnap since(const RegSnap& earlier) const {
    RegSnap d = *this;
    for (auto& [n, v] : d.counters) v -= earlier.counter(n);
    for (auto& [n, h] : d.hists) {
      const Hist e = earlier.hist(n);
      h.sum -= e.sum;
      h.count -= e.count;
      for (std::size_t i = 0; i < h.buckets.size() && i < e.buckets.size();
           ++i)
        h.buckets[i] -= e.buckets[i];
    }
    return d;
  }
};

// ---------------------------------------------------------------------------
// JSON output.

class Json {
 public:
  Json& num(const std::string& key, double v) {
    char buf[64];
    if (std::isfinite(v))
      std::snprintf(buf, sizeof buf, "%.17g", v);
    else
      std::snprintf(buf, sizeof buf, "null");
    return raw(key, buf);
  }
  Json& str(const std::string& key, const std::string& v) {
    std::string q = "\"";
    for (char c : v) {
      if (c == '"' || c == '\\') q += '\\';
      if (static_cast<unsigned char>(c) >= 0x20) q += c;
    }
    return raw(key, q + "\"");
  }
  Json& boolean(const std::string& key, bool v) {
    return raw(key, v ? "true" : "false");
  }
  Json& raw(const std::string& key, const std::string& v) {
    body_ += body_.empty() ? "{" : ",";
    body_ += "\"" + key + "\":" + v;
    return *this;
  }
  // {"value": v, "unit": u} plus optional extras (sample counts, bases).
  Json& metric(const std::string& key, double v, const std::string& unit,
               const std::string& extra = "") {
    Json m;
    m.num("value", v).str("unit", unit);
    std::string s = m.done();
    if (!extra.empty()) s.insert(s.size() - 1, "," + extra);
    return raw(key, s);
  }
  [[nodiscard]] std::string done() const {
    return body_.empty() ? "{}" : body_ + "}";
  }

 private:
  std::string body_;
};

std::string counts_json(const perfbench::RateBins& bins) {
  std::string out = "[";
  for (std::uint64_t c : bins.counts())
    out += (out.size() > 1 ? "," : "") + std::to_string(c);
  return out + "]";
}

// Peak resident set of this process image. getrusage's ru_maxrss would
// carry over the peak of whatever exec'ed us; VmHWM starts fresh at exec.
double peak_rss_mb() {
  std::FILE* f = std::fopen("/proc/self/status", "r");
  if (f == nullptr) return 0.0;
  char line[256];
  double kib = 0.0;
  while (std::fgets(line, sizeof line, f) != nullptr)
    if (std::sscanf(line, "VmHWM: %lf kB", &kib) == 1) break;
  std::fclose(f);
  return kib / 1024.0;
}

template <class T>
std::string inference_mode(const T& murphy_opts) {
  if constexpr (requires { murphy_opts.fast_inference; })
    return murphy_opts.fast_inference ? "fast" : "scalar";
  else
    return "default";
}

// ---------------------------------------------------------------------------

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 20.0;
  bool trace = false;
  std::string git_sha = "unknown";
};

std::optional<Args> parse_args(int argc, char** argv) {
  Args a;
  bool have_workload = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string v = argv[i + 1];
    if (flag == "--workload") {
      a.workload = v;
      have_workload = true;
    } else if (flag == "--seed") {
      const auto n = service::parse_count(v);
      if (!n) return std::nullopt;
      a.seed = *n;
    } else if (flag == "--seconds") {
      const auto d = service::parse_double(v);
      if (!d || *d <= 0.0 || *d > 600.0) return std::nullopt;
      a.seconds = *d;
    } else if (flag == "--trace") {
      if (v != "0" && v != "1") return std::nullopt;
      a.trace = v == "1";
    } else if (flag == "--git-sha") {
      a.git_sha = v;
    } else {
      return std::nullopt;
    }
  }
  if (argc % 2 != 1 || !have_workload) return std::nullopt;
  return a;
}

// Builds the scenario and the stack, connects the generator and waits for
// the first response: one set-up, timed.
struct Live {
  std::unique_ptr<Stack> stack;
  std::unique_ptr<Wire> wire;
  double setup_s = 0.0;
};

std::optional<Live> set_up(const Workload& w, obs::MetricsRegistry* reg) {
  const Clock::time_point t0 = Clock::now();
  static std::size_t stacks = 0;
  const std::string path = "perfbench-" + std::to_string(::getpid()) + "-" +
                           std::to_string(stacks++) + ".sock";
  Live live;
  live.stack = std::make_unique<Stack>(make_scenario(w), w, reg, path);
  std::string err;
  if (!live.stack->start(&err)) {
    std::fprintf(stderr, "perfbench: net server failed: %s\n", err.c_str());
    return std::nullopt;
  }
  const std::size_t conns = w.ingest ? 1 : w.diag_conns + (w.replays ? 1 : 0);
  live.wire = std::make_unique<Wire>(path, conns);
  if (!live.wire->ok()) return std::nullopt;
  bool answered = false;
  live.wire->queue(0, 0, "INCIDENTS");
  const Clock::time_point until = Clock::now() + std::chrono::seconds(30);
  while (!answered && Clock::now() < until)
    live.wire->pump(20000, [&](std::size_t, std::string_view line,
                               Clock::time_point) {
      answered = line.substr(0, 6) == "#0 OK ";
    });
  if (!answered) return std::nullopt;
  live.setup_s = seconds_since(t0, Clock::now());
  return live;
}

// Everything one pass of a workload over a live stack measured.
struct Outcome {
  Ledger ledger;
  DiagPhase open, cap;
  IngestPhase iopen, iclosed;
  RegSnap reg_open, glob_open;  // registry deltas over the open loop
  ReplayTimers timers;
  double capacity = 0.0;        // closed loop: DIAGNOSE/s or INGEST cells/s
  std::uint64_t labeled_ok = 0;
  double root_top3 = 0.0;
  std::vector<std::string> problems;  // failed output checks
};

// Runs the workload's open loop, then its closed loop, and checks the
// outputs. With a registry (the traced run) it also takes the registry
// deltas over the open loop.
Outcome run_workload(Live& live, const Workload& w, std::uint64_t seed,
                     double open_s, double closed_s,
                     obs::MetricsRegistry* traced) {
  Stack& stack = *live.stack;
  const Scenario& sc = stack.scenario();
  Outcome o;
  Ledger& ledger = o.ledger;
  Origin origin;
  auto problem = [&](const std::string& p) { o.problems.push_back(p); };
  const RegSnap reg0 = RegSnap::take(traced);
  const RegSnap glob0 = RegSnap::take(&obs::global_metrics());

  if (w.ingest) {
    const IngestPlan plan = make_ingest_plan(stack, seed);
    IngestClient client(*live.wire, ledger, origin, plan);
    o.iopen = run_ingest_open(client, origin, w, seed, open_s);
    o.iclosed = run_ingest_closed(client, origin, w, closed_s);
    const std::uint64_t bad =
        ingest_mismatches(stack, plan, client.batches_sent(), 8);
    if (bad > 0)
      problem(std::to_string(bad) + " ingested cells read back wrong");
    if (client.unacked() > 0)
      problem(std::to_string(client.unacked()) + " ingest lines unanswered");
  } else {
    DiagClient client(*live.wire, ledger, origin, sc);
    o.open = run_open_loop(client, ledger, origin, w, sc, seed, open_s);
    o.reg_open = RegSnap::take(traced).since(reg0);
    o.glob_open = RegSnap::take(&obs::global_metrics()).since(glob0);
    if (stack.feed_left() + w.replays != stack.feed().batches.size())
      problem("feed not at its scheduled slice after the open loop");
    o.cap = run_capacity(client, ledger, origin, w, sc, closed_s);
    if (ledger.outstanding() > 0)
      problem(std::to_string(ledger.outstanding()) + " responses missing");
  }
  if (ledger.duplicates > 0)
    problem(std::to_string(ledger.duplicates) + " duplicate responses");
  if (ledger.unknown_tags > 0)
    problem(std::to_string(ledger.unknown_tags) + " untagged responses");
  if (ledger.order_breaks > 0)
    problem(std::to_string(ledger.order_breaks) + " out-of-order replies");
  if (ledger.wrong_replies > 0)
    problem(std::to_string(ledger.wrong_replies) + " malformed OK replies");
  if (ledger.top5_mismatches > 0)
    problem(std::to_string(ledger.top5_mismatches) +
            " (symptom, window) pairs with differing top-5");

  // Labeled-symptom accuracy over the schedule-fixed windows: every request
  // of hotel_hot, the capacity phase of fleet_live.
  o.labeled_ok = o.open.labeled_ok + o.cap.labeled_ok;
  const std::uint64_t labeled_hit =
      o.open.labeled_root_top3 + o.cap.labeled_root_top3;
  o.root_top3 = perfbench::ratio(static_cast<double>(labeled_hit),
                                 static_cast<double>(o.labeled_ok));
  if (!w.ingest && (o.labeled_ok == 0 || labeled_hit != o.labeled_ok))
    problem("labeled symptom missed its root in the top 3 (" +
            std::to_string(labeled_hit) + "/" + std::to_string(o.labeled_ok) +
            ")");
  o.capacity = w.ingest ? o.iclosed.bins.iqm_rate()
                        : o.cap.bins.iqm_rate();
  o.timers = stack.timers();
  return o;
}

// The lines of `batches` plan batches through Protocol::dispatch, and their
// cells through TelemetryStream::append_cell, in-process and each on a fresh
// copy of the warm db: the wire-free cost of a line and of a cell.
struct InProcess {
  double dispatch_ns_per_line = 0.0;
  double append_ns_per_cell = 0.0;
  std::uint64_t dispatch_lines = 0;
  std::uint64_t append_cells = 0;
  bool all_ok = true;
};

InProcess in_process_passes(const Scenario& sc, const IngestPlan& plan,
                            std::size_t batches) {
  InProcess r;
  const auto fresh_warm = [&] {
    return service::make_replay_feed(sc.db, sc.split).warm;
  };
  {
    service::TelemetryStream stream(fresh_warm());
    service::DiagnosisService svc(stream, service_options(nullptr));
    service::Protocol proto(stream, svc, {});
    std::vector<std::string> lines;
    for (std::size_t j = 0; j < batches; ++j) {
      const std::size_t b = j % plan.prefix.size();
      lines.push_back("EXTEND 1");
      for (std::size_t i = 0; i < plan.prefix[b].size(); ++i)
        lines.push_back(ingest_line(plan, b, i, plan.first_slice + j));
    }
    std::uint64_t oks = 0;
    const auto t = Clock::now();
    for (const std::string& l : lines)
      proto.dispatch(l, [&](std::string reply) { oks += reply[0] == 'O'; },
                     false);
    r.dispatch_ns_per_line = perfbench::ns_per(ms_since(t), lines.size());
    r.dispatch_lines = lines.size();
    r.all_ok = oks == lines.size();
    svc.stop();
  }
  service::TelemetryStream stream(fresh_warm());
  const auto t = Clock::now();
  for (std::size_t j = 0; j < batches; ++j) {
    const std::size_t b = j % plan.prefix.size();
    stream.extend_axis(1);
    for (std::size_t i = 0; i < plan.series[b].size(); ++i) {
      const auto [e, k] = plan.series[b][i];
      stream.append_cell(e, sc.db.catalog().name(k), plan.first_slice + j,
                         plan.value[b][i]);
      ++r.append_cells;
    }
  }
  r.append_ns_per_cell = perfbench::ns_per(ms_since(t), r.append_cells);
  return r;
}

// One closed-loop segment of kOverheadSegmentS on a live stack that has
// run its workload: DIAGNOSE/s or INGEST cells/s. Failed output checks are
// appended to `problems`.
constexpr std::size_t kOverheadRounds = 8;
constexpr double kOverheadSegmentS = 1.0;

double closed_segment(Live& live, const Workload& w, std::uint64_t seed,
                      std::vector<std::string>& problems) {
  Stack& stack = *live.stack;
  Ledger ledger;
  Origin origin;
  double rate = 0.0;
  if (w.ingest) {
    const IngestPlan plan = make_ingest_plan(stack, seed);
    IngestClient client(*live.wire, ledger, origin, plan,
                        stack.stream().slice_count() - plan.first_slice);
    rate = run_ingest_closed(client, origin, w, kOverheadSegmentS)
               .bins.iqm_rate();
  } else {
    DiagClient client(*live.wire, ledger, origin, stack.scenario());
    rate = run_capacity(client, ledger, origin, w, stack.scenario(),
                        kOverheadSegmentS)
               .bins.iqm_rate();
  }
  if (ledger.ok != ledger.attempted || ledger.duplicates > 0 ||
      ledger.unknown_tags > 0 || ledger.order_breaks > 0 ||
      ledger.wrong_replies > 0 || ledger.top5_mismatches > 0)
    problems.push_back("overhead segment: " + std::to_string(ledger.ok) +
                       " of " + std::to_string(ledger.attempted) +
                       " lines answered OK, or a reply check failed");
  return rate;
}

// Set-up repeats come in two batches, one before the workload and one
// after it: the host's speed drifts over a second or so, and batches half a
// minute apart sample more of it than one batch does. Each batch sets up at
// least kMinSetups times, and more for cheap set-ups until its total reaches
// kSetupBudgetS, so the median has enough samples.
constexpr std::size_t kMinSetups = 5;
constexpr std::size_t kMaxSetups = 400;
constexpr double kSetupBudgetS = 0.5;

// One batch of set-ups, times appended to `setups`; returns the last stack,
// or nullopt when a set-up fails.
std::optional<Live> set_up_batch(const Workload& w, obs::MetricsRegistry* reg,
                                 std::vector<double>& setups) {
  std::optional<Live> live;
  double total_s = 0.0;
  for (std::size_t n = 0;
       n < kMinSetups || (total_s < kSetupBudgetS && n < kMaxSetups); ++n) {
    live.reset();
    live = set_up(w, reg);
    if (!live) return std::nullopt;
    setups.push_back(live->setup_s);
    total_s += live->setup_s;
  }
  return live;
}

}  // namespace

int main(int argc, char** argv) {
  const std::optional<Args> parsed = parse_args(argc, argv);
  if (!parsed) {
    std::fprintf(stderr,
                 "usage: murphy_perfbench --workload "
                 "hotel_hot|fleet_live|ingest_wire --seed N --seconds S "
                 "--trace 0|1 [--git-sha SHA]\n");
    return 2;
  }
  const Args args = *parsed;
  const auto wit =
      std::find_if(workloads().begin(), workloads().end(),
                   [&](const Workload& w) { return w.name == args.workload; });
  if (wit == workloads().end()) {
    std::fprintf(stderr, "perfbench: unknown workload %s\n",
                 args.workload.c_str());
    return 2;
  }
  const Workload& w = *wit;
  const double open_s = args.seconds * w.open_share;
  const double closed_s = args.seconds - open_s;

  // The traced run first runs the whole workload untraced on a stack of
  // its own, the baseline trace.overhead_pct compares against.
  std::vector<std::string> problems;
  std::optional<Live> base;
  if (args.trace) {
    base = set_up(w, nullptr);
    if (!base) {
      std::fprintf(stderr, "perfbench: set-up failed\n");
      return 1;
    }
    Outcome b = run_workload(*base, w, args.seed, open_s, closed_s, nullptr);
    problems = std::move(b.problems);
  }

  // Set up repeatedly; the last stack is the one measured.
  obs::MetricsRegistry reg;
  obs::MetricsRegistry* traced = args.trace ? &reg : nullptr;
  std::vector<double> setups;
  std::optional<Live> live = set_up_batch(w, traced, setups);
  if (!live) {
    std::fprintf(stderr, "perfbench: set-up failed\n");
    return 1;
  }
  Stack& stack = *live->stack;
  const Scenario& sc = stack.scenario();
  const Outcome o = run_workload(*live, w, args.seed, open_s, closed_s, traced);
  problems.insert(problems.end(), o.problems.begin(), o.problems.end());

  // trace.overhead_pct: closed-loop segments alternate between the
  // untraced and the traced stack, so drift in the host's speed hits both
  // sides alike; each side reports the median of its segments.
  double untraced_rate = 0.0, traced_rate = 0.0;
  if (args.trace) {
    std::vector<double> plain, with;
    for (std::size_t round = 0; round < kOverheadRounds; ++round) {
      // A B B A ...: a steady drift cancels out of the medians.
      const bool plain_first = round % 2 == 0;
      if (plain_first)
        plain.push_back(closed_segment(*base, w, args.seed, problems));
      with.push_back(closed_segment(*live, w, args.seed, problems));
      if (!plain_first)
        plain.push_back(closed_segment(*base, w, args.seed, problems));
    }
    untraced_rate = perfbench::summarize(plain).p50;
    traced_rate = perfbench::summarize(with).p50;
  }
  InProcess passes;
  if (args.trace && w.ingest) {
    const IngestPlan plan = make_ingest_plan(stack, args.seed);
    passes = in_process_passes(sc, plan, 4 * plan.prefix.size());
    if (!passes.all_ok) problems.push_back("in-process dispatch pass failed");
  }
  // The second batch of set-ups, while the measured stack idles. The peak
  // resident set is the workload's, read before it.
  const double rss = peak_rss_mb();
  if (!set_up_batch(w, traced, setups)) {
    std::fprintf(stderr, "perfbench: set-up failed\n");
    return 1;
  }
  const double setup_s = perfbench::summarize(setups).p50;
  const bool correct = problems.empty();
  const Ledger& ledger = o.ledger;
  Json detail;
  Json out_metrics;

  // --- end-to-end figures ---------------------------------------------------
  const perfbench::Summary lat = perfbench::summarize(
      w.ingest ? o.iopen.batch_ms : o.open.latency_ms);
  const perfbench::Summary replay = perfbench::summarize(o.open.replay_ms);
  const perfbench::Summary lag =
      perfbench::summarize(w.ingest ? o.iopen.lag_ms : o.open.lag_ms);
  const double capacity = o.capacity;
  const double ok_ratio = perfbench::ratio(
      static_cast<double>(ledger.ok), static_cast<double>(ledger.attempted));
  // The generator fell behind when its tail send lag exceeds 10% of the
  // median latency it is measuring (and at least 1 ms).
  const bool behind = lag.tail > std::max(1.0, 0.1 * lat.p50);
  if (behind)
    std::fprintf(stderr, "perfbench: load generator fell behind (lag p%.1f "
                 "= %.2f ms)\n", lag.tail_p * 100, lag.tail);

  // --- provenance -----------------------------------------------------------
  const service::DiagnosisServiceOptions so = service_options(traced);
  const service::NetServerOptions no = net_options();
  Json prov;
  prov.str("workload", w.name)
      .str("seed", std::to_string(args.seed))
      .num("seconds", args.seconds)
      .boolean("trace", args.trace)
      .num("nproc", static_cast<double>(::sysconf(_SC_NPROCESSORS_ONLN)))
      .str("git_sha", args.git_sha)
      .str("build_flags", PERFBENCH_BUILD_FLAGS)
      .num("workers", static_cast<double>(so.num_workers))
      .num("max_queue", static_cast<double>(so.max_queue))
      .num("num_threads", static_cast<double>(so.murphy.num_threads))
      .num("num_samples", static_cast<double>(so.murphy.sampler.num_samples))
      .str("inference_mode", inference_mode(so.murphy))
      .num("engine_seed", static_cast<double>(so.murphy.seed))
      .boolean("metrics_registry", so.murphy.obs.metrics != nullptr)
      .boolean("watchdog", w.watchdog)
      .num("net_max_inflight_per_conn",
           static_cast<double>(no.max_inflight_per_conn))
      .num("connections", static_cast<double>(live->wire->size()))
      .num("latency_limit_ms", w.latency_limit_ms)
      .num("open_loop_s", open_s)
      .num("closed_loop_s", closed_s)
      .num("diagnose_rate_per_s",
           w.replays > 0 ? static_cast<double>(w.replays) / open_s
                         : w.diag_rate)
      .num("capacity_window_per_conn", static_cast<double>(w.cap_window))
      .num("replays", static_cast<double>(w.replays))
      .num("replay_rate_per_s", static_cast<double>(w.replays) / open_s)
      .num("ingest_batch_rate_per_s", w.batch_rate)
      .num("ingest_window_lines", static_cast<double>(w.ingest_window))
      .num("warm_slices", static_cast<double>(sc.split))
      .num("feed_slices", static_cast<double>(stack.feed().batches.size()))
      .num("entities", static_cast<double>(sc.db.entity_count()))
      .num("setups", static_cast<double>(setups.size()));
  detail.raw("provenance", prov.done());

  // Every named end-to-end figure, with unit and sample count. A "tail" is
  // the highest percentile with at least 10 samples beyond it, capped at
  // p99; tail_p says which one it is.
  const auto tail_extra = [](const perfbench::Summary& s) {
    char buf[96];
    std::snprintf(buf, sizeof buf, "\"n\":%zu,\"tail_p\":%.4f", s.n,
                  s.tail_p);
    return std::string(buf);
  };
  Json named;
  named.metric("setup_s", setup_s, "s",
               "\"n\":" + std::to_string(setups.size()));
  if (!w.ingest) {
    named.metric("diagnose_p50_ms", lat.p50, "ms", tail_extra(lat))
        .metric("diagnose_tail_ms", lat.tail, "ms", tail_extra(lat))
        .metric("diagnose_iqm_ms", lat.iqm, "ms", tail_extra(lat))
        .metric("diagnose_capacity_rps", capacity, "1/s",
                "\"completed\":" + std::to_string(o.cap.bins.total()) +
                    ",\"per_window\":" + counts_json(o.cap.bins))
        .metric("root_top3_ratio", o.root_top3, "ratio",
                "\"base\":" + std::to_string(o.labeled_ok));
  }
  if (w.replays > 0)
    named.metric("replay_p50_ms", replay.p50, "ms", tail_extra(replay))
        .metric("replay_tail_ms", replay.tail, "ms", tail_extra(replay));
  if (w.ingest)
    named.metric("ingest_batch_p50_ms", lat.p50, "ms", tail_extra(lat))
        .metric("ingest_batch_tail_ms", lat.tail, "ms", tail_extra(lat))
        .metric("ingest_batch_iqm_ms", lat.iqm, "ms", tail_extra(lat))
        .metric("ingest_cells_per_s", capacity, "1/s",
                "\"cells\":" + std::to_string(o.iclosed.bins.total()) +
                    ",\"per_window\":" + counts_json(o.iclosed.bins));
  named.metric("fail_ratio", 1.0 - ok_ratio, "ratio",
               "\"base\":" + std::to_string(ledger.attempted))
      .metric("peak_rss_mb", rss, "MB");
  detail.raw("named", named.done());
  detail.num("loadgen_lag_tail_ms", lag.tail).boolean("loadgen_behind", behind);
  {
    Json errs;
    for (const auto& [k, v] : ledger.err_kinds)
      errs.num(k, static_cast<double>(v));
    detail.raw("errors", errs.done());
  }
  {
    std::string list = "[";
    for (std::size_t i = 0; i < problems.size(); ++i) {
      Json p;
      p.str("p", problems[i]);
      list += (i ? "," : "") + p.done();
    }
    detail.raw("problems", list + "]");
  }

  if (!args.trace) {
    out_metrics.metric("setup_s", setup_s, "s")
        .metric("request_iqm_ms", lat.iqm, "ms")
        .metric("capacity_per_s", capacity, "1/s")
        .metric("ok_ratio", ok_ratio, "ratio")
        .metric("peak_rss_mb", rss, "MB");
  } else {
    // --- per-layer split (open-loop phase of the traced stack) ------------
    const RegSnap& r = o.reg_open;
    const RegSnap& g = o.glob_open;
    const double diags = r.hist("phase.total_ms").count;
    const auto per_diag = [&](const char* phase) {
      return perfbench::ratio(
          r.hist(std::string("phase.") + phase + "_ms").sum, diags);
    };
    const Hist svc_total = r.hist("service.total_ms");
    const Hist svc_queue = r.hist("service.queue_ms");
    const Hist svc_run = r.hist("service.run_ms");
    const double kernel_cells = r.counter("infer.kernel_cells");
    const double ridge_cells = g.counter("stats.ridge_cells");
    const ReplayTimers& tm = o.timers;
    const double wire_ns_per_line =
        o.iclosed.lines_in_window > 0
            ? o.iclosed.seconds * 1e9 /
                  static_cast<double>(o.iclosed.lines_in_window)
            : 0.0;
    // Mean client latency of the open-loop DIAGNOSE lines minus the mean
    // service.total_ms (admission to response): both sums are exact, where
    // a median read off the service histogram is only as fine as its
    // buckets. On fleet_live the service mean also covers the watchdog's
    // own diagnoses.
    double client_ms_sum = 0.0;
    for (double v : o.open.latency_ms) client_ms_sum += v;
    const double net_overhead =
        w.ingest ? 0.0
                 : perfbench::ratio(client_ms_sum,
                                    static_cast<double>(
                                        o.open.latency_ms.size())) -
                       perfbench::ratio(svc_total.sum,
                                        static_cast<double>(svc_total.count));
    const double overhead_pct =
        traced_rate > 0.0 ? (untraced_rate / traced_rate - 1.0) * 100.0 : 0.0;

    out_metrics
        .metric("net.overhead_mean_ms", net_overhead, "ms")
        .metric("net.ingest_ns_per_line",
                w.ingest ? wire_ns_per_line - passes.dispatch_ns_per_line
                         : 0.0,
                "ns")
        .metric("service.queue_p50_ms",
                perfbench::histogram_quantile(svc_queue.bounds,
                                              svc_queue.buckets, 0.5), "ms")
        .metric("service.queue_p99_ms",
                perfbench::histogram_quantile(svc_queue.bounds,
                                              svc_queue.buckets, 0.99), "ms")
        .metric("service.lock_wait_mean_ms",
                perfbench::lock_wait_mean_ms(svc_run.sum,
                                             r.hist("phase.total_ms").sum,
                                             r.hist("phase.total_ms").count),
                "ms")
        .metric("core.graph_ms", per_diag("graph"), "ms")
        .metric("core.train_ms", per_diag("training"), "ms")
        .metric("core.search_ms", per_diag("search"), "ms")
        .metric("core.infer_ms", per_diag("inference"), "ms")
        .metric("core.explain_ms", per_diag("explain"), "ms")
        .metric("core.kernel_cells_per_diag",
                perfbench::ratio(kernel_cells, diags), "count")
        .metric("core.infer_ns_per_kernel_cell",
                perfbench::ns_per(r.hist("phase.inference_ms").sum,
                                  static_cast<std::uint64_t>(kernel_cells)),
                "ns")
        .metric("stats.ridge_cells_per_diag",
                perfbench::ratio(ridge_cells, diags), "count")
        .metric("stats.train_ns_per_ridge_cell",
                perfbench::ns_per(r.hist("phase.training_ms").sum,
                                  static_cast<std::uint64_t>(ridge_cells)),
                "ns")
        .metric("cache.factor_hit_ratio",
                perfbench::hit_ratio(
                    static_cast<std::uint64_t>(r.counter("cache.factor_hits")),
                    static_cast<std::uint64_t>(
                        r.counter("cache.factor_misses"))),
                "ratio")
        .metric("cache.window_hit_ratio",
                perfbench::hit_ratio(
                    static_cast<std::uint64_t>(g.counter("cache.window_hits")),
                    static_cast<std::uint64_t>(
                        g.counter("cache.window_misses"))),
                "ratio")
        .metric("stream.replay_ns_per_cell",
                perfbench::ns_per(tm.replay_ms, tm.cells), "ns")
        .metric("stream.append_ns_per_cell", passes.append_ns_per_cell, "ns")
        .metric("service.maintain_us",
                perfbench::ratio(tm.maintain_ms * 1e3,
                                 static_cast<double>(tm.calls)),
                "us")
        .metric("replay_p50_ms", replay.p50, "ms")
        .metric("replay_tail_ms", replay.tail, "ms")
        .metric("watchdog.scan_ns_per_cell",
                perfbench::ns_per(tm.scan_ms, tm.cells), "ns")
        .metric("watchdog.triggers", r.counter("watchdog.triggers"), "count")
        .metric("watchdog.incidents_opened",
                r.counter("watchdog.incidents_opened"), "count")
        .metric("request_tail_ms", lat.tail, "ms")
        .metric("loadgen.lag_tail_ms", lag.tail, "ms")
        .metric("trace.overhead_pct", overhead_pct, "%");

    Json bases;
    bases.num("diagnoses", diags)
        .num("infer.kernel_cells", kernel_cells)
        .num("stats.ridge_cells", ridge_cells)
        .num("cache.factor_hits", r.counter("cache.factor_hits"))
        .num("cache.factor_misses", r.counter("cache.factor_misses"))
        .num("cache.window_hits", g.counter("cache.window_hits"))
        .num("cache.window_misses", g.counter("cache.window_misses"))
        .num("service.run_ms_sum", svc_run.sum)
        .num("phase.total_ms_sum", r.hist("phase.total_ms").sum)
        .num("service.queue_n", static_cast<double>(svc_queue.count))
        .num("replayed_cells", static_cast<double>(tm.cells))
        .num("replay_calls", static_cast<double>(tm.calls))
        .num("wire_lines", static_cast<double>(o.iclosed.lines_in_window))
        .num("wire_ns_per_line", wire_ns_per_line)
        .num("dispatch_lines", static_cast<double>(passes.dispatch_lines))
        .num("dispatch_ns_per_line", passes.dispatch_ns_per_line)
        .num("append_cells", static_cast<double>(passes.append_cells))
        .num("untraced_rate_per_s", untraced_rate)
        .num("traced_rate_per_s", traced_rate)
        .num("client_p50_ms", lat.p50);
    detail.raw("bases", bases.done());
  }

  live.reset();  // drain and stop the stack before the verdict
  std::printf("%s\n", detail.done().c_str());
  Json result;
  result.boolean("correct", correct)
      .num("attempted", static_cast<double>(ledger.attempted))
      .num("failed", static_cast<double>(ledger.attempted - ledger.ok))
      .raw("metrics", out_metrics.done());
  std::printf("%s\n", result.done().c_str());
  for (const std::string& p : problems)
    std::fprintf(stderr, "perfbench: check failed: %s\n", p.c_str());
  return correct ? 0 : 1;
}
