// Low-overhead span tracer with a Chrome trace-event / Perfetto exporter.
//
// Instrumented code opens RAII `Span`s against a `Tracer`; every completed
// span becomes one event (name, wall-clock interval, thread track, key/value
// args). Design constraints, in order:
//
//  * Near-zero cost when disabled. A null `Tracer*` is the runtime null
//    sink: the Span constructor then only reads the monotonic clock (the
//    phase timings of DiagnosisResult are derived from spans, so the clock
//    read stays) and records nothing. Compiling with -DMURPHY_OBS_DISABLED
//    removes the recording path entirely.
//  * Thread friendliness. Each thread appends completed spans to its own
//    buffer — no lock, no atomic on the hot path; buffers are registered
//    once per (thread, tracer) under a mutex and drained at export time,
//    which must happen after parallel work has joined.
//  * Determinism. Every span carries a *stable id* derived from its parent's
//    stable id, its name, and an optional caller-supplied stream index (the
//    loop index inside parallel regions) — never from arrival order or
//    thread identity. The deterministic export mode sorts spans by stable id
//    and replaces wall-clock fields with synthetic ones, so a diagnosis
//    traced at num_threads 1, 2 or 8 exports byte-identical JSON
//    (tests/obs_test.cpp holds this as a golden invariant).
//
// Nesting: spans opened on the same thread parent to the innermost open span
// of that thread. Inside a parallel_for the worker threads have empty span
// stacks, so parallel-loop instrumentation passes the enclosing span's id()
// explicitly — parentage is then identical at every thread count.
#pragma once

#include <chrono>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace murphy::obs {

// One completed span. `args` values are pre-rendered JSON fragments (quoted
// strings or numbers) so export is a plain concatenation.
struct SpanEvent {
  std::string name;
  std::uint64_t id = 0;      // stable id (thread-count invariant)
  std::uint64_t parent = 0;  // stable id of the parent span, 0 = root
  std::int64_t start_ns = 0; // since tracer construction, steady clock
  std::int64_t dur_ns = 0;
  std::uint32_t track = 0;   // per-thread track (wall-clock export only)
  std::vector<std::pair<std::string, std::string>> args;
};

struct TraceExportOptions {
  // When true, spans are sorted by (id, name, args) and the wall-clock
  // fields (ts/dur/tid) are replaced with synthetic values derived from that
  // order, making the export a pure function of the *logical* trace —
  // byte-identical across runs and thread counts. When false, real
  // timestamps and per-thread tracks are kept for flame-chart viewing in
  // Perfetto (ui.perfetto.dev) or chrome://tracing.
  bool deterministic = false;
};

class Tracer {
 public:
  Tracer();
  ~Tracer();
  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  // All completed spans, sorted by (id, name). Must not run concurrently
  // with open spans; call after parallel work has joined.
  [[nodiscard]] std::vector<SpanEvent> events() const;

  // Chrome trace-event JSON ({"traceEvents":[...]}): load in Perfetto or
  // chrome://tracing. Same concurrency contract as events().
  [[nodiscard]] std::string to_chrome_json(
      const TraceExportOptions& opts = {}) const;

  // Drops all recorded spans (buffers stay registered).
  void clear();

 private:
  friend class Span;
  struct ThreadBuffer {
    std::vector<SpanEvent> done;
    std::vector<std::uint64_t> stack;  // open-span stable ids, this thread
    std::uint32_t track = 0;
  };

  // The calling thread's buffer, registering it on first use.
  [[nodiscard]] ThreadBuffer* current_buffer();

  const std::uint64_t gen_;  // process-unique tracer generation
  const std::chrono::steady_clock::time_point start_;
  mutable std::mutex mu_;  // guards buffers_ registration and drains
  std::vector<std::unique_ptr<ThreadBuffer>> buffers_;
};

// RAII scoped span. Copy-free on the hot path; args are only materialized
// when the span is recording (check `enabled()` before formatting anything
// expensive).
class Span {
 public:
  // Opens a span parented to the innermost open span of this thread.
  // `stream` disambiguates same-named siblings — pass the loop index when
  // the span sits inside any loop, parallel or not.
  Span(Tracer* tracer, std::string_view name, std::uint64_t stream = 0);
  // Opens a span with an explicit parent id, ignoring the thread stack. Use
  // inside parallel loops, where the enclosing span lives on another
  // thread's stack. Such a per-iteration span is free when untraced: with a
  // null tracer it reads no clock and finish() returns 0.
  Span(Tracer* tracer, std::string_view name, std::uint64_t stream,
       std::uint64_t parent_id);
  ~Span() { finish(); }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

  // True when the span is recording (tracer attached and not compiled out).
  [[nodiscard]] bool enabled() const { return buffer_ != nullptr; }
  // Stable id, for parenting spans opened in parallel regions.
  [[nodiscard]] std::uint64_t id() const { return id_; }

  // Key/value attributes; no-ops unless enabled().
  void arg(std::string_view key, std::string_view value);
  void arg(std::string_view key, double value);
  void arg(std::string_view key, std::uint64_t value);
  void arg(std::string_view key, std::int64_t value);
  void arg(std::string_view key, bool value);

  // Ends the span now (idempotent; the destructor calls it) and returns the
  // elapsed wall-clock milliseconds. A stack-parented span times with a
  // null tracer too: such spans are the single source of truth for
  // PhaseTimings.
  double finish();

 private:
  void open(Tracer* tracer, std::string_view name, std::uint64_t stream,
            std::uint64_t parent, bool use_stack);

  Tracer* tracer_ = nullptr;
  Tracer::ThreadBuffer* buffer_ = nullptr;
  std::string_view name_;
  std::uint64_t id_ = 0;
  std::uint64_t parent_ = 0;
  std::chrono::steady_clock::time_point begin_;
  double elapsed_ms_ = 0.0;
  bool done_ = false;
  bool timed_ = false;
  std::vector<std::pair<std::string, std::string>> args_;
};

// Derives a child stable id outside any Span (e.g. to pre-compute the ids of
// per-item spans); exposed mainly for tests.
[[nodiscard]] std::uint64_t derive_span_id(std::uint64_t parent,
                                           std::string_view name,
                                           std::uint64_t stream);

// Convenience scope macro: MURPHY_TRACE_SCOPE(tracer, "phase") opens an
// anonymous span for the rest of the enclosing block.
#define MURPHY_OBS_CONCAT2(a, b) a##b
#define MURPHY_OBS_CONCAT(a, b) MURPHY_OBS_CONCAT2(a, b)
#define MURPHY_TRACE_SCOPE(tracer, name) \
  ::murphy::obs::Span MURPHY_OBS_CONCAT(murphy_span_, __LINE__)((tracer), (name))

}  // namespace murphy::obs
