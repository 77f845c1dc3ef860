#include "src/obs/trace.h"

#include <algorithm>
#include <atomic>
#include <cstdio>

#include "src/obs/json.h"

namespace murphy::obs {

namespace {

using Clock = std::chrono::steady_clock;

std::uint64_t next_tracer_gen() {
  static std::atomic<std::uint64_t> gen{1};
  return gen.fetch_add(1, std::memory_order_relaxed);
}

std::uint64_t fnv1a(std::string_view s) {
  std::uint64_t h = 0xCBF29CE484222325ULL;
  for (const char c : s) {
    h ^= static_cast<unsigned char>(c);
    h *= 0x100000001B3ULL;
  }
  return h;
}

std::uint64_t splitmix_once(std::uint64_t x) {
  x += 0x9E3779B97F4A7C15ULL;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ULL;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBULL;
  return x ^ (x >> 31);
}

// The per-thread buffer cache. A thread touching tracer T caches T's buffer
// keyed by T's process-unique generation, so stale caches from a destroyed
// tracer can never be revived by address reuse.
struct BufferCache {
  std::uint64_t gen = 0;
  void* buffer = nullptr;
};
thread_local BufferCache t_cache;

}  // namespace

std::uint64_t derive_span_id(std::uint64_t parent, std::string_view name,
                             std::uint64_t stream) {
  const std::uint64_t id = splitmix_once(
      parent ^ fnv1a(name) ^ (stream * 0x9E3779B97F4A7C15ULL + stream));
  return id == 0 ? 1 : id;
}

Tracer::Tracer() : gen_(next_tracer_gen()), start_(Clock::now()) {}

Tracer::~Tracer() = default;

Tracer::ThreadBuffer* Tracer::current_buffer() {
  if (t_cache.gen == gen_)
    return static_cast<ThreadBuffer*>(t_cache.buffer);
  std::lock_guard<std::mutex> lock(mu_);
  auto buf = std::make_unique<ThreadBuffer>();
  buf->track = static_cast<std::uint32_t>(buffers_.size());
  ThreadBuffer* raw = buf.get();
  buffers_.push_back(std::move(buf));
  t_cache = BufferCache{gen_, raw};
  return raw;
}

std::vector<SpanEvent> Tracer::events() const {
  std::vector<SpanEvent> all;
  {
    std::lock_guard<std::mutex> lock(mu_);
    for (const auto& buf : buffers_)
      all.insert(all.end(), buf->done.begin(), buf->done.end());
  }
  std::sort(all.begin(), all.end(), [](const SpanEvent& a, const SpanEvent& b) {
    if (a.id != b.id) return a.id < b.id;
    if (a.name != b.name) return a.name < b.name;
    return a.args < b.args;
  });
  return all;
}

void Tracer::clear() {
  std::lock_guard<std::mutex> lock(mu_);
  for (const auto& buf : buffers_) buf->done.clear();
}

std::string Tracer::to_chrome_json(const TraceExportOptions& opts) const {
  std::vector<SpanEvent> all = events();
  if (!opts.deterministic) {
    // Chronological within each thread track reads best in a viewer.
    std::sort(all.begin(), all.end(),
              [](const SpanEvent& a, const SpanEvent& b) {
                if (a.track != b.track) return a.track < b.track;
                return a.start_ns < b.start_ns;
              });
  }
  std::string out = "{\"traceEvents\":[";
  char buf[64];
  for (std::size_t i = 0; i < all.size(); ++i) {
    const SpanEvent& e = all[i];
    if (i > 0) out.push_back(',');
    out += "{\"name\":";
    json_append_escaped(out, e.name);
    out += ",\"cat\":\"murphy\",\"ph\":\"X\",\"pid\":1,\"tid\":";
    if (opts.deterministic) {
      out += "1,\"ts\":";
      out += json_number(static_cast<std::uint64_t>(i) * 10);
      out += ",\"dur\":1";
    } else {
      out += json_number(static_cast<std::uint64_t>(e.track));
      std::snprintf(buf, sizeof buf, ",\"ts\":%.3f,\"dur\":%.3f",
                    static_cast<double>(e.start_ns) / 1e3,
                    static_cast<double>(e.dur_ns) / 1e3);
      out += buf;
    }
    out += ",\"args\":{\"sid\":";
    json_append_escaped(out, std::to_string(e.id));
    out += ",\"parent\":";
    json_append_escaped(out, std::to_string(e.parent));
    for (const auto& [k, v] : e.args) {
      out.push_back(',');
      json_append_escaped(out, k);
      out.push_back(':');
      out += v;
    }
    out += "}}";
  }
  out += "]}";
  return out;
}

void Span::open(Tracer* tracer, std::string_view name, std::uint64_t stream,
                std::uint64_t parent, bool use_stack) {
#ifdef MURPHY_OBS_DISABLED
  tracer = nullptr;
  (void)stream;
  (void)parent;
#endif
  name_ = name;
  timed_ = use_stack || tracer != nullptr;
  if (timed_) begin_ = Clock::now();
#ifndef MURPHY_OBS_DISABLED
  if (tracer == nullptr) return;
  tracer_ = tracer;
  buffer_ = tracer->current_buffer();
  parent_ = use_stack ? (buffer_->stack.empty() ? 0 : buffer_->stack.back())
                      : parent;
  id_ = derive_span_id(parent_, name, stream);
  buffer_->stack.push_back(id_);
#endif
}

Span::Span(Tracer* tracer, std::string_view name, std::uint64_t stream) {
  open(tracer, name, stream, 0, /*use_stack=*/true);
}

Span::Span(Tracer* tracer, std::string_view name, std::uint64_t stream,
           std::uint64_t parent_id) {
  open(tracer, name, stream, parent_id, /*use_stack=*/false);
}

void Span::arg(std::string_view key, std::string_view value) {
  if (!enabled()) return;
  std::string rendered;
  json_append_escaped(rendered, value);
  args_.emplace_back(std::string(key), std::move(rendered));
}

void Span::arg(std::string_view key, double value) {
  if (!enabled()) return;
  args_.emplace_back(std::string(key), json_number(value));
}

void Span::arg(std::string_view key, std::uint64_t value) {
  if (!enabled()) return;
  args_.emplace_back(std::string(key), json_number(value));
}

void Span::arg(std::string_view key, std::int64_t value) {
  if (!enabled()) return;
  args_.emplace_back(std::string(key), json_number(value));
}

void Span::arg(std::string_view key, bool value) {
  if (!enabled()) return;
  args_.emplace_back(std::string(key), value ? "true" : "false");
}

double Span::finish() {
  if (done_) return elapsed_ms_;
  done_ = true;
  if (!timed_) return elapsed_ms_;
  const auto end = Clock::now();
  elapsed_ms_ =
      std::chrono::duration<double, std::milli>(end - begin_).count();
#ifndef MURPHY_OBS_DISABLED
  if (buffer_ != nullptr) {
    buffer_->stack.pop_back();
    SpanEvent e;
    e.name = std::string(name_);
    e.id = id_;
    e.parent = parent_;
    e.start_ns = std::chrono::duration_cast<std::chrono::nanoseconds>(
                     begin_ - tracer_->start_)
                     .count();
    e.dur_ns =
        std::chrono::duration_cast<std::chrono::nanoseconds>(end - begin_)
            .count();
    e.track = buffer_->track;
    e.args = std::move(args_);
    buffer_->done.push_back(std::move(e));
    buffer_ = nullptr;
  }
#endif
  return elapsed_ms_;
}

}  // namespace murphy::obs
