#include "src/service/diagnosis_service.h"

#include <utility>

namespace murphy::service {

namespace {

constexpr double kMs = 1e-3;  // steady_clock microseconds -> ms below

[[nodiscard]] double ms_between(std::chrono::steady_clock::time_point a,
                                std::chrono::steady_clock::time_point b) {
  return kMs * static_cast<double>(
                   std::chrono::duration_cast<std::chrono::microseconds>(b - a)
                       .count());
}

// Latency bucket bounds (ms) shared by the service histograms.
std::vector<double> latency_bounds() {
  return {0.5,  1.0,   2.0,   5.0,   10.0,   20.0,   50.0,
          100.0, 200.0, 500.0, 1000.0, 2000.0, 5000.0, 10000.0};
}

}  // namespace

std::string_view to_string(RequestStatus s) {
  switch (s) {
    case RequestStatus::kOk:
      return "ok";
    case RequestStatus::kRejectedQueueFull:
      return "rejected_queue_full";
    case RequestStatus::kDeadlineExceeded:
      return "deadline_exceeded";
    case RequestStatus::kShuttingDown:
      return "shutting_down";
    case RequestStatus::kInvalidRequest:
      return "invalid_request";
    case RequestStatus::kInternalError:
      return "internal_error";
  }
  return "unknown";
}

DiagnosisService::DiagnosisService(TelemetryStream& stream,
                                   DiagnosisServiceOptions opts)
    : stream_(stream), opts_(std::move(opts)) {
  pool_ = std::make_unique<ThreadPool>(opts_.num_workers);
  if (obs::MetricsRegistry* m = opts_.murphy.obs.metrics) {
    // Register the instruments up front so a STATS snapshot taken before the
    // first request still shows them (and histogram bounds are fixed once).
    (void)m->gauge("service.queue_depth");
    (void)m->counter("service.completed");
    (void)m->counter("service.rejected");
    (void)m->counter("service.deadline_exceeded");
    (void)m->histogram("service.queue_ms", latency_bounds());
    (void)m->histogram("service.run_ms", latency_bounds());
    (void)m->histogram("service.total_ms", latency_bounds());
  }
}

DiagnosisService::~DiagnosisService() { stop(); }

std::future<ServiceResponse> DiagnosisService::submit(ServiceRequest req) {
  auto promise = std::make_shared<std::promise<ServiceResponse>>();
  std::future<ServiceResponse> fut = promise->get_future();
  obs::MetricsRegistry* m = opts_.murphy.obs.metrics;
  RequestStatus rejection = RequestStatus::kOk;
  std::uint64_t rejected_id = 0;
  {
    std::lock_guard<std::mutex> lock(queue_mu_);
    const std::uint64_t id = ++next_id_;
    if (stopping_) {
      rejection = RequestStatus::kShuttingDown;
      rejected_id = id;
    } else if (queue_.size() >= opts_.max_queue) {
      // Admission control: explicit rejection, never a silent drop. The
      // caller sees kRejectedQueueFull synchronously and can retry or shed.
      rejection = RequestStatus::kRejectedQueueFull;
      rejected_id = id;
    } else {
      Pending p;
      p.req = std::move(req);
      p.id = id;
      p.admitted = std::chrono::steady_clock::now();
      p.promise = promise;
      queue_.push(std::move(p));
      if (m != nullptr)
        m->gauge("service.queue_depth")
            ->set(static_cast<double>(queue_.size()));
    }
  }
  if (rejection != RequestStatus::kOk) {
    // Fulfilled outside queue_mu_ so the on_complete hook (which may take
    // other locks, e.g. the socket server's completion queue) can never
    // deadlock against a concurrent submit.
    ServiceResponse resp;
    resp.request_id = rejected_id;
    resp.status = rejection;
    if (m != nullptr) m->counter("service.rejected")->add(1);
    if (req.on_complete) req.on_complete(resp);
    promise->set_value(std::move(resp));
    return fut;
  }
  // One pool task per admitted request; the task pops the HIGHEST-priority
  // pending request at execution time, which may not be the one submitted
  // here — that indirection is what makes priorities real under a busy pool.
  pool_->submit([this] { run_one(); });
  return fut;
}

void DiagnosisService::run_one() {
  Pending p;
  obs::MetricsRegistry* m = opts_.murphy.obs.metrics;
  {
    std::lock_guard<std::mutex> lock(queue_mu_);
    if (queue_.empty()) return;  // defensive; tasks and entries are 1:1
    p = queue_.top();
    queue_.pop();
    if (m != nullptr)
      m->gauge("service.queue_depth")->set(static_cast<double>(queue_.size()));
  }
  const auto started = std::chrono::steady_clock::now();
  const double queue_ms = ms_between(p.admitted, started);

  ServiceResponse resp;
  if (started >= p.req.deadline) {
    // Expired while queued: answer without burning a worker on doomed work.
    resp.request_id = p.id;
    resp.status = RequestStatus::kDeadlineExceeded;
  } else {
    resp = execute(p);
  }
  resp.queue_ms = queue_ms;
  resp.run_ms = ms_between(started, std::chrono::steady_clock::now());

  if (m != nullptr) {
    if (resp.status == RequestStatus::kOk)
      m->counter("service.completed")->add(1);
    else if (resp.status == RequestStatus::kDeadlineExceeded)
      m->counter("service.deadline_exceeded")->add(1);
    // Re-registering keeps the bounds fixed at construction time.
    m->histogram("service.queue_ms", latency_bounds())->observe(resp.queue_ms);
    m->histogram("service.run_ms", latency_bounds())->observe(resp.run_ms);
    m->histogram("service.total_ms", latency_bounds())
        ->observe(resp.queue_ms + resp.run_ms);
  }
  if (p.req.on_complete) p.req.on_complete(resp);
  p.promise->set_value(std::move(resp));
}

ServiceResponse DiagnosisService::execute(const Pending& p) {
  ServiceResponse resp;
  resp.request_id = p.id;

  // Hold the shared lock for the whole diagnosis: the db version — and with
  // it every cache fingerprint input and history id — is frozen while any
  // worker is inside this block.
  TelemetryStream::ReadLock db_lock = stream_.read();
  const telemetry::MonitoringDb& db = *db_lock;

  if (!db.has_entity(p.req.symptom_entity) ||
      !db.catalog().find(p.req.symptom_metric).valid()) {
    resp.status = RequestStatus::kInvalidRequest;
    if (obs::MetricsRegistry* m = opts_.murphy.obs.metrics)
      m->counter("service.invalid")->add(1);
    return resp;
  }

  core::MurphyOptions mopts = opts_.murphy;
  // The worker pool is the engine's executor: workers with no queued
  // request help this diagnosis's loops (DESIGN.md §9).
  mopts.pool = pool_.get();
  caches_.attach(db, mopts.training);
  if (p.req.deadline != std::chrono::steady_clock::time_point::max()) {
    const auto deadline = p.req.deadline;
    mopts.cancel = [deadline] {
      return std::chrono::steady_clock::now() >= deadline;
    };
  }

  core::DiagnosisRequest dreq;
  dreq.db = &db;
  dreq.symptom_entity = p.req.symptom_entity;
  dreq.symptom_metric = p.req.symptom_metric;
  dreq.now = p.req.now;
  dreq.train_begin = p.req.train_begin;
  dreq.train_end = p.req.train_end;
  dreq.max_hops = p.req.max_hops;

  try {
    core::MurphyDiagnoser diagnoser(std::move(mopts));
    core::DiagnosisResult result = diagnoser.diagnose(dreq);
    resp.db_version = db.data_version();
    if (result.cancelled) {
      resp.status = RequestStatus::kDeadlineExceeded;
    } else {
      resp.status = RequestStatus::kOk;
      resp.result = std::move(result);
    }
  } catch (...) {
    resp.status = RequestStatus::kInternalError;
  }
  return resp;
}

void DiagnosisService::stop() {
  {
    std::lock_guard<std::mutex> lock(queue_mu_);
    if (stopping_) {
      // stop() already ran (or is running in another thread); drain below
      // is idempotent so falling through would also be fine, but exiting
      // keeps double-stop cheap.
    }
    stopping_ = true;
  }
  // Every admitted request has exactly one pool task; drain() completes
  // them all, so every outstanding future resolves before stop() returns.
  pool_->drain();
}

void DiagnosisService::maintain() {
  // The exclusive stream lock is the proof that no diagnosis is using a
  // moment-store slot (workers hold the shared lock for their whole run),
  // which is prune()'s precondition.
  TelemetryStream::WriteLock lock = stream_.write();
  caches_.prune(opts_.cache_max_entries);
}

std::size_t DiagnosisService::queue_depth() const {
  std::lock_guard<std::mutex> lock(queue_mu_);
  return queue_.size();
}

}  // namespace murphy::service
