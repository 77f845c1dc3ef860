// Fixed-size thread pool: a FIFO task queue plus a re-entrant,
// help-when-idle parallel_for.
//
// Murphy's hot loops (per-variable factor fits, per-candidate counterfactual
// evaluations, per-node labelling, per-symptom batch diagnoses) are
// embarrassingly parallel: every iteration writes only its own output slot
// and draws from its own deterministically derived RNG stream (see mix_seed
// in rng.h). The schedule can therefore be fully dynamic — threads claim the
// next iteration index from one atomic counter per loop; no work stealing,
// no chunking heuristics — while results stay bitwise identical for any
// thread count or interleaving.
//
// One pool is the executor for everything that runs on it. The diagnosis
// service submits one task per request, and the engine loops of that
// request run on the same pool's parallel_for: a worker with no queued task
// helps whichever loop is open, so a lone request uses every worker while a
// full queue keeps each worker on its own request. See DESIGN.md "Execution
// model" and §9.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <deque>
#include <exception>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace murphy {

// Resolves a user-facing thread-count option: 0 means "use the hardware"
// (std::thread::hardware_concurrency, at least 1), any other value is taken
// verbatim.
[[nodiscard]] std::size_t resolve_num_threads(std::size_t requested);

class ThreadPool {
 public:
  // Spawns `num_workers` persistent worker threads — the only threads the
  // pool ever creates. Zero is legal: every parallel_for then runs inline on
  // the calling thread, and submit() executes each task inline too.
  explicit ThreadPool(std::size_t num_workers);
  // Joins the workers. Tasks still QUEUED at destruction are abandoned —
  // destroyed unexecuted — while tasks already in flight on a worker run to
  // completion (join waits for them). Call drain() first when every queued
  // task must finish; the split lets an aborting owner tear the pool down
  // without paying for a backlog it no longer wants. No parallel_for may be
  // in progress.
  ~ThreadPool();
  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  [[nodiscard]] std::size_t worker_count() const { return workers_.size(); }

  // Runs body(i) for every i in [0, n) and returns when all have finished;
  // the first exception thrown by an iteration is rethrown here, to this
  // caller only, after every iteration has run.
  //
  // Re-entrant: any number of concurrent calls, and calls nested inside a
  // body or a task, are legal. Each call opens a job; the caller claims
  // indices until none are left, then waits only for indices other threads
  // already claimed. A worker with no queued task helps the oldest open job
  // and rechecks the task queue between indices, so queued tasks outrank
  // helping. The caller can always finish its own loop alone, so a call
  // never waits for a busy worker and cannot deadlock — provided a body
  // waits on nothing but its own nested loops.
  void parallel_for(std::size_t n, const std::function<void(std::size_t)>& body);

  // Task mode, the diagnosis service's execution substrate (DESIGN.md §9).
  // submit() enqueues one closure for any idle worker and returns
  // immediately; tasks run FIFO. With zero workers the task runs inline
  // before submit() returns. A task has no call site to rethrow at, so the
  // first exception any task throws is stashed and rethrown by the next
  // drain(); service closures are expected to catch their own.
  void submit(std::function<void()> task);

  // Blocks until the task queue is empty AND no task is in flight, then
  // rethrows the first task exception since the last drain (if any).
  // Completes queued work — the counterpart of the destructor's abandonment.
  // Must not be called from inside a task (the task can never finish while
  // its thread waits) and gives no completeness guarantee for tasks
  // submitted concurrently with the wait.
  void drain();

 private:
  // One parallel_for call, living on its caller's stack. `body` and `n` are
  // fixed before the job is published; fields marked mu_ are guarded by it.
  struct Job {
    const std::function<void(std::size_t)>* body = nullptr;
    std::size_t n = 0;
    std::atomic<std::size_t> next{0};  // next unclaimed index
    std::size_t helpers = 0;           // workers inside the job, mu_
    bool open = true;                  // listed in jobs_, mu_
    std::exception_ptr error;          // first iteration failure, mu_
    std::condition_variable helpers_left;
  };

  void worker_loop();
  // Claims and runs indices of `job` until none are left (returns true) or,
  // for a helper, until a task is queued (returns false).
  bool run_indices(Job& job, bool helper);
  void close(Job& job);  // requires mu_

  std::vector<std::thread> workers_;
  std::mutex mu_;
  std::condition_variable work_cv_;   // workers wait for a task or a job
  std::condition_variable drain_cv_;  // drain() waits for task quiescence
  bool stop_ = false;                 // mu_
  std::vector<Job*> jobs_;            // open jobs, oldest first, mu_
  std::deque<std::function<void()>> tasks_;  // mu_
  std::atomic<std::size_t> queued_{0};  // tasks_.size(), read without mu_
  std::size_t tasks_running_ = 0;     // tasks in flight, mu_
  std::exception_ptr task_error_;     // first task failure, mu_
};

// Runs body(i) for i in [0, n) on `pool` when one is given — `num_threads`
// is then ignored — and otherwise on `num_threads` threads (0 = hardware
// concurrency) spawned for this call and joined before it returns.
// num_threads <= 1 without a pool — the legacy serial path — executes a
// plain inline loop with no atomics or thread machinery.
void parallel_for(ThreadPool* pool, std::size_t num_threads, std::size_t n,
                  const std::function<void(std::size_t)>& body);

// The pool-less form: parallel_for(nullptr, num_threads, n, body).
void parallel_for(std::size_t num_threads, std::size_t n,
                  const std::function<void(std::size_t)>& body);

}  // namespace murphy
