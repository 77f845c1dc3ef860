#include "src/common/thread_pool.h"

#include <algorithm>

namespace murphy {

std::size_t resolve_num_threads(std::size_t requested) {
  if (requested != 0) return requested;
  const unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : static_cast<std::size_t>(hw);
}

ThreadPool::ThreadPool(std::size_t num_workers) {
  workers_.reserve(num_workers);
  for (std::size_t i = 0; i < num_workers; ++i)
    workers_.emplace_back([this] { worker_loop(); });
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    stop_ = true;
  }
  work_cv_.notify_all();
  for (std::thread& w : workers_) w.join();
}

bool ThreadPool::run_indices(Job& job, bool helper) {
  // Claim-one-index scheduling: dynamic load balance without chunk tuning.
  // Iterations are independent by contract, so claim order is irrelevant to
  // the result.
  for (;;) {
    if (helper && queued_.load(std::memory_order_relaxed) != 0) return false;
    const std::size_t i = job.next.fetch_add(1, std::memory_order_relaxed);
    if (i >= job.n) return true;
    try {
      (*job.body)(i);
    } catch (...) {
      std::lock_guard<std::mutex> lock(mu_);
      if (!job.error) job.error = std::current_exception();
    }
  }
}

void ThreadPool::close(Job& job) {
  if (!job.open) return;
  job.open = false;
  jobs_.erase(std::find(jobs_.begin(), jobs_.end(), &job));
}

void ThreadPool::worker_loop() {
  std::unique_lock<std::mutex> lock(mu_);
  for (;;) {
    work_cv_.wait(lock, [&] {
      return stop_ || !tasks_.empty() || !jobs_.empty();
    });
    if (stop_) return;  // queued tasks_ are abandoned here by contract
    if (!tasks_.empty()) {
      std::function<void()> task = std::move(tasks_.front());
      tasks_.pop_front();
      queued_.store(tasks_.size(), std::memory_order_relaxed);
      ++tasks_running_;
      lock.unlock();
      try {
        task();
      } catch (...) {
        std::lock_guard<std::mutex> elock(mu_);
        if (!task_error_) task_error_ = std::current_exception();
      }
      task = nullptr;
      lock.lock();
      if (--tasks_running_ == 0 && tasks_.empty()) drain_cv_.notify_all();
      continue;
    }
    // Idle: help the oldest open job. The job cannot leave its caller's
    // stack while `helpers` counts this thread.
    Job& job = *jobs_.front();
    ++job.helpers;
    lock.unlock();
    const bool exhausted = run_indices(job, /*helper=*/true);
    lock.lock();
    if (exhausted) close(job);
    if (--job.helpers == 0) job.helpers_left.notify_one();
  }
}

void ThreadPool::parallel_for(std::size_t n,
                              const std::function<void(std::size_t)>& body) {
  if (workers_.empty() || n <= 1) {
    for (std::size_t i = 0; i < n; ++i) body(i);
    return;
  }
  Job job;
  job.body = &body;
  job.n = n;
  {
    std::lock_guard<std::mutex> lock(mu_);
    jobs_.push_back(&job);
  }
  work_cv_.notify_all();
  run_indices(job, /*helper=*/false);  // the caller alone can finish the loop
  std::unique_lock<std::mutex> lock(mu_);
  close(job);
  job.helpers_left.wait(lock, [&] { return job.helpers == 0; });
  if (job.error) std::rethrow_exception(job.error);
}

void ThreadPool::submit(std::function<void()> task) {
  if (workers_.empty()) {
    // Inline execution mirrors parallel_for's zero-worker contract; the
    // exception still surfaces at drain() so callers see one error policy.
    try {
      task();
    } catch (...) {
      std::lock_guard<std::mutex> lock(mu_);
      if (!task_error_) task_error_ = std::current_exception();
    }
    return;
  }
  {
    std::lock_guard<std::mutex> lock(mu_);
    tasks_.push_back(std::move(task));
    queued_.store(tasks_.size(), std::memory_order_relaxed);
  }
  work_cv_.notify_one();
}

void ThreadPool::drain() {
  std::unique_lock<std::mutex> lock(mu_);
  drain_cv_.wait(lock, [&] { return tasks_.empty() && tasks_running_ == 0; });
  if (task_error_) {
    std::exception_ptr e = task_error_;
    task_error_ = nullptr;
    std::rethrow_exception(e);
  }
}

void parallel_for(ThreadPool* pool, std::size_t num_threads, std::size_t n,
                  const std::function<void(std::size_t)>& body) {
  if (pool != nullptr) {
    pool->parallel_for(n, body);
    return;
  }
  const std::size_t k = std::min(resolve_num_threads(num_threads),
                                 std::max<std::size_t>(n, 1));
  if (k <= 1) {
    for (std::size_t i = 0; i < n; ++i) body(i);
    return;
  }
  ThreadPool fresh(k - 1);
  fresh.parallel_for(n, body);
}

void parallel_for(std::size_t num_threads, std::size_t n,
                  const std::function<void(std::size_t)>& body) {
  parallel_for(nullptr, num_threads, n, body);
}

}  // namespace murphy
