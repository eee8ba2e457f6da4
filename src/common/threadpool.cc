#include "common/threadpool.h"

#include <algorithm>
#include <stdexcept>
#include <utility>

#include "common/fault.h"

namespace mgpu::common {

int DefaultThreadCount() {
  return std::max(1u, std::thread::hardware_concurrency());
}

ThreadPool::ThreadPool(int threads) {
  const int n = std::max(1, threads);
  workers_.reserve(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) {
    workers_.emplace_back([this] { WorkerLoop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    const std::lock_guard<std::mutex> lk(mu_);
    stop_ = true;
  }
  start_cv_.notify_all();
  for (std::thread& t : workers_) t.join();
}

// Claims the next task of job `epoch`. Returns false when the job's tasks
// are exhausted or a newer job owns the counter (a worker woken late by a
// leftover notify must not steal the new job's tasks while still holding
// the old job's body pointer). The lock is per *task claim*, not per work
// item — callers distribute fine-grained work through their own atomic
// inside the body — so contention is bounded by the task count.
bool ThreadPool::Claim(std::uint64_t epoch, int* task) {
  const std::lock_guard<std::mutex> lk(mu_);
  if (epoch_ != epoch || next_task_ >= n_tasks_) return false;
  *task = next_task_++;
  return true;
}

void ThreadPool::WorkerLoop() {
  std::uint64_t seen = 0;
  for (;;) {
    const std::function<void(int)>* body = nullptr;
    {
      std::unique_lock<std::mutex> lk(mu_);
      start_cv_.wait(lk, [&] { return stop_ || epoch_ != seen; });
      if (stop_) return;
      seen = epoch_;
      body = body_;
    }
    // Job completion is tracked by completed-task count, not by which
    // workers participated, so over-waking (stale notifies, spurious
    // wakeups) and under-waking (a woken worker draining several tasks
    // before another wakes) are both harmless.
    int completed = 0;
    std::exception_ptr error;
    for (int task = 0; Claim(seen, &task);) {
      // A task that throws still counts as completed — the join must drain
      // pending_ to zero no matter how tasks end, or RunOn deadlocks. Only
      // the first throw of a job is kept (and rethrown by RunOn).
      try {
        if (fault::ShouldFail(fault::Site::kPoolTask)) {
          throw std::runtime_error("injected fault: pool task failed");
        }
        (*body)(task);
      } catch (...) {
        if (error == nullptr) error = std::current_exception();
      }
      ++completed;
    }
    if (completed > 0) {
      const std::lock_guard<std::mutex> lk(mu_);
      if (error != nullptr && first_error_ == nullptr) {
        // Hand the only reference over under the lock: RunOn rethrows it
        // and the caller destroys it as soon as the job joins, so this
        // thread must not drop a share of it later.
        first_error_ = std::move(error);
      }
      pending_ -= completed;
      if (pending_ == 0) done_cv_.notify_all();
    }
  }
}

void ThreadPool::RunOn(int n_tasks, const std::function<void(int)>& body) {
  if (n_tasks <= 0) return;
  {
    const std::lock_guard<std::mutex> lk(mu_);
    body_ = &body;
    n_tasks_ = n_tasks;
    pending_ = n_tasks;
    next_task_ = 0;
    first_error_ = nullptr;
    ++epoch_;
  }
  // Partial dispatch: wake exactly as many workers as there are tasks.
  // Workers not yet back on the condition variable from the previous job
  // re-check the epoch before parking, so a notify that lands on no waiter
  // is never lost — at least min(n_tasks, size()) workers end up claiming.
  const int wake = std::min(n_tasks, size());
  if (wake >= size()) {
    start_cv_.notify_all();
  } else {
    for (int i = 0; i < wake; ++i) start_cv_.notify_one();
  }
  std::exception_ptr error;
  {
    std::unique_lock<std::mutex> lk(mu_);
    done_cv_.wait(lk, [&] { return pending_ == 0; });
    body_ = nullptr;
    error = first_error_;
    first_error_ = nullptr;
  }
  // Rethrow only after the join: every claimed task has finished and the
  // pool is back in its idle state, so the caller sees the failure with the
  // pool fully reusable for the next job.
  if (error != nullptr) std::rethrow_exception(error);
}

}  // namespace mgpu::common
