#include "util/thread_pool.h"

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <deque>
#include <exception>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "util/check.h"

namespace eotora::util {

namespace {

// One parallel_for_index invocation: the shared index counter plus the
// bookkeeping needed to (a) block the caller until every pool worker that
// could touch the job has let go of it and (b) surface the exception of the
// lowest failing index.
//
// Lifetime protocol: the job lives on the caller's stack, so the caller may
// only destroy it once no worker will touch it again. Each queue seat is
// counted in `seats_outstanding`; a worker that claimed a seat decrements it
// under `mutex` *after* its drain() returns, and the caller subtracts the
// seats it erased unclaimed from the queue. The caller's wait predicate is
// `seats_outstanding == 0`, which it can only observe after the last worker
// released `mutex` — at which point that worker no longer touches the job.
// All indices are then done too: every index is claimed and executed inside
// some participant's drain(), and every participant (caller included) has
// returned from drain() by then.
struct ForJob {
  const std::function<void(std::size_t)>* body = nullptr;
  std::size_t count = 0;
  std::atomic<std::size_t> next{0};
  std::mutex mutex;
  std::condition_variable finished;
  std::size_t seats_outstanding = 0;  // guarded by `mutex`
  std::exception_ptr error;           // guarded by `mutex`, as is
  std::size_t error_index = 0;        // the failing index it came from

  // Claims indices until the space is drained.
  void drain() {
    for (;;) {
      const std::size_t i = next.fetch_add(1, std::memory_order_relaxed);
      if (i >= count) break;
      try {
        (*body)(i);
      } catch (...) {
        std::lock_guard<std::mutex> lock(mutex);
        if (!error || i < error_index) {
          error = std::current_exception();
          error_index = i;
        }
      }
    }
  }

  // Called by a pool worker after drain(); must be its last touch of the
  // job. Notifying under the lock is deliberate: the waiter cannot pass its
  // predicate (and destroy this mutex + condition variable) until the lock
  // is released, and after releasing it the worker never uses the job again.
  void release_seat() {
    std::lock_guard<std::mutex> lock(mutex);
    --seats_outstanding;
    finished.notify_all();
  }
};

}  // namespace

struct ThreadPool::Impl {
  std::vector<std::thread> workers;
  std::mutex mutex;
  std::condition_variable wake;
  std::deque<ForJob*> queue;  // each entry = one worker seat for a job
  bool stopping = false;

  void worker_loop() {
    for (;;) {
      ForJob* job = nullptr;
      {
        std::unique_lock<std::mutex> lock(mutex);
        wake.wait(lock, [&] { return stopping || !queue.empty(); });
        if (stopping && queue.empty()) return;
        job = queue.front();
        queue.pop_front();
      }
      job->drain();
      job->release_seat();
    }
  }
};

ThreadPool::ThreadPool(std::size_t threads) : impl_(std::make_unique<Impl>()) {
  EOTORA_REQUIRE(threads >= 1);
  impl_->workers.reserve(threads);
  for (std::size_t i = 0; i < threads; ++i) {
    impl_->workers.emplace_back([this] { impl_->worker_loop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(impl_->mutex);
    impl_->stopping = true;
  }
  impl_->wake.notify_all();
  for (auto& worker : impl_->workers) worker.join();
}

std::size_t ThreadPool::size() const { return impl_->workers.size(); }

void ThreadPool::parallel_for_index(
    std::size_t count, std::size_t max_workers,
    const std::function<void(std::size_t)>& body) {
  EOTORA_REQUIRE(max_workers >= 1);
  if (count == 0) return;

  ForJob job;
  job.body = &body;
  job.count = count;

  // The caller is one participant; enqueue seats for up to (workers - 1)
  // pool threads. A seat is a queue entry pointing at the job — idle workers
  // each take one and drain the shared index space until it is empty.
  const std::size_t participants =
      std::min({max_workers, size() + 1, count});
  const std::size_t seats = participants - 1;
  if (seats > 0) {
    job.seats_outstanding = seats;  // published before the seats are visible
    {
      std::lock_guard<std::mutex> lock(impl_->mutex);
      for (std::size_t s = 0; s < seats; ++s) impl_->queue.push_back(&job);
    }
    impl_->wake.notify_all();
  }

  job.drain();

  if (seats > 0) {
    // Remove any seats no worker picked up (the caller drained the index
    // space first). Seats already popped from the queue belong to workers
    // that will call release_seat(); once `seats_outstanding` hits zero no
    // worker can touch the job again, so it is safe to return and destroy it.
    std::size_t erased = 0;
    {
      std::lock_guard<std::mutex> lock(impl_->mutex);
      auto& q = impl_->queue;
      for (auto it = q.begin(); it != q.end();) {
        if (*it == &job) {
          it = q.erase(it);
          ++erased;
        } else {
          ++it;
        }
      }
    }
    std::unique_lock<std::mutex> lock(job.mutex);
    job.seats_outstanding -= erased;
    job.finished.wait(lock, [&] { return job.seats_outstanding == 0; });
  }

  if (job.error) std::rethrow_exception(job.error);
}

ThreadPool& ThreadPool::shared() {
  static ThreadPool pool(std::max<std::size_t>(
      1, static_cast<std::size_t>(std::thread::hardware_concurrency())));
  return pool;
}

}  // namespace eotora::util
