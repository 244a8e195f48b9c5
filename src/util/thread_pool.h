// A fixed-size worker pool shared by the experiment layer.
//
// The pool is deliberately work-stealing-free: parallel work is expressed as
// an index space [0, count) drained through one atomic counter, so the only
// scheduling state is which worker picked which index — never the order in
// which RESULTS are combined. Callers that store result i into slot i of a
// pre-sized vector and merge slots in index order therefore produce output
// that is bit-identical to a serial loop, regardless of thread count (this
// is the guarantee sim::run_sweep and the component-parallel slot rely on).
//
// Exceptions thrown by the body are captured; once every index finished,
// the one of the lowest failing index is rethrown on the calling thread —
// what a serial loop over [0, count) throws, whichever worker failed first.
#pragma once

#include <cstddef>
#include <functional>
#include <memory>

namespace eotora::util {

class ThreadPool {
 public:
  // Spawns `threads` persistent workers. Requires threads >= 1.
  explicit ThreadPool(std::size_t threads);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  [[nodiscard]] std::size_t size() const;

  // Runs body(i) for every i in [0, count), using at most `max_workers`
  // pool workers (clamped to the pool size and to count), and blocks until
  // all indices completed. The calling thread participates as a worker, so
  // max_workers == 1 degenerates to a plain serial loop with no handoff.
  // Requires max_workers >= 1. count == 0 is a no-op.
  void parallel_for_index(std::size_t count, std::size_t max_workers,
                          const std::function<void(std::size_t)>& body);

  // The process-wide pool, sized to the hardware concurrency (at least 1).
  // Created on first use; lives until process exit.
  static ThreadPool& shared();

 private:
  struct Impl;
  // unique_ptr (with Impl complete in the .cpp) so Impl is released even
  // when the constructor throws, e.g. on the threads >= 1 precondition.
  std::unique_ptr<Impl> impl_;
};

}  // namespace eotora::util
