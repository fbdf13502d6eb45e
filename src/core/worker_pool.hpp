// Persistent worker pool shared by every parallel surface in the repo
// (see DESIGN.md, "core layer").
//
// Two clients share the pool: grid sweeps (`parallel_sweep`, one cell per
// index) and intra-run shard waves (`CohortNet` and `MsEmulationCohort`
// with engine_threads > 1, one shard per index).  A single process-wide pool, sized once and reused
// across calls, replaces the old spawn-threads-per-sweep pattern and makes
// the no-oversubscription rule structural: a `parallel_for` issued from
// *inside* a pool job runs inline on the calling thread, so a sweep whose
// cells each shard their run never stacks parallelism on parallelism.
#pragma once

#include <condition_variable>
#include <cstddef>
#include <exception>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace anon {

class WorkerPool {
 public:
  // A pool with `workers` persistent worker threads.  Callers participate
  // in their own jobs, so `workers = cores - 1` saturates the machine.
  explicit WorkerPool(std::size_t workers);
  ~WorkerPool();

  WorkerPool(const WorkerPool&) = delete;
  WorkerPool& operator=(const WorkerPool&) = delete;

  // The process-wide pool, created on first use with
  // max(1, hardware_concurrency - 1) workers.  Grows on demand when a
  // caller asks for more participants than it holds, so explicitly
  // requested thread counts (tests, --threads flags) are honoured even on
  // small machines.
  static WorkerPool& shared();

  std::size_t workers() const;

  // Runs body(i) for every i in [0, count), the participants racing down a
  // shared atomic cursor.  The calling thread participates; at most
  // `max_participants` threads (caller included) execute the body — 0
  // means "caller plus every pool worker".  Blocks until all indices ran.
  // The first exception thrown by any index cancels the remaining indices
  // and is rethrown on the calling thread after the job drains.
  //
  // Determinism contract: body(i) must only write state owned by index i;
  // under that contract the results are identical for any participant
  // count or OS schedule.
  //
  // Re-entrancy: a call from a thread already executing a pool job runs
  // the whole loop inline (no workers recruited) — the outer job already
  // owns the pool's parallelism.  Distinct top-level callers are
  // serialized: a second job waits until the first finishes.
  void parallel_for(std::size_t count,
                    const std::function<void(std::size_t)>& body,
                    std::size_t max_participants = 0);

  // Deterministic map-reduce on top of parallel_for: computes
  // body(i) -> R for every index in parallel, then folds the results
  // *in index order* on the calling thread — so non-commutative or
  // rounding-sensitive combines still give schedule-independent answers.
  // `scratch` is caller-owned so hot loops reach a zero-allocation steady
  // state (it is resized to `count` and overwritten).
  template <typename R, typename Body, typename Combine>
  R parallel_reduce(std::size_t count, R init, std::vector<R>& scratch,
                    const Body& body, const Combine& combine,
                    std::size_t max_participants = 0) {
    if (count == 0) return init;
    scratch.resize(count);
    std::vector<R>* out = &scratch;
    const Body* fn = &body;
    parallel_for(
        count, [out, fn](std::size_t i) { (*out)[i] = (*fn)(i); },
        max_participants);
    R acc = std::move(init);
    for (std::size_t i = 0; i < count; ++i)
      acc = combine(std::move(acc), (*out)[i]);
    return acc;
  }

 private:
  struct Job;

  void worker_loop();
  void ensure_workers_locked(std::size_t wanted);
  static void run_in(Job& job);

  mutable std::mutex mu_;
  std::condition_variable work_cv_;    // workers: a job has open slots / stop
  std::condition_variable done_cv_;    // submitter: last participant left
  std::condition_variable submit_cv_;  // next submitter: pool is free
  std::vector<std::thread> threads_;
  Job* job_ = nullptr;  // the active job (one at a time)
  bool stopping_ = false;
};

}  // namespace anon
