#pragma once
/// \file thread_pool.hpp
/// \brief Host-side worker pool for rank-parallel execution.
///
/// The simulator runs every simulated rank's numerics on the host; until
/// now they ran serially on one thread.  This pool lets the per-rank tasks
/// of one operation execute concurrently on the host cores.  Scheduling
/// carries no numerical meaning: rank tasks own disjoint tiles and
/// disjoint clock/ledger slots, so any interleaving produces bit-identical
/// fields, recordings and simulated clocks — the pool is purely a host
/// wall-clock optimization.  Collectives (ExecModel::exchange/allreduce)
/// are serial barrier points and must stay outside parallel regions.
///
/// Waiting: an idle worker, and a caller waiting for the last index of
/// its run(), first spin for up to kSpinWindow and only then block on a
/// condition variable.  Kernels called back to back (one fork/join per
/// kernel call on rank-parallel runs) therefore find the workers awake
/// instead of paying a futex wake-up per call, whose latency on a shared
/// or virtualized host is both large and unsteady.
/// A pool with more lanes than hardware threads never spins, so
/// oversubscribed pools do not burn the cores their own lanes need.

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

namespace v2d {

class ThreadPool {
public:
  /// A pool with `threads` execution lanes in total.  The calling thread
  /// participates in every run(), so `threads - 1` workers are spawned.
  explicit ThreadPool(int threads);
  ~ThreadPool();
  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  int size() const { return size_; }

  /// How long an idle lane spins before it blocks (see the file comment).
  static constexpr std::chrono::microseconds kSpinWindow{50};

  /// Run fn(0) .. fn(n-1), each index exactly once, distributed over the
  /// pool's lanes.  Blocks until every index has completed; the first
  /// exception thrown by any task is rethrown here.  Calls made from
  /// inside a pool task execute inline (no nested parallelism).
  void run(int n, const std::function<void(int)>& fn);

  /// One parallel region.  Workers hold a shared_ptr to the job they are
  /// draining, so a late worker can never touch a caller's stack after
  /// run() returned or mistake a fresh job's indices for an old job's.
  struct Job {
    std::function<void(int)> fn;
    int n = 0;
    std::atomic<int> next{0};
    std::atomic<int> remaining{0};
    std::exception_ptr error;  ///< first failure; guarded by mu_
  };

  /// Hand fn(0) .. fn(n-1) to the *workers only* — the caller does not
  /// participate and does not wait for completion.  Used by the task-graph
  /// layer to turn the pool's workers into resident scheduler lanes for
  /// the duration of a session (each index is one long-running lane loop).
  /// Blocks only until every index has been claimed by a worker, so a
  /// later run()/post() replacing the job slot can never orphan an
  /// unclaimed index.  Returns null when the pool has no workers; pass the
  /// handle to wait() to join.
  std::shared_ptr<Job> post(int n, const std::function<void(int)>& fn);

  /// Block until every index of a post()ed job has finished.
  void wait(const std::shared_ptr<Job>& job);

private:
  void worker_loop();
  void execute(Job& job);

  int size_ = 1;
  std::mutex mu_;
  std::condition_variable wake_cv_;
  std::condition_variable done_cv_;
  std::shared_ptr<Job> job_;
  bool stop_ = false;
  /// Bumped under mu_ whenever job_ or stop_ changes, so a spinning
  /// worker can see new work without taking the lock.
  std::atomic<std::uint64_t> posted_{0};
  bool spin_ = false;  ///< size_ <= hardware threads
  std::vector<std::thread> workers_;
};

/// Process-wide pool used by the rank-parallel helpers.  Sized by
/// set_host_threads(); defaults to the hardware concurrency.  Callers pin
/// the pool with the returned shared_ptr for the duration of a region, so
/// a concurrent set_host_threads() can never destroy a pool mid-region —
/// a replaced pool lives until its last in-flight region releases it.
std::shared_ptr<ThreadPool> host_pool();

/// Resize the global pool (`threads <= 0` restores the hardware-concurrency
/// default).  Regions already running keep the old pool alive and finish
/// on it; only subsequent parallel_for calls see the new size.
void set_host_threads(int threads);

/// Current lane count of the global pool.
int host_threads();

/// True while the current thread is draining a pool job (including the
/// resident scheduler lanes a task-graph session posts).
bool in_pool_task();

namespace detail {
/// Task-graph session hook (set by support/task_graph.cpp).  When the
/// driving thread has an open session, parallel_for routes through the
/// session's resident workers instead of fork/joining the pool: the
/// session first drains any chained tasks (so a barrier loop observes all
/// of its inputs) and then runs the loop as one synchronous stage.  The
/// hook keeps this header free of a task_graph dependency.
extern thread_local void* t_graph_session;  ///< driving thread's Session
extern thread_local bool t_in_graph_task;   ///< inside a session task body
extern void (*g_session_run)(void* session, int n,
                             const std::function<void(int)>& fn);
}  // namespace detail

/// parallel_for over the global pool, with a serial fast path when the
/// pool has a single lane or there is at most one index.  Under an open
/// task-graph session (--host-sched graph) the loop becomes a synchronous
/// stage on the session's resident workers instead of a pool fork/join.
template <typename Fn>
void parallel_for(int n, Fn&& fn) {
  if (detail::t_graph_session != nullptr) {
    if (detail::t_in_graph_task) {
      // Nested loop inside a session task: the lanes are busy running the
      // outer stage, so inline is both safe and the fastest option.
      for (int i = 0; i < n; ++i) fn(i);
      return;
    }
    // Route every size through the session (even n <= 1): the session must
    // drain chained predecessor tasks before the body reads their output.
    detail::g_session_run(detail::t_graph_session, n,
                          std::function<void(int)>(std::forward<Fn>(fn)));
    return;
  }
  const std::shared_ptr<ThreadPool> pool = host_pool();  // pins the pool
  if (n <= 1 || pool->size() <= 1) {
    for (int i = 0; i < n; ++i) fn(i);
    return;
  }
  pool->run(n, std::function<void(int)>(std::forward<Fn>(fn)));
}

/// Rank-parallel loop over a decomposition-like object (anything with
/// nranks()): runs fn(rank) for every simulated rank, concurrently when
/// the host pool has more than one lane.  Only valid when ranks touch
/// disjoint data — which every V2D rank loop guarantees, since ranks own
/// disjoint tiles.  For priced loops that commit kernel calls, use the
/// ExecContext-aware overload in linalg/exec_context.hpp instead.
template <typename Dec, typename Fn>
void par_ranks(const Dec& dec, Fn&& fn) {
  parallel_for(dec.nranks(), std::forward<Fn>(fn));
}

}  // namespace v2d
