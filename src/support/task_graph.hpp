#pragma once
/// \file task_graph.hpp
/// \brief Zero-valued host scheduler counters, kept for the benchmark.
///
/// Rank-parallel work runs on one executor, the barrier ThreadPool
/// (support/thread_pool.hpp), which counts no scheduler tasks or steals.
/// The only reader left is perfbench/src/probes.cpp: it snapshots stats()
/// around its timed steps and reports the zero deltas as bypassed (and it
/// copies linalg::ExecContext::sched).  A change to the benchmark can drop
/// this header together with that field.

#include <cstdint>

namespace v2d::task_graph {

struct SchedStats {
  std::uint64_t tasks = 0;
  std::uint64_t steals = 0;

  SchedStats since(const SchedStats& earlier) const {
    return {tasks - earlier.tasks, steals - earlier.steals};
  }
};

/// Always zero: the barrier pool schedules no graph tasks.
inline SchedStats stats() { return {}; }

}  // namespace v2d::task_graph
