#pragma once
/// \file probes.hpp
/// \brief Per-layer probes, timed from outside the library.
///
/// After a workload's timed steps the benchmark calls each layer's public
/// functions on the warmed session's own objects and shapes and times the
/// calls with its own clock.  Nothing inside the library is instrumented.
/// Per-step call counts come from the session's cost ledger (profile 0,
/// summed over ranks) and the process-wide memo and scheduler counters,
/// so probe time per call × calls per step attributes a step's host time
/// to layers (core.attributed_frac checks the sum against the step).

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "core/v2d.hpp"
#include "farm/farm.hpp"
#include "sim/ledger.hpp"
#include "support/task_graph.hpp"
#include "trace.hpp"

namespace perfbench {

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
  /// The workload bypasses this layer: the value is the probe's standalone
  /// cost (or a count of 0) and the prediction for the workload is no
  /// change.
  bool bypassed = false;
};

/// Counters that per-step counts are differenced from.
struct CounterSnapshot {
  v2d::sim::CostLedger ledger;  ///< profile 0, merged over ranks
  std::uint64_t memo_hits = 0;
  std::uint64_t memo_misses = 0;
  v2d::task_graph::SchedStats sched;

  static CounterSnapshot take(const v2d::core::Simulation& sim);
};

/// Work per scenario-step over a measured interval.  These are
/// deterministic counts of the model, not performance.
struct StepCounts {
  double iterations = 0.0;    ///< Krylov iterations
  double kernel_calls = 0.0;  ///< priced per-rank kernel calls
  double bytes = 0.0;         ///< recorded bytes read + written (computed)
  double memo_probes = 0.0;   ///< count-memo lookups
  double memo_hit_ratio = 0.0;
  double sched_tasks = 0.0;
  double sched_steals = 0.0;
  std::map<std::string, double> elements;  ///< per ledger region
  std::map<std::string, double> calls;     ///< per ledger region

  static StepCounts between(const CounterSnapshot& before,
                            const CounterSnapshot& after, double steps,
                            double iterations);
};

/// What the probes run on and report against.
struct ProbeInput {
  v2d::core::Simulation* sim = nullptr;
  StepCounts counts;
  /// Median host seconds of this session's steps (the attribution base).
  double step_s = 0.0;
  /// The farm's last batch, or null for the solo paper workloads.
  const v2d::farm::FarmSummary* farm = nullptr;
  /// The farm's shared price memo (null: probe a private one — the solo
  /// workloads price without a memo).
  std::shared_ptr<v2d::mpisim::PriceMemo> price_memo;
  std::string work_dir;  ///< scratch directory for checkpoint files
};

/// Run every layer probe and return the per-layer metrics (core.*
/// attribution included; core.first_step_s and the tracing overhead are
/// the caller's).
std::vector<Metric> run_probes(const ProbeInput& in, Tracer& tracer);

}  // namespace perfbench
