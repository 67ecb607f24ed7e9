/// \file bench_rank_parallel.cpp
/// \brief Host wall-time scaling of the rank-parallel execution engine.
///
/// Everything the simulator prices is unchanged by --host-threads and
/// --host-sched (the rank-parallel engine is bit-identical to serial by
/// construction, and this bench re-verifies that on every run): what
/// changes is how long the *host* takes to execute the simulated ranks.
/// This binary runs the paper's radiation problem on a >= 16-rank tiling
/// at each requested (host-thread count, scheduler) leg — the barrier
/// fork/join pool, the dependency-scheduled task graph with the affinity
/// placement policy disabled ("graph"), and the full wave-2 scheduler
/// ("graph+affinity": home lanes + idle-lane steal fallback) — best of
/// --repeats timing samples so noisy shared CI runners don't flake the
/// gates, checks the simulated clocks and the final field of every sample
/// against the serial baseline, and emits BENCH_rank_parallel.json with
/// all scaling curves plus each row's scheduler-counter breakdown
/// (tasks, chained, steals, home-lane hits, combine nodes).
///
/// Three conditional floors:
///   * >= 2x at 4 threads — only when the machine has >= 4 hardware
///     threads (any scheduler);
///   * graph legs >= 0.95x barrier at the same thread count — only when
///     the machine has >= 2 hardware threads (on one core both
///     schedulers serialize and the ratio is pure scheduling noise);
///   * graph+affinity >= 1.0x plain graph at the same thread count —
///     same >= 2-core condition (affinity must never lose to the
///     submitter-lane placement it replaced).
///
///   ./bench_rank_parallel [--nx1 256 --nx2 128 --nprx1 4 --nprx2 4]
///                         [--threads 1,2,4]
///                         [--scheds barrier,graph,graph+affinity]
///                         [--steps 1]

#include <chrono>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "core/v2d.hpp"
#include "support/options.hpp"
#include "support/table.hpp"
#include "support/task_graph.hpp"
#include "support/thread_pool.hpp"

namespace {

using namespace v2d;

/// graph must keep >= this fraction of barrier's host throughput at the
/// same thread count (mirrored by tools/check_bench.py).
constexpr double kGraphFloor = 0.95;
constexpr int kGraphFloorCores = 2;
/// graph+affinity must keep >= this fraction of plain graph's throughput
/// at the same thread count (also mirrored by tools/check_bench.py).
constexpr double kAffinityFloor = 1.0;

struct Result {
  int threads = 0;
  std::string sched = "barrier";
  double host_seconds = 0.0;
  double speedup = 1.0;        // vs the first (serial baseline) row
  double vs_barrier = 1.0;     // this row's throughput / barrier's, same threads
  double vs_graph = 1.0;       // affinity row's throughput / plain graph's
  double sim_elapsed_s = 0.0;  // simulated wall clock (profile 0)
  bool identical = true;       // field + clocks match the serial baseline
  /// Scheduler-counter deltas of the best-timed repetition (task_graph
  /// stats; all zero on barrier rows).
  std::uint64_t sched_tasks = 0;
  std::uint64_t sched_chained = 0;
  std::uint64_t sched_steals = 0;
  std::uint64_t sched_affinity_hits = 0;
  std::uint64_t sched_combines = 0;
  /// What happened to the >= 2x-at-4-threads floor on this row:
  /// "enforced" (conditions met, floor judged), "skipped" (a gate row,
  /// but the host lacks the cores to deliver the parallelism — the
  /// ROADMAP-noted silent never-firing case, now visible in the JSON),
  /// or "n/a" (not a gate row: < 4 threads or < 16 ranks).
  std::string speedup_gate = "n/a";
  /// Same idea for the graph-vs-barrier regression floor: "enforced"
  /// (graph-family row, barrier sibling present, >= 2 host cores),
  /// "skipped" (graph-family row on a cores-starved host) or "n/a"
  /// (barrier row).
  std::string graph_floor = "n/a";
  /// And for the affinity-vs-plain-graph floor: "enforced"
  /// (graph+affinity row, >= 2 host cores), "skipped" (graph+affinity
  /// row on a cores-starved host) or "n/a" (other rows).
  std::string affinity_floor = "n/a";
};

struct Baseline {
  std::vector<double> field;
  std::vector<double> clocks;
  bool set = false;
};

void write_json(const std::string& path, const std::vector<Result>& results,
                int ranks, int nx1, int nx2, int host_cores) {
  std::ofstream os(path);
  os << "[\n";
  for (std::size_t i = 0; i < results.size(); ++i) {
    const Result& r = results[i];
    char buf[1024];
    std::snprintf(
        buf, sizeof buf,
        "  {\"threads\": %d, \"sched\": \"%s\", "
        "\"host_seconds\": %.6f, \"speedup\": %.3f, "
        "\"vs_barrier\": %.3f, \"vs_graph\": %.3f, "
        "\"sim_elapsed_s\": %.6f, "
        "\"identical\": %s, \"ranks\": %d, \"nx1\": %d, "
        "\"nx2\": %d, \"host_cores\": %d, "
        "\"sched_tasks\": %llu, \"sched_chained\": %llu, "
        "\"sched_steals\": %llu, \"sched_affinity_hits\": %llu, "
        "\"sched_combines\": %llu, "
        "\"speedup_gate\": \"%s\", \"graph_floor\": \"%s\", "
        "\"affinity_floor\": \"%s\"}%s\n",
        r.threads, r.sched.c_str(), r.host_seconds, r.speedup, r.vs_barrier,
        r.vs_graph, r.sim_elapsed_s, r.identical ? "true" : "false", ranks,
        nx1, nx2, host_cores,
        static_cast<unsigned long long>(r.sched_tasks),
        static_cast<unsigned long long>(r.sched_chained),
        static_cast<unsigned long long>(r.sched_steals),
        static_cast<unsigned long long>(r.sched_affinity_hits),
        static_cast<unsigned long long>(r.sched_combines),
        r.speedup_gate.c_str(), r.graph_floor.c_str(),
        r.affinity_floor.c_str(), i + 1 < results.size() ? "," : "");
    os << buf;
  }
  os << "]\n";
}

std::vector<std::string> split_list(const std::string& csv) {
  std::vector<std::string> out;
  std::stringstream ss(csv);
  std::string item;
  while (std::getline(ss, item, ','))
    if (!item.empty()) out.push_back(item);
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  Options opt;
  opt.add("nx1", "256", "zones in x1");
  opt.add("nx2", "128", "zones in x2");
  opt.add("nprx1", "4", "tiles in x1");
  opt.add("nprx2", "4", "tiles in x2 (nprx1*nprx2 simulated ranks)");
  opt.add("steps", "2", "time steps per run");
  opt.add("repeats", "3", "timing repetitions per configuration (best kept)");
  opt.add("threads", "1,2,4", "comma list of host-thread counts");
  opt.add("scheds", "barrier,graph,graph+affinity",
          "comma list of host scheduler legs "
          "(barrier|graph|graph+affinity)");
  opt.add("vla-exec", "native", "VLA backend: native | interpret");
  opt.add("out", "BENCH_rank_parallel.json", "JSON output path (empty = none)");
  try {
    opt.parse(argc, argv);
  } catch (const Error& e) {
    std::cerr << e.what() << '\n' << opt.usage("bench_rank_parallel");
    return 1;
  }

  std::vector<int> thread_counts;
  for (const std::string& item : split_list(opt.get("threads")))
    thread_counts.push_back(std::stoi(item));
  if (thread_counts.empty() || thread_counts.front() != 1) {
    std::cerr << "--threads must start with 1 (the serial baseline)\n";
    return 1;
  }
  const std::vector<std::string> scheds = split_list(opt.get("scheds"));
  if (scheds.empty() || scheds.front() != "barrier") {
    std::cerr << "--scheds must start with barrier (the reference engine)\n";
    return 1;
  }

  core::RunConfig cfg;
  cfg.nx1 = opt.get_int<int>("nx1");
  cfg.nx2 = opt.get_int<int>("nx2");
  cfg.steps = opt.get_int<int>("steps");
  cfg.nprx1 = opt.get_int<int>("nprx1");
  cfg.nprx2 = opt.get_int<int>("nprx2");
  cfg.vla_exec = opt.get("vla-exec");
  cfg.compilers = {"cray"};
  const int ranks = cfg.nranks();

  const int host_cores =
      static_cast<int>(std::thread::hardware_concurrency());
  const int repeats =
      std::max(1, opt.get_int<int>("repeats"));
  std::vector<Result> results;
  Baseline base;
  for (const int threads : thread_counts) {
    for (const std::string& sched : scheds) {
      cfg.host_threads = threads;
      // The "graph" and "graph+affinity" legs run the same --host-sched
      // graph executor; the leg name selects the process-wide affinity
      // placement policy, isolating what homing buys over the wave-1
      // submitter-lane placement.
      const bool graph_family = sched != "barrier";
      cfg.host_sched = graph_family ? "graph" : "barrier";
      task_graph::set_affinity(sched == "graph+affinity");
      // Best-of-N timing: shared CI runners are noisy, and only the best
      // sample reflects what the engine can do.  Every repetition's output
      // is still checked against the serial baseline.
      Result r;
      r.threads = threads;
      r.sched = sched;
      r.host_seconds = 1e300;
      std::vector<double> field;
      std::vector<double> clocks;
      for (int rep = 0; rep < repeats; ++rep) {
        const task_graph::SchedStats before = task_graph::stats();
        core::Simulation sim(cfg);  // applies set_host_threads(...)
        const auto t0 = std::chrono::steady_clock::now();
        sim.run();
        const double host_s = std::chrono::duration<double>(
                                  std::chrono::steady_clock::now() - t0)
                                  .count();
        if (host_s < r.host_seconds) {
          r.host_seconds = host_s;
          const task_graph::SchedStats d = task_graph::stats().since(before);
          r.sched_tasks = d.tasks;
          r.sched_chained = d.chained_tasks;
          r.sched_steals = d.steals;
          r.sched_affinity_hits = d.affinity_hits;
          r.sched_combines = d.combines;
        }
        r.sim_elapsed_s = sim.elapsed(0);
        field = sim.radiation().field().gather_global();
        clocks.clear();
        for (int rank = 0; rank < sim.exec().nranks(); ++rank)
          clocks.push_back(sim.exec().rank_time(0, rank));
        if (base.set && (field != base.field || clocks != base.clocks))
          r.identical = false;
      }
      if (!base.set) {
        base.field = field;
        base.clocks = clocks;
        base.set = true;
      } else {
        r.speedup = results.front().host_seconds / r.host_seconds;
      }
      results.push_back(r);
      std::cerr << "  threads=" << threads << " sched=" << sched
                << "  host=" << r.host_seconds << " s  speedup=" << r.speedup
                << "\n";
    }
  }
  task_graph::set_affinity(true);  // restore the default-on policy

  // Pair every graph-family row with its barrier sibling at the same
  // thread count, and every affinity row with its plain-graph sibling.
  for (Result& r : results) {
    if (r.sched == "barrier") continue;
    for (const Result& b : results) {
      if (b.sched == "barrier" && b.threads == r.threads) {
        r.vs_barrier = b.host_seconds / r.host_seconds;
        break;
      }
    }
    if (r.sched != "graph+affinity") continue;
    for (const Result& g : results) {
      if (g.sched == "graph" && g.threads == r.threads) {
        r.vs_graph = g.host_seconds / r.host_seconds;
        break;
      }
    }
  }

  TableWriter table("Rank-parallel host execution: wall-time scaling (" +
                    std::to_string(ranks) + " simulated ranks, " +
                    cfg.vla_exec + " backend)");
  table.set_columns({"host threads", "sched", "host (s)", "speedup",
                     "vs barrier", "vs graph", "home-lane", "steals",
                     "combines", "sim (s)", "bit-identical"});
  bool identical_ok = true;
  bool speedup_ok = true;
  bool floor_ok = true;
  bool affinity_ok = true;
  for (const Result& r : results) {
    const double home_pct =
        r.sched_chained
            ? 100.0 * static_cast<double>(r.sched_affinity_hits) /
                  static_cast<double>(r.sched_chained)
            : 0.0;
    table.add_row(
        {TableWriter::integer(r.threads), r.sched,
         TableWriter::num(r.host_seconds, 4), TableWriter::num(r.speedup, 2),
         r.sched == "barrier" ? "-" : TableWriter::num(r.vs_barrier, 2),
         r.sched == "graph+affinity" ? TableWriter::num(r.vs_graph, 2) : "-",
         r.sched == "graph+affinity" ? TableWriter::num(home_pct, 1) + "%"
                                     : "-",
         TableWriter::integer(static_cast<long>(r.sched_steals)),
         TableWriter::integer(static_cast<long>(r.sched_combines)),
         TableWriter::num(r.sim_elapsed_s, 4), r.identical ? "yes" : "NO"});
    if (!r.identical) identical_ok = false;
  }
  // The engine's raison d'etre: >= 2x at 4 threads on a >= 16-rank
  // configuration — only judged when the host can physically deliver it.
  // Each gate row records whether the floor was enforced or skipped, so a
  // cores-starved runner shows "skipped" in the JSON instead of silently
  // passing.
  for (Result& r : results) {
    if (r.threads >= 4 && ranks >= 16) {
      if (host_cores < r.threads) {
        r.speedup_gate = "skipped";
      } else {
        r.speedup_gate = "enforced";
        if (r.speedup < 2.0) speedup_ok = false;
      }
    }
    // The graph regression floor: never more than 5% behind barrier at
    // the same thread count — judged only with >= 2 host cores (serial
    // machines measure scheduling noise, not scheduling).  Both graph
    // legs are held to it.
    if (r.sched != "barrier") {
      if (host_cores < kGraphFloorCores) {
        r.graph_floor = "skipped";
      } else {
        r.graph_floor = "enforced";
        if (r.vs_barrier < kGraphFloor) floor_ok = false;
      }
    }
    // The affinity floor: homing must never lose to the submitter-lane
    // placement it replaced — same >= 2-core condition.
    if (r.sched == "graph+affinity") {
      if (host_cores < kGraphFloorCores) {
        r.affinity_floor = "skipped";
      } else {
        r.affinity_floor = "enforced";
        if (r.vs_graph < kAffinityFloor) affinity_ok = false;
      }
    }
  }
  table.print(std::cout);
  std::cout << "host cores: " << host_cores << "\n";

  const std::string out = opt.get("out");
  if (!out.empty()) {
    write_json(out, results, ranks, cfg.nx1, cfg.nx2, host_cores);
    std::cout << "wrote " << out << "\n";
  }
  if (!identical_ok) {
    std::cerr << "FAIL: rank-parallel run diverged from the serial "
                 "baseline (field or simulated clocks differ)\n";
    return 1;
  }
  if (!speedup_ok) {
    std::cerr << "FAIL: under 2x host speedup at 4 threads despite >= 4 "
                 "host cores\n";
    return 1;
  }
  if (!floor_ok) {
    std::cerr << "FAIL: --host-sched graph fell below " << kGraphFloor
              << "x of barrier at the same thread count despite >= "
              << kGraphFloorCores << " host cores\n";
    return 1;
  }
  if (!affinity_ok) {
    std::cerr << "FAIL: graph+affinity fell below " << kAffinityFloor
              << "x of plain graph at the same thread count despite >= "
              << kGraphFloorCores << " host cores\n";
    return 1;
  }
  return 0;
}
