/// \file test_rank_parallel.cpp
/// \brief The rank-parallel host execution engine: thread-pool semantics
/// and the bit-identical-to-serial contract.
///
/// Ranks own disjoint tiles and disjoint clock/ledger slots, so executing
/// them concurrently must change *nothing* observable: fields, per-rank
/// ledgers and simulated clocks are compared exactly (==, not near)
/// between --host-threads 1 and 4+ runs, in both VLA exec modes, and
/// across fuse modes, unganged dots, the multigrid preconditioner, a hydro
/// scenario and a mixed farm.

#include <gtest/gtest.h>

#include <atomic>
#include <cstddef>
#include <string>
#include <vector>

#include "core/v2d.hpp"
#include "farm/farm.hpp"
#include "grid/decomp.hpp"
#include "grid/grid2d.hpp"
#include "linalg/dist_vector.hpp"
#include "linalg/exec_context.hpp"
#include "sim_capture.hpp"
#include "support/dd.hpp"
#include "support/error.hpp"
#include "support/rng.hpp"
#include "support/thread_pool.hpp"

namespace v2d {
namespace {

using testutil::SimCapture;

// --- thread pool -------------------------------------------------------------

TEST(ThreadPoolTest, RunsEveryIndexExactlyOnce) {
  ThreadPool pool(4);
  EXPECT_EQ(pool.size(), 4);
  std::vector<std::atomic<int>> hits(1000);
  pool.run(1000, [&](int i) { hits[static_cast<std::size_t>(i)]++; });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPoolTest, SingleLanePoolRunsInline) {
  ThreadPool pool(1);
  int order_ok = 1;
  int last = -1;
  pool.run(16, [&](int i) {
    if (i != last + 1) order_ok = 0;
    last = i;
  });
  EXPECT_EQ(order_ok, 1);  // serial fast path keeps loop order
}

TEST(ThreadPoolTest, PropagatesFirstExceptionAndStaysUsable) {
  ThreadPool pool(4);
  EXPECT_THROW(pool.run(100,
                        [&](int i) {
                          if (i == 37) throw Error("task failure");
                        }),
               Error);
  // The pool survives a failed region.
  std::atomic<int> count{0};
  pool.run(64, [&](int) { count++; });
  EXPECT_EQ(count.load(), 64);
}

TEST(ThreadPoolTest, NestedRunExecutesInline) {
  ThreadPool pool(4);
  std::vector<std::atomic<int>> hits(16);
  pool.run(4, [&](int outer) {
    pool.run(4, [&](int inner) {
      hits[static_cast<std::size_t>(4 * outer + inner)]++;
    });
  });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPoolTest, SetHostThreadsResizesGlobalPool) {
  set_host_threads(3);
  EXPECT_EQ(host_threads(), 3);
  set_host_threads(0);  // restore hardware-concurrency default
  EXPECT_GE(host_threads(), 1);
}

// --- bit-identical contract ---------------------------------------------------

/// dot_ganged of {x·y, x·x} over random fields on an nx1×nx2 grid tiled
/// px×py, at 1, 4 and 7 host threads; every thread count must return the
/// same bits.  Returns the 1-thread result.
std::vector<double> expect_dot_ganged_thread_invariant(
    int nx1, int nx2, int px, int py, const linalg::DistVector& x,
    const linalg::DistVector& y) {
  std::vector<double> reference;
  for (const int threads : {1, 4, 7}) {
    set_host_threads(threads);
    linalg::ExecContext ctx(vla::VectorArch(512), nullptr,
                            vla::VlaExecMode::Native);
    const linalg::DistVector::DotPair pairs[2] = {{&x, &y}, {&x, &x}};
    const auto out = linalg::DistVector::dot_ganged(
        ctx, std::span<const linalg::DistVector::DotPair>(pairs, 2));
    if (reference.empty()) {
      reference = out;
    } else {
      EXPECT_EQ(out.size(), reference.size());
      for (std::size_t k = 0; k < out.size() && k < reference.size(); ++k)
        EXPECT_EQ(out[k], reference[k])
            << nx1 << "x" << nx2 << " on " << px << "x" << py
            << " threads=" << threads;
    }
  }
  set_host_threads(0);
  return reference;
}

void fill_random(const grid::Grid2D& g, Rng& rng, linalg::DistVector& x,
                 linalg::DistVector& y) {
  for (int j = 0; j < g.nx2(); ++j) {
    for (int i = 0; i < g.nx1(); ++i) {
      for (int s = 0; s < 2; ++s) {
        x.field().gset(s, i, j, rng.uniform(-1.0, 1.0));
        y.field().gset(s, i, j, rng.uniform(-1.0, 1.0));
      }
    }
  }
}

/// Ganged inner products accumulate per-rank partials merged in rank
/// order, so the value cannot depend on the host-thread count.
TEST(RankParallelTest, DotGangedInvariantUnderThreadCount) {
  const grid::Grid2D g(48, 24, -1.0, 1.0, -0.5, 0.5);
  const grid::Decomposition d(g, mpisim::CartTopology(4, 2));
  linalg::DistVector x(g, d, 2), y(g, d, 2);
  Rng rng(42);
  fill_random(g, rng, x, y);
  (void)expect_dot_ganged_thread_invariant(48, 24, 4, 2, x, y);
}

/// Tile rows of 16 and 17 zones (50 over 3 ranks) leave a scalar lane
/// tail in every row.  The result must still be thread-invariant, and
/// equal to the lane rule of support/dd.hpp applied serially: one lane
/// set per rank fed row by row, collapsed in rank order.
TEST(RankParallelTest, DotGangedInvariantWithPartialLaneRows) {
  const grid::Grid2D g(50, 30, -1.0, 1.0, -0.5, 0.5);
  const grid::Decomposition d(g, mpisim::CartTopology(3, 5));
  linalg::DistVector x(g, d, 2), y(g, d, 2);
  Rng rng(43);
  fill_random(g, rng, x, y);
  const auto out = expect_dot_ganged_thread_invariant(50, 30, 3, 5, x, y);
  ASSERT_EQ(out.size(), 2u);

  DdAccumulator xy, xx;
  for (int r = 0; r < d.nranks(); ++r) {
    const grid::TileExtent& e = d.extent(r);
    const auto n = static_cast<std::size_t>(e.ni);
    DdLanes lxy, lxx;
    for (int s = 0; s < 2; ++s) {
      const grid::TileView xv = x.field().view(r, s);
      const grid::TileView yv = y.field().view(r, s);
      for (int lj = 0; lj < e.nj; ++lj) lxy.dot_row(xv.row(lj), yv.row(lj), n);
      for (int lj = 0; lj < e.nj; ++lj) lxx.dot_row(xv.row(lj), xv.row(lj), n);
    }
    lxy.collapse_into(xy);
    lxx.collapse_into(xx);
  }
  EXPECT_EQ(out[0], xy.value());
  EXPECT_EQ(out[1], xx.value());
}

/// The 16-rank radiation run every identity test below is built from.
core::RunConfig pulse_config(int host_threads, const std::string& vla_exec,
                             int steps) {
  core::RunConfig cfg;
  cfg.nx1 = 64;
  cfg.nx2 = 32;
  cfg.ns = 2;
  cfg.steps = steps;
  cfg.dt = 0.05;
  cfg.nprx1 = 4;
  cfg.nprx2 = 4;  // 16 simulated ranks
  cfg.preconditioner = "spai0";
  cfg.compilers = {"cray", "gnu"};
  cfg.vla_exec = vla_exec;
  cfg.host_threads = host_threads;
  return cfg;
}

SimCapture run_config(const core::RunConfig& cfg) {
  core::Simulation sim(cfg);
  sim.run();
  const SimCapture out = testutil::capture(sim);
  set_host_threads(0);
  return out;
}

/// The acceptance criterion: a radiation run on 16 simulated ranks with
/// --host-threads 1 vs 4+ produces identical field results, identical
/// per-rank ledgers and identical simulated clocks.
TEST(RankParallelTest, RadiationRunBitIdenticalAcrossHostThreads) {
  const SimCapture serial = run_config(pulse_config(1, "native", 2));
  const SimCapture par4 = run_config(pulse_config(4, "native", 2));
  testutil::expect_captures_identical(serial, par4, "native@4");
  const SimCapture par_hw = run_config(pulse_config(0, "native", 2));
  testutil::expect_captures_identical(serial, par_hw, "native@hw");
}

TEST(RankParallelTest, InterpretModeBitIdenticalAcrossHostThreads) {
  const SimCapture serial = run_config(pulse_config(1, "interpret", 1));
  const SimCapture par = run_config(pulse_config(4, "interpret", 1));
  testutil::expect_captures_identical(serial, par, "interpret@4");
}

/// Fused kernels reshape the per-iteration kernel sequence (fewer, bigger
/// calls; planner groups under --fuse on): every fuse mode must stay
/// bit-identical across host-thread counts.
TEST(RankParallelTest, FuseModesBitIdenticalAcrossHostThreads) {
  for (const char* fuse : {"off", "on", "plan"}) {
    core::RunConfig serial = pulse_config(1, "native", 2);
    serial.nx1 = 48;
    serial.nx2 = 24;
    serial.nprx1 = 2;
    serial.nprx2 = 2;
    serial.fuse = fuse;
    core::RunConfig par4 = serial;
    par4.host_threads = 4;
    testutil::expect_captures_identical(
        run_config(serial), run_config(par4),
        std::string("fuse=") + fuse + "@4");
  }
}

/// Classic (unganged) BiCGSTAB dots take the same rank-ordered
/// compensated path as the ganged reductions and must stay bit-identical
/// — fields, per-profile clocks and full ledgers — in both VLA backends.
TEST(RankParallelTest, ClassicDotsBitIdenticalAcrossHostThreads) {
  for (const char* mode : {"native", "interpret"}) {
    const std::string vla_exec(mode);
    core::RunConfig serial = pulse_config(1, vla_exec, 1);
    serial.nx1 = 48;
    serial.nx2 = 24;
    serial.nprx1 = 2;
    serial.nprx2 = 2;
    serial.ganged = false;
    core::RunConfig par4 = serial;
    par4.host_threads = 4;
    testutil::expect_captures_identical(run_config(serial), run_config(par4),
                                        vla_exec + "+classic@4");
  }
}

/// The V-cycle's corner-filling transfers and smoother stages.
TEST(RankParallelTest, MgPrecondBitIdenticalAcrossHostThreads) {
  for (const char* fuse : {"off", "on"}) {
    core::RunConfig serial = pulse_config(1, "native", 2);
    serial.preconditioner = "mg";
    serial.fuse = fuse;
    core::RunConfig par4 = serial;
    par4.host_threads = 4;
    testutil::expect_captures_identical(
        run_config(serial), run_config(par4),
        std::string("mg+fuse=") + fuse + "@4");
  }
}

/// The coupled radhydro scenario pins field, clock and ledger identity
/// for the hydro sweeps.
TEST(RankParallelTest, HydroScenarioBitIdenticalAcrossHostThreads) {
  core::RunConfig serial;
  serial.problem = "sedov-radhydro";
  serial.nx1 = 32;
  serial.nx2 = 32;
  serial.steps = 2;
  serial.nprx1 = 2;
  serial.nprx2 = 2;
  serial.host_threads = 1;
  core::RunConfig par4 = serial;
  par4.host_threads = 4;
  testutil::expect_captures_identical(run_config(serial), run_config(par4),
                                      "sedov@4");
}

/// A farm mixing fused and unfused jobs matches each job's solo run
/// exactly, regardless of where the job lands.
TEST(RankParallelTest, MixedFarmBitIdenticalToSolo) {
  std::vector<farm::FarmJob> jobs;

  core::RunConfig pulse = pulse_config(1, "native", 2);
  pulse.nx1 = 48;
  pulse.nx2 = 24;
  pulse.nprx1 = 2;
  pulse.nprx2 = 2;
  jobs.push_back({"pulse", pulse});

  core::RunConfig relax;
  relax.problem = "two-species-relax";
  relax.nx1 = 24;
  relax.nx2 = 24;
  relax.steps = 2;
  relax.fuse = "on";
  relax.host_threads = 1;
  jobs.push_back({"relax-fused", relax});

  std::vector<SimCapture> solo;
  solo.reserve(jobs.size());
  for (const auto& j : jobs) solo.push_back(run_config(j.cfg));

  farm::FarmOptions opt;
  opt.host_threads = 3;
  std::vector<SimCapture> farmed(jobs.size());
  opt.on_job_complete = [&farmed](std::size_t i, core::Simulation& sim) {
    farmed[i] = testutil::capture(sim);
  };
  farm::FarmScheduler sched(opt);
  for (const auto& j : jobs) sched.add(j);
  const farm::FarmSummary sum = sched.run();
  set_host_threads(0);
  ASSERT_EQ(sum.failed, 0u);

  for (std::size_t i = 0; i < jobs.size(); ++i)
    testutil::expect_captures_identical(solo[i], farmed[i],
                                        jobs[i].name + "@farm");
}

}  // namespace
}  // namespace v2d
