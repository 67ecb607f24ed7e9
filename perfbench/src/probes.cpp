#include "probes.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <exception>
#include <filesystem>
#include <functional>
#include <thread>

#include "compiler/profile.hpp"
#include "grid/decomp.hpp"
#include "grid/grid2d.hpp"
#include "hydro/euler.hpp"
#include "hydro/setups.hpp"
#include "linalg/dist_vector.hpp"
#include "linalg/precond.hpp"
#include "linalg/stencil_op.hpp"
#include "mpisim/price_memo.hpp"
#include "rad/radstep.hpp"
#include "sim/machine.hpp"
#include "stats.hpp"
#include "support/thread_pool.hpp"
#include "vla/vla.hpp"

namespace perfbench {

namespace {

using Clock = std::chrono::steady_clock;

double since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

template <typename F>
double time_n(F& fn, std::size_t n) {
  const auto t0 = Clock::now();
  for (std::size_t i = 0; i < n; ++i) fn();
  return since(t0);
}

/// Median host seconds per call of fn.  One warm call, then an inner batch
/// grown until it lasts at least 2 ms (so clock resolution never shows),
/// then 5 to 40 batches to fill about `budget_s`.
template <typename F>
double per_call_s(F&& fn, double budget_s = 0.1) {
  fn();
  std::size_t inner = 1;
  double t = time_n(fn, inner);
  while (t < 2.0e-3 && inner < (std::size_t{1} << 24)) {
    inner *= 2;
    t = time_n(fn, inner);
  }
  const int batches = std::clamp(static_cast<int>(budget_s / t), 5, 40);
  std::vector<double> per;
  for (int b = 0; b < batches; ++b)
    per.push_back(time_n(fn, inner) / static_cast<double>(inner));
  return median(per);
}

/// Seconds per call when two threads call fn(thread) n times each at
/// once: the slower thread's wall over n, median of 5 repeats.
template <typename F>
double per_call_s_2threads(F&& fn, std::size_t n) {
  std::vector<double> per;
  for (int rep = 0; rep < 5; ++rep) {
    std::atomic<int> ready{0};
    std::atomic<bool> go{false};
    double wall[2] = {0.0, 0.0};
    std::exception_ptr err[2];
    auto body = [&](int t) {
      try {
        ready.fetch_add(1);
        while (!go.load(std::memory_order_acquire)) std::this_thread::yield();
        const auto t0 = Clock::now();
        for (std::size_t i = 0; i < n; ++i) fn(t);
        wall[t] = since(t0);
      } catch (...) {
        err[t] = std::current_exception();
      }
    };
    {
      std::vector<std::jthread> threads;
      // Declared after `threads`, so it is destroyed first: `go` is set
      // before the threads are joined, on the exception path too.
      struct Release {
        std::atomic<bool>& go;
        ~Release() { go.store(true, std::memory_order_release); }
      } release{go};
      threads.emplace_back(body, 0);
      threads.emplace_back(body, 1);
      while (ready.load() < 2) std::this_thread::yield();
    }
    for (const auto& e : err)
      if (e) std::rethrow_exception(e);
    per.push_back(std::max(wall[0], wall[1]) / static_cast<double>(n));
  }
  return median(per);
}

/// The average single call of a ledger region (integer division).
v2d::sim::KernelCounts per_call(const v2d::sim::RegionCost& rc) {
  v2d::sim::KernelCounts c = rc.counts;
  const std::uint64_t calls = std::max<std::uint64_t>(c.calls, 1);
  for (auto& v : c.instr) v /= calls;
  for (auto& v : c.lanes) v /= calls;
  c.bytes_read /= calls;
  c.bytes_written /= calls;
  c.elements /= calls;
  c.calls = 1;
  return c;
}

double lookup(const std::map<std::string, double>& m, const std::string& k) {
  const auto it = m.find(k);
  return it == m.end() ? 0.0 : it->second;
}

}  // namespace

CounterSnapshot CounterSnapshot::take(const v2d::core::Simulation& ses) {
  CounterSnapshot s;
  s.ledger = ses.exec().merged_ledger(0);
  s.memo_hits = v2d::vla::process_memo_hits();
  s.memo_misses = v2d::vla::process_memo_misses();
  s.sched = v2d::task_graph::stats();
  return s;
}

StepCounts StepCounts::between(const CounterSnapshot& before,
                               const CounterSnapshot& after, double steps,
                               double iterations) {
  StepCounts c;
  if (steps <= 0.0) return c;
  c.iterations = iterations / steps;
  for (const auto& [name, rc] : after.ledger.regions()) {
    double calls = static_cast<double>(rc.counts.calls);
    double elements = static_cast<double>(rc.counts.elements);
    double bytes =
        static_cast<double>(rc.counts.bytes_read + rc.counts.bytes_written);
    if (before.ledger.has(name)) {
      const auto& b = before.ledger.at(name);
      calls -= static_cast<double>(b.counts.calls);
      elements -= static_cast<double>(b.counts.elements);
      bytes -= static_cast<double>(b.counts.bytes_read + b.counts.bytes_written);
    }
    c.calls[name] = calls / steps;
    c.elements[name] = elements / steps;
    c.kernel_calls += calls / steps;
    c.bytes += bytes / steps;
  }
  const auto hits = static_cast<double>(after.memo_hits - before.memo_hits);
  const auto misses =
      static_cast<double>(after.memo_misses - before.memo_misses);
  c.memo_probes = (hits + misses) / steps;
  c.memo_hit_ratio = hits + misses > 0.0 ? hits / (hits + misses) : 0.0;
  const auto sched = after.sched.since(before.sched);
  c.sched_tasks = static_cast<double>(sched.tasks) / steps;
  c.sched_steals = static_cast<double>(sched.steals) / steps;
  return c;
}

std::vector<Metric> run_probes(const ProbeInput& in, Tracer& tracer) {
  using namespace v2d;
  core::Simulation& ses = *in.sim;
  const core::RunConfig& cfg = ses.config();
  linalg::ExecContext& ctx = ses.context();
  mpisim::ExecModel& em = ses.exec();
  linalg::DistVector& e = ses.radiation();
  const StepCounts& counts = in.counts;
  const double nranks = static_cast<double>(ses.decomp().nranks());
  const double n_elems = static_cast<double>(e.global_size());
  const bool one_rank = ses.decomp().nranks() == 1;
  const bool is_farm = in.farm != nullptr;

  std::vector<Metric> out;
  auto add = [&out](std::string name, double value, std::string unit,
                    bool bypassed = false) {
    out.push_back({std::move(name), value, std::move(unit), bypassed});
  };

  // The same kernels with no ExecModel: recording still runs, pricing does
  // not, so priced minus bare is the pricing cost per element.
  linalg::ExecContext bare(ctx.vctx.fork(), nullptr, ctx.fuse);
  bare.sched = ctx.sched;

  linalg::DistVector x = e;
  linalg::DistVector y(ses.grid(), ses.decomp(), cfg.ns);
  linalg::DistVector rhs(ses.grid(), ses.decomp(), cfg.ns);
  linalg::StencilOperator A(ses.grid(), ses.decomp(), cfg.ns);

  // --- rad ---------------------------------------------------------------
  double build_s = 0.0, solve_s = 0.0;
  {
    Scope s(tracer, "FldBuilder::build_diffusion", "rad");
    build_s = per_call_s([&] {
      ses.stepper().builder().build_diffusion(ctx, x, e, cfg.dt, A, rhs);
    }, 0.2);
  }
  {
    Scope s(tracer, "RadiationStepper::solve_site", "rad");
    linalg::DistVector xs = e;
    solve_s = per_call_s(
        [&] { (void)ses.stepper().solve_site(ctx, xs, cfg.dt, 0); }, 0.3);
  }
  add("rad.build_s", build_s, "s");
  add("rad.solve_s", solve_s, "s");

  // --- linalg ------------------------------------------------------------
  std::unique_ptr<linalg::Preconditioner> P;
  double precond_build_s = 0.0;
  {
    Scope s(tracer, "make_preconditioner", "linalg");
    precond_build_s = per_call_s(
        [&] { P = linalg::make_preconditioner(cfg.preconditioner, ctx, A); },
        0.1);
  }
  const linalg::DistVector::DotPair pairs[2] = {{&x, &y}, {&x, &x}};
  struct Kernel {
    const char* name;
    const char* span;
    double elems_per_call;
    std::function<void(linalg::ExecContext&)> run;
  };
  const Kernel kernels[] = {
      {"linalg.dot_ganged_ns", "DistVector::dot_ganged", 2.0 * n_elems,
       [&](linalg::ExecContext& c) {
         (void)linalg::DistVector::dot_ganged(c, pairs);
       }},
      {"linalg.matvec_ns", "StencilOperator::apply", n_elems,
       [&](linalg::ExecContext& c) { A.apply(c, x, y); }},
      {"linalg.precond_ns", "Preconditioner::apply", n_elems,
       [&](linalg::ExecContext& c) { P->apply(c, x, y); }},
      {"linalg.axpy_ns", "DistVector::daxpy", n_elems,
       [&](linalg::ExecContext& c) { y.daxpy(c, 1.0e-9, x); }},
  };
  std::map<std::string, double> kernel_ns;
  for (const Kernel& k : kernels) {
    double priced = 0.0, unpriced = 0.0;
    {
      Scope s(tracer, k.span, "linalg");
      priced = per_call_s([&] { k.run(ctx); }) * 1e9 / k.elems_per_call;
    }
    {
      Scope s(tracer, std::string(k.span) + " (bare)", "linalg");
      unpriced = per_call_s([&] { k.run(bare); }) * 1e9 / k.elems_per_call;
    }
    kernel_ns[k.name] = priced;
    add(k.name, priced, "ns/elem");
    add(std::string(k.name) + ".bare", unpriced, "ns/elem");
  }
  add("linalg.precond_build_s", precond_build_s, "s");
  add("linalg.iters_per_step", counts.iterations, "count");
  add("linalg.iter_s",
      counts.iterations > 0.0 ? in.step_s / counts.iterations : 0.0, "s");
  add("linalg.kernel_calls_per_step", counts.kernel_calls, "count");
  add("linalg.bytes_per_step.computed", counts.bytes, "B");

  // --- vla: count-memo lookups on the session's fork family --------------
  {
    Scope s(tracer, "Context::memo_counts", "vla");
    // A key outside the kernel-shape tags the library uses (bit 63 clear,
    // shape byte 0x7E), so probing never shadows a real recording.
    const std::uint64_t key = (std::uint64_t{0x7E} << 56) | 4242u;
    auto make = [] { return sim::KernelCounts{}; };
    vla::Context forks[2] = {ctx.vctx.fork(), ctx.vctx.fork()};
    auto probe = [&](int t) { (void)forks[t].memo_counts(key, make); };
    add("vla.memo_probes_per_step", counts.memo_probes, "count");
    add("vla.memo_hit_ratio", counts.memo_hit_ratio, "ratio");
    add("vla.memo_probe_ns.t1", per_call_s([&] { probe(0); }) * 1e9, "ns");
    add("vla.memo_probe_ns.t2", per_call_s_2threads(probe, 200000) * 1e9,
        "ns");
  }

  // --- mpisim ------------------------------------------------------------
  {
    const sim::KernelCounts kc = per_call(em.ledger(0, 0).at("matvec"));
    const std::uint64_t ws = e.working_set(0, 6);
    {
      Scope s(tracer, "ExecModel::kernel", "mpisim");
      add("mpisim.price_ns", per_call_s([&] {
            em.kernel(0, compiler::KernelFamily::Matvec, "matvec", kc, ws);
          }) * 1e9,
          "ns");
    }
    {
      Scope s(tracer, "ExecModel::allreduce", "mpisim");
      add("mpisim.allreduce_ns",
          per_call_s([&] { em.allreduce(16, "mpi_allreduce"); }) * 1e9, "ns");
    }
    {
      Scope s(tracer, "ExecModel::exchange", "mpisim");
      const auto plan = e.field().ghost_transfer_plan();
      add("mpisim.exchange_ns",
          per_call_s([&] { em.exchange(plan, "mpi_halo"); }) * 1e9, "ns",
          one_rank);
    }
    {
      Scope s(tracer, "PriceMemo::price", "mpisim");
      const auto memo = in.price_memo != nullptr
                            ? in.price_memo
                            : std::make_shared<mpisim::PriceMemo>();
      auto price = [&](int) {
        (void)memo->price(em.cost_model(), em.profile(0),
                          compiler::KernelFamily::Matvec, kc, ws, 1);
      };
      add("mpisim.price_memo_ns.t1", per_call_s([&] { price(0); }) * 1e9,
          "ns", !is_farm);
      add("mpisim.price_memo_ns.t2", per_call_s_2threads(price, 50000) * 1e9,
          "ns", !is_farm);
    }
    add("mpisim.price_memo_hits",
        is_farm ? static_cast<double>(in.farm->price_hits) : 0.0, "count", !is_farm);
    add("mpisim.price_memo_misses",
        is_farm ? static_cast<double>(in.farm->price_misses) : 0.0, "count",
        !is_farm);
  }

  // --- grid --------------------------------------------------------------
  {
    Scope s(tracer, "DistField::exchange_ghosts", "grid");
    grid::DistField& f = x.field();
    double bytes = 0.0;
    for (const auto& t : f.exchange_ghosts()) bytes += static_cast<double>(t.bytes);
    add("grid.halo_s", per_call_s([&] { (void)f.exchange_ghosts(); }), "s",
        one_rank);
    add("grid.halo_bytes", bytes, "B", one_rank);
  }

  // --- support -----------------------------------------------------------
  {
    Scope s(tracer, "ThreadPool::run", "support");
    const auto pool = host_pool();
    const std::function<void(int)> noop = [](int) {};
    add("support.fork_join_us",
        per_call_s([&] { pool->run(16, noop); }) * 1e6, "us",
        pool->size() <= 1);
    add("support.sched_tasks_per_step", counts.sched_tasks, "count",
        counts.sched_tasks == 0.0);
    add("support.sched_steals_per_step", counts.sched_steals, "count",
        counts.sched_tasks == 0.0);
  }

  // --- hydro: a 64x32 Sedov state on one rank, priced like a session -----
  {
    Scope s(tracer, "HydroSolver::step", "hydro");
    const grid::Grid2D g(64, 32, 0.0, 1.0, 0.0, 1.0);
    const grid::Decomposition d(g, mpisim::CartTopology(1, 1));
    std::vector<compiler::CodegenProfile> profiles;
    for (const auto& c : cfg.compilers)
      profiles.push_back(compiler::find_profile(c));
    mpisim::ExecModel hem(sim::MachineSpec::a64fx(), profiles, 1);
    linalg::ExecContext hctx(vla::VectorArch(cfg.vector_bits), &hem,
                             vla::VlaExecMode::Native);
    const hydro::GammaLawEos eos(5.0 / 3.0);
    hydro::HydroState state(g, d);
    hydro::setup_sedov(state, eos, 1.0, 0.08);
    hydro::HydroSolver solver(g, d, eos, hydro::HydroBc::Reflecting, 0.3);
    const double dt = solver.cfl_dt(hctx, state);
    add("hydro.step_ns",
        per_call_s([&] { solver.step(hctx, state, dt); }) * 1e9 /
            static_cast<double>(g.zones()),
        "ns/zone", !is_farm);
  }

  // --- io: checkpoint and restart of the warmed session ------------------
  {
    const std::string path = in.work_dir + "/probe-checkpoint.h5l";
    double ck = 0.0, rs = 0.0;
    {
      Scope s(tracer, "Simulation::checkpoint", "io");
      ck = per_call_s([&] { ses.checkpoint(path); }, 0.1);
    }
    const auto bytes = static_cast<double>(std::filesystem::file_size(path));
    {
      Scope s(tracer, "Simulation::restart", "io");
      rs = per_call_s([&] { ses.restart(path); }, 0.1);
    }
    std::filesystem::remove(path);
    add("io.checkpoint_s", ck, "s", !is_farm);
    add("io.checkpoint_bytes", bytes, "B", !is_farm);
    add("io.restart_s", rs, "s", !is_farm);
  }

  // --- farm --------------------------------------------------------------
  {
    auto count = [&](std::uint64_t farm::FarmSummary::*field) {
      return is_farm ? static_cast<double>(in.farm->*field) : 0.0;
    };
    add("farm.waves", count(&farm::FarmSummary::waves), "count", !is_farm);
    add("farm.workspaces_created",
        is_farm ? static_cast<double>(in.farm->workspaces_created) : 0.0,
        "count", !is_farm);
    add("farm.workspaces_reused", count(&farm::FarmSummary::workspaces_reused),
        "count", !is_farm);
    add("farm.count_memo_hits", count(&farm::FarmSummary::memo_hits), "count",
        !is_farm);
    add("farm.count_memo_misses", count(&farm::FarmSummary::memo_misses),
        "count", !is_farm);
    add("farm.retries", count(&farm::FarmSummary::retries), "count", !is_farm);
  }

  // --- core: outside-in attribution of one step --------------------------
  // Kernel probes are per element, so multiply by the elements the ledger
  // recorded per step; BLAS-1 updates other than DAXPY are charged at the
  // DAXPY rate.  Builds are per distributed call (ledger calls / ranks).
  const auto& el = counts.elements;
  const double blas1 = lookup(el, "daxpy") + lookup(el, "ddaxpy") +
                       lookup(el, "xpby") + lookup(el, "copy") +
                       lookup(el, "sub") + lookup(el, "dscal");
  const double attributed_s =
      1e-9 * (kernel_ns["linalg.matvec_ns"] * lookup(el, "matvec") +
              kernel_ns["linalg.precond_ns"] * lookup(el, "precond") +
              kernel_ns["linalg.dot_ganged_ns"] * lookup(el, "dprod") +
              kernel_ns["linalg.axpy_ns"] * blas1) +
      build_s * lookup(counts.calls, "physics-assembly") / nranks +
      precond_build_s * lookup(counts.calls, "precond-build") / nranks;
  add("core.attributed_frac", in.step_s > 0.0 ? attributed_s / in.step_s : 0.0,
      "ratio");
  return out;
}

}  // namespace perfbench
