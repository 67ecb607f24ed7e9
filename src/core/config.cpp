#include "core/config.hpp"

#include <sstream>

#include "linalg/exec_context.hpp"
#include "linalg/precond.hpp"
#include "scenario/registry.hpp"
#include "support/error.hpp"
#include "support/thread_pool.hpp"
#include "vla/vla.hpp"

namespace v2d::core {

void RunConfig::register_options(Options& opt) {
  opt.add("problem", "gaussian-pulse",
          "problem name (see --list-problems / the ScenarioRegistry)");
  opt.add("nx1", "200", "zones in x1");
  opt.add("nx2", "100", "zones in x2");
  opt.add("ns", "2", "radiation species");
  opt.add("steps", "100", "time steps");
  opt.add("dt", "0.03", "time step size");
  opt.add("kappa", "10.0", "total (transport) opacity");
  opt.add("kappa-absorb", "0.0", "absorption opacity");
  opt.add("kappa-exchange", "0.05", "species exchange opacity");
  opt.add("limiter", "lp", "flux limiter: none|lp|larsen2|wilson");
  opt.add("nprx1", "1", "tiles in x1 (NPRX1)");
  opt.add("nprx2", "1", "tiles in x2 (NPRX2)");
  opt.add("tol", "1e-8", "solver relative tolerance");
  opt.add("max-iter", "1000", "solver iteration cap");
  opt.add("ganged", "1", "use ganged reductions (0|1)");
  opt.add("precond", "spai0",
          "preconditioner: identity|jacobi|spai0|spai|mg");
  opt.add("solver-fallbacks", "",
          "comma list of fallback preconditioners tried (in order) when a "
          "solve breaks down or hits max iterations; empty = fail");
  opt.add("guard", "off",
          "per-step numeric guards: on (finite-field scan + conserved-total "
          "check, host-only and unpriced) | off");
  opt.add("guard-drift", "0",
          "conservation-drift tolerance per step (relative; 0 = drift "
          "sentinel off, finite checks still run under --guard on)");
  opt.add("mg-coarse-size", "8", "mg: stop coarsening at this grid size");
  opt.add("mg-levels", "12", "mg: maximum hierarchy depth");
  opt.add("mg-nu-pre", "2", "mg: pre-smoothing steps");
  opt.add("mg-nu-post", "2", "mg: post-smoothing steps");
  opt.add("mg-smoother", "jacobi", "mg smoother: jacobi|chebyshev");
  opt.add("mg-omega", "0.8", "mg: weighted-Jacobi damping");
  opt.add("mg-cheb-boost", "4.0",
          "mg: Chebyshev smoothing range [lambda_max/boost, lambda_max]");
  opt.add("mg-max-direct-zones", "16384",
          "mg: error out if the coarsest level exceeds this zone count");
  opt.add("compilers", "cray",
          "comma list of profiles: gnu,fujitsu,cray,cray-noopt,clang");
  opt.add("vector-bits", "512", "SVE vector length (128..2048)");
  opt.add("host-threads", "0",
          "host threads for rank-parallel execution (0 = hardware "
          "concurrency, at most " + std::to_string(kMaxHostThreads) +
              "); results are identical at any value");
  opt.add("vla-exec", "native",
          "VLA execution backend: native (fast path) | interpret (reference)");
  opt.add("fuse", "off",
          "fused-kernel execution: off (reference kernel-per-pass sequence) "
          "| on (planner-generated one-pass groups; see src/linalg/fusion/); "
          "plan is an alias of on");
  opt.add_flag("dump-fusion-plan",
               "print the built-in fusion plans and every captured "
               "solver-iteration kernel DAG after the run (host-only debug)");
  opt.add("checkpoint", "", "h5lite checkpoint path (empty = none)");
  opt.add("checkpoint-every", "0", "steps between checkpoints (0 = end only)");
  opt.add("restart", "", "resume from this h5lite checkpoint (empty = fresh)");
}

RunConfig RunConfig::from_options(const Options& opt) {
  RunConfig c;
  c.problem = opt.get("problem");
  // Fail at config build time, not at Simulation construction: an unknown
  // problem name is a usage error and create() lists the catalog in its
  // message (instantiating a Problem is cheap — it allocates no fields).
  (void)scenario::ScenarioRegistry::instance().create(c.problem);
  c.nx1 = opt.get_int<int>("nx1");
  c.nx2 = opt.get_int<int>("nx2");
  c.ns = opt.get_int<int>("ns");
  c.steps = opt.get_int<int>("steps");
  c.dt = opt.get_double("dt");
  c.kappa_total = opt.get_double("kappa");
  c.kappa_absorb = opt.get_double("kappa-absorb");
  c.exchange_kappa = opt.get_double("kappa-exchange");
  c.limiter = rad::limiter_from_name(opt.get("limiter"));
  c.nprx1 = opt.get_int<int>("nprx1");
  c.nprx2 = opt.get_int<int>("nprx2");
  c.rel_tol = opt.get_double("tol");
  c.max_iterations = opt.get_int<int>("max-iter");
  c.ganged = opt.get_bool("ganged");
  c.preconditioner = opt.get("precond");
  c.solver_fallbacks.clear();
  {
    std::stringstream fb(opt.get("solver-fallbacks"));
    std::string kind;
    while (std::getline(fb, kind, ',')) {
      if (kind.empty()) continue;
      V2D_REQUIRE(linalg::is_preconditioner_kind(kind),
                  "unknown fallback preconditioner '" + kind + "'");
      c.solver_fallbacks.push_back(kind);
    }
  }
  {
    const std::string g = opt.get("guard");
    V2D_REQUIRE(g == "on" || g == "off",
                "guard must be 'on' or 'off', got '" + g + "'");
    c.guard = g == "on";
  }
  c.guard_drift = opt.get_double("guard-drift");
  V2D_REQUIRE(c.guard_drift >= 0.0, "guard-drift must be >= 0");
  c.mg_coarse_size = opt.get_int<int>("mg-coarse-size");
  c.mg_levels = opt.get_int<int>("mg-levels");
  c.mg_nu_pre = opt.get_int<int>("mg-nu-pre");
  c.mg_nu_post = opt.get_int<int>("mg-nu-post");
  c.mg_smoother = opt.get("mg-smoother");
  c.mg_omega = opt.get_double("mg-omega");
  c.mg_cheb_boost = opt.get_double("mg-cheb-boost");
  c.mg_max_direct_zones = opt.get_int("mg-max-direct-zones");
  c.compilers.clear();
  std::stringstream ss(opt.get("compilers"));
  std::string item;
  while (std::getline(ss, item, ',')) {
    if (!item.empty()) c.compilers.push_back(item);
  }
  V2D_REQUIRE(!c.compilers.empty(), "need at least one compiler profile");
  c.vector_bits = opt.get_int<unsigned>("vector-bits");
  c.host_threads = host_threads_option(opt);
  c.vla_exec = opt.get("vla-exec");
  (void)vla::vla_exec_mode_from_name(c.vla_exec);  // validate early
  c.fuse = opt.get("fuse");
  (void)linalg::fuse_mode_from_name(c.fuse);  // validate early
  c.dump_fusion_plan = opt.get_bool("dump-fusion-plan");
  c.checkpoint_path = opt.get("checkpoint");
  c.checkpoint_every = opt.get_int<int>("checkpoint-every");
  c.restart_path = opt.get("restart");
  return c;
}

int RunConfig::host_threads_option(const Options& opt) {
  const int n = opt.get_int<int>("host-threads");
  if (n < 0 || n > kMaxHostThreads)
    throw Error("option --host-threads value " + std::to_string(n) +
                " is out of range [0, " + std::to_string(kMaxHostThreads) +
                "] (0 = hardware concurrency)");
  return n;
}

}  // namespace v2d::core
