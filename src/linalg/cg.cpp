#include "linalg/cg.hpp"

#include <cmath>

#include "linalg/dag_capture.hpp"
#include "support/error.hpp"

namespace v2d::linalg {

CgSolver::CgSolver(const grid::Grid2D& g, const grid::Decomposition& d, int ns)
    : owned_(std::make_unique<SolverWorkspace>(g, d, ns)), ws_(owned_.get()) {}

SolveStats CgSolver::solve(ExecContext& ctx, const LinearOperator& A,
                           Preconditioner& M, DistVector& x,
                           const DistVector& b, const SolveOptions& opt) {
  V2D_REQUIRE(opt.rel_tol > 0.0, "tolerance must be positive");
  SolveStats stats;
  DistVector& r = ws_->vec(0);
  DistVector& z = ws_->vec(1);
  DistVector& p = ws_->vec(2);
  DistVector& q = ws_->vec(3);
  DagCapture dag(ctx,
                 dag_key("cg", M.name(),
                         static_cast<std::uint64_t>(x.global_size()),
                         ctx.vctx));

  A.apply_residual(ctx, x, b, r);
  M.apply(ctx, r, z);
  p.copy_from(ctx, z);

  double bnorm, rz, rnorm2;
  {
    const DistVector::DotPair pairs[] = {{&b, &b}, {&r, &z}, {&r, &r}};
    const auto vals = DistVector::dot_ganged(ctx, pairs);
    ++stats.global_reductions;
    bnorm = std::sqrt(vals[0]);
    rz = vals[1];
    rnorm2 = vals[2];
  }
  if (bnorm == 0.0) {
    x.fill(ctx, 0.0);
    stats.converged = true;
    stats.stop_reason = "zero rhs";
    return stats;
  }

  for (int it = 1; it <= opt.max_iterations; ++it) {
    dag.begin_iteration(it);
    stats.iterations = it;
    // MATVEC+DPROD: p·Ap rides the stencil sweep when fused.
    const double pq = A.apply_dot(ctx, p, q);
    ++stats.global_reductions;
    // On an SPD operator p·Ap > 0 for p ≠ 0.  A negative (or NaN) value
    // means the operator is not positive definite — a distinct failure
    // from the exact-breakdown p·Ap == 0, and worth reporting as such
    // because it indicates a badly assembled system, not bad luck.
    if (!(pq > 0.0)) {
      stats.stop_reason = pq == 0.0 ? "p.Ap breakdown" : "indefinite operator";
      break;
    }
    const double alpha = rz / pq;
    double rz_new;
    double fused_vals[2];
    // The CG tail composite (fused contexts, diagonal M): r ← r − α·q,
    // z ← M·r and the {r·z, r·r} gang in ONE sweep (still one ganged
    // reduction); x's half of the twin update keeps its own pass.
    // Otherwise: the DAXPY₂ twin update, apply and dot_ganged.
    if (M.apply_dot2(ctx, r, z, fused_vals, -alpha, &q)) {
      x.daxpy(ctx, alpha, p);
      ++stats.global_reductions;
      rz_new = fused_vals[0];
      rnorm2 = fused_vals[1];
    } else {
      DistVector::daxpy2(ctx, x, alpha, p, r, -alpha, q);
      M.apply(ctx, r, z);
      const DistVector::DotPair pairs[] = {{&r, &z}, {&r, &r}};
      const auto vals = DistVector::dot_ganged(ctx, pairs);
      ++stats.global_reductions;
      rz_new = vals[0];
      rnorm2 = vals[1];
    }
    stats.final_relative_residual = std::sqrt(std::max(0.0, rnorm2)) / bnorm;
    if (stats.final_relative_residual <= opt.rel_tol) {
      stats.converged = true;
      stats.stop_reason = "tolerance reached";
      break;
    }
    const double beta = rz_new / rz;
    rz = rz_new;
    p.xpby(ctx, z, beta);
  }
  if (!stats.stop_reason_set()) stats.stop_reason = "max iterations";
  return stats;
}

}  // namespace v2d::linalg
