#include "linalg/bicgstab.hpp"

#include <cmath>

#include "linalg/dag_capture.hpp"
#include "support/error.hpp"

namespace v2d::linalg {

namespace {
constexpr double kBreakdownEps = 1.0e-300;
}

BicgstabSolver::BicgstabSolver(const grid::Grid2D& g,
                               const grid::Decomposition& d, int ns)
    : owned_(std::make_unique<SolverWorkspace>(g, d, ns)), ws_(owned_.get()) {}

SolveStats BicgstabSolver::solve(ExecContext& ctx, const LinearOperator& A,
                                 Preconditioner& M, DistVector& x,
                                 const DistVector& b,
                                 const SolveOptions& opt) {
  V2D_REQUIRE(opt.rel_tol > 0.0, "tolerance must be positive");
  V2D_REQUIRE(opt.max_iterations >= 1, "need at least one iteration");
  return opt.ganged ? solve_ganged(ctx, A, M, x, b, opt)
                    : solve_classic(ctx, A, M, x, b, opt);
}

SolveStats BicgstabSolver::solve_classic(ExecContext& ctx,
                                         const LinearOperator& A,
                                         Preconditioner& M, DistVector& x,
                                         const DistVector& b,
                                         const SolveOptions& opt) {
  SolveStats stats;
  DistVector& r = ws_->vec(0);
  DistVector& rhat = ws_->vec(1);
  DistVector& p = ws_->vec(2);
  DistVector& v = ws_->vec(3);
  DistVector& s = ws_->vec(4);
  DistVector& t = ws_->vec(5);
  DistVector& phat = ws_->vec(6);
  DistVector& shat = ws_->vec(7);
  DagCapture dag(ctx,
                 dag_key("bicgstab", M.name(),
                         static_cast<std::uint64_t>(x.global_size()),
                         ctx.vctx));
  // r0 = b − A·x0, r̂ = r0, p = r0.
  A.apply_residual(ctx, x, b, r);
  rhat.copy_from(ctx, r);
  p.copy_from(ctx, r);

  const double bnorm = DistVector::norm2(ctx, b);
  ++stats.global_reductions;
  if (bnorm == 0.0) {
    x.fill(ctx, 0.0);
    stats.converged = true;
    stats.stop_reason = "zero rhs";
    return stats;
  }

  double rho = DistVector::dot(ctx, rhat, r);
  ++stats.global_reductions;
  double rnorm = DistVector::norm2(ctx, r);
  ++stats.global_reductions;

  for (int it = 1; it <= opt.max_iterations; ++it) {
    dag.begin_iteration(it);
    stats.iterations = it;
    if (std::fabs(rho) < kBreakdownEps) {
      stats.stop_reason = "rho breakdown";
      break;
    }
    // p̂ = M·p ; v = A·p̂ with r̂·v folded into the sweep when fused.
    M.apply(ctx, p, phat);
    const double rhat_v = A.apply_dot(ctx, phat, v, &rhat);
    ++stats.global_reductions;
    if (std::fabs(rhat_v) < kBreakdownEps) {
      stats.stop_reason = "rhat.v breakdown";
      break;
    }
    const double alpha = rho / rhat_v;
    // s = r − α·v (fused: the COPY disappears into the DAXPY).
    s.assign_axpy(ctx, r, -alpha, v);
    // ŝ = M·s ; t = A·ŝ with t·s folded into the sweep when fused.
    M.apply(ctx, s, shat);
    const double ts = A.apply_dot(ctx, shat, t, &s);
    ++stats.global_reductions;
    const double tt = DistVector::dot(ctx, t, t);
    ++stats.global_reductions;
    if (tt < kBreakdownEps) {
      // t vanished: x += α·p̂ finishes the step exactly.
      x.daxpy(ctx, alpha, phat);
      r.copy_from(ctx, s);
      rnorm = DistVector::norm2(ctx, r);
      ++stats.global_reductions;
      stats.final_relative_residual = rnorm / bnorm;
      stats.converged = stats.final_relative_residual <= opt.rel_tol;
      stats.stop_reason = "t breakdown";
      break;
    }
    const double omega = ts / tt;
    // x += α·p̂ + ω·ŝ ;  r = s − ω·t.
    x.ddaxpy(ctx, alpha, phat, omega, shat);
    r.assign_axpy(ctx, s, -omega, t);
    rnorm = DistVector::norm2(ctx, r);
    ++stats.global_reductions;
    stats.final_relative_residual = rnorm / bnorm;
    if (stats.final_relative_residual <= opt.rel_tol) {
      stats.converged = true;
      stats.stop_reason = "tolerance reached";
      break;
    }
    if (std::fabs(omega) < kBreakdownEps) {
      stats.stop_reason = "omega breakdown";
      break;
    }
    const double rho_new = DistVector::dot(ctx, rhat, r);
    ++stats.global_reductions;
    const double beta = (rho_new / rho) * (alpha / omega);
    rho = rho_new;
    // p = r + β·(p − ω·v), one pass when fused.
    p.fused_p_update(ctx, r, beta, omega, v);
  }
  if (!stats.stop_reason_set()) stats.stop_reason = "max iterations";
  return stats;
}

SolveStats BicgstabSolver::solve_ganged(ExecContext& ctx,
                                        const LinearOperator& A,
                                        Preconditioner& M, DistVector& x,
                                        const DistVector& b,
                                        const SolveOptions& opt) {
  SolveStats stats;
  DistVector& r = ws_->vec(0);
  DistVector& rhat = ws_->vec(1);
  DistVector& p = ws_->vec(2);
  DistVector& v = ws_->vec(3);
  DistVector& s = ws_->vec(4);
  DistVector& t = ws_->vec(5);
  DistVector& phat = ws_->vec(6);
  DistVector& shat = ws_->vec(7);
  DagCapture dag(ctx,
                 dag_key("bicgstab-ganged", M.name(),
                         static_cast<std::uint64_t>(x.global_size()),
                         ctx.vctx));
  A.apply_residual(ctx, x, b, r);
  rhat.copy_from(ctx, r);
  p.copy_from(ctx, r);

  // Setup gang: {‖b‖², ρ0 = r̂ᵀr} in a single reduction.
  double rho, bnorm;
  {
    const DistVector::DotPair pairs[] = {{&b, &b}, {&rhat, &r}};
    const auto vals = DistVector::dot_ganged(ctx, pairs);
    ++stats.global_reductions;
    bnorm = std::sqrt(vals[0]);
    rho = vals[1];
  }
  if (bnorm == 0.0) {
    x.fill(ctx, 0.0);
    stats.converged = true;
    stats.stop_reason = "zero rhs";
    return stats;
  }
  double rnorm2 = rho;  // r0 = r̂ ⇒ ρ0 = ‖r0‖²

  for (int it = 1; it <= opt.max_iterations; ++it) {
    dag.begin_iteration(it);
    stats.iterations = it;
    if (std::fabs(rho) < kBreakdownEps) {
      stats.stop_reason = "rho breakdown";
      break;
    }
    M.apply(ctx, p, phat);
    const double rhat_v = A.apply_dot(ctx, phat, v, &rhat);
    ++stats.global_reductions;
    if (std::fabs(rhat_v) < kBreakdownEps) {
      stats.stop_reason = "rhat.v breakdown";
      break;
    }
    const double alpha = rho / rhat_v;
    s.assign_axpy(ctx, r, -alpha, v);
    M.apply(ctx, s, shat);
    // The 3-dot gang below shares ONE reduction; folding tᵀs into the
    // matvec would split it into two, so the product stays unfused here.
    A.apply(ctx, shat, t);
    // Gang: {tᵀs, tᵀt, sᵀs} in one reduction.
    double ts, tt, ss;
    {
      const DistVector::DotPair pairs[] = {{&t, &s}, {&t, &t}, {&s, &s}};
      const auto vals = DistVector::dot_ganged(ctx, pairs);
      ++stats.global_reductions;
      ts = vals[0];
      tt = vals[1];
      ss = vals[2];
    }
    if (tt < kBreakdownEps) {
      x.daxpy(ctx, alpha, phat);
      r.copy_from(ctx, s);
      stats.final_relative_residual = std::sqrt(std::max(0.0, ss)) / bnorm;
      stats.converged = stats.final_relative_residual <= opt.rel_tol;
      stats.stop_reason = "t breakdown";
      break;
    }
    const double omega = ts / tt;
    x.ddaxpy(ctx, alpha, phat, omega, shat);
    r.assign_axpy(ctx, s, -omega, t);
    // ‖r‖² reconstructed from the gang — no extra reduction.
    rnorm2 = std::max(0.0, ss - 2.0 * omega * ts + omega * omega * tt);
    stats.final_relative_residual = std::sqrt(rnorm2) / bnorm;
    if (stats.final_relative_residual <= opt.rel_tol) {
      stats.converged = true;
      stats.stop_reason = "tolerance reached";
      break;
    }
    if (std::fabs(omega) < kBreakdownEps) {
      stats.stop_reason = "omega breakdown";
      break;
    }
    const double rho_new = DistVector::dot(ctx, rhat, r);
    ++stats.global_reductions;
    const double beta = (rho_new / rho) * (alpha / omega);
    rho = rho_new;
    p.fused_p_update(ctx, r, beta, omega, v);
  }
  if (!stats.stop_reason_set()) stats.stop_reason = "max iterations";
  return stats;
}

}  // namespace v2d::linalg
