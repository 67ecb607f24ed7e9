#pragma once
/// \file fused_exec.hpp
/// \brief Execute FusionPlans in all three execution representations.
///
/// A planned group runs as:
///   - Interpret: a generic multi-op sweep that walks the GroupProgram's
///     steps per strip through vla::Context ops (recording op-by-op exactly
///     as the vla::Context ops of an unfused kernel would);
///   - Native: a stamped-out template from a fixed set keyed by the
///     fused-op signature (GroupProgram::sig), with the recording composed
///     analytically by group_counts and memoized in the Context's count
///     cache under a signature-disjoint key space;
///   - both paths produce bit-identical results: elementwise steps evaluate
///     the same per-element expressions in the same association order, and
///     fused dots accumulate through the caller's DdLanes by the lane rule
///     of support/dd.hpp, as a tail over the row after the sweep (rank
///     partials stay rank-ordered at the call sites).
///
/// The convenience entry points below are the planner-generated composites:
/// each plans its built-in chain at compile time and binds the operands.
/// They are the only implementation of the fused kernels; the FuseMode::On
/// call sites (DistVector, StencilOperator, the diagonal preconditioners)
/// call them directly.

#include <span>
#include <string>

#include "linalg/fusion/planner.hpp"
#include "support/dd.hpp"
#include "vla/vla.hpp"

namespace v2d::linalg::fusion {

/// Operand binding for one plan execution: slot index → base pointer,
/// scalar index → value, accumulator index → caller's compensated dot.
/// Temporary slots need no binding (they live in registers).
struct Bind {
  double* slot[kMaxSlots] = {};
  double scal[kMaxScalars] = {};
  DdLanes* acc[kMaxAccs] = {};
  std::size_t n = 0;
};

/// The generic interpreter sweep for one group (also the reference backend
/// the stamps are differentially tested against).
void run_interpret(vla::Context& ctx, const GroupProgram& g, const Bind& bind);

/// True when the fixed template set contains a native stamp for `sig`.
bool has_native_stamp(std::uint64_t sig);

/// Deterministic dump of every built-in chain, its plan, and its native
/// stamp ids (the `--dump-fusion-plan` payload).
std::string describe_builtin_plans();

// --- planner-generated composites -------------------------------------------

/// CG twin update: x ← x + a·p and r ← r + b·q in one fused sweep.
void daxpy2(vla::Context& ctx, double a, std::span<const double> p,
            std::span<double> x, double b, std::span<const double> q,
            std::span<double> r);

/// z ← x + a·y (the COPY is elided into the FMA addend).
void axpy_out(vla::Context& ctx, std::span<const double> x, double a,
              std::span<const double> y, std::span<double> z);

/// BiCGSTAB p-update: p ← r + b·(p − w·v).
void p_update(vla::Context& ctx, std::span<const double> r, double b, double w,
              std::span<const double> v, std::span<double> p);

/// z ← m ⊙ r with rz += Σ z·r and rr += Σ r·r folded into the sweep.
void hadamard_dot2(vla::Context& ctx, std::span<const double> m,
                   std::span<const double> r, std::span<double> z,
                   DdLanes& rz, DdLanes& rr);

/// r ← r + a·q folded into the precond+gang sweep.
void hadamard_update_dot2(vla::Context& ctx, std::span<const double> m,
                          double a, std::span<const double> q,
                          std::span<double> r, std::span<double> z,
                          DdLanes& rz, DdLanes& rr);

/// Fused stencil-row composite.  Always computes the five-point row into
/// `y` (the linalg::stencil_row contract); the optional operands select
/// the composite:
///   csp/xo  non-null — species coupling folded into the sweep
///   bsub    non-null — residual form, y ← bsub − (A·x) row
///   wdot/dot non-null — MATVEC+DPROD, dot->dot_row(w, y) over the row
///     (`wdot == xc` is the CG p·Ap case: the center operand is reused in
///      registers, no extra load)
/// `bsub` and `wdot` are mutually exclusive.
void stencil_row_fused(vla::Context& ctx, std::span<const double> cc,
                       std::span<const double> cw, std::span<const double> ce,
                       std::span<const double> cs, std::span<const double> cn,
                       const double* xc, const double* xs, const double* xn,
                       const double* csp, const double* xo, const double* bsub,
                       const double* wdot, DdLanes* dot,
                       std::span<double> y);

}  // namespace v2d::linalg::fusion
