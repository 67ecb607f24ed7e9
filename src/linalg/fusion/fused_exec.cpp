#include "linalg/fusion/fused_exec.hpp"

#include <sstream>

#include "linalg/fusion/chain_exec.hpp"
#include "support/error.hpp"
#include "vla/loops.hpp"

namespace v2d::linalg::fusion {

// --- interpreter backend ------------------------------------------------------

void run_interpret(vla::Context& ctx, const GroupProgram& g, const Bind& b) {
  using vla::Predicate;
  using vla::VReg;

  VReg reg[kMaxRegs];
  VReg acc[kMaxAccs];
  for (std::uint8_t i = 0; i < g.npre; ++i) {
    const Step& s = g.pre[i];
    if (s.k == StepKind::DupScal)
      reg[s.dst] = ctx.dup(b.scal[s.a]);
    else
      acc[s.dst] = ctx.dup(0.0);
  }

  vla::strip_mine(ctx, b.n, [&](std::uint64_t i, const Predicate& p) {
    for (std::uint8_t k = 0; k < g.nsteps; ++k) {
      const Step& s = g.step[k];
      switch (s.k) {
        case StepKind::Load:
          reg[s.dst] = ctx.ld1(p, b.slot[s.a] + i);
          break;
        case StepKind::LoadGather:
          reg[s.dst] = ctx.ld1_gather(
              p, b.slot[s.a],
              std::span<const std::int64_t>(b.table[s.b] + i, p.active));
          break;
        case StepKind::DupStrip:
          reg[s.dst] = ctx.dup(b.scal[s.a]);
          break;
        case StepKind::Stencil: {
          // The canonical five-point sweep: mul then four chained FMAs,
          // coefficient load before the matching solution load.
          const VReg vcc = ctx.ld1(p, b.slot[s.a + 0] + i);
          const VReg vxc = ctx.ld1(p, b.slot[s.a + 5] + i);
          VReg a2 = ctx.mul(p, vcc, vxc);
          const VReg vcw = ctx.ld1(p, b.slot[s.a + 1] + i);
          const VReg vxw = ctx.ld1(p, b.slot[s.a + 5] + i - 1);
          a2 = ctx.fma(p, vcw, vxw, a2);
          const VReg vce = ctx.ld1(p, b.slot[s.a + 2] + i);
          const VReg vxe = ctx.ld1(p, b.slot[s.a + 5] + i + 1);
          a2 = ctx.fma(p, vce, vxe, a2);
          const VReg vcs = ctx.ld1(p, b.slot[s.a + 3] + i);
          const VReg vxs = ctx.ld1(p, b.slot[s.a + 6] + i);
          a2 = ctx.fma(p, vcs, vxs, a2);
          const VReg vcn = ctx.ld1(p, b.slot[s.a + 4] + i);
          const VReg vxn = ctx.ld1(p, b.slot[s.a + 7] + i);
          a2 = ctx.fma(p, vcn, vxn, a2);
          reg[s.dst] = a2;
          reg[s.b] = vxc;
          break;
        }
        case StepKind::Fma:
          reg[s.dst] = ctx.fma(p, reg[s.a], reg[s.b], reg[s.c]);
          break;
        case StepKind::Mul:
          reg[s.dst] = ctx.mul(p, reg[s.a], reg[s.b]);
          break;
        case StepKind::Sub:
          reg[s.dst] = ctx.sub(p, reg[s.a], reg[s.b]);
          break;
        case StepKind::Store:
          ctx.st1(p, b.slot[s.dst] + i, reg[s.a]);
          break;
        case StepKind::DotAcc:
          // Merging form: a zeroing tail strip would clobber the lanes
          // accumulated so far.
          acc[s.dst] = ctx.fma_merge(p, reg[s.a], reg[s.b], acc[s.dst]);
          break;
        case StepKind::DupScal:
        case StepKind::DupAcc:
          break;  // prologue-only kinds
      }
    }
  });

  if (g.naccs > 0) {
    // The lane-accumulated values are the hardware's; the returned results
    // are the compensated tails, identical in both exec modes (and to the
    // unfused dot path).
    const Predicate full = ctx.ptrue();
    for (std::uint8_t i = 0; i < g.npre; ++i)
      if (g.pre[i].k == StepKind::DupAcc)
        (void)ctx.reduce_add(full, acc[g.pre[i].dst]);
    run_tails(g, b);
  }
}

std::string describe_builtin_plans() {
  std::ostringstream os;
  for (std::size_t i = 0; i < kNumBuiltins; ++i) {
    const FusionPlan& p = kBuiltinPlans[i];
    os << dump_plan(kBuiltinChains[i], p);
    for (std::uint8_t gi = 0; gi < p.ngroups; ++gi)
      os << "  stamp group " << int(gi)
         << " id=" << builtin_stamp_id(p.group[gi].sig) << "\n";
  }
  return os.str();
}

// --- planner-generated composites ---------------------------------------------

void daxpy2(vla::Context& ctx, double a, std::span<const double> p,
            std::span<double> x, double b, std::span<const double> q,
            std::span<double> r) {
  const std::size_t n = x.size();
  const auto slot = bind_slots("daxpy2", n, p, x, q, r);
  const double scal[] = {a, b};
  run_chain<Builtin::Daxpy2>(ctx, {slot.data(), scal, nullptr, n});
}

void axpy_out(vla::Context& ctx, std::span<const double> x, double a,
              std::span<const double> y, std::span<double> z) {
  const std::size_t n = z.size();
  const auto slot = bind_slots("axpy_out", n, x, y, z);
  const double scal[] = {a};
  run_chain<Builtin::AxpyOut>(ctx, {slot.data(), scal, nullptr, n});
}

void p_update(vla::Context& ctx, std::span<const double> r, double b, double w,
              std::span<const double> v, std::span<double> p) {
  const std::size_t n = p.size();
  const auto slot = bind_slots("p_update", n, r, v, p, nullptr);
  const double scal[] = {-w, b};
  run_chain<Builtin::PUpdate>(ctx, {slot.data(), scal, nullptr, n});
}

void hadamard_dot2(vla::Context& ctx, std::span<const double> m,
                   std::span<const double> r, std::span<double> z,
                   DdLanes& rz, DdLanes& rr) {
  const std::size_t n = z.size();
  const auto slot = bind_slots("hadamard_dot2", n, m, r, z);
  DdLanes* const acc[] = {&rz, &rr};
  run_chain<Builtin::HadamardDot2>(ctx, {slot.data(), nullptr, acc, n});
}

void hadamard_update_dot2(vla::Context& ctx, std::span<const double> m,
                          double a, std::span<const double> q,
                          std::span<double> r, std::span<double> z,
                          DdLanes& rz, DdLanes& rr) {
  const std::size_t n = z.size();
  const auto slot = bind_slots("hadamard_update_dot2", n, m, q, r, z);
  const double scal[] = {a};
  DdLanes* const acc[] = {&rz, &rr};
  run_chain<Builtin::HadamardUpdateDot2>(ctx, {slot.data(), scal, acc, n});
}

void stencil_row_fused(vla::Context& ctx, std::span<const double> cc,
                       std::span<const double> cw, std::span<const double> ce,
                       std::span<const double> cs, std::span<const double> cn,
                       const double* xc, const double* xs, const double* xn,
                       const double* csp, const double* xo, const double* bsub,
                       const double* wdot, DdLanes* dot,
                       std::span<double> y) {
  const std::size_t n = y.size();
  V2D_REQUIRE((csp == nullptr) == (xo == nullptr),
              "stencil_row_fused: coupling needs both csp and xo");
  V2D_REQUIRE(bsub == nullptr || wdot == nullptr,
              "stencil_row_fused: residual and dot forms are exclusive");
  V2D_REQUIRE((wdot == nullptr) == (dot == nullptr),
              "stencil_row_fused: dot needs both w and an accumulator");
  V2D_REQUIRE(bsub != nullptr || wdot != nullptr,
              "stencil_row_fused: need a residual or dot operand "
              "(use stencil_row/coupling_row otherwise)");
  const bool coupled = csp != nullptr;
  const bool sub = bsub != nullptr;
  const bool self = wdot == xc;

  // Binding mirrors make_stencil_chain's slot layout.
  const auto pack =
      bind_slots("stencil_row_fused", n, cc, cw, ce, cs, cn, xc, xs, xn);
  double* slot[kMaxSlots] = {};
  std::size_t s = 0;
  for (double* ptr : pack) slot[s++] = ptr;
  if (coupled) {
    slot[s++] = const_cast<double*>(csp);
    slot[s++] = const_cast<double*>(xo);
  }
  ++s;  // the stencil temp slot lives in registers only
  if (sub)
    slot[s++] = const_cast<double*>(bsub);
  else if (!self)
    slot[s++] = const_cast<double*>(wdot);
  slot[s++] = y.data();
  DdLanes* const acc[] = {dot};
  const Bind bd{slot, nullptr, acc, n};

  if (sub) {
    if (coupled)
      run_chain<Builtin::StencilSubCoupled>(ctx, bd);
    else
      run_chain<Builtin::StencilSub>(ctx, bd);
  } else if (self) {
    if (coupled)
      run_chain<Builtin::StencilDotCoupled>(ctx, bd);
    else
      run_chain<Builtin::StencilDot>(ctx, bd);
  } else {
    if (coupled)
      run_chain<Builtin::StencilDotwCoupled>(ctx, bd);
    else
      run_chain<Builtin::StencilDotw>(ctx, bd);
  }
}

}  // namespace v2d::linalg::fusion
