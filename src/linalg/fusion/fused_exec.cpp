#include "linalg/fusion/fused_exec.hpp"

#include <array>
#include <sstream>
#include <unordered_map>
#include <utility>

#include "support/error.hpp"
#include "vla/loops.hpp"

namespace v2d::linalg::fusion {

// --- reduction tails ----------------------------------------------------------

namespace {

/// The compensated dots of a group, over the operands' memory images after
/// the sweep (the planner guarantees both operands are inputs or stores).
/// Shared by both backends, so their reductions are one code path.
void run_tails(const GroupProgram& g, const Bind& b) {
  for (std::uint8_t t = 0; t < g.ntails; ++t) {
    const DotTail& tl = g.tail[t];
    b.acc[tl.acc]->dot_row(b.slot[tl.slot_a], b.slot[tl.slot_b], b.n);
  }
}

}  // namespace

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

// --- native stamps ------------------------------------------------------------

namespace {

template <GroupProgram G, std::size_t I>
inline void stamp_pre(const double* sc, double* r) {
  constexpr Step S = G.pre[I];
  if constexpr (S.k == StepKind::DupScal) r[S.dst] = sc[S.a];
}

template <GroupProgram G, std::size_t I>
inline void stamp_step(double* const* p, double* r, std::ptrdiff_t i) {
  constexpr Step S = G.step[I];
  if constexpr (S.k == StepKind::Load) {
    r[S.dst] = p[S.a][i];
  } else if constexpr (S.k == StepKind::Stencil) {
    double acc = p[S.a + 0][i] * p[S.a + 5][i];
    acc = p[S.a + 1][i] * p[S.a + 5][i - 1] + acc;
    acc = p[S.a + 2][i] * p[S.a + 5][i + 1] + acc;
    acc = p[S.a + 3][i] * p[S.a + 6][i] + acc;
    acc = p[S.a + 4][i] * p[S.a + 7][i] + acc;
    r[S.dst] = acc;
    r[S.b] = p[S.a + 5][i];
  } else if constexpr (S.k == StepKind::Fma) {
    r[S.dst] = r[S.a] * r[S.b] + r[S.c];
  } else if constexpr (S.k == StepKind::Mul) {
    r[S.dst] = r[S.a] * r[S.b];
  } else if constexpr (S.k == StepKind::Sub) {
    r[S.dst] = r[S.a] - r[S.b];
  } else if constexpr (S.k == StepKind::Store) {
    p[S.dst][i] = r[S.a];
  }
  // DotAcc is the interpreter's hardware recording; the native result
  // comes from run_tails after the sweep.
}

/// One stamped-out native kernel: the GroupProgram unrolled at compile time
/// into a flat per-element loop.  The loop body reduces to a plain
/// raw-pointer loop like the primitive native kernels', so the host
/// compiler auto-vectorizes it; fused dots run afterwards as lane-parallel
/// tails over the cache-hot row.  Register slots with compile-time-constant
/// indices are scalarized by the compiler.
template <GroupProgram G>
void stamp_exec(const Bind& b) {
  double* p[kMaxSlots];
  for (std::size_t s = 0; s < kMaxSlots; ++s) p[s] = b.slot[s];
  double sc[kMaxScalars];
  for (std::size_t s = 0; s < kMaxScalars; ++s) sc[s] = b.scal[s];
  const std::ptrdiff_t n = static_cast<std::ptrdiff_t>(b.n);
  for (std::ptrdiff_t i = 0; i < n; ++i) {
    double r[kMaxRegs];
    [&]<std::size_t... Pi>(std::index_sequence<Pi...>) {
      (stamp_pre<G, Pi>(sc, r), ...);
    }(std::make_index_sequence<std::size_t{G.npre}>{});
    [&]<std::size_t... Si>(std::index_sequence<Si...>) {
      (stamp_step<G, Si>(p, r, i), ...);
    }(std::make_index_sequence<std::size_t{G.nsteps}>{});
  }
  run_tails(G, b);
}

using StampFn = void (*)(const Bind&);

struct StampEntry {
  StampFn fn = nullptr;
  std::uint8_t id = 0;  ///< small sequential id, part of the memo key
};

std::unordered_map<std::uint64_t, StampEntry>& registry() {
  static std::unordered_map<std::uint64_t, StampEntry> r;
  return r;
}

void register_group(std::uint64_t sig, StampFn fn) {
  auto& r = registry();
  if (r.find(sig) != r.end()) return;  // identical program already stamped
  V2D_REQUIRE(r.size() < 127, "fused-stamp id space exhausted");
  const auto id = static_cast<std::uint8_t>(r.size());
  r.emplace(sig, StampEntry{fn, id});
}

template <Chain C>
void register_chain() {
  static constexpr FusionPlan P = plan_chain(C);
  [&]<std::size_t... Gi>(std::index_sequence<Gi...>) {
    (register_group(P.group[Gi].sig, &stamp_exec<P.group[Gi]>), ...);
  }(std::make_index_sequence<std::size_t{P.ngroups}>{});
}

/// Register the fixed template set once, in a fixed order so stamp ids (and
/// therefore memo keys and plan dumps) are deterministic.
void ensure_registered() {
  static const bool once = [] {
    register_chain<make_daxpy2_chain()>();
    register_chain<make_axpy_out_chain()>();
    register_chain<make_p_update_chain()>();
    register_chain<make_hadamard_dot2_chain()>();
    register_chain<make_hadamard_update_dot2_chain()>();
    register_chain<make_stencil_chain(false, true, false)>();
    register_chain<make_stencil_chain(true, true, false)>();
    register_chain<make_stencil_chain(false, false, true)>();
    register_chain<make_stencil_chain(false, false, false)>();
    register_chain<make_stencil_chain(true, false, true)>();
    register_chain<make_stencil_chain(true, false, false)>();
    return true;
  }();
  (void)once;
}

}  // namespace

bool has_native_stamp(std::uint64_t sig) {
  ensure_registered();
  return registry().find(sig) != registry().end();
}

namespace {

const StampEntry& find_stamp(std::uint64_t sig) {
  ensure_registered();
  const auto& reg = registry();
  const auto it = reg.find(sig);
  V2D_REQUIRE(it != reg.end(),
              "no native stamp registered for fused-op signature");
  return it->second;
}

/// One group over one binding on the native path: the stamp, plus its
/// composed counts memoized in the context's count cache.
void run_stamp(vla::Context& ctx, const GroupProgram& g,
               const StampEntry& stamp, const Bind& bind) {
  // Fused-group memo keys live in a signature-keyed space disjoint from
  // the primitive KernelShape keys (bit 63 set, stamp id in 56..62), so
  // mixed fuse modes never cross-contaminate the count cache.
  const std::uint64_t key = (1ull << 63) |
                            (static_cast<std::uint64_t>(stamp.id) << 56) |
                            (bind.n & 0x00ff'ffff'ffff'ffffULL);
  ctx.add_counts(ctx.memo_counts(
      key, [&] { return group_counts(g, bind.n, ctx.lanes()); }));
  stamp.fn(bind);
}

/// A built-in chain's plan with each group's stamp resolved once, on the
/// first native call: the composites below run once per tile row, and a
/// row then pays neither the registration check nor the signature lookup.
template <Chain C>
struct PlannedChain {
  static constexpr FusionPlan kPlan = plan_chain(C);

  static void run(vla::Context& ctx, const Bind& bind) {
    if (!ctx.native()) {
      for (std::uint8_t gi = 0; gi < kPlan.ngroups; ++gi)
        run_interpret(ctx, kPlan.group[gi], bind);
      return;
    }
    static const std::array<StampEntry, kMaxGroups> stamps = [] {
      std::array<StampEntry, kMaxGroups> out{};
      for (std::uint8_t gi = 0; gi < kPlan.ngroups; ++gi)
        out[gi] = find_stamp(kPlan.group[gi].sig);
      return out;
    }();
    for (std::uint8_t gi = 0; gi < kPlan.ngroups; ++gi)
      run_stamp(ctx, kPlan.group[gi], stamps[gi], bind);
  }
};

}  // namespace

std::string describe_builtin_plans() {
  ensure_registered();
  std::ostringstream os;
  const auto one = [&](const Chain& c) {
    const FusionPlan p = plan_chain(c);
    os << dump_plan(c, p);
    for (std::uint8_t gi = 0; gi < p.ngroups; ++gi) {
      const auto it = registry().find(p.group[gi].sig);
      os << "  stamp group " << int(gi) << " id="
         << (it == registry().end() ? -1 : int(it->second.id)) << "\n";
    }
  };
  one(make_daxpy2_chain());
  one(make_axpy_out_chain());
  one(make_p_update_chain());
  one(make_hadamard_dot2_chain());
  one(make_hadamard_update_dot2_chain());
  one(make_stencil_chain(false, true, false));
  one(make_stencil_chain(true, true, false));
  one(make_stencil_chain(false, false, true));
  one(make_stencil_chain(false, false, false));
  one(make_stencil_chain(true, false, true));
  one(make_stencil_chain(true, false, false));
  return os.str();
}

// --- planner-generated composites ---------------------------------------------

void daxpy2(vla::Context& ctx, double a, std::span<const double> p,
            std::span<double> x, double b, std::span<const double> q,
            std::span<double> r) {
  const std::size_t n = x.size();
  V2D_REQUIRE(p.size() == n && q.size() == n && r.size() == n,
              "daxpy2: length mismatch");
  Bind bd{};
  bd.n = n;
  bd.slot[0] = const_cast<double*>(p.data());
  bd.slot[1] = x.data();
  bd.slot[2] = const_cast<double*>(q.data());
  bd.slot[3] = r.data();
  bd.scal[0] = a;
  bd.scal[1] = b;
  PlannedChain<make_daxpy2_chain()>::run(ctx, bd);
}

void axpy_out(vla::Context& ctx, std::span<const double> x, double a,
              std::span<const double> y, std::span<double> z) {
  const std::size_t n = z.size();
  V2D_REQUIRE(x.size() == n && y.size() == n, "axpy_out: length mismatch");
  Bind bd{};
  bd.n = n;
  bd.slot[0] = const_cast<double*>(x.data());
  bd.slot[1] = const_cast<double*>(y.data());
  bd.slot[2] = z.data();
  bd.scal[0] = a;
  PlannedChain<make_axpy_out_chain()>::run(ctx, bd);
}

void p_update(vla::Context& ctx, std::span<const double> r, double b, double w,
              std::span<const double> v, std::span<double> p) {
  const std::size_t n = p.size();
  V2D_REQUIRE(r.size() == n && v.size() == n, "p_update: length mismatch");
  Bind bd{};
  bd.n = n;
  bd.slot[0] = const_cast<double*>(r.data());
  bd.slot[1] = const_cast<double*>(v.data());
  bd.slot[2] = p.data();
  bd.scal[0] = -w;
  bd.scal[1] = b;
  PlannedChain<make_p_update_chain()>::run(ctx, bd);
}

void hadamard_dot2(vla::Context& ctx, std::span<const double> m,
                   std::span<const double> r, std::span<double> z,
                   DdLanes& rz, DdLanes& rr) {
  const std::size_t n = z.size();
  V2D_REQUIRE(m.size() == n && r.size() == n, "hadamard_dot2: length mismatch");
  Bind bd{};
  bd.n = n;
  bd.slot[0] = const_cast<double*>(m.data());
  bd.slot[1] = const_cast<double*>(r.data());
  bd.slot[2] = z.data();
  bd.acc[0] = &rz;
  bd.acc[1] = &rr;
  PlannedChain<make_hadamard_dot2_chain()>::run(ctx, bd);
}

void hadamard_update_dot2(vla::Context& ctx, std::span<const double> m,
                          double a, std::span<const double> q,
                          std::span<double> r, std::span<double> z,
                          DdLanes& rz, DdLanes& rr) {
  const std::size_t n = z.size();
  V2D_REQUIRE(m.size() == n && q.size() == n && r.size() == n,
              "hadamard_update_dot2: length mismatch");
  Bind bd{};
  bd.n = n;
  bd.slot[0] = const_cast<double*>(m.data());
  bd.slot[1] = const_cast<double*>(q.data());
  bd.slot[2] = r.data();
  bd.slot[3] = z.data();
  bd.scal[0] = a;
  bd.acc[0] = &rz;
  bd.acc[1] = &rr;
  PlannedChain<make_hadamard_update_dot2_chain()>::run(ctx, bd);
}

namespace {

template <bool Coupled, bool Bsub, bool Self>
void run_stencil_variant(vla::Context& ctx, const Bind& bd) {
  PlannedChain<make_stencil_chain(Coupled, Bsub, Self)>::run(ctx, bd);
}

}  // namespace

void stencil_row_fused(vla::Context& ctx, std::span<const double> cc,
                       std::span<const double> cw, std::span<const double> ce,
                       std::span<const double> cs, std::span<const double> cn,
                       const double* xc, const double* xs, const double* xn,
                       const double* csp, const double* xo, const double* bsub,
                       const double* wdot, DdLanes* dot,
                       std::span<double> y) {
  const std::size_t n = y.size();
  V2D_REQUIRE(cc.size() == n && cw.size() == n && ce.size() == n &&
                  cs.size() == n && cn.size() == n,
              "stencil_row_fused: coefficient length mismatch");
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
  Bind bd{};
  bd.n = n;
  bd.slot[0] = const_cast<double*>(cc.data());
  bd.slot[1] = const_cast<double*>(cw.data());
  bd.slot[2] = const_cast<double*>(ce.data());
  bd.slot[3] = const_cast<double*>(cs.data());
  bd.slot[4] = const_cast<double*>(cn.data());
  bd.slot[5] = const_cast<double*>(xc);
  bd.slot[6] = const_cast<double*>(xs);
  bd.slot[7] = const_cast<double*>(xn);
  std::uint8_t s = 8;
  if (coupled) {
    bd.slot[s++] = const_cast<double*>(csp);
    bd.slot[s++] = const_cast<double*>(xo);
  }
  ++s;  // the stencil temp slot lives in registers only
  if (sub)
    bd.slot[s++] = const_cast<double*>(bsub);
  else if (!self)
    bd.slot[s++] = const_cast<double*>(wdot);
  bd.slot[s++] = y.data();
  if (dot != nullptr) bd.acc[0] = dot;

  if (sub) {
    if (coupled)
      run_stencil_variant<true, true, false>(ctx, bd);
    else
      run_stencil_variant<false, true, false>(ctx, bd);
  } else if (self) {
    if (coupled)
      run_stencil_variant<true, false, true>(ctx, bd);
    else
      run_stencil_variant<false, false, true>(ctx, bd);
  } else {
    if (coupled)
      run_stencil_variant<true, false, false>(ctx, bd);
    else
      run_stencil_variant<false, false, false>(ctx, bd);
  }
}

}  // namespace v2d::linalg::fusion
