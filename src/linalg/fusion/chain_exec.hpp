#pragma once
/// \file chain_exec.hpp
/// \brief Run a built-in chain in all three execution representations.
///
/// Every kernel the solvers run is a built-in Chain (ir.hpp): the Table II
/// primitives and the MG diagonal rows as one- or two-node chains, the MG
/// transfer rows as gather chains, the fused composites as the solver
/// hot-loop chains.  Each chain is planned at compile time
/// (kBuiltinPlans), and each planned group runs as:
///   - Interpret: run_interpret walks the group's steps per strip through
///     vla::Context ops, recording op-by-op;
///   - Native: stamp_exec<G>, the group unrolled at compile time into a
///     flat raw-pointer loop the host compiler auto-vectorizes, with the
///     recording composed by group_counts and memoized in the Context's
///     count cache under the group's stamp id;
///   - both produce bit-identical results: elementwise steps evaluate the
///     same per-element expressions in the same association order, and
///     dots accumulate through the caller's DdLanes by the lane rule of
///     support/dd.hpp, as a tail over the row after the sweep.
///
/// run_chain<B> is the one entry point.  It is inline, so a kernel call
/// compiles to its length checks, one count-memo probe and the stamped
/// loop, with no binding table to clear and no call through a pointer.

#include <array>
#include <cstddef>
#include <cstdint>
#include <span>
#include <string>
#include <utility>

#include "linalg/fusion/planner.hpp"
#include "support/dd.hpp"
#include "support/error.hpp"
#include "vla/vla.hpp"

namespace v2d::linalg::fusion {

/// Operand binding of one chain call, each array in the chain's index
/// order: slot → base pointer, scalar → value, accumulator → the caller's
/// compensated dot, gather table → its first index.  Temp slots are bound
/// to nullptr (they live in registers); every table holds ≥ n entries.
struct Bind {
  double* const* slot = nullptr;
  const double* scal = nullptr;
  DdLanes* const* acc = nullptr;
  std::size_t n = 0;
  const std::int64_t* const* table = nullptr;
};

namespace detail {

inline double* operand(const char*, std::size_t, std::nullptr_t) {
  return nullptr;
}

inline double* operand(const char*, std::size_t, const double* p) {
  return const_cast<double*>(p);
}

inline double* operand(const char* kernel, std::size_t n,
                       std::span<const double> s) {
  V2D_REQUIRE(s.size() == n, std::string(kernel) + ": length mismatch");
  return const_cast<double*>(s.data());
}

}  // namespace detail

/// Slot pointers of one call over `n` elements, in slot order.  Every span
/// must hold exactly n elements; a raw pointer (a ghosted stencil tap, the
/// other species' row) or nullptr (a temp slot) is taken as it is.
template <typename... Ops>
std::array<double*, sizeof...(Ops)> bind_slots(const char* kernel,
                                               std::size_t n,
                                               const Ops&... ops) {
  return {detail::operand(kernel, n, ops)...};
}

/// Gather-table pointers of one call over `n` elements, in table order.
/// Each table must hold at least n indices: the sweep reads entry i for
/// every i < n.
template <typename... Tables>
std::array<const std::int64_t*, sizeof...(Tables)> bind_tables(
    const char* kernel, std::size_t n, const Tables&... tables) {
  const auto check = [&](std::span<const std::int64_t> t) {
    V2D_REQUIRE(t.size() >= n,
                std::string(kernel) + ": index table shorter than the row");
    return t.data();
  };
  return {check(tables)...};
}

/// The compensated dots of a group, over the operands' memory images after
/// the sweep (the planner guarantees both operands are inputs or stores).
/// Shared by both backends, so their reductions are one code path.
inline void run_tails(const GroupProgram& g, const Bind& b) {
  for (std::uint8_t t = 0; t < g.ntails; ++t) {
    const DotTail& tl = g.tail[t];
    b.acc[tl.acc]->dot_row(b.slot[tl.slot_a], b.slot[tl.slot_b], b.n);
  }
}

/// The generic interpreter sweep for one group (the reference backend).
void run_interpret(vla::Context& ctx, const GroupProgram& g, const Bind& b);

// --- the built-in plans and their stamp ids ----------------------------------

constexpr std::array<FusionPlan, kNumBuiltins> plan_builtins() {
  std::array<FusionPlan, kNumBuiltins> plans{};
  for (std::size_t i = 0; i < kNumBuiltins; ++i)
    plans[i] = plan_chain(kBuiltinChains[i]);
  return plans;
}

/// Every built-in chain's plan, in kBuiltinChains order.
inline constexpr std::array<FusionPlan, kNumBuiltins> kBuiltinPlans =
    plan_builtins();

/// The stamp id of a built-in group signature: its index among the
/// distinct signatures met walking kBuiltinPlans (chains, then groups);
/// -1 for a signature no built-in chain has.  Part of the count-memo key,
/// so the order of kBuiltinChains fixes every key.
constexpr int builtin_stamp_id(std::uint64_t sig) {
  std::uint64_t seen[kNumBuiltins * kMaxGroups] = {};
  int nseen = 0;
  for (const FusionPlan& p : kBuiltinPlans) {
    for (std::uint8_t gi = 0; gi < p.ngroups; ++gi) {
      const std::uint64_t s = p.group[gi].sig;
      int id = 0;
      while (id < nseen && seen[id] != s) ++id;
      if (id == nseen) seen[nseen++] = s;
      if (s == sig) return id;
    }
  }
  return -1;
}

// --- native stamps ------------------------------------------------------------

namespace detail {

/// 1 + the highest slot the group's sweep loads or stores.
constexpr std::size_t sweep_slots(const GroupProgram& g) {
  std::size_t n = 0;
  const auto use = [&n](std::size_t s) { n = s + 1 > n ? s + 1 : n; };
  for (std::uint8_t i = 0; i < g.nsteps; ++i) {
    const Step& s = g.step[i];
    if (s.k == StepKind::Load || s.k == StepKind::LoadGather) use(s.a);
    if (s.k == StepKind::Stencil) use(s.a + 7u);
    if (s.k == StepKind::Store) use(s.dst);
  }
  return n;
}

/// 1 + the highest scalar the group broadcasts.
constexpr std::size_t sweep_scalars(const GroupProgram& g) {
  std::size_t n = 0;
  const auto use = [&n](const Step& s) {
    if ((s.k == StepKind::DupScal || s.k == StepKind::DupStrip) &&
        s.a + 1u > n)
      n = s.a + 1u;
  };
  for (std::uint8_t i = 0; i < g.npre; ++i) use(g.pre[i]);
  for (std::uint8_t i = 0; i < g.nsteps; ++i) use(g.step[i]);
  return n;
}

/// 1 + the highest index table the group gathers through.
constexpr std::size_t sweep_tables(const GroupProgram& g) {
  std::size_t n = 0;
  for (std::uint8_t i = 0; i < g.nsteps; ++i)
    if (g.step[i].k == StepKind::LoadGather && g.step[i].b + 1u > n)
      n = g.step[i].b + 1u;
  return n;
}

/// A sweep that stores nothing has no native effect: its dots are the
/// tails, so the stamp skips it.
constexpr bool sweep_stores(const GroupProgram& g) {
  for (std::uint8_t i = 0; i < g.nsteps; ++i)
    if (g.step[i].k == StepKind::Store) return true;
  return false;
}

template <GroupProgram G, std::size_t I>
inline void stamp_pre(const double* sc, double* r) {
  constexpr Step S = G.pre[I];
  if constexpr (S.k == StepKind::DupScal) r[S.dst] = sc[S.a];
}

template <GroupProgram G, std::size_t I>
inline void stamp_step(double* const* p, const std::int64_t* const* ix,
                       const double* sc, double* r, std::ptrdiff_t i) {
  constexpr Step S = G.step[I];
  if constexpr (S.k == StepKind::Load) {
    r[S.dst] = p[S.a][i];
  } else if constexpr (S.k == StepKind::LoadGather) {
    r[S.dst] = p[S.a][ix[S.b][i]];
  } else if constexpr (S.k == StepKind::DupStrip) {
    r[S.dst] = sc[S.a];
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
/// into a flat per-element loop over local copies of the slot pointers,
/// index tables and scalars it uses, so the host compiler auto-vectorizes
/// it.  Register slots with compile-time-constant indices are scalarized.
template <GroupProgram G>
inline void stamp_exec(const Bind& b) {
  if constexpr (sweep_stores(G)) {
    constexpr std::size_t kSlots = sweep_slots(G);
    constexpr std::size_t kScalars = sweep_scalars(G);
    constexpr std::size_t kTables = sweep_tables(G);
    double* p[kSlots] = {};
    for (std::size_t s = 0; s < kSlots; ++s) p[s] = b.slot[s];
    double sc[kScalars > 0 ? kScalars : 1] = {};
    for (std::size_t s = 0; s < kScalars; ++s) sc[s] = b.scal[s];
    const std::int64_t* ix[kTables > 0 ? kTables : 1] = {};
    for (std::size_t t = 0; t < kTables; ++t) ix[t] = b.table[t];
    const auto n = static_cast<std::ptrdiff_t>(b.n);
    for (std::ptrdiff_t i = 0; i < n; ++i) {
      double r[std::size_t{G.nregs}] = {};
      [&]<std::size_t... Pi>(std::index_sequence<Pi...>) {
        (stamp_pre<G, Pi>(sc, r), ...);
      }(std::make_index_sequence<std::size_t{G.npre}>{});
      [&]<std::size_t... Si>(std::index_sequence<Si...>) {
        (stamp_step<G, Si>(p, ix, sc, r, i), ...);
      }(std::make_index_sequence<std::size_t{G.nsteps}>{});
    }
  }
  run_tails(G, b);
}

/// One group on the native path: its composed counts, memoized in the
/// context's count cache, then the stamp.
template <GroupProgram G>
inline void run_stamp(vla::Context& ctx, const Bind& b) {
  constexpr int kId = builtin_stamp_id(G.sig);
  static_assert(kId >= 0 && kId < 256, "stamp id outside the memo key");
  // The stamp id in the top byte, n below it.
  constexpr std::uint64_t kKey = static_cast<std::uint64_t>(kId) << 56;
  ctx.add_counts(ctx.memo_counts(kKey | (b.n & 0x00ff'ffff'ffff'ffffULL), [&] {
    return group_counts(G, b.n, ctx.lanes());
  }));
  stamp_exec<G>(b);
}

}  // namespace detail

/// Run built-in chain B over one binding in the context's exec mode.
template <Builtin B>
inline void run_chain(vla::Context& ctx, const Bind& b) {
  constexpr std::size_t kChain = static_cast<std::size_t>(B);
  constexpr std::size_t kGroups = kBuiltinPlans[kChain].ngroups;
  if (!ctx.native()) {
    for (std::size_t gi = 0; gi < kGroups; ++gi)
      run_interpret(ctx, kBuiltinPlans[kChain].group[gi], b);
    return;
  }
  [&]<std::size_t... Gi>(std::index_sequence<Gi...>) {
    (detail::run_stamp<kBuiltinPlans[kChain].group[Gi]>(ctx, b), ...);
  }(std::make_index_sequence<kGroups>{});
}

}  // namespace v2d::linalg::fusion
