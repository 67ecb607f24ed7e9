#pragma once
/// \file ir.hpp
/// \brief Primitive-chain IR for the fusion planner.
///
/// A Chain is the planner's input: a short straight-line sequence of
/// primitive kernel launches (the body of one solver-iteration hot spot)
/// over a small set of operand slots.  Slots are indices into a caller-
/// provided binding table (fused_exec.hpp's Bind); the IR itself carries no
/// pointers, so chains are constexpr values and the planner can run at
/// compile time for the built-in template set.
///
/// Node semantics (all elementwise over i, except Dot):
///   Axpy     dst ← src0·scal + src1
///   Mul      dst ← src0·src1
///   MulAdd   dst ← src0·src1 + src2          (species-coupling add)
///   SubFrom  dst ← src0 − src1
///   Copy     dst ← src0                      (store-only when src0 is
///                                             already register-resident —
///                                             this is the copy-elision rule)
///   Stencil  dst ← five-point row over the 8 consecutive slots starting at
///            src0, laid out [cc, cw, ce, cs, cn, xc, xs, xn]; xc must have
///            a readable ghost on each side
///   Dot      acc += Σ src0·src1              (reduction tail; accumulates
///                                             through the caller's
///                                             compensated DdLanes by
///                                             the lane rule)
///
/// Any source operand may name a scalar or a gather instead of a slot:
///   sref(k)        scalar k, broadcast once per call (FILL's broadcast,
///                  DSCAL's c addend, the MG diagonal rows' ω);
///   bref(k)        scalar k, broadcast afresh in every strip (the MG
///                  restriction's per-strip weights and +0.0 accumulator
///                  start);
///   gref(s, t)     slot s gathered through index table t: the value at i
///                  is slot[s][idx[t][i]] (the MG transfer rows' stride-2
///                  and stride-1/2 reads).  Every use is one gather load,
///                  and a group may not gather from a slot it writes.
///
/// The chain lists which slots are live-out (must reach memory).  Writes to
/// other slots are temporaries the planner keeps in registers.

#include <cstddef>
#include <cstdint>
#include <initializer_list>
#include <iterator>

#include "support/error.hpp"

namespace v2d::linalg::fusion {

inline constexpr std::uint8_t kNone = 0xff;
inline constexpr std::size_t kMaxNodes = 20;
inline constexpr std::size_t kMaxSlots = 16;
inline constexpr std::size_t kMaxScalars = 5;
inline constexpr std::size_t kMaxTables = 4;
inline constexpr std::size_t kMaxAccs = 2;
inline constexpr std::size_t kNameLen = 24;

/// Failure path shared by compile-time and runtime planning: reaching it
/// during constant evaluation is a compile error (the built-in template set
/// can never ship an illegal chain); at runtime it throws.
[[noreturn]] inline void plan_fail(const char* msg) {
  throw Error(std::string("fusion planner: ") + msg);
}

/// Source-operand tags in the top two bits: 00 slot, 01 gather
/// (table << 4 | slot), 10 scalar, 11 per-strip scalar.
inline constexpr std::uint8_t kTagMask = 0xc0;
inline constexpr std::uint8_t kGatherOperand = 0x40;
inline constexpr std::uint8_t kScalarOperand = 0x80;
inline constexpr std::uint8_t kStripOperand = 0xc0;

constexpr std::uint8_t sref(std::uint8_t k) { return kScalarOperand | k; }
constexpr std::uint8_t bref(std::uint8_t k) { return kStripOperand | k; }
constexpr std::uint8_t gref(std::uint8_t slot, std::uint8_t table) {
  if (slot >= kMaxSlots || table >= kMaxTables)
    plan_fail("gather operand out of range");
  return static_cast<std::uint8_t>(kGatherOperand | table << 4 | slot);
}

constexpr bool is_sref(std::uint8_t operand) {
  return (operand & kTagMask) == kScalarOperand;
}
constexpr bool is_bref(std::uint8_t operand) {
  return operand != kNone && (operand & kTagMask) == kStripOperand;
}
constexpr bool is_gref(std::uint8_t operand) {
  return (operand & kTagMask) == kGatherOperand;
}
/// The scalar index of an sref/bref, the slot or table of a gref.
constexpr std::uint8_t scalar_of(std::uint8_t operand) {
  return operand & ~kTagMask;
}
constexpr std::uint8_t gather_slot(std::uint8_t operand) {
  return operand & 0x0f;
}
constexpr std::uint8_t gather_table(std::uint8_t operand) {
  return (operand >> 4) & 0x03;
}
/// The slot a source operand reads from memory, kNone for a scalar.
constexpr std::uint8_t read_slot(std::uint8_t operand) {
  if (is_gref(operand)) return gather_slot(operand);
  return (operand & kTagMask) == 0 ? operand : kNone;
}

enum class Prim : std::uint8_t {
  Axpy,
  Mul,
  MulAdd,
  SubFrom,
  Copy,
  Stencil,
  Dot,
};

constexpr const char* prim_name(Prim p) {
  switch (p) {
    case Prim::Axpy: return "axpy";
    case Prim::Mul: return "mul";
    case Prim::MulAdd: return "muladd";
    case Prim::SubFrom: return "sub";
    case Prim::Copy: return "copy";
    case Prim::Stencil: return "stencil";
    case Prim::Dot: return "dot";
  }
  return "?";
}

struct PrimNode {
  Prim op = Prim::Copy;
  std::uint8_t dst = kNone;   ///< slot written (kNone for Dot)
  std::uint8_t src0 = kNone;
  std::uint8_t src1 = kNone;
  std::uint8_t src2 = kNone;
  std::uint8_t scal = kNone;  ///< scalar index (Axpy)
  std::uint8_t acc = kNone;   ///< accumulator index (Dot)
};

struct Chain {
  char name[kNameLen] = {};
  std::uint8_t nnodes = 0;
  std::uint8_t nslots = 0;
  std::uint8_t nscal = 0;
  std::uint8_t naccs = 0;
  PrimNode node[kMaxNodes] = {};
  bool live_out[kMaxSlots] = {};
};

namespace detail {

constexpr void set_name(Chain& c, const char* name) {
  std::size_t i = 0;
  for (; name[i] != '\0' && i + 1 < kNameLen; ++i) c.name[i] = name[i];
  c.name[i] = '\0';
}

constexpr void push(Chain& c, PrimNode n) {
  if (c.nnodes >= kMaxNodes) plan_fail("chain node overflow");
  c.node[c.nnodes++] = n;
}

/// A chain in one expression: operand counts, live-out slots, then the
/// nodes in program order.
constexpr Chain chain(const char* name, std::uint8_t nslots,
                      std::uint8_t nscal, std::uint8_t naccs,
                      std::initializer_list<std::uint8_t> live_out,
                      std::initializer_list<PrimNode> nodes) {
  Chain c{};
  set_name(c, name);
  c.nslots = nslots;
  c.nscal = nscal;
  c.naccs = naccs;
  for (const std::uint8_t s : live_out) {
    if (s >= kMaxSlots) plan_fail("live-out slot out of range");
    c.live_out[s] = true;
  }
  for (const PrimNode& n : nodes) push(c, n);
  return c;
}

}  // namespace detail

// --- built-in chains (the solver hot-loop composites) ------------------------

/// CG twin update: x ← x + s0·p and r ← r + s1·q (slots p=0 x=1 q=2 r=3).
constexpr Chain make_daxpy2_chain() {
  return detail::chain("daxpy2", 4, 2, 0, {1, 3},
                       {{Prim::Axpy, 1, 0, 1, kNone, 0, kNone},
                        {Prim::Axpy, 3, 2, 3, kNone, 1, kNone}});
}

/// Fused COPY+DAXPY: z ← x + s0·y (slots x=0 y=1 z=2; the copy of x into z
/// is elided into the FMA's addend).
constexpr Chain make_axpy_out_chain() {
  return detail::chain("axpy_out", 3, 1, 0, {2},
                       {{Prim::Axpy, 2, 1, 0, kNone, 0, kNone}});
}

/// BiCGSTAB p-update: p ← r + s1·(p + s0·v) with s0 = −ω, s1 = β
/// (slots r=0 v=1 p=2, temp t=3).
constexpr Chain make_p_update_chain() {
  return detail::chain("p_update", 4, 2, 0, {2},
                       {{Prim::Axpy, 3, 1, 2, kNone, 0, kNone},
                        {Prim::Axpy, 2, 3, 0, kNone, 1, kNone}});
}

/// Precond apply + ganged 2-dot: z ← m ⊙ r, acc0 += Σ z·r, acc1 += Σ r·r
/// (slots m=0 r=1 z=2).
constexpr Chain make_hadamard_dot2_chain() {
  return detail::chain("hadamard_dot2", 3, 0, 2, {2},
                       {{Prim::Mul, 2, 0, 1, kNone, kNone, kNone},
                        {Prim::Dot, kNone, 2, 1, kNone, kNone, 0},
                        {Prim::Dot, kNone, 1, 1, kNone, kNone, 1}});
}

/// CG tail composite: r ← r + s0·q, then the precond+gang sweep over the
/// updated residual (slots m=0 q=1 r=2 z=3).
constexpr Chain make_hadamard_update_dot2_chain() {
  return detail::chain("hadamard_update_dot2", 4, 1, 2, {2, 3},
                       {{Prim::Axpy, 2, 1, 2, kNone, 0, kNone},
                        {Prim::Mul, 3, 0, 2, kNone, kNone, kNone},
                        {Prim::Dot, kNone, 3, 2, kNone, kNone, 0},
                        {Prim::Dot, kNone, 2, 2, kNone, kNone, 1}});
}

/// MG full-weighting restriction of one coarse row: the separable weights
/// (1/4, 3/4, 3/4, 1/4) along i over four gathers per fine row, then
/// coarse ← Σ_dj (wj[dj]/4)·row_dj from +0.0, dj-major (fine rows 0..3,
/// coarse=4, temps row=5 acc=6; tables 2c−1, 2c, 2c+1, 2c+2; scalars
/// 1/4, 3/4, 0, 1/16, 3/16, the last three broadcast per strip).
constexpr Chain make_restrict_row_chain() {
  Chain c = detail::chain("restrict_row", 7, 5, 0, {4}, {});
  constexpr std::uint8_t kRow = 5, kAcc = 6;
  constexpr std::uint8_t kTap[4] = {0, 1, 1, 0};     // 1/4, 3/4, 3/4, 1/4
  constexpr std::uint8_t kWeight[4] = {3, 4, 4, 3};  // 1/16, 3/16, 3/16, 1/16
  for (std::uint8_t dj = 0; dj < 4; ++dj) {
    detail::push(c, {Prim::Mul, kRow, sref(kTap[0]), gref(dj, 0), kNone,
                     kNone, kNone});
    for (std::uint8_t t = 1; t < 4; ++t)
      detail::push(c, {Prim::MulAdd, kRow, sref(kTap[t]), gref(dj, t), kRow,
                       kNone, kNone});
    detail::push(c, {Prim::MulAdd, dj == 3 ? std::uint8_t{4} : kAcc,
                     bref(kWeight[dj]), kRow, dj == 0 ? bref(2) : kAcc,
                     kNone, kNone});
  }
  return c;
}

/// MG bilinear prolongation of one fine row, added into it: the parent
/// (near) and parity-adjacent (far) coarse values along i, 3/4 and 1/4, on
/// each coarse row, then fine ← fine + 3/4·near-row + 1/4·far-row
/// (cnear=0 cfar=1 fine=2, temps rn=3 rf=4 t=5; tables near=0 far=1;
/// scalars 1/4, 3/4).
constexpr Chain make_prolong_row_add_chain() {
  return detail::chain(
      "prolong_row_add", 6, 2, 0, {2},
      {{Prim::Mul, 3, sref(1), gref(0, 0), kNone, kNone, kNone},
       {Prim::MulAdd, 3, sref(0), gref(0, 1), 3, kNone, kNone},
       {Prim::Mul, 4, sref(1), gref(1, 0), kNone, kNone, kNone},
       {Prim::MulAdd, 4, sref(0), gref(1, 1), 4, kNone, kNone},
       {Prim::MulAdd, 5, sref(1), 3, 2, kNone, kNone},
       {Prim::MulAdd, 2, sref(0), 4, 5, kNone, kNone}});
}

/// Fused stencil-row composites.  Slots 0..7 are the stencil pack
/// [cc cw ce cs cn xc xs xn]; then optionally csp/xo (coupling), the
/// stencil temp, the residual operand b (sub form) or the distinct dot
/// operand w (dot form), and finally y.
///
///   bsub=true            y ← b − (A·x) row          (fused residual)
///   bsub=false,self=true y ← (A·x) row, acc0 += Σ xc·y   (CG p·Ap)
///   bsub=false,self=false y ← (A·x) row, acc0 += Σ w·y
constexpr Chain make_stencil_chain(bool coupled, bool bsub, bool self_w) {
  Chain c{};
  detail::set_name(c, bsub ? (coupled ? "stencil_sub_coupled" : "stencil_sub")
                           : (self_w ? (coupled ? "stencil_dot_coupled"
                                                : "stencil_dot")
                                     : (coupled ? "stencil_dotw_coupled"
                                                : "stencil_dotw")));
  std::uint8_t s = 8;  // slots 0..7 = stencil pack
  const std::uint8_t csp = coupled ? s++ : kNone;
  const std::uint8_t xo = coupled ? s++ : kNone;
  const std::uint8_t t = s++;
  const std::uint8_t b = bsub ? s++ : kNone;
  const std::uint8_t w = (!bsub && !self_w) ? s++ : kNone;
  const std::uint8_t y = s++;
  c.nslots = s;
  c.naccs = bsub ? 0 : 1;
  c.live_out[y] = true;
  detail::push(c, {Prim::Stencil, t, 0, kNone, kNone, kNone, kNone});
  if (coupled) detail::push(c, {Prim::MulAdd, t, csp, xo, t, kNone, kNone});
  if (bsub) {
    detail::push(c, {Prim::SubFrom, y, b, t, kNone, kNone, kNone});
  } else {
    detail::push(c, {Prim::Copy, y, t, kNone, kNone, kNone, kNone});
    const std::uint8_t wslot = self_w ? std::uint8_t{5} : w;
    detail::push(c, {Prim::Dot, kNone, wslot, y, kNone, kNone, 0});
  }
  return c;
}

// --- the built-in list -------------------------------------------------------

/// Every built-in chain, in the one order that stamp ids, count-memo keys
/// and the `--dump-fusion-plan` payload follow: the solver composites
/// first, then one chain per primitive kernel.
enum class Builtin : std::uint8_t {
  Daxpy2,
  AxpyOut,
  PUpdate,
  HadamardDot2,
  HadamardUpdateDot2,
  StencilSub,
  StencilSubCoupled,
  StencilDot,
  StencilDotw,
  StencilDotCoupled,
  StencilDotwCoupled,
  Daxpy,
  Dscal,
  Ddaxpy,
  Xpby,
  Copy,
  Fill,
  Sub,
  Hadamard,
  Dprod,
  StencilRow,
  CouplingRow,
  DiagCorrectRow,
  DiagScaleRow,
  RestrictRow,
  ProlongRowAdd,
};

inline constexpr Chain kBuiltinChains[] = {
    make_daxpy2_chain(),
    make_axpy_out_chain(),
    make_p_update_chain(),
    make_hadamard_dot2_chain(),
    make_hadamard_update_dot2_chain(),
    make_stencil_chain(false, true, false),
    make_stencil_chain(true, true, false),
    make_stencil_chain(false, false, true),
    make_stencil_chain(false, false, false),
    make_stencil_chain(true, false, true),
    make_stencil_chain(true, false, false),
    // The primitive kernels.  Slots follow the kernel's parameter order; a
    // trailing temp slot t lives in registers only.
    //   DAXPY  y ← x·s0 + y                      (x=0 y=1)
    detail::chain("daxpy", 2, 1, 0, {1},
                  {{Prim::Axpy, 1, 0, 1, kNone, 0, kNone}}),
    //   DSCAL  y ← y·s0 + s1, s0 = −d, s1 = c    (y=0)
    detail::chain("dscal", 1, 2, 0, {0},
                  {{Prim::Axpy, 0, 0, sref(1), kNone, 0, kNone}}),
    //   DDAXPY z ← y·s1 + (x·s0 + z)             (x=0 y=1 z=2 t=3)
    detail::chain("ddaxpy", 4, 2, 0, {2},
                  {{Prim::Axpy, 3, 0, 2, kNone, 0, kNone},
                   {Prim::Axpy, 2, 1, 3, kNone, 1, kNone}}),
    //   XPBY   y ← y·s0 + x                      (x=0 y=1)
    detail::chain("xpby", 2, 1, 0, {1},
                  {{Prim::Axpy, 1, 1, 0, kNone, 0, kNone}}),
    //   COPY   y ← x                             (x=0 y=1)
    detail::chain("copy", 2, 0, 0, {1},
                  {{Prim::Copy, 1, 0, kNone, kNone, kNone, kNone}}),
    //   FILL   y ← s0 broadcast                  (y=0)
    detail::chain("fill", 1, 1, 0, {0},
                  {{Prim::Copy, 0, sref(0), kNone, kNone, kNone, kNone}}),
    //   SUB    z ← x − y                         (x=0 y=1 z=2)
    detail::chain("sub", 3, 0, 0, {2},
                  {{Prim::SubFrom, 2, 0, 1, kNone, kNone, kNone}}),
    //   HADAMARD z ← x ⊙ y                       (x=0 y=1 z=2)
    detail::chain("hadamard", 3, 0, 0, {2},
                  {{Prim::Mul, 2, 0, 1, kNone, kNone, kNone}}),
    //   DPROD  acc0 += Σ x·y                     (x=0 y=1, bound apart even
    //          when x is y, so x·x still records two loads)
    detail::chain("dprod", 2, 0, 1, {},
                  {{Prim::Dot, kNone, 0, 1, kNone, kNone, 0}}),
    //   MATVEC row y ← five-point row            (stencil pack 0..7, y=8)
    detail::chain("stencil_row", 9, 0, 0, {8},
                  {{Prim::Stencil, 8, 0, kNone, kNone, kNone, kNone}}),
    //   species coupling y ← csp·xo + y          (csp=0 xo=1 y=2)
    detail::chain("coupling_row", 3, 0, 0, {2},
                  {{Prim::MulAdd, 2, 0, 1, 2, kNone, kNone}}),
    //   MG weighted-Jacobi x ← s0·(d ⊙ r) + x    (d=0 r=1 x=2 t=3)
    detail::chain("diag_correct_row", 4, 1, 0, {2},
                  {{Prim::Mul, 3, 0, 1, kNone, kNone, kNone},
                   {Prim::MulAdd, 2, sref(0), 3, 2, kNone, kNone}}),
    //   MG scaled diagonal z ← s0·(d ⊙ r)        (d=0 r=1 z=2 t=3)
    detail::chain("diag_scale_row", 4, 1, 0, {2},
                  {{Prim::Mul, 3, 0, 1, kNone, kNone, kNone},
                   {Prim::Mul, 2, sref(0), 3, kNone, kNone, kNone}}),
    make_restrict_row_chain(),
    make_prolong_row_add_chain(),
};

inline constexpr std::size_t kNumBuiltins = std::size(kBuiltinChains);
static_assert(kNumBuiltins ==
              static_cast<std::size_t>(Builtin::ProlongRowAdd) + 1);

}  // namespace v2d::linalg::fusion
