/// \file test_fusion_planner.cpp
/// \brief The fusion planner: plan determinism, legality, DAG capture and
/// the --fuse on differential contract.
///
/// Four layers, extending test_fusion.cpp's interpreter-vs-native suite:
///   1. plan determinism — the built-in plan dump is byte-identical across
///      repeated planning and across host-thread counts;
///   2. legality — write-after-read across a reduction cuts the group (in
///      both plan_chain and the DAG annotator), and a reduction over an
///      unstored temporary, a scalar or a gather, or a gather from a slot
///      its group writes, is rejected outright;
///   3. DAG capture — the first fused solver iteration of each
///      configuration is recorded once, on the driving thread only, and
///      the capture prices nothing;
///   4. differential — --fuse on is bit-identical in fields to off across
///      solvers × preconditioners × exec modes × VL tail shapes, solo and
///      in a mixed-fuse farm; its recorded counts, per-profile per-rank
///      clocks and full cost ledgers equal golden values captured from the
///      hand-written composites that backed --fuse on before the planner
///      replaced them (the unfused clocks are pinned the same way).

#include <gtest/gtest.h>

#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "core/v2d.hpp"
#include "farm/farm.hpp"
#include "io/h5lite.hpp"
#include "linalg/bicgstab.hpp"
#include "linalg/cg.hpp"
#include "linalg/dag_capture.hpp"
#include "linalg/fusion/fused_exec.hpp"
#include "linalg/fusion/planner.hpp"
#include "linalg/kernels.hpp"
#include "linalg/mg/mg_kernels.hpp"
#include "linalg/precond.hpp"
#include "linalg/stencil_op.hpp"
#include "sim_capture.hpp"
#include "support/error.hpp"
#include "support/rng.hpp"
#include "support/thread_pool.hpp"
#include "vla/kernel_dag.hpp"

namespace v2d::linalg {
namespace {

using vla::Context;
using vla::VectorArch;
using vla::VlaExecMode;

// --- 1. plan determinism ------------------------------------------------------

TEST(PlanDeterminism, BuiltinDumpByteIdenticalAcrossRunsAndThreads) {
  const std::string first = fusion::describe_builtin_plans();
  EXPECT_FALSE(first.empty());
  EXPECT_EQ(first, fusion::describe_builtin_plans());
  for (const int threads : {1, 4}) {
    set_host_threads(threads);
    EXPECT_EQ(first, fusion::describe_builtin_plans())
        << "threads=" << threads;
  }
  set_host_threads(0);
}

TEST(PlanDeterminism, RuntimeChainPlansMatchCompileTimePlans) {
  // The same planner code runs at compile time (built-in template set) and
  // at runtime (tests, DAG annotation); both must emit the same plan.
  constexpr auto ct = fusion::plan_chain(fusion::make_daxpy2_chain());
  const auto chain = fusion::make_daxpy2_chain();
  const auto rt = fusion::plan_chain(chain);
  EXPECT_EQ(fusion::dump_plan(chain, ct), fusion::dump_plan(chain, rt));
  EXPECT_EQ(ct.ngroups, 1);
  EXPECT_EQ(ct.group[0].sig, rt.group[0].sig);
}

// --- 2. legality --------------------------------------------------------------

/// A node that writes a slot some Dot already in the group reads must not
/// fuse: the sweep would feed the reduction post-update values.
TEST(FusionLegality, WriteAfterReadAcrossReductionCutsTheGroup) {
  fusion::Chain c{};
  fusion::detail::set_name(c, "war");
  c.nslots = 3;
  c.nscal = 1;
  c.naccs = 1;
  c.live_out[1] = true;
  c.live_out[2] = true;
  // z ← m ⊙ r ; acc += Σ z·r ; r ← r + s·z  — the DAXPY writes slot 1,
  // which the Dot reads.
  fusion::detail::push(
      c, {fusion::Prim::Mul, 2, 0, 1, fusion::kNone, fusion::kNone,
          fusion::kNone});
  fusion::detail::push(
      c, {fusion::Prim::Dot, fusion::kNone, 2, 1, fusion::kNone,
          fusion::kNone, 0});
  fusion::detail::push(
      c, {fusion::Prim::Axpy, 1, 2, 1, fusion::kNone, 0, fusion::kNone});
  const auto p = fusion::plan_chain(c);
  ASSERT_EQ(p.ngroups, 2);
  EXPECT_EQ(p.group[0].nnodes, 2);  // Mul + Dot fuse
  EXPECT_EQ(p.group[1].first_node, 2);  // the aliasing writer starts anew
  EXPECT_EQ(p.group[1].nnodes, 1);
}

TEST(FusionLegality, ReductionOverUnstoredTemporaryIsRejected) {
  fusion::Chain c{};
  fusion::detail::set_name(c, "temp-dot");
  c.nslots = 3;
  c.naccs = 1;
  // z ← m ⊙ r with z NOT live-out, then acc += Σ z·r: the compensated
  // tail reads operand memory images, so a register-only z is illegal.
  fusion::detail::push(
      c, {fusion::Prim::Mul, 2, 0, 1, fusion::kNone, fusion::kNone,
          fusion::kNone});
  fusion::detail::push(
      c, {fusion::Prim::Dot, fusion::kNone, 2, 1, fusion::kNone,
          fusion::kNone, 0});
  EXPECT_THROW((void)fusion::plan_chain(c), Error);
}

TEST(FusionLegality, ReductionOverScalarOperandIsRejected) {
  // A scalar operand is a register broadcast with no memory image, so the
  // compensated tail has nothing to read.
  const auto c = fusion::detail::chain(
      "scalar-dot", 1, 1, 1, {},
      {{fusion::Prim::Dot, fusion::kNone, 0, fusion::sref(0), fusion::kNone,
        fusion::kNone, 0}});
  EXPECT_THROW((void)fusion::plan_chain(c), Error);
}

TEST(FusionLegality, ReductionOverGatherOperandIsRejected) {
  // The compensated tail reads its operands linearly after the sweep, so
  // a gathered operand has no memory image it could read either.
  const auto c = fusion::detail::chain(
      "gather-dot", 2, 0, 1, {},
      {{fusion::Prim::Dot, fusion::kNone, 0, fusion::gref(1, 0),
        fusion::kNone, fusion::kNone, 0}});
  EXPECT_THROW((void)fusion::plan_chain(c), Error);
}

TEST(FusionLegality, GatherFromASlotItsGroupWritesIsRejected) {
  // A gather may read any element, including ones the sweep has or has
  // not yet stored, so no group may both gather from a slot and write it.
  using fusion::Prim;
  const auto write_then_gather = fusion::detail::chain(
      "write-gather", 3, 0, 0, {1, 2},
      {{Prim::Copy, 1, 0, fusion::kNone, fusion::kNone, fusion::kNone,
        fusion::kNone},
       {Prim::Copy, 2, fusion::gref(1, 0), fusion::kNone, fusion::kNone,
        fusion::kNone, fusion::kNone}});
  EXPECT_THROW((void)fusion::plan_chain(write_then_gather), Error);
  const auto gather_then_write = fusion::detail::chain(
      "gather-write", 2, 0, 0, {0},
      {{Prim::Copy, 0, fusion::gref(0, 0), fusion::kNone, fusion::kNone,
        fusion::kNone, fusion::kNone}});
  EXPECT_THROW((void)fusion::plan_chain(gather_then_write), Error);
  // Gathering from a slot nothing writes is the MG transfer rows' shape.
  const auto ok = fusion::detail::chain(
      "gather-copy", 2, 0, 0, {1},
      {{Prim::Copy, 1, fusion::gref(0, 0), fusion::kNone, fusion::kNone,
        fusion::kNone, fusion::kNone}});
  EXPECT_EQ(fusion::plan_chain(ok).ngroups, 1);
}

TEST(FusionLegality, AnnotatorAppliesTheSameCuts) {
  double a, b, x, y;
  vla::DagRecorder rec;
  rec.op("hadamard", 64, {&a, &x}, {&y});
  rec.op("dot", 64, {&y, &x}, {});
  rec.op("daxpy", 64, {&y, &x}, {&x});  // writes x, which the dot read
  rec.barrier("allreduce");
  rec.op("matvec", 64, {&x, &b}, {&y});  // stencil: only heads a group
  rec.op("daxpy", 64, {&y, &b}, {&b});
  rec.op("daxpy", 32, {&y, &a}, {&a});  // different n: cannot join
  vla::KernelDag dag = rec.take("unit");
  fusion::annotate_dag(dag);
  ASSERT_EQ(dag.nodes.size(), 7u);
  EXPECT_EQ(dag.nodes[0].group, 0);
  EXPECT_EQ(dag.nodes[0].rule, "head");
  EXPECT_EQ(dag.nodes[1].group, 0);
  EXPECT_EQ(dag.nodes[1].rule, "reduction-tail");
  EXPECT_EQ(dag.nodes[2].group, 1);
  EXPECT_EQ(dag.nodes[2].rule, "war-cut");
  EXPECT_EQ(dag.nodes[3].group, -1);
  EXPECT_EQ(dag.nodes[3].rule, "barrier");
  EXPECT_EQ(dag.nodes[4].group, 2);
  EXPECT_EQ(dag.nodes[4].rule, "stencil-head");
  EXPECT_EQ(dag.nodes[5].group, 2);
  EXPECT_EQ(dag.nodes[5].rule, "elementwise");
  EXPECT_EQ(dag.nodes[6].group, 3);
  EXPECT_EQ(dag.nodes[6].rule, "head");
}

// --- shared solver scaffolding (mirrors test_fusion.cpp) ----------------------

struct Problem {
  grid::Grid2D g;
  grid::Decomposition d;
  StencilOperator A;

  Problem(int nx1, int nx2, int ns, int px1 = 1, int px2 = 1)
      : g(nx1, nx2, 0.0, 1.0, 0.0, 1.0),
        d(g, mpisim::CartTopology(px1, px2)),
        A(g, d, ns) {}
};

double zone_noise(std::uint64_t seed, int s, int i, int j) {
  Rng r(seed ^ (static_cast<std::uint64_t>(s) * 73856093u +
                static_cast<std::uint64_t>(i) * 19349663u +
                static_cast<std::uint64_t>(j) * 83492791u));
  return r.uniform();
}

void fill_operator(StencilOperator& A, std::uint64_t seed) {
  const auto& dec = A.decomp();
  for (int r = 0; r < dec.nranks(); ++r) {
    const grid::TileExtent& e = dec.extent(r);
    for (int s = 0; s < A.ns(); ++s) {
      auto cc = A.cc().view(r, s), cw = A.cw().view(r, s),
           ce = A.ce().view(r, s), cs = A.cs().view(r, s),
           cn = A.cn().view(r, s);
      for (int lj = 0; lj < e.nj; ++lj) {
        for (int li = 0; li < e.ni; ++li) {
          const int gi = e.i0 + li, gj = e.j0 + lj;
          const double w = 0.5 + zone_noise(seed, s, gi, gj);
          cw(li, lj) = -w;
          ce(li, lj) = -w;
          cs(li, lj) = -w;
          cn(li, lj) = -w;
          cc(li, lj) = 4.5 * w + 0.5;
        }
      }
    }
  }
  A.zero_boundary_coefficients();
}

void randomize(DistVector& v, std::uint64_t seed) {
  auto& f = v.field();
  for (int r = 0; r < f.decomp().nranks(); ++r) {
    const grid::TileExtent& e = f.decomp().extent(r);
    for (int s = 0; s < v.ns(); ++s) {
      auto view = f.view(r, s);
      for (int lj = 0; lj < e.nj; ++lj)
        for (int li = 0; li < e.ni; ++li)
          view(li, lj) =
              2.0 * zone_noise(seed, s, e.i0 + li, e.j0 + lj) - 1.0;
    }
  }
}

struct SolveOutcome {
  SolveStats stats;
  std::vector<double> x;
};

void expect_same_trajectory(const SolveOutcome& a, const SolveOutcome& b,
                            const std::string& label) {
  EXPECT_EQ(a.stats.iterations, b.stats.iterations) << label;
  EXPECT_EQ(a.stats.converged, b.stats.converged) << label;
  EXPECT_EQ(a.stats.global_reductions, b.stats.global_reductions) << label;
  EXPECT_EQ(a.stats.final_relative_residual, b.stats.final_relative_residual)
      << label;
  EXPECT_STREQ(a.stats.stop_reason, b.stats.stop_reason) << label;
  ASSERT_EQ(a.x.size(), b.x.size());
  for (std::size_t i = 0; i < a.x.size(); ++i)
    ASSERT_EQ(a.x[i], b.x[i]) << label << " zone " << i;
}

// --- golden values -----------------------------------------------------------
//
// Captured from the hand-written composites (interpreter and native agreed)
// and from full --fuse on / --fuse off runs, before those composites were
// deleted.  The planner must reproduce them exactly.

/// KernelCounts of one composite call, as "class:instr/lanes ... rd:B wr:B"
/// over the op classes with a nonzero entry.
struct GoldenCounts {
  const char* composite;
  unsigned vl_bits;
  std::size_t n;
  const char* counts;
};

constexpr GoldenCounts kGoldenCounts[] = {
    {"axpy_out", 128, 0, "sel:1/1 rd:0 wr:0"},
    {"axpy_out", 128, 1, "fma:1/1 ld1:2/2 st1:1/1 sel:1/1 pred:1/2 int:1/1 branch:1/1 rd:16 wr:8"},
    {"axpy_out", 128, 7, "fma:4/7 ld1:8/14 st1:4/7 sel:1/1 pred:4/8 int:4/7 branch:4/7 rd:112 wr:56"},
    {"axpy_out", 128, 8, "fma:4/8 ld1:8/16 st1:4/8 sel:1/1 pred:4/8 int:4/8 branch:4/8 rd:128 wr:64"},
    {"axpy_out", 128, 9, "fma:5/9 ld1:10/18 st1:5/9 sel:1/1 pred:5/10 int:5/9 branch:5/9 rd:144 wr:72"},
    {"axpy_out", 128, 200, "fma:100/200 ld1:200/400 st1:100/200 sel:1/1 pred:100/200 int:100/200 branch:100/200 rd:3200 wr:1600"},
    {"axpy_out", 512, 0, "sel:1/1 rd:0 wr:0"},
    {"axpy_out", 512, 1, "fma:1/1 ld1:2/2 st1:1/1 sel:1/1 pred:1/8 int:1/1 branch:1/1 rd:16 wr:8"},
    {"axpy_out", 512, 7, "fma:1/7 ld1:2/14 st1:1/7 sel:1/1 pred:1/8 int:1/7 branch:1/7 rd:112 wr:56"},
    {"axpy_out", 512, 8, "fma:1/8 ld1:2/16 st1:1/8 sel:1/1 pred:1/8 int:1/8 branch:1/8 rd:128 wr:64"},
    {"axpy_out", 512, 9, "fma:2/9 ld1:4/18 st1:2/9 sel:1/1 pred:2/16 int:2/9 branch:2/9 rd:144 wr:72"},
    {"axpy_out", 512, 200, "fma:25/200 ld1:50/400 st1:25/200 sel:1/1 pred:25/200 int:25/200 branch:25/200 rd:3200 wr:1600"},
    {"axpy_out", 2048, 0, "sel:1/1 rd:0 wr:0"},
    {"axpy_out", 2048, 1, "fma:1/1 ld1:2/2 st1:1/1 sel:1/1 pred:1/32 int:1/1 branch:1/1 rd:16 wr:8"},
    {"axpy_out", 2048, 7, "fma:1/7 ld1:2/14 st1:1/7 sel:1/1 pred:1/32 int:1/7 branch:1/7 rd:112 wr:56"},
    {"axpy_out", 2048, 8, "fma:1/8 ld1:2/16 st1:1/8 sel:1/1 pred:1/32 int:1/8 branch:1/8 rd:128 wr:64"},
    {"axpy_out", 2048, 9, "fma:1/9 ld1:2/18 st1:1/9 sel:1/1 pred:1/32 int:1/9 branch:1/9 rd:144 wr:72"},
    {"axpy_out", 2048, 200, "fma:7/200 ld1:14/400 st1:7/200 sel:1/1 pred:7/224 int:7/200 branch:7/200 rd:3200 wr:1600"},
    {"p_update", 128, 0, "sel:2/2 rd:0 wr:0"},
    {"p_update", 128, 1, "fma:2/2 ld1:3/3 st1:1/1 sel:2/2 pred:1/2 int:1/1 branch:1/1 rd:24 wr:8"},
    {"p_update", 128, 7, "fma:8/14 ld1:12/21 st1:4/7 sel:2/2 pred:4/8 int:4/7 branch:4/7 rd:168 wr:56"},
    {"p_update", 128, 8, "fma:8/16 ld1:12/24 st1:4/8 sel:2/2 pred:4/8 int:4/8 branch:4/8 rd:192 wr:64"},
    {"p_update", 128, 9, "fma:10/18 ld1:15/27 st1:5/9 sel:2/2 pred:5/10 int:5/9 branch:5/9 rd:216 wr:72"},
    {"p_update", 128, 200, "fma:200/400 ld1:300/600 st1:100/200 sel:2/2 pred:100/200 int:100/200 branch:100/200 rd:4800 wr:1600"},
    {"p_update", 512, 0, "sel:2/2 rd:0 wr:0"},
    {"p_update", 512, 1, "fma:2/2 ld1:3/3 st1:1/1 sel:2/2 pred:1/8 int:1/1 branch:1/1 rd:24 wr:8"},
    {"p_update", 512, 7, "fma:2/14 ld1:3/21 st1:1/7 sel:2/2 pred:1/8 int:1/7 branch:1/7 rd:168 wr:56"},
    {"p_update", 512, 8, "fma:2/16 ld1:3/24 st1:1/8 sel:2/2 pred:1/8 int:1/8 branch:1/8 rd:192 wr:64"},
    {"p_update", 512, 9, "fma:4/18 ld1:6/27 st1:2/9 sel:2/2 pred:2/16 int:2/9 branch:2/9 rd:216 wr:72"},
    {"p_update", 512, 200, "fma:50/400 ld1:75/600 st1:25/200 sel:2/2 pred:25/200 int:25/200 branch:25/200 rd:4800 wr:1600"},
    {"p_update", 2048, 0, "sel:2/2 rd:0 wr:0"},
    {"p_update", 2048, 1, "fma:2/2 ld1:3/3 st1:1/1 sel:2/2 pred:1/32 int:1/1 branch:1/1 rd:24 wr:8"},
    {"p_update", 2048, 7, "fma:2/14 ld1:3/21 st1:1/7 sel:2/2 pred:1/32 int:1/7 branch:1/7 rd:168 wr:56"},
    {"p_update", 2048, 8, "fma:2/16 ld1:3/24 st1:1/8 sel:2/2 pred:1/32 int:1/8 branch:1/8 rd:192 wr:64"},
    {"p_update", 2048, 9, "fma:2/18 ld1:3/27 st1:1/9 sel:2/2 pred:1/32 int:1/9 branch:1/9 rd:216 wr:72"},
    {"p_update", 2048, 200, "fma:14/400 ld1:21/600 st1:7/200 sel:2/2 pred:7/224 int:7/200 branch:7/200 rd:4800 wr:1600"},
    {"hadamard_dot2", 128, 0, "reduce:2/4 sel:2/2 pred:1/2 rd:0 wr:0"},
    {"hadamard_dot2", 128, 1, "fmul:1/1 fma:2/2 ld1:2/2 st1:1/1 reduce:2/4 sel:2/2 pred:2/4 int:1/1 branch:1/1 rd:16 wr:8"},
    {"hadamard_dot2", 128, 7, "fmul:4/7 fma:8/14 ld1:8/14 st1:4/7 reduce:2/4 sel:2/2 pred:5/10 int:4/7 branch:4/7 rd:112 wr:56"},
    {"hadamard_dot2", 128, 8, "fmul:4/8 fma:8/16 ld1:8/16 st1:4/8 reduce:2/4 sel:2/2 pred:5/10 int:4/8 branch:4/8 rd:128 wr:64"},
    {"hadamard_dot2", 128, 9, "fmul:5/9 fma:10/18 ld1:10/18 st1:5/9 reduce:2/4 sel:2/2 pred:6/12 int:5/9 branch:5/9 rd:144 wr:72"},
    {"hadamard_dot2", 128, 200, "fmul:100/200 fma:200/400 ld1:200/400 st1:100/200 reduce:2/4 sel:2/2 pred:101/202 int:100/200 branch:100/200 rd:3200 wr:1600"},
    {"hadamard_dot2", 512, 0, "reduce:2/16 sel:2/2 pred:1/8 rd:0 wr:0"},
    {"hadamard_dot2", 512, 1, "fmul:1/1 fma:2/2 ld1:2/2 st1:1/1 reduce:2/16 sel:2/2 pred:2/16 int:1/1 branch:1/1 rd:16 wr:8"},
    {"hadamard_dot2", 512, 7, "fmul:1/7 fma:2/14 ld1:2/14 st1:1/7 reduce:2/16 sel:2/2 pred:2/16 int:1/7 branch:1/7 rd:112 wr:56"},
    {"hadamard_dot2", 512, 8, "fmul:1/8 fma:2/16 ld1:2/16 st1:1/8 reduce:2/16 sel:2/2 pred:2/16 int:1/8 branch:1/8 rd:128 wr:64"},
    {"hadamard_dot2", 512, 9, "fmul:2/9 fma:4/18 ld1:4/18 st1:2/9 reduce:2/16 sel:2/2 pred:3/24 int:2/9 branch:2/9 rd:144 wr:72"},
    {"hadamard_dot2", 512, 200, "fmul:25/200 fma:50/400 ld1:50/400 st1:25/200 reduce:2/16 sel:2/2 pred:26/208 int:25/200 branch:25/200 rd:3200 wr:1600"},
    {"hadamard_dot2", 2048, 0, "reduce:2/64 sel:2/2 pred:1/32 rd:0 wr:0"},
    {"hadamard_dot2", 2048, 1, "fmul:1/1 fma:2/2 ld1:2/2 st1:1/1 reduce:2/64 sel:2/2 pred:2/64 int:1/1 branch:1/1 rd:16 wr:8"},
    {"hadamard_dot2", 2048, 7, "fmul:1/7 fma:2/14 ld1:2/14 st1:1/7 reduce:2/64 sel:2/2 pred:2/64 int:1/7 branch:1/7 rd:112 wr:56"},
    {"hadamard_dot2", 2048, 8, "fmul:1/8 fma:2/16 ld1:2/16 st1:1/8 reduce:2/64 sel:2/2 pred:2/64 int:1/8 branch:1/8 rd:128 wr:64"},
    {"hadamard_dot2", 2048, 9, "fmul:1/9 fma:2/18 ld1:2/18 st1:1/9 reduce:2/64 sel:2/2 pred:2/64 int:1/9 branch:1/9 rd:144 wr:72"},
    {"hadamard_dot2", 2048, 200, "fmul:7/200 fma:14/400 ld1:14/400 st1:7/200 reduce:2/64 sel:2/2 pred:8/256 int:7/200 branch:7/200 rd:3200 wr:1600"},
    {"hadamard_update_dot2", 128, 0, "reduce:2/4 sel:3/3 pred:1/2 rd:0 wr:0"},
    {"hadamard_update_dot2", 128, 1, "fmul:1/1 fma:3/3 ld1:3/3 st1:2/2 reduce:2/4 sel:3/3 pred:2/4 int:1/1 branch:1/1 rd:24 wr:16"},
    {"hadamard_update_dot2", 128, 7, "fmul:4/7 fma:12/21 ld1:12/21 st1:8/14 reduce:2/4 sel:3/3 pred:5/10 int:4/7 branch:4/7 rd:168 wr:112"},
    {"hadamard_update_dot2", 128, 8, "fmul:4/8 fma:12/24 ld1:12/24 st1:8/16 reduce:2/4 sel:3/3 pred:5/10 int:4/8 branch:4/8 rd:192 wr:128"},
    {"hadamard_update_dot2", 128, 9, "fmul:5/9 fma:15/27 ld1:15/27 st1:10/18 reduce:2/4 sel:3/3 pred:6/12 int:5/9 branch:5/9 rd:216 wr:144"},
    {"hadamard_update_dot2", 128, 200, "fmul:100/200 fma:300/600 ld1:300/600 st1:200/400 reduce:2/4 sel:3/3 pred:101/202 int:100/200 branch:100/200 rd:4800 wr:3200"},
    {"hadamard_update_dot2", 512, 0, "reduce:2/16 sel:3/3 pred:1/8 rd:0 wr:0"},
    {"hadamard_update_dot2", 512, 1, "fmul:1/1 fma:3/3 ld1:3/3 st1:2/2 reduce:2/16 sel:3/3 pred:2/16 int:1/1 branch:1/1 rd:24 wr:16"},
    {"hadamard_update_dot2", 512, 7, "fmul:1/7 fma:3/21 ld1:3/21 st1:2/14 reduce:2/16 sel:3/3 pred:2/16 int:1/7 branch:1/7 rd:168 wr:112"},
    {"hadamard_update_dot2", 512, 8, "fmul:1/8 fma:3/24 ld1:3/24 st1:2/16 reduce:2/16 sel:3/3 pred:2/16 int:1/8 branch:1/8 rd:192 wr:128"},
    {"hadamard_update_dot2", 512, 9, "fmul:2/9 fma:6/27 ld1:6/27 st1:4/18 reduce:2/16 sel:3/3 pred:3/24 int:2/9 branch:2/9 rd:216 wr:144"},
    {"hadamard_update_dot2", 512, 200, "fmul:25/200 fma:75/600 ld1:75/600 st1:50/400 reduce:2/16 sel:3/3 pred:26/208 int:25/200 branch:25/200 rd:4800 wr:3200"},
    {"hadamard_update_dot2", 2048, 0, "reduce:2/64 sel:3/3 pred:1/32 rd:0 wr:0"},
    {"hadamard_update_dot2", 2048, 1, "fmul:1/1 fma:3/3 ld1:3/3 st1:2/2 reduce:2/64 sel:3/3 pred:2/64 int:1/1 branch:1/1 rd:24 wr:16"},
    {"hadamard_update_dot2", 2048, 7, "fmul:1/7 fma:3/21 ld1:3/21 st1:2/14 reduce:2/64 sel:3/3 pred:2/64 int:1/7 branch:1/7 rd:168 wr:112"},
    {"hadamard_update_dot2", 2048, 8, "fmul:1/8 fma:3/24 ld1:3/24 st1:2/16 reduce:2/64 sel:3/3 pred:2/64 int:1/8 branch:1/8 rd:192 wr:128"},
    {"hadamard_update_dot2", 2048, 9, "fmul:1/9 fma:3/27 ld1:3/27 st1:2/18 reduce:2/64 sel:3/3 pred:2/64 int:1/9 branch:1/9 rd:216 wr:144"},
    {"hadamard_update_dot2", 2048, 200, "fmul:7/200 fma:21/600 ld1:21/600 st1:14/400 reduce:2/64 sel:3/3 pred:8/256 int:7/200 branch:7/200 rd:4800 wr:3200"},
};

/// KernelCounts of one primitive call (the Table II kernels and the MG
/// diagonal rows), captured from the hand-written closed-form formulas
/// (interpreter and native agreed) before the primitives became one-node
/// planner chains.
constexpr GoldenCounts kPrimitiveGoldenCounts[] = {
    {"daxpy", 128, 0, "sel:1/1 rd:0 wr:0"},
    {"daxpy", 128, 1, "fma:1/1 ld1:2/2 st1:1/1 sel:1/1 pred:1/2 int:1/1 branch:1/1 rd:16 wr:8"},
    {"daxpy", 128, 7, "fma:4/7 ld1:8/14 st1:4/7 sel:1/1 pred:4/8 int:4/7 branch:4/7 rd:112 wr:56"},
    {"daxpy", 128, 8, "fma:4/8 ld1:8/16 st1:4/8 sel:1/1 pred:4/8 int:4/8 branch:4/8 rd:128 wr:64"},
    {"daxpy", 128, 9, "fma:5/9 ld1:10/18 st1:5/9 sel:1/1 pred:5/10 int:5/9 branch:5/9 rd:144 wr:72"},
    {"daxpy", 128, 200, "fma:100/200 ld1:200/400 st1:100/200 sel:1/1 pred:100/200 int:100/200 branch:100/200 rd:3200 wr:1600"},
    {"daxpy", 512, 0, "sel:1/1 rd:0 wr:0"},
    {"daxpy", 512, 1, "fma:1/1 ld1:2/2 st1:1/1 sel:1/1 pred:1/8 int:1/1 branch:1/1 rd:16 wr:8"},
    {"daxpy", 512, 7, "fma:1/7 ld1:2/14 st1:1/7 sel:1/1 pred:1/8 int:1/7 branch:1/7 rd:112 wr:56"},
    {"daxpy", 512, 8, "fma:1/8 ld1:2/16 st1:1/8 sel:1/1 pred:1/8 int:1/8 branch:1/8 rd:128 wr:64"},
    {"daxpy", 512, 9, "fma:2/9 ld1:4/18 st1:2/9 sel:1/1 pred:2/16 int:2/9 branch:2/9 rd:144 wr:72"},
    {"daxpy", 512, 200, "fma:25/200 ld1:50/400 st1:25/200 sel:1/1 pred:25/200 int:25/200 branch:25/200 rd:3200 wr:1600"},
    {"daxpy", 2048, 0, "sel:1/1 rd:0 wr:0"},
    {"daxpy", 2048, 1, "fma:1/1 ld1:2/2 st1:1/1 sel:1/1 pred:1/32 int:1/1 branch:1/1 rd:16 wr:8"},
    {"daxpy", 2048, 7, "fma:1/7 ld1:2/14 st1:1/7 sel:1/1 pred:1/32 int:1/7 branch:1/7 rd:112 wr:56"},
    {"daxpy", 2048, 8, "fma:1/8 ld1:2/16 st1:1/8 sel:1/1 pred:1/32 int:1/8 branch:1/8 rd:128 wr:64"},
    {"daxpy", 2048, 9, "fma:1/9 ld1:2/18 st1:1/9 sel:1/1 pred:1/32 int:1/9 branch:1/9 rd:144 wr:72"},
    {"daxpy", 2048, 200, "fma:7/200 ld1:14/400 st1:7/200 sel:1/1 pred:7/224 int:7/200 branch:7/200 rd:3200 wr:1600"},
    {"dscal", 128, 0, "sel:2/2 rd:0 wr:0"},
    {"dscal", 128, 1, "fma:1/1 ld1:1/1 st1:1/1 sel:2/2 pred:1/2 int:1/1 branch:1/1 rd:8 wr:8"},
    {"dscal", 128, 7, "fma:4/7 ld1:4/7 st1:4/7 sel:2/2 pred:4/8 int:4/7 branch:4/7 rd:56 wr:56"},
    {"dscal", 128, 8, "fma:4/8 ld1:4/8 st1:4/8 sel:2/2 pred:4/8 int:4/8 branch:4/8 rd:64 wr:64"},
    {"dscal", 128, 9, "fma:5/9 ld1:5/9 st1:5/9 sel:2/2 pred:5/10 int:5/9 branch:5/9 rd:72 wr:72"},
    {"dscal", 128, 200, "fma:100/200 ld1:100/200 st1:100/200 sel:2/2 pred:100/200 int:100/200 branch:100/200 rd:1600 wr:1600"},
    {"dscal", 512, 0, "sel:2/2 rd:0 wr:0"},
    {"dscal", 512, 1, "fma:1/1 ld1:1/1 st1:1/1 sel:2/2 pred:1/8 int:1/1 branch:1/1 rd:8 wr:8"},
    {"dscal", 512, 7, "fma:1/7 ld1:1/7 st1:1/7 sel:2/2 pred:1/8 int:1/7 branch:1/7 rd:56 wr:56"},
    {"dscal", 512, 8, "fma:1/8 ld1:1/8 st1:1/8 sel:2/2 pred:1/8 int:1/8 branch:1/8 rd:64 wr:64"},
    {"dscal", 512, 9, "fma:2/9 ld1:2/9 st1:2/9 sel:2/2 pred:2/16 int:2/9 branch:2/9 rd:72 wr:72"},
    {"dscal", 512, 200, "fma:25/200 ld1:25/200 st1:25/200 sel:2/2 pred:25/200 int:25/200 branch:25/200 rd:1600 wr:1600"},
    {"dscal", 2048, 0, "sel:2/2 rd:0 wr:0"},
    {"dscal", 2048, 1, "fma:1/1 ld1:1/1 st1:1/1 sel:2/2 pred:1/32 int:1/1 branch:1/1 rd:8 wr:8"},
    {"dscal", 2048, 7, "fma:1/7 ld1:1/7 st1:1/7 sel:2/2 pred:1/32 int:1/7 branch:1/7 rd:56 wr:56"},
    {"dscal", 2048, 8, "fma:1/8 ld1:1/8 st1:1/8 sel:2/2 pred:1/32 int:1/8 branch:1/8 rd:64 wr:64"},
    {"dscal", 2048, 9, "fma:1/9 ld1:1/9 st1:1/9 sel:2/2 pred:1/32 int:1/9 branch:1/9 rd:72 wr:72"},
    {"dscal", 2048, 200, "fma:7/200 ld1:7/200 st1:7/200 sel:2/2 pred:7/224 int:7/200 branch:7/200 rd:1600 wr:1600"},
    {"ddaxpy", 128, 0, "sel:2/2 rd:0 wr:0"},
    {"ddaxpy", 128, 1, "fma:2/2 ld1:3/3 st1:1/1 sel:2/2 pred:1/2 int:1/1 branch:1/1 rd:24 wr:8"},
    {"ddaxpy", 128, 7, "fma:8/14 ld1:12/21 st1:4/7 sel:2/2 pred:4/8 int:4/7 branch:4/7 rd:168 wr:56"},
    {"ddaxpy", 128, 8, "fma:8/16 ld1:12/24 st1:4/8 sel:2/2 pred:4/8 int:4/8 branch:4/8 rd:192 wr:64"},
    {"ddaxpy", 128, 9, "fma:10/18 ld1:15/27 st1:5/9 sel:2/2 pred:5/10 int:5/9 branch:5/9 rd:216 wr:72"},
    {"ddaxpy", 128, 200, "fma:200/400 ld1:300/600 st1:100/200 sel:2/2 pred:100/200 int:100/200 branch:100/200 rd:4800 wr:1600"},
    {"ddaxpy", 512, 0, "sel:2/2 rd:0 wr:0"},
    {"ddaxpy", 512, 1, "fma:2/2 ld1:3/3 st1:1/1 sel:2/2 pred:1/8 int:1/1 branch:1/1 rd:24 wr:8"},
    {"ddaxpy", 512, 7, "fma:2/14 ld1:3/21 st1:1/7 sel:2/2 pred:1/8 int:1/7 branch:1/7 rd:168 wr:56"},
    {"ddaxpy", 512, 8, "fma:2/16 ld1:3/24 st1:1/8 sel:2/2 pred:1/8 int:1/8 branch:1/8 rd:192 wr:64"},
    {"ddaxpy", 512, 9, "fma:4/18 ld1:6/27 st1:2/9 sel:2/2 pred:2/16 int:2/9 branch:2/9 rd:216 wr:72"},
    {"ddaxpy", 512, 200, "fma:50/400 ld1:75/600 st1:25/200 sel:2/2 pred:25/200 int:25/200 branch:25/200 rd:4800 wr:1600"},
    {"ddaxpy", 2048, 0, "sel:2/2 rd:0 wr:0"},
    {"ddaxpy", 2048, 1, "fma:2/2 ld1:3/3 st1:1/1 sel:2/2 pred:1/32 int:1/1 branch:1/1 rd:24 wr:8"},
    {"ddaxpy", 2048, 7, "fma:2/14 ld1:3/21 st1:1/7 sel:2/2 pred:1/32 int:1/7 branch:1/7 rd:168 wr:56"},
    {"ddaxpy", 2048, 8, "fma:2/16 ld1:3/24 st1:1/8 sel:2/2 pred:1/32 int:1/8 branch:1/8 rd:192 wr:64"},
    {"ddaxpy", 2048, 9, "fma:2/18 ld1:3/27 st1:1/9 sel:2/2 pred:1/32 int:1/9 branch:1/9 rd:216 wr:72"},
    {"ddaxpy", 2048, 200, "fma:14/400 ld1:21/600 st1:7/200 sel:2/2 pred:7/224 int:7/200 branch:7/200 rd:4800 wr:1600"},
    {"xpby", 128, 0, "sel:1/1 rd:0 wr:0"},
    {"xpby", 128, 1, "fma:1/1 ld1:2/2 st1:1/1 sel:1/1 pred:1/2 int:1/1 branch:1/1 rd:16 wr:8"},
    {"xpby", 128, 7, "fma:4/7 ld1:8/14 st1:4/7 sel:1/1 pred:4/8 int:4/7 branch:4/7 rd:112 wr:56"},
    {"xpby", 128, 8, "fma:4/8 ld1:8/16 st1:4/8 sel:1/1 pred:4/8 int:4/8 branch:4/8 rd:128 wr:64"},
    {"xpby", 128, 9, "fma:5/9 ld1:10/18 st1:5/9 sel:1/1 pred:5/10 int:5/9 branch:5/9 rd:144 wr:72"},
    {"xpby", 128, 200, "fma:100/200 ld1:200/400 st1:100/200 sel:1/1 pred:100/200 int:100/200 branch:100/200 rd:3200 wr:1600"},
    {"xpby", 512, 0, "sel:1/1 rd:0 wr:0"},
    {"xpby", 512, 1, "fma:1/1 ld1:2/2 st1:1/1 sel:1/1 pred:1/8 int:1/1 branch:1/1 rd:16 wr:8"},
    {"xpby", 512, 7, "fma:1/7 ld1:2/14 st1:1/7 sel:1/1 pred:1/8 int:1/7 branch:1/7 rd:112 wr:56"},
    {"xpby", 512, 8, "fma:1/8 ld1:2/16 st1:1/8 sel:1/1 pred:1/8 int:1/8 branch:1/8 rd:128 wr:64"},
    {"xpby", 512, 9, "fma:2/9 ld1:4/18 st1:2/9 sel:1/1 pred:2/16 int:2/9 branch:2/9 rd:144 wr:72"},
    {"xpby", 512, 200, "fma:25/200 ld1:50/400 st1:25/200 sel:1/1 pred:25/200 int:25/200 branch:25/200 rd:3200 wr:1600"},
    {"xpby", 2048, 0, "sel:1/1 rd:0 wr:0"},
    {"xpby", 2048, 1, "fma:1/1 ld1:2/2 st1:1/1 sel:1/1 pred:1/32 int:1/1 branch:1/1 rd:16 wr:8"},
    {"xpby", 2048, 7, "fma:1/7 ld1:2/14 st1:1/7 sel:1/1 pred:1/32 int:1/7 branch:1/7 rd:112 wr:56"},
    {"xpby", 2048, 8, "fma:1/8 ld1:2/16 st1:1/8 sel:1/1 pred:1/32 int:1/8 branch:1/8 rd:128 wr:64"},
    {"xpby", 2048, 9, "fma:1/9 ld1:2/18 st1:1/9 sel:1/1 pred:1/32 int:1/9 branch:1/9 rd:144 wr:72"},
    {"xpby", 2048, 200, "fma:7/200 ld1:14/400 st1:7/200 sel:1/1 pred:7/224 int:7/200 branch:7/200 rd:3200 wr:1600"},
    {"copy", 128, 0, " rd:0 wr:0"},
    {"copy", 128, 1, "ld1:1/1 st1:1/1 pred:1/2 int:1/1 branch:1/1 rd:8 wr:8"},
    {"copy", 128, 7, "ld1:4/7 st1:4/7 pred:4/8 int:4/7 branch:4/7 rd:56 wr:56"},
    {"copy", 128, 8, "ld1:4/8 st1:4/8 pred:4/8 int:4/8 branch:4/8 rd:64 wr:64"},
    {"copy", 128, 9, "ld1:5/9 st1:5/9 pred:5/10 int:5/9 branch:5/9 rd:72 wr:72"},
    {"copy", 128, 200, "ld1:100/200 st1:100/200 pred:100/200 int:100/200 branch:100/200 rd:1600 wr:1600"},
    {"copy", 512, 0, " rd:0 wr:0"},
    {"copy", 512, 1, "ld1:1/1 st1:1/1 pred:1/8 int:1/1 branch:1/1 rd:8 wr:8"},
    {"copy", 512, 7, "ld1:1/7 st1:1/7 pred:1/8 int:1/7 branch:1/7 rd:56 wr:56"},
    {"copy", 512, 8, "ld1:1/8 st1:1/8 pred:1/8 int:1/8 branch:1/8 rd:64 wr:64"},
    {"copy", 512, 9, "ld1:2/9 st1:2/9 pred:2/16 int:2/9 branch:2/9 rd:72 wr:72"},
    {"copy", 512, 200, "ld1:25/200 st1:25/200 pred:25/200 int:25/200 branch:25/200 rd:1600 wr:1600"},
    {"copy", 2048, 0, " rd:0 wr:0"},
    {"copy", 2048, 1, "ld1:1/1 st1:1/1 pred:1/32 int:1/1 branch:1/1 rd:8 wr:8"},
    {"copy", 2048, 7, "ld1:1/7 st1:1/7 pred:1/32 int:1/7 branch:1/7 rd:56 wr:56"},
    {"copy", 2048, 8, "ld1:1/8 st1:1/8 pred:1/32 int:1/8 branch:1/8 rd:64 wr:64"},
    {"copy", 2048, 9, "ld1:1/9 st1:1/9 pred:1/32 int:1/9 branch:1/9 rd:72 wr:72"},
    {"copy", 2048, 200, "ld1:7/200 st1:7/200 pred:7/224 int:7/200 branch:7/200 rd:1600 wr:1600"},
    {"fill", 128, 0, "sel:1/1 rd:0 wr:0"},
    {"fill", 128, 1, "st1:1/1 sel:1/1 pred:1/2 int:1/1 branch:1/1 rd:0 wr:8"},
    {"fill", 128, 7, "st1:4/7 sel:1/1 pred:4/8 int:4/7 branch:4/7 rd:0 wr:56"},
    {"fill", 128, 8, "st1:4/8 sel:1/1 pred:4/8 int:4/8 branch:4/8 rd:0 wr:64"},
    {"fill", 128, 9, "st1:5/9 sel:1/1 pred:5/10 int:5/9 branch:5/9 rd:0 wr:72"},
    {"fill", 128, 200, "st1:100/200 sel:1/1 pred:100/200 int:100/200 branch:100/200 rd:0 wr:1600"},
    {"fill", 512, 0, "sel:1/1 rd:0 wr:0"},
    {"fill", 512, 1, "st1:1/1 sel:1/1 pred:1/8 int:1/1 branch:1/1 rd:0 wr:8"},
    {"fill", 512, 7, "st1:1/7 sel:1/1 pred:1/8 int:1/7 branch:1/7 rd:0 wr:56"},
    {"fill", 512, 8, "st1:1/8 sel:1/1 pred:1/8 int:1/8 branch:1/8 rd:0 wr:64"},
    {"fill", 512, 9, "st1:2/9 sel:1/1 pred:2/16 int:2/9 branch:2/9 rd:0 wr:72"},
    {"fill", 512, 200, "st1:25/200 sel:1/1 pred:25/200 int:25/200 branch:25/200 rd:0 wr:1600"},
    {"fill", 2048, 0, "sel:1/1 rd:0 wr:0"},
    {"fill", 2048, 1, "st1:1/1 sel:1/1 pred:1/32 int:1/1 branch:1/1 rd:0 wr:8"},
    {"fill", 2048, 7, "st1:1/7 sel:1/1 pred:1/32 int:1/7 branch:1/7 rd:0 wr:56"},
    {"fill", 2048, 8, "st1:1/8 sel:1/1 pred:1/32 int:1/8 branch:1/8 rd:0 wr:64"},
    {"fill", 2048, 9, "st1:1/9 sel:1/1 pred:1/32 int:1/9 branch:1/9 rd:0 wr:72"},
    {"fill", 2048, 200, "st1:7/200 sel:1/1 pred:7/224 int:7/200 branch:7/200 rd:0 wr:1600"},
    {"sub", 128, 0, " rd:0 wr:0"},
    {"sub", 128, 1, "fadd:1/1 ld1:2/2 st1:1/1 pred:1/2 int:1/1 branch:1/1 rd:16 wr:8"},
    {"sub", 128, 7, "fadd:4/7 ld1:8/14 st1:4/7 pred:4/8 int:4/7 branch:4/7 rd:112 wr:56"},
    {"sub", 128, 8, "fadd:4/8 ld1:8/16 st1:4/8 pred:4/8 int:4/8 branch:4/8 rd:128 wr:64"},
    {"sub", 128, 9, "fadd:5/9 ld1:10/18 st1:5/9 pred:5/10 int:5/9 branch:5/9 rd:144 wr:72"},
    {"sub", 128, 200, "fadd:100/200 ld1:200/400 st1:100/200 pred:100/200 int:100/200 branch:100/200 rd:3200 wr:1600"},
    {"sub", 512, 0, " rd:0 wr:0"},
    {"sub", 512, 1, "fadd:1/1 ld1:2/2 st1:1/1 pred:1/8 int:1/1 branch:1/1 rd:16 wr:8"},
    {"sub", 512, 7, "fadd:1/7 ld1:2/14 st1:1/7 pred:1/8 int:1/7 branch:1/7 rd:112 wr:56"},
    {"sub", 512, 8, "fadd:1/8 ld1:2/16 st1:1/8 pred:1/8 int:1/8 branch:1/8 rd:128 wr:64"},
    {"sub", 512, 9, "fadd:2/9 ld1:4/18 st1:2/9 pred:2/16 int:2/9 branch:2/9 rd:144 wr:72"},
    {"sub", 512, 200, "fadd:25/200 ld1:50/400 st1:25/200 pred:25/200 int:25/200 branch:25/200 rd:3200 wr:1600"},
    {"sub", 2048, 0, " rd:0 wr:0"},
    {"sub", 2048, 1, "fadd:1/1 ld1:2/2 st1:1/1 pred:1/32 int:1/1 branch:1/1 rd:16 wr:8"},
    {"sub", 2048, 7, "fadd:1/7 ld1:2/14 st1:1/7 pred:1/32 int:1/7 branch:1/7 rd:112 wr:56"},
    {"sub", 2048, 8, "fadd:1/8 ld1:2/16 st1:1/8 pred:1/32 int:1/8 branch:1/8 rd:128 wr:64"},
    {"sub", 2048, 9, "fadd:1/9 ld1:2/18 st1:1/9 pred:1/32 int:1/9 branch:1/9 rd:144 wr:72"},
    {"sub", 2048, 200, "fadd:7/200 ld1:14/400 st1:7/200 pred:7/224 int:7/200 branch:7/200 rd:3200 wr:1600"},
    {"hadamard", 128, 0, " rd:0 wr:0"},
    {"hadamard", 128, 1, "fmul:1/1 ld1:2/2 st1:1/1 pred:1/2 int:1/1 branch:1/1 rd:16 wr:8"},
    {"hadamard", 128, 7, "fmul:4/7 ld1:8/14 st1:4/7 pred:4/8 int:4/7 branch:4/7 rd:112 wr:56"},
    {"hadamard", 128, 8, "fmul:4/8 ld1:8/16 st1:4/8 pred:4/8 int:4/8 branch:4/8 rd:128 wr:64"},
    {"hadamard", 128, 9, "fmul:5/9 ld1:10/18 st1:5/9 pred:5/10 int:5/9 branch:5/9 rd:144 wr:72"},
    {"hadamard", 128, 200, "fmul:100/200 ld1:200/400 st1:100/200 pred:100/200 int:100/200 branch:100/200 rd:3200 wr:1600"},
    {"hadamard", 512, 0, " rd:0 wr:0"},
    {"hadamard", 512, 1, "fmul:1/1 ld1:2/2 st1:1/1 pred:1/8 int:1/1 branch:1/1 rd:16 wr:8"},
    {"hadamard", 512, 7, "fmul:1/7 ld1:2/14 st1:1/7 pred:1/8 int:1/7 branch:1/7 rd:112 wr:56"},
    {"hadamard", 512, 8, "fmul:1/8 ld1:2/16 st1:1/8 pred:1/8 int:1/8 branch:1/8 rd:128 wr:64"},
    {"hadamard", 512, 9, "fmul:2/9 ld1:4/18 st1:2/9 pred:2/16 int:2/9 branch:2/9 rd:144 wr:72"},
    {"hadamard", 512, 200, "fmul:25/200 ld1:50/400 st1:25/200 pred:25/200 int:25/200 branch:25/200 rd:3200 wr:1600"},
    {"hadamard", 2048, 0, " rd:0 wr:0"},
    {"hadamard", 2048, 1, "fmul:1/1 ld1:2/2 st1:1/1 pred:1/32 int:1/1 branch:1/1 rd:16 wr:8"},
    {"hadamard", 2048, 7, "fmul:1/7 ld1:2/14 st1:1/7 pred:1/32 int:1/7 branch:1/7 rd:112 wr:56"},
    {"hadamard", 2048, 8, "fmul:1/8 ld1:2/16 st1:1/8 pred:1/32 int:1/8 branch:1/8 rd:128 wr:64"},
    {"hadamard", 2048, 9, "fmul:1/9 ld1:2/18 st1:1/9 pred:1/32 int:1/9 branch:1/9 rd:144 wr:72"},
    {"hadamard", 2048, 200, "fmul:7/200 ld1:14/400 st1:7/200 pred:7/224 int:7/200 branch:7/200 rd:3200 wr:1600"},
    {"dprod", 128, 0, "reduce:1/2 sel:1/1 pred:1/2 rd:0 wr:0"},
    {"dprod", 128, 1, "fma:1/1 ld1:2/2 reduce:1/2 sel:1/1 pred:2/4 int:1/1 branch:1/1 rd:16 wr:0"},
    {"dprod", 128, 7, "fma:4/7 ld1:8/14 reduce:1/2 sel:1/1 pred:5/10 int:4/7 branch:4/7 rd:112 wr:0"},
    {"dprod", 128, 8, "fma:4/8 ld1:8/16 reduce:1/2 sel:1/1 pred:5/10 int:4/8 branch:4/8 rd:128 wr:0"},
    {"dprod", 128, 9, "fma:5/9 ld1:10/18 reduce:1/2 sel:1/1 pred:6/12 int:5/9 branch:5/9 rd:144 wr:0"},
    {"dprod", 128, 200, "fma:100/200 ld1:200/400 reduce:1/2 sel:1/1 pred:101/202 int:100/200 branch:100/200 rd:3200 wr:0"},
    {"dprod", 512, 0, "reduce:1/8 sel:1/1 pred:1/8 rd:0 wr:0"},
    {"dprod", 512, 1, "fma:1/1 ld1:2/2 reduce:1/8 sel:1/1 pred:2/16 int:1/1 branch:1/1 rd:16 wr:0"},
    {"dprod", 512, 7, "fma:1/7 ld1:2/14 reduce:1/8 sel:1/1 pred:2/16 int:1/7 branch:1/7 rd:112 wr:0"},
    {"dprod", 512, 8, "fma:1/8 ld1:2/16 reduce:1/8 sel:1/1 pred:2/16 int:1/8 branch:1/8 rd:128 wr:0"},
    {"dprod", 512, 9, "fma:2/9 ld1:4/18 reduce:1/8 sel:1/1 pred:3/24 int:2/9 branch:2/9 rd:144 wr:0"},
    {"dprod", 512, 200, "fma:25/200 ld1:50/400 reduce:1/8 sel:1/1 pred:26/208 int:25/200 branch:25/200 rd:3200 wr:0"},
    {"dprod", 2048, 0, "reduce:1/32 sel:1/1 pred:1/32 rd:0 wr:0"},
    {"dprod", 2048, 1, "fma:1/1 ld1:2/2 reduce:1/32 sel:1/1 pred:2/64 int:1/1 branch:1/1 rd:16 wr:0"},
    {"dprod", 2048, 7, "fma:1/7 ld1:2/14 reduce:1/32 sel:1/1 pred:2/64 int:1/7 branch:1/7 rd:112 wr:0"},
    {"dprod", 2048, 8, "fma:1/8 ld1:2/16 reduce:1/32 sel:1/1 pred:2/64 int:1/8 branch:1/8 rd:128 wr:0"},
    {"dprod", 2048, 9, "fma:1/9 ld1:2/18 reduce:1/32 sel:1/1 pred:2/64 int:1/9 branch:1/9 rd:144 wr:0"},
    {"dprod", 2048, 200, "fma:7/200 ld1:14/400 reduce:1/32 sel:1/1 pred:8/256 int:7/200 branch:7/200 rd:3200 wr:0"},
    {"stencil_row", 128, 0, " rd:0 wr:0"},
    {"stencil_row", 128, 1, "fmul:1/1 fma:4/4 ld1:10/10 st1:1/1 pred:1/2 int:1/1 branch:1/1 rd:80 wr:8"},
    {"stencil_row", 128, 7, "fmul:4/7 fma:16/28 ld1:40/70 st1:4/7 pred:4/8 int:4/7 branch:4/7 rd:560 wr:56"},
    {"stencil_row", 128, 8, "fmul:4/8 fma:16/32 ld1:40/80 st1:4/8 pred:4/8 int:4/8 branch:4/8 rd:640 wr:64"},
    {"stencil_row", 128, 9, "fmul:5/9 fma:20/36 ld1:50/90 st1:5/9 pred:5/10 int:5/9 branch:5/9 rd:720 wr:72"},
    {"stencil_row", 128, 200, "fmul:100/200 fma:400/800 ld1:1000/2000 st1:100/200 pred:100/200 int:100/200 branch:100/200 rd:16000 wr:1600"},
    {"stencil_row", 512, 0, " rd:0 wr:0"},
    {"stencil_row", 512, 1, "fmul:1/1 fma:4/4 ld1:10/10 st1:1/1 pred:1/8 int:1/1 branch:1/1 rd:80 wr:8"},
    {"stencil_row", 512, 7, "fmul:1/7 fma:4/28 ld1:10/70 st1:1/7 pred:1/8 int:1/7 branch:1/7 rd:560 wr:56"},
    {"stencil_row", 512, 8, "fmul:1/8 fma:4/32 ld1:10/80 st1:1/8 pred:1/8 int:1/8 branch:1/8 rd:640 wr:64"},
    {"stencil_row", 512, 9, "fmul:2/9 fma:8/36 ld1:20/90 st1:2/9 pred:2/16 int:2/9 branch:2/9 rd:720 wr:72"},
    {"stencil_row", 512, 200, "fmul:25/200 fma:100/800 ld1:250/2000 st1:25/200 pred:25/200 int:25/200 branch:25/200 rd:16000 wr:1600"},
    {"stencil_row", 2048, 0, " rd:0 wr:0"},
    {"stencil_row", 2048, 1, "fmul:1/1 fma:4/4 ld1:10/10 st1:1/1 pred:1/32 int:1/1 branch:1/1 rd:80 wr:8"},
    {"stencil_row", 2048, 7, "fmul:1/7 fma:4/28 ld1:10/70 st1:1/7 pred:1/32 int:1/7 branch:1/7 rd:560 wr:56"},
    {"stencil_row", 2048, 8, "fmul:1/8 fma:4/32 ld1:10/80 st1:1/8 pred:1/32 int:1/8 branch:1/8 rd:640 wr:64"},
    {"stencil_row", 2048, 9, "fmul:1/9 fma:4/36 ld1:10/90 st1:1/9 pred:1/32 int:1/9 branch:1/9 rd:720 wr:72"},
    {"stencil_row", 2048, 200, "fmul:7/200 fma:28/800 ld1:70/2000 st1:7/200 pred:7/224 int:7/200 branch:7/200 rd:16000 wr:1600"},
    {"coupling_row", 128, 0, " rd:0 wr:0"},
    {"coupling_row", 128, 1, "fma:1/1 ld1:3/3 st1:1/1 pred:1/2 int:1/1 branch:1/1 rd:24 wr:8"},
    {"coupling_row", 128, 7, "fma:4/7 ld1:12/21 st1:4/7 pred:4/8 int:4/7 branch:4/7 rd:168 wr:56"},
    {"coupling_row", 128, 8, "fma:4/8 ld1:12/24 st1:4/8 pred:4/8 int:4/8 branch:4/8 rd:192 wr:64"},
    {"coupling_row", 128, 9, "fma:5/9 ld1:15/27 st1:5/9 pred:5/10 int:5/9 branch:5/9 rd:216 wr:72"},
    {"coupling_row", 128, 200, "fma:100/200 ld1:300/600 st1:100/200 pred:100/200 int:100/200 branch:100/200 rd:4800 wr:1600"},
    {"coupling_row", 512, 0, " rd:0 wr:0"},
    {"coupling_row", 512, 1, "fma:1/1 ld1:3/3 st1:1/1 pred:1/8 int:1/1 branch:1/1 rd:24 wr:8"},
    {"coupling_row", 512, 7, "fma:1/7 ld1:3/21 st1:1/7 pred:1/8 int:1/7 branch:1/7 rd:168 wr:56"},
    {"coupling_row", 512, 8, "fma:1/8 ld1:3/24 st1:1/8 pred:1/8 int:1/8 branch:1/8 rd:192 wr:64"},
    {"coupling_row", 512, 9, "fma:2/9 ld1:6/27 st1:2/9 pred:2/16 int:2/9 branch:2/9 rd:216 wr:72"},
    {"coupling_row", 512, 200, "fma:25/200 ld1:75/600 st1:25/200 pred:25/200 int:25/200 branch:25/200 rd:4800 wr:1600"},
    {"coupling_row", 2048, 0, " rd:0 wr:0"},
    {"coupling_row", 2048, 1, "fma:1/1 ld1:3/3 st1:1/1 pred:1/32 int:1/1 branch:1/1 rd:24 wr:8"},
    {"coupling_row", 2048, 7, "fma:1/7 ld1:3/21 st1:1/7 pred:1/32 int:1/7 branch:1/7 rd:168 wr:56"},
    {"coupling_row", 2048, 8, "fma:1/8 ld1:3/24 st1:1/8 pred:1/32 int:1/8 branch:1/8 rd:192 wr:64"},
    {"coupling_row", 2048, 9, "fma:1/9 ld1:3/27 st1:1/9 pred:1/32 int:1/9 branch:1/9 rd:216 wr:72"},
    {"coupling_row", 2048, 200, "fma:7/200 ld1:21/600 st1:7/200 pred:7/224 int:7/200 branch:7/200 rd:4800 wr:1600"},
    {"diag_correct_row", 128, 0, "sel:1/1 rd:0 wr:0"},
    {"diag_correct_row", 128, 1, "fmul:1/1 fma:1/1 ld1:3/3 st1:1/1 sel:1/1 pred:1/2 int:1/1 branch:1/1 rd:24 wr:8"},
    {"diag_correct_row", 128, 7, "fmul:4/7 fma:4/7 ld1:12/21 st1:4/7 sel:1/1 pred:4/8 int:4/7 branch:4/7 rd:168 wr:56"},
    {"diag_correct_row", 128, 8, "fmul:4/8 fma:4/8 ld1:12/24 st1:4/8 sel:1/1 pred:4/8 int:4/8 branch:4/8 rd:192 wr:64"},
    {"diag_correct_row", 128, 9, "fmul:5/9 fma:5/9 ld1:15/27 st1:5/9 sel:1/1 pred:5/10 int:5/9 branch:5/9 rd:216 wr:72"},
    {"diag_correct_row", 128, 200, "fmul:100/200 fma:100/200 ld1:300/600 st1:100/200 sel:1/1 pred:100/200 int:100/200 branch:100/200 rd:4800 wr:1600"},
    {"diag_correct_row", 512, 0, "sel:1/1 rd:0 wr:0"},
    {"diag_correct_row", 512, 1, "fmul:1/1 fma:1/1 ld1:3/3 st1:1/1 sel:1/1 pred:1/8 int:1/1 branch:1/1 rd:24 wr:8"},
    {"diag_correct_row", 512, 7, "fmul:1/7 fma:1/7 ld1:3/21 st1:1/7 sel:1/1 pred:1/8 int:1/7 branch:1/7 rd:168 wr:56"},
    {"diag_correct_row", 512, 8, "fmul:1/8 fma:1/8 ld1:3/24 st1:1/8 sel:1/1 pred:1/8 int:1/8 branch:1/8 rd:192 wr:64"},
    {"diag_correct_row", 512, 9, "fmul:2/9 fma:2/9 ld1:6/27 st1:2/9 sel:1/1 pred:2/16 int:2/9 branch:2/9 rd:216 wr:72"},
    {"diag_correct_row", 512, 200, "fmul:25/200 fma:25/200 ld1:75/600 st1:25/200 sel:1/1 pred:25/200 int:25/200 branch:25/200 rd:4800 wr:1600"},
    {"diag_correct_row", 2048, 0, "sel:1/1 rd:0 wr:0"},
    {"diag_correct_row", 2048, 1, "fmul:1/1 fma:1/1 ld1:3/3 st1:1/1 sel:1/1 pred:1/32 int:1/1 branch:1/1 rd:24 wr:8"},
    {"diag_correct_row", 2048, 7, "fmul:1/7 fma:1/7 ld1:3/21 st1:1/7 sel:1/1 pred:1/32 int:1/7 branch:1/7 rd:168 wr:56"},
    {"diag_correct_row", 2048, 8, "fmul:1/8 fma:1/8 ld1:3/24 st1:1/8 sel:1/1 pred:1/32 int:1/8 branch:1/8 rd:192 wr:64"},
    {"diag_correct_row", 2048, 9, "fmul:1/9 fma:1/9 ld1:3/27 st1:1/9 sel:1/1 pred:1/32 int:1/9 branch:1/9 rd:216 wr:72"},
    {"diag_correct_row", 2048, 200, "fmul:7/200 fma:7/200 ld1:21/600 st1:7/200 sel:1/1 pred:7/224 int:7/200 branch:7/200 rd:4800 wr:1600"},
    {"diag_scale_row", 128, 0, "sel:1/1 rd:0 wr:0"},
    {"diag_scale_row", 128, 1, "fmul:2/2 ld1:2/2 st1:1/1 sel:1/1 pred:1/2 int:1/1 branch:1/1 rd:16 wr:8"},
    {"diag_scale_row", 128, 7, "fmul:8/14 ld1:8/14 st1:4/7 sel:1/1 pred:4/8 int:4/7 branch:4/7 rd:112 wr:56"},
    {"diag_scale_row", 128, 8, "fmul:8/16 ld1:8/16 st1:4/8 sel:1/1 pred:4/8 int:4/8 branch:4/8 rd:128 wr:64"},
    {"diag_scale_row", 128, 9, "fmul:10/18 ld1:10/18 st1:5/9 sel:1/1 pred:5/10 int:5/9 branch:5/9 rd:144 wr:72"},
    {"diag_scale_row", 128, 200, "fmul:200/400 ld1:200/400 st1:100/200 sel:1/1 pred:100/200 int:100/200 branch:100/200 rd:3200 wr:1600"},
    {"diag_scale_row", 512, 0, "sel:1/1 rd:0 wr:0"},
    {"diag_scale_row", 512, 1, "fmul:2/2 ld1:2/2 st1:1/1 sel:1/1 pred:1/8 int:1/1 branch:1/1 rd:16 wr:8"},
    {"diag_scale_row", 512, 7, "fmul:2/14 ld1:2/14 st1:1/7 sel:1/1 pred:1/8 int:1/7 branch:1/7 rd:112 wr:56"},
    {"diag_scale_row", 512, 8, "fmul:2/16 ld1:2/16 st1:1/8 sel:1/1 pred:1/8 int:1/8 branch:1/8 rd:128 wr:64"},
    {"diag_scale_row", 512, 9, "fmul:4/18 ld1:4/18 st1:2/9 sel:1/1 pred:2/16 int:2/9 branch:2/9 rd:144 wr:72"},
    {"diag_scale_row", 512, 200, "fmul:50/400 ld1:50/400 st1:25/200 sel:1/1 pred:25/200 int:25/200 branch:25/200 rd:3200 wr:1600"},
    {"diag_scale_row", 2048, 0, "sel:1/1 rd:0 wr:0"},
    {"diag_scale_row", 2048, 1, "fmul:2/2 ld1:2/2 st1:1/1 sel:1/1 pred:1/32 int:1/1 branch:1/1 rd:16 wr:8"},
    {"diag_scale_row", 2048, 7, "fmul:2/14 ld1:2/14 st1:1/7 sel:1/1 pred:1/32 int:1/7 branch:1/7 rd:112 wr:56"},
    {"diag_scale_row", 2048, 8, "fmul:2/16 ld1:2/16 st1:1/8 sel:1/1 pred:1/32 int:1/8 branch:1/8 rd:128 wr:64"},
    {"diag_scale_row", 2048, 9, "fmul:2/18 ld1:2/18 st1:1/9 sel:1/1 pred:1/32 int:1/9 branch:1/9 rd:144 wr:72"},
    {"diag_scale_row", 2048, 200, "fmul:14/400 ld1:14/400 st1:7/200 sel:1/1 pred:7/224 int:7/200 branch:7/200 rd:3200 wr:1600"},
};

/// KernelCounts of one MG transfer-row call (n = coarse zones for
/// restrict_row, fine zones for prolong_row_add), captured from the
/// hand-written gather rows (interpreter and native agreed) before they
/// became planner chains.
constexpr GoldenCounts kTransferGoldenCounts[] = {
    {"restrict_row", 128, 0, "sel:2/2 rd:0 wr:0"},
    {"restrict_row", 128, 1, "fmul:4/4 fma:16/16 st1:1/1 ld1-gather:16/16 sel:7/7 pred:1/2 int:1/1 branch:1/1 rd:128 wr:8"},
    {"restrict_row", 128, 7, "fmul:16/28 fma:64/112 st1:4/7 ld1-gather:64/112 sel:22/22 pred:4/8 int:4/7 branch:4/7 rd:896 wr:56"},
    {"restrict_row", 128, 8, "fmul:16/32 fma:64/128 st1:4/8 ld1-gather:64/128 sel:22/22 pred:4/8 int:4/8 branch:4/8 rd:1024 wr:64"},
    {"restrict_row", 128, 9, "fmul:20/36 fma:80/144 st1:5/9 ld1-gather:80/144 sel:27/27 pred:5/10 int:5/9 branch:5/9 rd:1152 wr:72"},
    {"restrict_row", 128, 200, "fmul:400/800 fma:1600/3200 st1:100/200 ld1-gather:1600/3200 sel:502/502 pred:100/200 int:100/200 branch:100/200 rd:25600 wr:1600"},
    {"restrict_row", 512, 0, "sel:2/2 rd:0 wr:0"},
    {"restrict_row", 512, 1, "fmul:4/4 fma:16/16 st1:1/1 ld1-gather:16/16 sel:7/7 pred:1/8 int:1/1 branch:1/1 rd:128 wr:8"},
    {"restrict_row", 512, 7, "fmul:4/28 fma:16/112 st1:1/7 ld1-gather:16/112 sel:7/7 pred:1/8 int:1/7 branch:1/7 rd:896 wr:56"},
    {"restrict_row", 512, 8, "fmul:4/32 fma:16/128 st1:1/8 ld1-gather:16/128 sel:7/7 pred:1/8 int:1/8 branch:1/8 rd:1024 wr:64"},
    {"restrict_row", 512, 9, "fmul:8/36 fma:32/144 st1:2/9 ld1-gather:32/144 sel:12/12 pred:2/16 int:2/9 branch:2/9 rd:1152 wr:72"},
    {"restrict_row", 512, 200, "fmul:100/800 fma:400/3200 st1:25/200 ld1-gather:400/3200 sel:127/127 pred:25/200 int:25/200 branch:25/200 rd:25600 wr:1600"},
    {"restrict_row", 2048, 0, "sel:2/2 rd:0 wr:0"},
    {"restrict_row", 2048, 1, "fmul:4/4 fma:16/16 st1:1/1 ld1-gather:16/16 sel:7/7 pred:1/32 int:1/1 branch:1/1 rd:128 wr:8"},
    {"restrict_row", 2048, 7, "fmul:4/28 fma:16/112 st1:1/7 ld1-gather:16/112 sel:7/7 pred:1/32 int:1/7 branch:1/7 rd:896 wr:56"},
    {"restrict_row", 2048, 8, "fmul:4/32 fma:16/128 st1:1/8 ld1-gather:16/128 sel:7/7 pred:1/32 int:1/8 branch:1/8 rd:1024 wr:64"},
    {"restrict_row", 2048, 9, "fmul:4/36 fma:16/144 st1:1/9 ld1-gather:16/144 sel:7/7 pred:1/32 int:1/9 branch:1/9 rd:1152 wr:72"},
    {"restrict_row", 2048, 200, "fmul:28/800 fma:112/3200 st1:7/200 ld1-gather:112/3200 sel:37/37 pred:7/224 int:7/200 branch:7/200 rd:25600 wr:1600"},
    {"prolong_row_add", 128, 0, "sel:2/2 rd:0 wr:0"},
    {"prolong_row_add", 128, 1, "fmul:2/2 fma:4/4 ld1:1/1 st1:1/1 ld1-gather:4/4 sel:2/2 pred:1/2 int:1/1 branch:1/1 rd:40 wr:8"},
    {"prolong_row_add", 128, 7, "fmul:8/14 fma:16/28 ld1:4/7 st1:4/7 ld1-gather:16/28 sel:2/2 pred:4/8 int:4/7 branch:4/7 rd:280 wr:56"},
    {"prolong_row_add", 128, 8, "fmul:8/16 fma:16/32 ld1:4/8 st1:4/8 ld1-gather:16/32 sel:2/2 pred:4/8 int:4/8 branch:4/8 rd:320 wr:64"},
    {"prolong_row_add", 128, 9, "fmul:10/18 fma:20/36 ld1:5/9 st1:5/9 ld1-gather:20/36 sel:2/2 pred:5/10 int:5/9 branch:5/9 rd:360 wr:72"},
    {"prolong_row_add", 128, 200, "fmul:200/400 fma:400/800 ld1:100/200 st1:100/200 ld1-gather:400/800 sel:2/2 pred:100/200 int:100/200 branch:100/200 rd:8000 wr:1600"},
    {"prolong_row_add", 512, 0, "sel:2/2 rd:0 wr:0"},
    {"prolong_row_add", 512, 1, "fmul:2/2 fma:4/4 ld1:1/1 st1:1/1 ld1-gather:4/4 sel:2/2 pred:1/8 int:1/1 branch:1/1 rd:40 wr:8"},
    {"prolong_row_add", 512, 7, "fmul:2/14 fma:4/28 ld1:1/7 st1:1/7 ld1-gather:4/28 sel:2/2 pred:1/8 int:1/7 branch:1/7 rd:280 wr:56"},
    {"prolong_row_add", 512, 8, "fmul:2/16 fma:4/32 ld1:1/8 st1:1/8 ld1-gather:4/32 sel:2/2 pred:1/8 int:1/8 branch:1/8 rd:320 wr:64"},
    {"prolong_row_add", 512, 9, "fmul:4/18 fma:8/36 ld1:2/9 st1:2/9 ld1-gather:8/36 sel:2/2 pred:2/16 int:2/9 branch:2/9 rd:360 wr:72"},
    {"prolong_row_add", 512, 200, "fmul:50/400 fma:100/800 ld1:25/200 st1:25/200 ld1-gather:100/800 sel:2/2 pred:25/200 int:25/200 branch:25/200 rd:8000 wr:1600"},
    {"prolong_row_add", 2048, 0, "sel:2/2 rd:0 wr:0"},
    {"prolong_row_add", 2048, 1, "fmul:2/2 fma:4/4 ld1:1/1 st1:1/1 ld1-gather:4/4 sel:2/2 pred:1/32 int:1/1 branch:1/1 rd:40 wr:8"},
    {"prolong_row_add", 2048, 7, "fmul:2/14 fma:4/28 ld1:1/7 st1:1/7 ld1-gather:4/28 sel:2/2 pred:1/32 int:1/7 branch:1/7 rd:280 wr:56"},
    {"prolong_row_add", 2048, 8, "fmul:2/16 fma:4/32 ld1:1/8 st1:1/8 ld1-gather:4/32 sel:2/2 pred:1/32 int:1/8 branch:1/8 rd:320 wr:64"},
    {"prolong_row_add", 2048, 9, "fmul:2/18 fma:4/36 ld1:1/9 st1:1/9 ld1-gather:4/36 sel:2/2 pred:1/32 int:1/9 branch:1/9 rd:360 wr:72"},
    {"prolong_row_add", 2048, 200, "fmul:14/400 fma:28/800 ld1:7/200 st1:7/200 ld1-gather:28/800 sel:2/2 pred:7/224 int:7/200 branch:7/200 rd:8000 wr:1600"},
};

/// One rank's simulated clock and an FNV-1a digest of its full cost ledger
/// (see ledger_digest).
struct GoldenRank {
  std::size_t profile;
  std::size_t rank;
  double clock;
  std::uint64_t ledger;
};

// SimulationOnMatchesGoldenAndBeatsOff: 48×24, ns = 2, 2 steps, cray + gnu.
constexpr GoldenRank kSimOn[] = {
    {0, 0, 0x1.a9f608f011878p-10, 0xabfe745376cf36baULL},
    {1, 0, 0x1.d90ae094c8d6ap-9, 0x89198ffa00329775ULL},
};
constexpr GoldenRank kSimOff[] = {
    {0, 0, 0x1.b9f2fd576fe1ep-10, 0x0412a010ae06c074ULL},
    {1, 0, 0x1.f96e46bbc5905p-9, 0x376136461a5c6a18ULL},
};
// MgSolveMatchesGoldenInBothExecModes: CG + mg on 32×20 at 2×1 ranks,
// cray + gnu, VL 512.
constexpr GoldenRank kMgSolve[] = {
    {0, 0, 0x1.da25ddb17363dp-13, 0xc6463493687446f9ULL},
    {0, 1, 0x1.da25ddb17363dp-13, 0x5d8a520c00f4b786ULL},
    {1, 0, 0x1.b23379a5d32ecp-12, 0xd10a921b149e19c2ULL},
    {1, 1, 0x1.b23379a5d32ecp-12, 0x0dcfd2b99d9c411eULL},
};
constexpr int kMgSolveIterations = 8;
constexpr std::uint64_t kMgSolveFieldHash = 0x1a7f5da81d3e25f4ULL;
// MixedFuseFarmBitIdenticalToSolo: gaussian-pulse 48×24 on 2×1 ranks.
constexpr GoldenRank kFarmOn[] = {
    {0, 0, 0x1.4b35967ae3137p-10, 0x79ea478604875a62ULL},
    {0, 1, 0x1.4b35967ae3137p-10, 0x924449d28ecf7295ULL},
};
constexpr GoldenRank kFarmOff[] = {
    {0, 0, 0x1.1c1c775fcc34fp-10, 0x149e2d5569d7c81dULL},
    {0, 1, 0x1.1c1c775fcc34fp-10, 0x8093ac379b21122aULL},
};

std::string format_counts(const sim::KernelCounts& c) {
  std::string s;
  char buf[96];
  for (std::size_t i = 0; i < sim::kNumOpClasses; ++i) {
    if (c.instr[i] == 0 && c.lanes[i] == 0) continue;
    std::snprintf(buf, sizeof buf, "%s%s:%llu/%llu", s.empty() ? "" : " ",
                  sim::op_class_name(static_cast<sim::OpClass>(i)),
                  static_cast<unsigned long long>(c.instr[i]),
                  static_cast<unsigned long long>(c.lanes[i]));
    s += buf;
  }
  std::snprintf(buf, sizeof buf, " rd:%llu wr:%llu",
                static_cast<unsigned long long>(c.bytes_read),
                static_cast<unsigned long long>(c.bytes_written));
  return s + buf;
}

std::uint64_t fnv1a(std::uint64_t h, const void* p, std::size_t n) {
  const auto* b = static_cast<const unsigned char*>(p);
  for (std::size_t i = 0; i < n; ++i) {
    h ^= b[i];
    h *= 0x100000001b3ULL;
  }
  return h;
}

/// Every field of every region, in region order: names, the cycle and
/// communication doubles bit for bit, and the full KernelCounts.
std::uint64_t ledger_digest(const sim::CostLedger& l) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (const auto& [name, rc] : l.regions()) {
    h = fnv1a(h, name.data(), name.size() + 1);
    const double ds[] = {rc.compute_cycles, rc.memory_cycles,
                         rc.overhead_cycles, rc.total_cycles,
                         rc.comm_seconds};
    h = fnv1a(h, ds, sizeof ds);
    const std::uint64_t us[] = {rc.comm_messages,       rc.comm_bytes,
                                rc.counts.bytes_read,   rc.counts.bytes_written,
                                rc.counts.elements,     rc.counts.calls};
    h = fnv1a(h, us, sizeof us);
    h = fnv1a(h, rc.counts.instr.data(), sizeof(rc.counts.instr));
    h = fnv1a(h, rc.counts.lanes.data(), sizeof(rc.counts.lanes));
  }
  return h;
}

template <std::size_t N>
void expect_golden(const testutil::SimCapture& c, const GoldenRank (&g)[N],
                   const std::string& label) {
  std::size_t ranks = 0;
  for (const auto& p : c.clocks) ranks += p.size();
  ASSERT_EQ(ranks, N) << label;
  for (const GoldenRank& e : g) {
    EXPECT_EQ(c.clocks[e.profile][e.rank], e.clock)
        << label << " profile " << e.profile << " rank " << e.rank;
    EXPECT_EQ(ledger_digest(c.ledgers[e.profile][e.rank]), e.ledger)
        << label << " ledger, profile " << e.profile << " rank " << e.rank;
  }
}

void expect_same_fields(const testutil::SimCapture& a,
                        const testutil::SimCapture& b,
                        const std::string& label) {
  EXPECT_EQ(a.time, b.time) << label;
  EXPECT_EQ(a.steps, b.steps) << label;
  ASSERT_EQ(a.field.size(), b.field.size()) << label;
  EXPECT_EQ(std::memcmp(a.field.data(), b.field.data(),
                        a.field.size() * sizeof(double)),
            0)
      << label;
}

/// The planner-generated composites record exactly what the hand-written
/// ones did, in both exec modes, at every VL and tail shape pinned.
TEST(PlannedComposites, CountsMatchGoldenAcrossVlAndTails) {
  for (const GoldenCounts& g : kGoldenCounts) {
    for (const auto mode : {VlaExecMode::Interpret, VlaExecMode::Native}) {
      Context ctx(VectorArch(g.vl_bits), mode);
      Rng rng(5);
      std::vector<double> a(g.n), b(g.n), c(g.n), d(g.n);
      for (auto* v : {&a, &b, &c, &d})
        for (auto& x : *v) x = rng.uniform(-1.0, 1.0);
      DdLanes l1, l2;
      const std::string name = g.composite;
      if (name == "axpy_out") {
        fusion::axpy_out(ctx, a, 0.3, b, c);
      } else if (name == "p_update") {
        fusion::p_update(ctx, a, 0.3, 0.7, b, c);
      } else if (name == "hadamard_dot2") {
        fusion::hadamard_dot2(ctx, a, b, c, l1, l2);
      } else {
        ASSERT_EQ(name, "hadamard_update_dot2");
        fusion::hadamard_update_dot2(ctx, a, 0.3, b, c, d, l1, l2);
      }
      EXPECT_EQ(format_counts(ctx.take_counts()), g.counts)
          << name << " vl=" << g.vl_bits << " n=" << g.n
          << (mode == VlaExecMode::Native ? " native" : " interpret");
    }
  }
}

/// Every primitive records exactly what its hand-written closed-form formula
/// did, in both exec modes, at every VL and tail shape pinned.
TEST(PrimitiveChains, CountsMatchGoldenAcrossVlAndTails) {
  for (const GoldenCounts& g : kPrimitiveGoldenCounts) {
    for (const auto mode : {VlaExecMode::Interpret, VlaExecMode::Native}) {
      Context ctx(VectorArch(g.vl_bits), mode);
      Rng rng(5);
      const std::size_t n = g.n;
      std::vector<double> a(n), b(n), c(n), d(n), e(n), f(n), h(n), y(n);
      for (auto* v : {&a, &b, &c, &d, &e, &f, &h, &y})
        for (auto& x : *v) x = rng.uniform(-1.0, 1.0);
      std::vector<double> xc(n + 2, 0.5);
      const std::string name = g.composite;
      if (name == "daxpy") {
        daxpy(ctx, 0.3, a, b);
      } else if (name == "dscal") {
        dscal(ctx, 0.3, 0.7, a);
      } else if (name == "ddaxpy") {
        ddaxpy(ctx, 0.3, a, 0.7, b, c);
      } else if (name == "xpby") {
        xpby(ctx, a, 0.3, b);
      } else if (name == "copy") {
        copy(ctx, a, b);
      } else if (name == "fill") {
        fill(ctx, 0.3, a);
      } else if (name == "sub") {
        sub(ctx, a, b, c);
      } else if (name == "hadamard") {
        hadamard(ctx, a, b, c);
      } else if (name == "dprod") {
        (void)dprod(ctx, a, b);
      } else if (name == "stencil_row") {
        stencil_row(ctx, a, b, c, d, e, xc.data() + 1, f.data(), h.data(), y);
      } else if (name == "coupling_row") {
        coupling_row(ctx, a, b.data(), c);
      } else if (name == "diag_correct_row") {
        mg::diag_correct_row(ctx, 0.3, a, b, c);
      } else {
        ASSERT_EQ(name, "diag_scale_row");
        mg::diag_scale_row(ctx, 0.3, a, b, c);
      }
      EXPECT_EQ(format_counts(ctx.take_counts()), g.counts)
          << name << " vl=" << g.vl_bits << " n=" << n
          << (mode == VlaExecMode::Native ? " native" : " interpret");
    }
  }
}

/// The MG transfer rows record exactly what their hand-written forms did,
/// in both exec modes, at every VL and tail shape pinned.
TEST(TransferRows, CountsMatchGoldenAcrossVlAndTails) {
  for (const GoldenCounts& g : kTransferGoldenCounts) {
    for (const auto mode : {VlaExecMode::Interpret, VlaExecMode::Native}) {
      Context ctx(VectorArch(g.vl_bits), mode);
      Rng rng(5);
      const std::size_t n = g.n;
      std::vector<double> y(n);
      const std::string name = g.composite;
      if (name == "restrict_row") {
        // Four fine rows 2n wide, each with one readable ghost per side.
        std::vector<std::vector<double>> fine(4, std::vector<double>(2 * n + 2));
        for (auto& row : fine)
          for (auto& x : row) x = rng.uniform(-1.0, 1.0);
        const double* rows[4] = {fine[0].data() + 1, fine[1].data() + 1,
                                 fine[2].data() + 1, fine[3].data() + 1};
        std::vector<std::int64_t> fm1(n), f0(n), f1(n), f2(n);
        for (std::size_t c = 0; c < n; ++c) {
          const auto f = 2 * static_cast<std::int64_t>(c);
          fm1[c] = f - 1;
          f0[c] = f;
          f1[c] = f + 1;
          f2[c] = f + 2;
        }
        mg::restrict_row(ctx, rows, {fm1, f0, f1, f2, {}, {}}, y);
      } else {
        ASSERT_EQ(name, "prolong_row_add");
        // Two coarse rows ⌈n/2⌉ wide, with readable ghosts.
        std::vector<double> cnear(n / 2 + 4), cfar(n / 2 + 4);
        for (auto* v : {&cnear, &cfar})
          for (auto& x : *v) x = rng.uniform(-1.0, 1.0);
        std::vector<std::int64_t> near(n), far(n);
        for (std::size_t f = 0; f < n; ++f) {
          near[f] = static_cast<std::int64_t>(f / 2);
          far[f] = near[f] + ((f & 1) ? 1 : -1);
        }
        mg::prolong_row_add(ctx, cnear.data() + 1, cfar.data() + 1,
                            {{}, {}, {}, {}, near, far}, y);
      }
      EXPECT_EQ(format_counts(ctx.take_counts()), g.counts)
          << name << " vl=" << g.vl_bits << " n=" << n
          << (mode == VlaExecMode::Native ? " native" : " interpret");
    }
  }
}

// --- 3. DAG capture -----------------------------------------------------------

TEST(DagCapture, RecordsFirstFusedIterationOncePerConfiguration) {
  Problem prob(24, 16, 1);
  fill_operator(prob.A, 1234);
  ExecContext ctx(VectorArch(512), nullptr, VlaExecMode::Native,
                  FuseMode::On);
  auto M = make_preconditioner("jacobi", ctx, prob.A);
  DistVector x(prob.g, prob.d, 1), b(prob.g, prob.d, 1);
  randomize(b, 99);
  x.fill(ctx, 0.0);
  CgSolver cg(prob.g, prob.d, 1);
  EXPECT_EQ(ctx.vctx.dag_store().size(), 0u);
  ASSERT_TRUE(cg.solve(ctx, prob.A, *M, x, b, {}).converged);
  ASSERT_EQ(ctx.vctx.dag_store().size(), 1u);
  const std::string key = dag_key("cg", "jacobi", 24 * 16, ctx.vctx);
  EXPECT_TRUE(ctx.vctx.dag_store().contains(key));

  // One CG iteration: matvec+dot head, twin update / precond tail, and the
  // collectives — all annotated.
  const std::string dump = ctx.vctx.dag_store().dump_all();
  EXPECT_NE(dump.find("matvec"), std::string::npos) << dump;
  EXPECT_NE(dump.find("rule=stencil-head"), std::string::npos) << dump;
  EXPECT_NE(dump.find("rule=reduction-tail"), std::string::npos) << dump;
  EXPECT_NE(dump.find("barrier:allreduce"), std::string::npos) << dump;

  // A second solve of the same configuration records nothing new.
  x.fill(ctx, 0.0);
  ASSERT_TRUE(cg.solve(ctx, prob.A, *M, x, b, {}).converged);
  EXPECT_EQ(ctx.vctx.dag_store().size(), 1u);
  EXPECT_EQ(dump, ctx.vctx.dag_store().dump_all());

  // A different configuration gets its own entry.
  BicgstabSolver bi(prob.g, prob.d, 1);
  x.fill(ctx, 0.0);
  ASSERT_TRUE(bi.solve(ctx, prob.A, *M, x, b, {}).converged);
  EXPECT_EQ(ctx.vctx.dag_store().size(), 2u);
}

/// Off never records; the "plan" alias records exactly what "on" does.
TEST(DagCapture, OffNeverRecordsAndPlanAliasRecordsLikeOn) {
  std::string on_dump;
  for (const char* fuse : {"off", "on", "plan"}) {
    Problem prob(24, 16, 1);
    fill_operator(prob.A, 1234);
    ExecContext ctx(VectorArch(512), nullptr, VlaExecMode::Native,
                    fuse_mode_from_name(fuse));
    auto M = make_preconditioner("jacobi", ctx, prob.A);
    DistVector x(prob.g, prob.d, 1), b(prob.g, prob.d, 1);
    randomize(b, 99);
    x.fill(ctx, 0.0);
    CgSolver cg(prob.g, prob.d, 1);
    ASSERT_TRUE(cg.solve(ctx, prob.A, *M, x, b, {}).converged);
    const std::string mode = fuse;
    if (mode == "off") {
      EXPECT_EQ(ctx.vctx.dag_store().size(), 0u);
    } else {
      EXPECT_EQ(ctx.vctx.dag_store().size(), 1u) << mode;
      if (mode == "on")
        on_dump = ctx.vctx.dag_store().dump_all();
      else
        EXPECT_EQ(on_dump, ctx.vctx.dag_store().dump_all());
    }
  }
}

/// Recording happens on the driving thread only, so the captured dump is
/// byte-identical at any host-thread count.
TEST(DagCapture, DumpInvariantUnderHostThreads) {
  std::string reference;
  for (const int threads : {1, 4}) {
    set_host_threads(threads);
    Problem prob(24, 16, 1, 2, 2);
    fill_operator(prob.A, 77);
    ExecContext ctx(VectorArch(512), nullptr, VlaExecMode::Native,
                    FuseMode::On);
    auto M = make_preconditioner("spai0", ctx, prob.A);
    DistVector x(prob.g, prob.d, 1), b(prob.g, prob.d, 1);
    randomize(b, 3);
    x.fill(ctx, 0.0);
    CgSolver cg(prob.g, prob.d, 1);
    ASSERT_TRUE(cg.solve(ctx, prob.A, *M, x, b, {}).converged);
    const std::string dump = ctx.vctx.dag_store().dump_all();
    if (reference.empty()) {
      reference = dump;
    } else {
      EXPECT_EQ(reference, dump) << "threads=" << threads;
    }
  }
  set_host_threads(0);
}

// --- 4. differential: on vs off and the golden values -------------------------

/// Every solver/precond/exec-mode/VL combination: --fuse on reproduces the
/// off trajectory bit-for-bit.  VL 2048 leaves a 22-element row as pure
/// tail (vl = 32); VL 512 splits it 8+8+6.
TEST(PlannedSolvers, TrajectoryMatchesOffAcrossTheMatrix) {
  for (const auto mode : {VlaExecMode::Native, VlaExecMode::Interpret}) {
    for (const std::string precond : {"jacobi", "spai0", "mg"}) {
      for (const unsigned bits : {512u, 2048u}) {
        for (const bool use_cg : {true, false}) {
          SolveOutcome out[2];
          for (const auto fuse : {FuseMode::Off, FuseMode::On}) {
            Problem prob(22, 14, 1, 2, 1);
            fill_operator(prob.A, 4242);
            ExecContext ctx(VectorArch(bits), nullptr, mode, fuse);
            auto M = make_preconditioner(precond, ctx, prob.A);
            DistVector x(prob.g, prob.d, 1), b(prob.g, prob.d, 1);
            randomize(b, 11);
            x.fill(ctx, 0.0);
            SolveOptions opt;
            opt.rel_tol = 1e-9;
            auto& slot = out[static_cast<int>(fuse)];
            if (use_cg) {
              CgSolver s(prob.g, prob.d, 1);
              slot.stats = s.solve(ctx, prob.A, *M, x, b, opt);
            } else {
              BicgstabSolver s(prob.g, prob.d, 1);
              slot.stats = s.solve(ctx, prob.A, *M, x, b, opt);
            }
            slot.x = x.field().gather_global();
            EXPECT_TRUE(slot.stats.converged) << precond;
          }
          const std::string label =
              std::string(use_cg ? "cg/" : "bicgstab/") + precond + "/vl" +
              std::to_string(bits) +
              (mode == VlaExecMode::Native ? "/native" : "/interpret");
          expect_same_trajectory(out[0], out[1], label + " off/on");
        }
      }
    }
  }
}

/// An MG-preconditioned CG solve, priced per rank: the gathered field,
/// per-rank clocks and full ledgers equal golden values captured while the
/// transfer rows were still hand-written, in both exec modes.  32×20 on
/// 2×1 ranks coarsens twice, so every V-cycle restricts and prolongs.
TEST(PlannedSolvers, MgSolveMatchesGoldenInBothExecModes) {
  for (const auto mode : {VlaExecMode::Interpret, VlaExecMode::Native}) {
    const std::string label =
        mode == VlaExecMode::Native ? "mg/native" : "mg/interpret";
    Problem prob(32, 20, 1, 2, 1);
    fill_operator(prob.A, 4242);
    mpisim::ExecModel em(sim::MachineSpec::a64fx(),
                         {compiler::cray_2103(), compiler::gnu_11()}, 2);
    ExecContext ctx(VectorArch(512), &em, mode);
    auto M = make_preconditioner("mg", ctx, prob.A);
    DistVector x(prob.g, prob.d, 1), b(prob.g, prob.d, 1);
    randomize(b, 11);
    x.fill(ctx, 0.0);
    SolveOptions opt;
    opt.rel_tol = 1e-9;
    CgSolver cg(prob.g, prob.d, 1);
    const SolveStats st = cg.solve(ctx, prob.A, *M, x, b, opt);
    EXPECT_TRUE(st.converged) << label;
    EXPECT_EQ(st.iterations, kMgSolveIterations) << label;
    const auto field = x.field().gather_global();
    EXPECT_EQ(fnv1a(0xcbf29ce484222325ULL, field.data(),
                    field.size() * sizeof(double)),
              kMgSolveFieldHash)
        << label;
    ASSERT_EQ(em.nprofiles() * static_cast<std::size_t>(em.nranks()),
              std::size(kMgSolve));
    for (const GoldenRank& e : kMgSolve) {
      const int r = static_cast<int>(e.rank);
      EXPECT_EQ(em.rank_time(e.profile, r), e.clock)
          << label << " profile " << e.profile << " rank " << e.rank;
      EXPECT_EQ(ledger_digest(em.ledger(e.profile, r)), e.ledger)
          << label << " ledger, profile " << e.profile << " rank " << e.rank;
    }
  }
}

/// End-to-end Simulation contract: on fields are bit-identical to off,
/// on and off clocks and full ledgers equal their golden values, and on
/// beats off on every profile.
TEST(PlannedSolvers, SimulationOnMatchesGoldenAndBeatsOff) {
  core::RunConfig cfg;
  cfg.nx1 = 48;
  cfg.nx2 = 24;
  cfg.ns = 2;
  cfg.steps = 2;
  cfg.compilers = {"cray", "gnu"};

  testutil::SimCapture caps[2];
  const char* modes[2] = {"off", "on"};
  for (int i = 0; i < 2; ++i) {
    cfg.fuse = modes[i];
    core::Simulation sim(cfg);
    sim.run();
    caps[i] = testutil::capture(sim);
  }

  expect_same_fields(caps[0], caps[1], "off-vs-on");
  expect_golden(caps[0], kSimOff, "off");
  expect_golden(caps[1], kSimOn, "on");

  for (std::size_t p = 0; p < caps[0].clocks.size(); ++p)
    for (std::size_t r = 0; r < caps[0].clocks[p].size(); ++r)
      EXPECT_LT(caps[1].clocks[p][r], caps[0].clocks[p][r])
          << "profile " << p << " rank " << r;
}

/// Mixed-fuse farm regression (memo-key separation): off and on jobs
/// sharing one farm — and its shared per-VL count caches — reproduce their
/// solo runs exactly, the second on job equals the first, and both modes
/// equal their golden values.
TEST(PlannedSolvers, MixedFuseFarmBitIdenticalToSolo) {
  core::RunConfig base;
  base.problem = "gaussian-pulse";
  base.nx1 = 48;
  base.nx2 = 24;
  base.steps = 2;
  base.dt = 0.05;
  base.nprx1 = 2;
  base.compilers = {"cray"};
  base.host_threads = 1;

  std::vector<farm::FarmJob> jobs;
  for (const char* fuse : {"off", "on", "on"}) {
    core::RunConfig cfg = base;
    cfg.fuse = fuse;
    jobs.push_back({std::string("pulse-") + fuse +
                        (jobs.size() == 2 ? "-again" : ""),
                    cfg});
  }

  std::vector<testutil::SimCapture> solo;
  for (const auto& j : jobs) {
    core::Simulation sim(j.cfg);
    sim.run();
    solo.push_back(testutil::capture(sim));
  }

  farm::FarmOptions opt;
  opt.host_threads = 2;
  std::vector<testutil::SimCapture> farmed(jobs.size());
  opt.on_job_complete = [&farmed](std::size_t i, core::Simulation& sim) {
    farmed[i] = testutil::capture(sim);
  };
  farm::FarmScheduler sched(opt);
  for (const auto& j : jobs) sched.add(j);
  const farm::FarmSummary sum = sched.run();
  set_host_threads(0);
  ASSERT_EQ(sum.failed, 0u);

  for (std::size_t i = 0; i < jobs.size(); ++i)
    testutil::expect_captures_identical(solo[i], farmed[i], jobs[i].name);
  expect_same_fields(farmed[0], farmed[1], "off-vs-on");
  expect_golden(farmed[0], kFarmOff, "off");
  expect_golden(farmed[1], kFarmOn, "on");
  // No cache cross-talk between same-mode jobs either.
  testutil::expect_captures_identical(farmed[1], farmed[2], "on-vs-on");
}

/// The fuse knob is pinned in checkpoints under its canonical name: a
/// checkpoint that stores "plan" (as older ones do) resumes under "on" and
/// under "plan", and is refused under "off".
TEST(PlannedSolvers, FuseModePinnedAcrossRestart) {
  const std::string path = ::testing::TempDir() + "/fuse_pin.h5l";
  core::RunConfig cfg;
  cfg.nx1 = 24;
  cfg.nx2 = 12;
  cfg.steps = 2;
  cfg.fuse = "plan";
  cfg.checkpoint_path = path;
  {
    core::Simulation sim(cfg);
    sim.run();
  }
  {
    // The writer stores the canonical name; rewrite it the way a
    // checkpoint from before the alias stored it.
    io::H5File file = io::H5File::load(path);
    io::Group& knobs = file.root().group("config");
    EXPECT_EQ(knobs.attr_str("fuse"), "on");
    knobs.set_attr("fuse", std::string("plan"));
    file.save(path);
  }
  core::RunConfig wrong = cfg;
  wrong.fuse = "off";
  core::Simulation resumed(wrong);
  EXPECT_THROW(resumed.restart(path), Error);
  for (const char* fuse : {"on", "plan"}) {
    core::RunConfig right = cfg;
    right.fuse = fuse;
    right.steps = 3;
    core::Simulation ok(right);
    EXPECT_NO_THROW(ok.restart(path)) << fuse;
  }
  std::remove(path.c_str());
}

TEST(FuseModeNames, TwoStateRoundTripPlanAliasAndError) {
  EXPECT_EQ(fuse_mode_from_name("off"), FuseMode::Off);
  EXPECT_EQ(fuse_mode_from_name("on"), FuseMode::On);
  EXPECT_EQ(fuse_mode_from_name("plan"), FuseMode::On);
  EXPECT_STREQ(fuse_mode_name(FuseMode::Off), "off");
  EXPECT_STREQ(fuse_mode_name(FuseMode::On), "on");
  try {
    (void)fuse_mode_from_name("auto");
    FAIL() << "expected an error";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("off|on"), std::string::npos);
  }
}

}  // namespace
}  // namespace v2d::linalg
