/// \file test_vla.cpp
/// \brief Unit and property tests for the SVE-like VLA execution layer.

#include <gtest/gtest.h>

#include <numeric>
#include <thread>
#include <vector>

#include "support/rng.hpp"
#include "vla/loops.hpp"
#include "vla/vla.hpp"

namespace v2d::vla {
namespace {

using sim::OpClass;

TEST(VectorArchTest, ValidLengths) {
  for (unsigned bits = 128; bits <= 2048; bits += 128) {
    EXPECT_EQ(VectorArch(bits).lanes(), bits / 64);
  }
  EXPECT_THROW(VectorArch(64), Error);
  EXPECT_THROW(VectorArch(192), Error);   // not a multiple of 128
  EXPECT_THROW(VectorArch(4096), Error);
}

TEST(Predicates, WhileltShapes) {
  Context ctx(VectorArch(512));  // 8 lanes
  EXPECT_EQ(ctx.whilelt(0, 20).active, 8u);
  EXPECT_EQ(ctx.whilelt(16, 20).active, 4u);
  EXPECT_EQ(ctx.whilelt(24, 20).active, 0u);
  EXPECT_TRUE(ctx.ptrue().full());
}

TEST(Ops, LoadComputeStore) {
  Context ctx(VectorArch(512));
  std::vector<double> x = {1, 2, 3, 4, 5, 6, 7, 8};
  std::vector<double> y(8, 0.0);
  const Predicate p = ctx.ptrue();
  const VReg vx = ctx.ld1(p, x.data());
  const VReg two = ctx.dup(2.0);
  ctx.st1(p, y.data(), ctx.mul(p, vx, two));
  for (int i = 0; i < 8; ++i) EXPECT_DOUBLE_EQ(y[i], 2.0 * x[i]);
}

TEST(Ops, PredicationMasksTail) {
  Context ctx(VectorArch(512));
  std::vector<double> x = {1, 2, 3, 4, 5, 6, 7, 8};
  std::vector<double> y(8, -1.0);
  const Predicate p = ctx.whilelt(5, 8);  // 3 active lanes
  ctx.st1(p, y.data(), ctx.ld1(p, x.data()));
  EXPECT_DOUBLE_EQ(y[0], 1.0);
  EXPECT_DOUBLE_EQ(y[2], 3.0);
  EXPECT_DOUBLE_EQ(y[3], -1.0);  // untouched
}

TEST(Ops, FmaAndSubDivSqrtAbs) {
  Context ctx(VectorArch(256));  // 4 lanes
  const Predicate p = ctx.ptrue();
  std::vector<double> a = {1, 4, 9, 16}, b = {2, 2, 2, 2}, c = {1, 1, 1, 1};
  const VReg va = ctx.ld1(p, a.data());
  const VReg vb = ctx.ld1(p, b.data());
  const VReg vc = ctx.ld1(p, c.data());
  const VReg fma = ctx.fma(p, va, vb, vc);
  EXPECT_DOUBLE_EQ(fma[2], 19.0);
  const VReg sub = ctx.sub(p, va, vb);
  EXPECT_DOUBLE_EQ(sub[0], -1.0);
  const VReg div = ctx.div(p, va, vb);
  EXPECT_DOUBLE_EQ(div[3], 8.0);
  const VReg sq = ctx.sqrt(p, va);
  EXPECT_DOUBLE_EQ(sq[2], 3.0);
  const VReg ab = ctx.abs(p, sub);
  EXPECT_DOUBLE_EQ(ab[0], 1.0);
  const VReg mn = ctx.vmin(p, va, vb);
  EXPECT_DOUBLE_EQ(mn[1], 2.0);
  const VReg mx = ctx.vmax(p, va, vb);
  EXPECT_DOUBLE_EQ(mx[1], 4.0);
}

TEST(Ops, GatherScatter) {
  Context ctx(VectorArch(256));
  const Predicate p = ctx.ptrue();
  std::vector<double> base = {10, 20, 30, 40, 50};
  const std::vector<std::int64_t> idx = {4, 0, 2, 1};
  const VReg g = ctx.ld1_gather(p, base.data(), idx);
  EXPECT_DOUBLE_EQ(g[0], 50.0);
  EXPECT_DOUBLE_EQ(g[3], 20.0);
  std::vector<double> out(5, 0.0);
  ctx.st1_scatter(p, out.data(), idx, g);
  EXPECT_DOUBLE_EQ(out[4], 50.0);
  EXPECT_DOUBLE_EQ(out[1], 20.0);
}

TEST(Ops, Reductions) {
  Context ctx(VectorArch(512));
  const Predicate p = ctx.whilelt(0, 5);
  std::vector<double> x = {1, 2, 3, 4, 5, 99, 99, 99};
  const VReg v = ctx.ld1(p, x.data());
  EXPECT_DOUBLE_EQ(ctx.reduce_add(p, v), 15.0);
  EXPECT_DOUBLE_EQ(ctx.reduce_max(p, v), 5.0);
}

TEST(Recording, CountsInstructionsAndLanes) {
  Context ctx(VectorArch(512));
  std::vector<double> x(20, 1.0), y(20, 2.0);
  strip_mine(ctx, 20, [&](std::uint64_t i, const Predicate& p) {
    const VReg vx = ctx.ld1(p, &x[i]);
    const VReg vy = ctx.ld1(p, &y[i]);
    ctx.st1(p, &y[i], ctx.add(p, vx, vy));
  });
  const sim::KernelCounts c = ctx.take_counts();
  const auto idx = [](OpClass o) { return static_cast<std::size_t>(o); };
  EXPECT_EQ(c.instr[idx(OpClass::LoadContig)], 6u);   // 3 strips x 2 loads
  EXPECT_EQ(c.lanes[idx(OpClass::LoadContig)], 40u);  // 20 elements x 2
  EXPECT_EQ(c.instr[idx(OpClass::StoreContig)], 3u);
  EXPECT_EQ(c.lanes[idx(OpClass::FlopAdd)], 20u);
  EXPECT_EQ(c.bytes_read, 40u * 8);
  EXPECT_EQ(c.bytes_written, 20u * 8);
  // take_counts resets.
  EXPECT_EQ(ctx.counts().total_instr(), 0u);
}

TEST(Recording, RecordExternalFoldsIn) {
  Context ctx(VectorArch(512));
  ctx.record_external(OpClass::LoadContig, 80, 640, 0);
  const auto c = ctx.take_counts();
  const auto idx = [](OpClass o) { return static_cast<std::size_t>(o); };
  EXPECT_EQ(c.lanes[idx(OpClass::LoadContig)], 80u);
  EXPECT_EQ(c.instr[idx(OpClass::LoadContig)], 10u);
  EXPECT_EQ(c.bytes_read, 640u);
}

TEST(Loops, StripReduceMatchesStdAccumulate) {
  Context ctx(VectorArch(384));  // 6 lanes, odd size
  std::vector<double> x(101);
  Rng rng(5);
  for (auto& v : x) v = rng.uniform(-1, 1);
  const double got =
      strip_reduce(ctx, x.size(), [&](std::uint64_t i, const Predicate& p,
                                      VReg acc) {
        const VReg vx = ctx.ld1(p, &x[i]);
        const VReg one = ctx.dup(1.0);
        return ctx.fma_merge(p, vx, one, acc);
      });
  const double want = std::accumulate(x.begin(), x.end(), 0.0);
  EXPECT_NEAR(got, want, 1e-12);
}

TEST(Predicates, MismatchedWidthRejected) {
  Context ctx8(VectorArch(512));
  Context ctx4(VectorArch(256));
  const Predicate p4 = ctx4.ptrue();
  std::vector<double> x(8, 0.0);
  EXPECT_THROW(ctx8.ld1(p4, x.data()), Error);
}

/// Property: every arithmetic kernel produces identical results at every
/// architectural vector length (VLA correctness — the paper's §I-B).
class VlSweep : public ::testing::TestWithParam<unsigned> {};

TEST_P(VlSweep, AxpyMatchesScalarReference) {
  const unsigned bits = GetParam();
  Context ctx{VectorArch(bits)};
  const std::size_t n = 137;  // awkward tail for every VL
  std::vector<double> x(n), y(n), ref(n);
  Rng rng(bits);
  for (std::size_t i = 0; i < n; ++i) {
    x[i] = rng.uniform(-2, 2);
    y[i] = ref[i] = rng.uniform(-2, 2);
  }
  const double a = 1.00007;
  const VReg va = ctx.dup(a);
  strip_mine(ctx, n, [&](std::uint64_t i, const Predicate& p) {
    const VReg vx = ctx.ld1(p, &x[i]);
    const VReg vy = ctx.ld1(p, &y[i]);
    ctx.st1(p, &y[i], ctx.fma(p, vx, va, vy));
  });
  for (std::size_t i = 0; i < n; ++i) {
    EXPECT_DOUBLE_EQ(y[i], a * x[i] + ref[i]) << "lane " << i;
  }
}

TEST_P(VlSweep, DotIsVlInvariantToRounding) {
  const unsigned bits = GetParam();
  Context ctx{VectorArch(bits)};
  const std::size_t n = 97;
  std::vector<double> x(n), y(n);
  Rng rng(11);
  for (std::size_t i = 0; i < n; ++i) {
    x[i] = rng.uniform(0, 1);
    y[i] = rng.uniform(0, 1);
  }
  const double got =
      strip_reduce(ctx, n, [&](std::uint64_t i, const Predicate& p, VReg acc) {
        return ctx.fma_merge(p, ctx.ld1(p, &x[i]), ctx.ld1(p, &y[i]), acc);
      });
  double want = 0.0;
  for (std::size_t i = 0; i < n; ++i) want += x[i] * y[i];
  EXPECT_NEAR(got, want, 1e-12 * n);
}

TEST_P(VlSweep, StripMineCoversEveryIndexOnce) {
  const unsigned bits = GetParam();
  Context ctx{VectorArch(bits)};
  std::vector<int> touched(1000, 0);
  strip_mine(ctx, touched.size(), [&](std::uint64_t i, const Predicate& p) {
    for (unsigned l = 0; l < p.active; ++l) touched[i + l]++;
  });
  for (int t : touched) EXPECT_EQ(t, 1);
}

INSTANTIATE_TEST_SUITE_P(AllVectorLengths, VlSweep,
                         ::testing::Values(128u, 256u, 384u, 512u, 1024u,
                                           2048u));

// --- count memo: private front entry -------------------------------------

/// A recording whose content names the key it was made for, so a test can
/// tell which entry (and which family's entry) a probe returned.
sim::KernelCounts counts_for(std::uint64_t key, std::uint64_t family = 0) {
  sim::KernelCounts c;
  c.bytes_read = key;
  c.bytes_written = family;
  return c;
}

/// The address the family's shared map holds for `key`: a fresh fork has
/// an empty front entry, so its first probe reads the map itself.
const sim::KernelCounts* map_entry(const Context& family, std::uint64_t key) {
  Context probe = family.fork();
  return &probe.memo_counts(key, [&] { return counts_for(key); });
}

class MemoFrontThreads : public ::testing::TestWithParam<int> {};

/// Forks of one family probe concurrently in runs of repeated keys (front
/// hits), key switches (shared-map hits) and per-thread keys (misses).
/// After the join every probe is counted exactly once, in the family and
/// in the process counters, and every returned reference is the map's.
TEST_P(MemoFrontThreads, CountsEveryProbeAndReturnsMapEntries) {
  const int nthreads = GetParam();
  constexpr std::uint64_t kShared = 8;
  constexpr int kProbes = 20000;
  Context family(VectorArch(512), VlaExecMode::Native);
  std::vector<const sim::KernelCounts*> want(kShared);
  for (std::uint64_t k = 0; k < kShared; ++k) want[k] = map_entry(family, k);

  const std::uint64_t hits0 = family.memo_hits();
  const std::uint64_t misses0 = family.memo_misses();
  const std::uint64_t phits0 = process_memo_hits();
  const std::uint64_t pmisses0 = process_memo_misses();
  std::vector<int> wrong(nthreads, 0);
  std::vector<std::thread> threads;
  for (int t = 0; t < nthreads; ++t) {
    threads.emplace_back([&, t] {
      Context ctx = family.fork();
      for (int i = 0; i < kProbes; ++i) {
        // Runs of 7 on one shared key; every 50th probe a thread-private
        // key that no other thread ever asks for.
        const bool own = i % 50 == 49;
        const std::uint64_t key =
            own ? 1000 + static_cast<std::uint64_t>(t) * kProbes + i
                : static_cast<std::uint64_t>(i / 7 + t) % kShared;
        const sim::KernelCounts& got =
            ctx.memo_counts(key, [&] { return counts_for(key); });
        if (got.bytes_read != key || (!own && &got != want[key])) ++wrong[t];
        // Commit points publish mid-run; destruction publishes the hits
        // after the last one.
        if (i % 1000 == 500) (void)ctx.take_counts();
      }
    });
  }
  for (auto& th : threads) th.join();

  const std::uint64_t probes =
      static_cast<std::uint64_t>(nthreads) * kProbes;
  const std::uint64_t own_keys = probes / 50;
  EXPECT_EQ(family.memo_misses() - misses0, own_keys);
  EXPECT_EQ(family.memo_hits() - hits0 + family.memo_misses() - misses0,
            probes);
  EXPECT_EQ(process_memo_hits() - phits0 + process_memo_misses() - pmisses0,
            probes);
  for (int t = 0; t < nthreads; ++t) EXPECT_EQ(wrong[t], 0) << "thread " << t;
  for (std::uint64_t k = 0; k < kShared; ++k)
    EXPECT_EQ(map_entry(family, k), want[k]);
}

INSTANTIATE_TEST_SUITE_P(Threads, MemoFrontThreads, ::testing::Values(1, 2, 8));

TEST(MemoFront, HitsPublishAtTakeCountsAndDestruction) {
  Context family(VectorArch(512), VlaExecMode::Native);
  const auto make = [] { return counts_for(7); };
  (void)family.memo_counts(7, make);  // miss
  {
    Context child = family.fork();
    for (int i = 0; i < 10; ++i) (void)child.memo_counts(7, make);
    // The fork's first probe reads the map and counts at once; the other
    // nine are front hits, private until a publication point.
    EXPECT_EQ(family.memo_hits(), 1u);
    (void)child.take_counts();
    EXPECT_EQ(family.memo_hits(), 10u);
    for (int i = 0; i < 5; ++i) (void)child.memo_counts(7, make);
    EXPECT_EQ(child.memo_hits(), 15u);  // reading publishes its own hits
    for (int i = 0; i < 3; ++i) (void)child.memo_counts(7, make);
  }
  EXPECT_EQ(family.memo_hits(), 18u);
  EXPECT_EQ(family.memo_misses(), 1u);
}

/// Moves carry the front entry and the pending hits, which are then
/// published exactly once.
TEST(MemoFront, MovesCarryFrontAndPendingHitsOnce) {
  Context family(VectorArch(512), VlaExecMode::Native);
  const auto make = [] { return counts_for(3); };
  (void)family.memo_counts(3, make);  // miss; family's own front
  {
    Context a = family.fork();
    for (int i = 0; i < 3; ++i) (void)a.memo_counts(3, make);
    EXPECT_EQ(family.memo_hits(), 1u);  // a's first probe read the map
    Context b(std::move(a));
    (void)b.memo_counts(3, make);  // the moved front: no map read
    EXPECT_EQ(family.memo_hits(), 1u);
    Context c = family.fork();
    c = std::move(b);
    (void)c.memo_counts(3, make);
  }
  // 1 map read + 2 + 1 + 1 front hits, none lost and none twice.
  EXPECT_EQ(family.memo_hits(), 5u);
}

/// A front entry taken before another fork forces the map to rehash still
/// returns the right recording from the map's own (unrelocated) node.
TEST(MemoFront, SurvivesRehashByAnotherFork) {
  Context family(VectorArch(512), VlaExecMode::Native);
  Context a = family.fork();
  const sim::KernelCounts* entry =
      &a.memo_counts(42, [] { return counts_for(42); });
  {
    Context b = family.fork();
    for (std::uint64_t k = 0; k < 1000; ++k)
      (void)b.memo_counts(10'000 + k, [&] { return counts_for(10'000 + k); });
  }
  EXPECT_EQ(family.memo_misses(), 1001u);
  int remade = 0;
  const sim::KernelCounts& got = a.memo_counts(42, [&] {
    ++remade;
    return counts_for(0);
  });
  EXPECT_EQ(remade, 0);
  EXPECT_EQ(&got, entry);
  EXPECT_EQ(&got, map_entry(family, 42));
  EXPECT_EQ(got.bytes_read, 42u);
}

/// Copies start with an empty front, so a context copy-assigned from a
/// second family serves that family's entry, and hits pending from the
/// first family are published there, not carried over.
TEST(MemoFront, CopyAssignNeverServesOtherFamily) {
  Context fam_a(VectorArch(512), VlaExecMode::Native);
  Context fam_b(VectorArch(512), VlaExecMode::Native);
  (void)fam_b.memo_counts(5, [] { return counts_for(5, 2); });
  const sim::KernelCounts* b_entry = map_entry(fam_b, 5);

  Context ctx = fam_a.fork();
  for (int i = 0; i < 4; ++i)
    (void)ctx.memo_counts(5, [] { return counts_for(5, 1); });
  ctx = fam_b;
  EXPECT_EQ(fam_a.memo_hits(), 3u);  // published by the assignment
  const std::uint64_t b_hits = fam_b.memo_hits();
  const sim::KernelCounts& got =
      ctx.memo_counts(5, [] { return counts_for(5, 1); });
  EXPECT_EQ(&got, b_entry);
  EXPECT_EQ(got.bytes_written, 2u);
  EXPECT_EQ(fam_b.memo_hits(), b_hits + 1);  // a map read, counted at once

  // Copy construction starts empty too.
  Context copy(ctx);
  (void)copy.memo_counts(5, [] { return counts_for(5, 1); });
  EXPECT_EQ(fam_b.memo_hits(), b_hits + 2);
}

}  // namespace
}  // namespace v2d::vla
