#include "linalg/kernel_counts.hpp"

namespace v2d::linalg {

namespace {

using sim::KernelCounts;
using sim::OpClass;

/// Builder mirroring the recording a strip-mined interpreter pass makes.
/// S = ceil(n/VL) strips; per strip the loop helper books one whilelt
/// (Predicate over all VL lanes) and one loop_iter (IntOp + Branch over the
/// strip's active lanes, which sum to n across strips).
struct Formula {
  std::uint64_t n;
  unsigned vl;
  std::uint64_t strips;
  KernelCounts c;

  Formula(std::uint64_t n_, unsigned vl_)
      : n(n_), vl(vl_), strips((n_ + vl_ - 1) / vl_) {}

  void op(OpClass cls, std::uint64_t instr, std::uint64_t lanes) {
    const auto i = static_cast<std::size_t>(cls);
    c.instr[i] += instr;
    c.lanes[i] += lanes;
  }

  /// Loop control of strip_mine / the loop part of strip_reduce.
  void loop() {
    op(OpClass::Predicate, strips, strips * vl);
    op(OpClass::IntOp, strips, n);
    op(OpClass::Branch, strips, n);
  }

  /// `k` predicated ops of `cls` per strip (k·S instructions, k·n lanes).
  void per_strip(OpClass cls, std::uint64_t k) {
    op(cls, k * strips, k * n);
  }

  /// `k` contiguous vector loads per strip.
  void loads(std::uint64_t k) {
    per_strip(OpClass::LoadContig, k);
    c.bytes_read += 8 * k * n;
  }

  /// `k` gather loads per strip.
  void gathers(std::uint64_t k) {
    per_strip(OpClass::LoadGather, k);
    c.bytes_read += 8 * k * n;
  }

  /// `k` contiguous vector stores per strip.
  void stores(std::uint64_t k) {
    per_strip(OpClass::StoreContig, k);
    c.bytes_written += 8 * k * n;
  }

  /// `k` dup() broadcasts per kernel call (1 instruction, 1 lane each).
  void dups(std::uint64_t k) { op(OpClass::Select, k, k); }
};

}  // namespace

KernelCounts analytic_counts(KernelShape shape, std::uint64_t n, unsigned vl) {
  Formula f(n, vl);
  switch (shape) {
    case KernelShape::RestrictRow:
      // dup(1/4), dup(3/4) per call; per strip one dup(0) accumulator plus,
      // for each of the 4 fine rows, {4 gathers, mul, 3 fma, dup(w),
      // fma_merge}; then one store.
      f.dups(2);
      f.loop();
      f.op(OpClass::Select, 5 * f.strips, 5 * f.strips);
      f.gathers(16);
      f.per_strip(OpClass::FlopMul, 4);
      f.per_strip(OpClass::FlopFma, 16);
      f.stores(1);
      break;
    case KernelShape::ProlongRow:
      // dup(1/4), dup(3/4) per call; per strip {4 gathers, 2 mul, ld fine,
      // 4 fma, st}.
      f.dups(2);
      f.loop();
      f.gathers(4);
      f.per_strip(OpClass::FlopMul, 2);
      f.loads(1);
      f.per_strip(OpClass::FlopFma, 4);
      f.stores(1);
      break;
  }
  return f.c;
}

}  // namespace v2d::linalg
