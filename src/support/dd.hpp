#pragma once
/// \file dd.hpp
/// \brief Double-double (compensated) accumulation.
///
/// BiCGSTAB trajectories are exquisitely sensitive to inner-product
/// rounding, and plain summation groups terms differently under every
/// NPRX1×NPRX2 tiling.  V2D therefore accumulates every global reduction
/// in double-double arithmetic, under one fixed rule:
///
///   1. Each rank owns one DdLanes per inner product.  Its rows are fed in
///      a fixed order (species, then tile row), and element `i` of a row
///      goes to lane `i mod DdLanes::kLanes`.  Each lane is an independent
///      double-double sum built with the error-free TwoSum.
///   2. At the end, each rank's lanes collapse into a DdAccumulator in
///      rank order: the lane `hi`s first, then the lane `lo`s, each in
///      lane order.
///
/// What is guaranteed: the rule fixes every floating-point operation, so
/// the result is bit-identical across host-thread counts, fuse modes, VLA
/// exec modes, the modelled vector length and the build ISA (the build
/// disables FMA contraction, see CMakeLists.txt).  What is *not* guaranteed: independence from the
/// tiling.  A different NPRX1×NPRX2 changes the row lengths and the rank
/// partition, hence the grouping of the addends.  A double-double sum is
/// exact to ~2⁻¹⁰⁶ of the sum of its terms' magnitudes, so two groupings
/// round to the same double unless the exact sum lies that close to a
/// rounding boundary.  Cancellation makes that likelier: it shrinks the
/// sum, not the error.  Tiling independence is therefore very probable
/// for the solver's inner products, not a theorem.
///
/// Non-finite addends propagate: an Inf makes the lane's error term NaN
/// (Inf − Inf), so the result is NaN, exactly as for DdAccumulator.

#include <cmath>
#include <cstddef>
#include <cstring>

namespace v2d {

/// Error-free transformation accumulator (Knuth two-sum).  Serial; used
/// for the rank-order merges of DdLanes partials.
class DdAccumulator {
public:
  void add(double x) {
    const double t = hi_ + x;
    const double e = std::fabs(hi_) >= std::fabs(x) ? (hi_ - t) + x
                                                    : (x - t) + hi_;
    lo_ += e;
    hi_ = t;
  }

  /// Merge another accumulator (used for rank partials).
  void add(const DdAccumulator& o) {
    add(o.hi_);
    add(o.lo_);
  }

  double value() const { return hi_ + lo_; }

private:
  double hi_ = 0.0;
  double lo_ = 0.0;
};

namespace dd_detail {

/// Two doubles in one SSE2 / NEON register (GCC/clang vector extension).
using V2 = double __attribute__((vector_size(16)));

inline V2 load2(const double* p) {
  V2 v;
  std::memcpy(&v, p, sizeof v);
  return v;
}

inline void store2(double* p, V2 v) { std::memcpy(p, &v, sizeof v); }

/// Branch-free TwoSum: hi + b = s + e exactly, whatever the magnitudes,
/// so `e` equals DdAccumulator::add's branchy Fast2Sum error term.
template <class T>
inline void two_sum_add(T& hi, T& lo, T b) {
  const T s = hi + b;
  const T bb = s - hi;
  const T e = (hi - (s - bb)) + (b - bb);
  lo += e;
  hi = s;
}

}  // namespace dd_detail

/// Eight independent double-double lanes: the per-rank partial of one
/// compensated inner product (see the file comment for the lane rule).
/// The lane count is fixed; it does not follow the modelled SVE vector
/// length or the host ISA, so results never depend on either.
class DdLanes {
public:
  static constexpr std::size_t kLanes = 8;

  /// Add Σ x[i]·y[i]; element i goes to lane i mod kLanes.
  void dot_row(const double* x, const double* y, std::size_t n) {
    using dd_detail::V2;
    constexpr std::size_t kRegs = kLanes / 2;
    V2 h[kRegs], l[kRegs];
    for (std::size_t k = 0; k < kRegs; ++k) {
      h[k] = dd_detail::load2(hi_ + 2 * k);
      l[k] = dd_detail::load2(lo_ + 2 * k);
    }
    std::size_t i = 0;
    for (; i + kLanes <= n; i += kLanes) {
      for (std::size_t k = 0; k < kRegs; ++k) {
        // The product is its own statement so it is never contracted
        // into the TwoSum's first addition.
        const V2 p = dd_detail::load2(x + i + 2 * k) *
                     dd_detail::load2(y + i + 2 * k);
        dd_detail::two_sum_add(h[k], l[k], p);
      }
    }
    for (std::size_t k = 0; k < kRegs; ++k) {
      dd_detail::store2(hi_ + 2 * k, h[k]);
      dd_detail::store2(lo_ + 2 * k, l[k]);
    }
    // Fewer than kLanes elements remain; element i + lane goes to `lane`.
    for (std::size_t lane = 0; lane < kLanes && i + lane < n; ++lane) {
      const double p = x[i + lane] * y[i + lane];
      dd_detail::two_sum_add(hi_[lane], lo_[lane], p);
    }
  }

  /// Add the lane `hi`s, then the lane `lo`s, in lane order, into `into`.
  void collapse_into(DdAccumulator& into) const {
    for (double h : hi_) into.add(h);
    for (double l : lo_) into.add(l);
  }

  /// The rounded sum of this lane set alone (collapsed into a fresh
  /// DdAccumulator).
  double value() const {
    DdAccumulator total;
    collapse_into(total);
    return total.value();
  }

private:
  alignas(64) double hi_[kLanes] = {};
  double lo_[kLanes] = {};
};

}  // namespace v2d
