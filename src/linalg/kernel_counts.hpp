#pragma once
/// \file kernel_counts.hpp
/// \brief Closed-form KernelCounts of the two hand-written gather rows.
///
/// In VlaExecMode::Native the kernels do not record op-by-op; the
/// instruction stream a whilelt strip-mined kernel would issue is a pure
/// function of (kernel shape, n, VL, tail), so it is computed once and
/// memoized in the Context's count cache.  Every chain-built kernel gets
/// its formula composed from its plan (fusion::group_counts); only the MG
/// transfer rows, which gather and so have no chain, are written out here.
/// The equivalence suite (tests/test_vla_fastpath.cpp) pins both against
/// the interpreter's recording across the full VL range and all tail
/// predicates (empty, partial, full).

#include <cstdint>

#include "sim/isa.hpp"
#include "vla/vla.hpp"

namespace v2d::linalg {

/// Kernel shapes with analytic recordings.  Values are stable cache-key
/// tags (packed with n into the Context memo key).
enum class KernelShape : std::uint8_t {
  RestrictRow,
  ProlongRow,
};

/// The exact KernelCounts the interpreter backend records for one call of
/// `shape` over n elements at vector length `vl` lanes.  `calls` and
/// `elements` are left zero (ExecContext::commit owns those).
sim::KernelCounts analytic_counts(KernelShape shape, std::uint64_t n,
                                  unsigned vl);

/// Fold the analytic recording for one `shape`(n) call into `ctx`,
/// memoized per (shape, n) in the context's count cache.
inline void record_analytic(vla::Context& ctx, KernelShape shape,
                            std::uint64_t n) {
  const std::uint64_t key =
      (static_cast<std::uint64_t>(shape) << 56) | (n & 0x00ff'ffff'ffff'ffffULL);
  ctx.add_counts(ctx.memo_counts(
      key, [&] { return analytic_counts(shape, n, ctx.lanes()); }));
}

}  // namespace v2d::linalg
