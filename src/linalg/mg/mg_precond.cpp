#include "linalg/mg/mg_precond.hpp"

#include <algorithm>
#include <vector>

#include "linalg/mg/transfer.hpp"
#include "support/error.hpp"

namespace v2d::linalg::mg {

using compiler::KernelFamily;

MgPrecond::MgPrecond(ExecContext& ctx, const StencilOperator& A, MgOptions opt)
    : hierarchy_(ctx, A, std::move(opt)),
      smoother_(make_smoother(hierarchy_.options())) {}

void MgPrecond::apply(ExecContext& ctx, DistVector& x, DistVector& y) {
  vcycle(ctx, 0, y, x);
}

void MgPrecond::vcycle(ExecContext& ctx, int l, DistVector& x, DistVector& b) {
  MgLevel& lvl = hierarchy_.level(l);
  if (l == hierarchy_.nlevels() - 1) {
    coarse_solve(ctx, x, b);
    return;
  }
  const MgOptions& opt = hierarchy_.options();
  // Every V-cycle level starts from a zero correction.
  smoother_->smooth(ctx, lvl, x, b, opt.nu_pre, /*zero_guess=*/true);
  lvl.op->apply_residual_as(ctx, x, b, lvl.r, KernelFamily::Precond,
                            "mg-residual");

  MgLevel& next = hierarchy_.level(l + 1);
  restrict_full_weighting(ctx, lvl.r, *next.b);
  vcycle(ctx, l + 1, *next.x, *next.b);
  prolong_bilinear_add(ctx, *next.x, x);

  smoother_->smooth(ctx, lvl, x, b, opt.nu_post, /*zero_guess=*/false);
}

void MgPrecond::coarse_solve(ExecContext& ctx, DistVector& x, DistVector& b) {
  const BandedLU& lu = hierarchy_.coarse_lu();
  // Gather the coarse rhs to every rank (modelled as one allreduce of the
  // full coarse vector), solve redundantly, keep the owned tile.
  std::vector<double> rhs = b.field().gather_global();
  ctx.allreduce(rhs.size() * sizeof(double), "mg-coarse-gather");
  lu.solve(rhs);

  const auto& dec = x.field().decomp();
  const grid::Grid2D& g = x.field().grid();
  const auto n = static_cast<std::uint64_t>(lu.size());
  par_ranks(ctx, dec, [&](int r, ExecContext& rctx) {
    const grid::TileExtent& e = dec.extent(r);
    for (int s = 0; s < x.ns(); ++s) {
      grid::TileView xv = x.field().view(r, s);
      for (int lj = 0; lj < e.nj; ++lj)
        for (int li = 0; li < e.ni; ++li)
          xv(li, lj) = rhs[static_cast<std::size_t>(
              g.linear_index(s, e.i0 + li, e.j0 + lj))];
    }
    // Each rank runs the identical banded solve: ~2·(kl+ku) flops per row
    // over a (kl+ku+1)-wide band working set.
    rctx.commit_synthetic(
        r, KernelFamily::Precond, "mg-coarse-solve", n,
        lu.solve_flops() / std::max<std::uint64_t>(1, n), 32, 8,
        n * 8 *
            static_cast<std::uint64_t>(lu.lower_bandwidth() +
                                       lu.upper_bandwidth() + 1));
  });
}

}  // namespace v2d::linalg::mg
