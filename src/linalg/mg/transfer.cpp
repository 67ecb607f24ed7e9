#include "linalg/mg/transfer.hpp"

#include <algorithm>
#include <vector>

#include "linalg/mg/mg_kernels.hpp"
#include "support/error.hpp"

namespace v2d::linalg::mg {

using compiler::KernelFamily;

namespace {

/// Check that the coarse tiles are parent-aligned, then build the
/// gather-index tables one transfer reads into `idx`, sized for the widest
/// tile so every row of every rank shares them: restriction's 2c−1 … 2c+2
/// per coarse zone c, or prolongation's parent and parity-adjacent coarse
/// zone per fine zone f.  Indices are tile-local (relative to a row's
/// li = 0 pointer); negative entries and one-past-the-end read the
/// exchanged ghost column.
TransferTables build_tables(const grid::Decomposition& cdec,
                            const grid::Decomposition& fdec, bool restriction,
                            std::vector<std::int64_t> (&idx)[4]) {
  int max_cni = 0;
  for (int r = 0; r < cdec.nranks(); ++r) {
    const grid::TileExtent& ce = cdec.extent(r);
    const grid::TileExtent& fe = fdec.extent(r);
    V2D_REQUIRE(fe.i0 == 2 * ce.i0 && fe.j0 == 2 * ce.j0 &&
                    fe.ni == 2 * ce.ni && fe.nj == 2 * ce.nj,
                "coarse tiles must be parent-aligned");
    max_cni = std::max(max_cni, ce.ni);
  }
  if (restriction) {
    for (std::int64_t k = 0; k < 4; ++k)
      for (std::int64_t c = 0; c < max_cni; ++c)
        idx[k].push_back(2 * c + k - 1);
    return {idx[0], idx[1], idx[2], idx[3], {}, {}};
  }
  for (std::int64_t f = 0; f < 2 * max_cni; ++f) {
    idx[0].push_back(f / 2);
    idx[1].push_back(f / 2 + ((f & 1) ? 1 : -1));
  }
  return {{}, {}, {}, {}, idx[0], idx[1]};
}

void check_pair(const DistVector& fine, const DistVector& coarse) {
  V2D_REQUIRE(fine.ns() == coarse.ns(), "species count mismatch");
  V2D_REQUIRE(fine.field().grid().nx1() == 2 * coarse.field().grid().nx1() &&
                  fine.field().grid().nx2() == 2 * coarse.field().grid().nx2(),
              "transfer levels must differ by a factor of 2");
  V2D_REQUIRE(fine.nranks() == coarse.nranks(),
              "transfer levels must share the rank layout");
}

}  // namespace

void restrict_full_weighting(ExecContext& ctx, DistVector& fine,
                             DistVector& coarse) {
  check_pair(fine, coarse);
  grid::DistField& ff = fine.field();
  const auto transfers = ff.exchange_ghosts_full();
  ff.apply_bc(grid::BcKind::Dirichlet0);  // zero extension, matching P
  ctx.exchange(transfers, "mpi_halo");

  const auto& cdec = coarse.field().decomp();
  std::vector<std::int64_t> idx[4];
  const TransferTables tab = build_tables(cdec, ff.decomp(), true, idx);

  const int ns = fine.ns();
  par_ranks(ctx, cdec, [&](int r, ExecContext& rctx) {
    const grid::TileExtent& ce = cdec.extent(r);
    const auto n = static_cast<std::size_t>(ce.ni);
    for (int s = 0; s < ns; ++s) {
      grid::TileView fv = ff.view(r, s);
      grid::TileView cv = coarse.field().view(r, s);
      for (int lcj = 0; lcj < ce.nj; ++lcj) {
        const double* frows[4] = {fv.row(2 * lcj - 1), fv.row(2 * lcj),
                                  fv.row(2 * lcj + 1), fv.row(2 * lcj + 2)};
        restrict_row(rctx.vctx, frows, tab, std::span<double>(cv.row(lcj), n));
      }
    }
    const auto elements = static_cast<std::uint64_t>(ce.ni) * ce.nj * ns;
    rctx.commit(r, KernelFamily::Precond, "mg-restrict", elements,
                fine.working_set(r, 1) + coarse.working_set(r, 1));
  });
}

void prolong_bilinear_add(ExecContext& ctx, DistVector& coarse,
                          DistVector& fine) {
  check_pair(fine, coarse);
  grid::DistField& cf = coarse.field();
  // Bilinear interpolation reaches diagonally: corner ghosts required.
  const auto transfers = cf.exchange_ghosts_full();
  cf.apply_bc(grid::BcKind::Dirichlet0);  // zero extension, matching R
  ctx.exchange(transfers, "mpi_halo");

  const auto& fdec = fine.field().decomp();
  std::vector<std::int64_t> idx[4];
  const TransferTables tab = build_tables(cf.decomp(), fdec, false, idx);

  const int ns = fine.ns();
  par_ranks(ctx, fdec, [&](int r, ExecContext& rctx) {
    const grid::TileExtent& fe = fdec.extent(r);
    const auto n = static_cast<std::size_t>(fe.ni);
    for (int s = 0; s < ns; ++s) {
      grid::TileView cv = cf.view(r, s);
      grid::TileView fv = fine.field().view(r, s);
      for (int lfj = 0; lfj < fe.nj; ++lfj) {
        const int cj_near = lfj / 2;
        const int cj_far = cj_near + ((lfj & 1) ? 1 : -1);
        prolong_row_add(rctx.vctx, cv.row(cj_near), cv.row(cj_far), tab,
                        std::span<double>(fv.row(lfj), n));
      }
    }
    const auto elements = static_cast<std::uint64_t>(fe.ni) * fe.nj * ns;
    rctx.commit(r, KernelFamily::Precond, "mg-prolong", elements,
                fine.working_set(r, 2) + coarse.working_set(r, 1));
  });
}

}  // namespace v2d::linalg::mg
