#include "linalg/mg/transfer.hpp"

#include <algorithm>
#include <vector>

#include "linalg/mg/mg_kernels.hpp"
#include "support/error.hpp"

namespace v2d::linalg::mg {

using compiler::KernelFamily;

namespace {

/// Gather-index tables shared by every row sweep of one transfer call.
/// Indices are tile-local (relative to a row's li = 0 pointer); negative
/// entries and one-past-the-end read the exchanged ghost column.
struct IndexTables {
  std::vector<std::int64_t> fm1, f0, f1, f2;  // restriction: 2c−1 … 2c+2
  std::vector<std::int64_t> near, far;        // prolongation: parent / parity

  TransferTables spans() const {
    return TransferTables{fm1, f0, f1, f2, near, far};
  }
};

IndexTables build_tables(int coarse_ni, int fine_ni) {
  IndexTables t;
  t.fm1.resize(static_cast<std::size_t>(coarse_ni));
  t.f0.resize(static_cast<std::size_t>(coarse_ni));
  t.f1.resize(static_cast<std::size_t>(coarse_ni));
  t.f2.resize(static_cast<std::size_t>(coarse_ni));
  for (int c = 0; c < coarse_ni; ++c) {
    t.fm1[static_cast<std::size_t>(c)] = 2 * c - 1;
    t.f0[static_cast<std::size_t>(c)] = 2 * c;
    t.f1[static_cast<std::size_t>(c)] = 2 * c + 1;
    t.f2[static_cast<std::size_t>(c)] = 2 * c + 2;
  }
  t.near.resize(static_cast<std::size_t>(fine_ni));
  t.far.resize(static_cast<std::size_t>(fine_ni));
  for (int f = 0; f < fine_ni; ++f) {
    const int parent = f / 2;
    t.near[static_cast<std::size_t>(f)] = parent;
    t.far[static_cast<std::size_t>(f)] = parent + ((f & 1) ? 1 : -1);
  }
  return t;
}

void check_pair(const DistVector& fine, const DistVector& coarse) {
  V2D_REQUIRE(fine.ns() == coarse.ns(), "species count mismatch");
  V2D_REQUIRE(fine.field().grid().nx1() == 2 * coarse.field().grid().nx1() &&
                  fine.field().grid().nx2() == 2 * coarse.field().grid().nx2(),
              "transfer levels must differ by a factor of 2");
  V2D_REQUIRE(fine.nranks() == coarse.nranks(),
              "transfer levels must share the rank layout");
}

void check_parent_aligned(const grid::Decomposition& cdec,
                          const grid::Decomposition& fdec) {
  for (int r = 0; r < cdec.nranks(); ++r) {
    const grid::TileExtent& ce = cdec.extent(r);
    const grid::TileExtent& fe = fdec.extent(r);
    V2D_REQUIRE(fe.i0 == 2 * ce.i0 && fe.j0 == 2 * ce.j0 &&
                    fe.ni == 2 * ce.ni && fe.nj == 2 * ce.nj,
                "coarse tiles must be parent-aligned");
  }
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
  const auto& fdec = ff.decomp();
  check_parent_aligned(cdec, fdec);
  int max_cni = 0, max_fni = 0;
  for (int r = 0; r < cdec.nranks(); ++r) {
    max_cni = std::max(max_cni, cdec.extent(r).ni);
    max_fni = std::max(max_fni, fdec.extent(r).ni);
  }
  const IndexTables tab = build_tables(max_cni, max_fni);

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
        restrict_row(rctx.vctx, frows, tab.spans(),
                     std::span<double>(cv.row(lcj), n));
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

  const auto& cdec = cf.decomp();
  const auto& fdec = fine.field().decomp();
  check_parent_aligned(cdec, fdec);
  int max_cni = 0, max_fni = 0;
  for (int r = 0; r < cdec.nranks(); ++r) {
    max_cni = std::max(max_cni, cdec.extent(r).ni);
    max_fni = std::max(max_fni, fdec.extent(r).ni);
  }
  const IndexTables tab = build_tables(max_cni, max_fni);

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
        prolong_row_add(rctx.vctx, cv.row(cj_near), cv.row(cj_far),
                        tab.spans(), std::span<double>(fv.row(lfj), n));
      }
    }
    const auto elements = static_cast<std::uint64_t>(fe.ni) * fe.nj * ns;
    rctx.commit(r, KernelFamily::Precond, "mg-prolong", elements,
                fine.working_set(r, 2) + coarse.working_set(r, 1));
  });
}

}  // namespace v2d::linalg::mg
