#include "linalg/stencil_op.hpp"

#include <memory>
#include <vector>

#include "linalg/fusion/fused_exec.hpp"
#include "linalg/kernels.hpp"
#include "support/dd.hpp"
#include "support/error.hpp"

namespace v2d::linalg {

using compiler::KernelFamily;

StencilOperator::StencilOperator(const grid::Grid2D& g,
                                 const grid::Decomposition& d, int ns)
    : grid_(&g),
      dec_(&d),
      ns_(ns),
      cc_(g, d, ns, 1),
      cw_(g, d, ns, 1),
      ce_(g, d, ns, 1),
      cs_(g, d, ns, 1),
      cn_(g, d, ns, 1) {}

void StencilOperator::enable_coupling() {
  V2D_REQUIRE(ns_ == 2, "species coupling is defined for ns == 2");
  if (!csp_) csp_ = std::make_unique<grid::DistField>(*grid_, *dec_, ns_, 1);
}

grid::DistField& StencilOperator::csp() {
  V2D_REQUIRE(csp_, "coupling not enabled");
  return *csp_;
}

const grid::DistField& StencilOperator::csp() const {
  V2D_REQUIRE(csp_, "coupling not enabled");
  return *csp_;
}

void StencilOperator::zero_boundary_coefficients() {
  const int gnx1 = grid_->nx1();
  const int gnx2 = grid_->nx2();
  parallel_for(dec_->nranks(), [&](int r) {
    const grid::TileExtent& e = dec_->extent(r);
    for (int s = 0; s < ns_; ++s) {
      grid::TileView w = cw_.view(r, s), ev = ce_.view(r, s);
      grid::TileView sv = cs_.view(r, s), nv = cn_.view(r, s);
      if (e.i0 == 0)
        for (int lj = 0; lj < e.nj; ++lj) w(0, lj) = 0.0;
      if (e.i0 + e.ni == gnx1)
        for (int lj = 0; lj < e.nj; ++lj) ev(e.ni - 1, lj) = 0.0;
      if (e.j0 == 0)
        for (int li = 0; li < e.ni; ++li) sv(li, 0) = 0.0;
      if (e.j0 + e.nj == gnx2)
        for (int li = 0; li < e.ni; ++li) nv(li, e.nj - 1) = 0.0;
    }
  });
}

void StencilOperator::apply(ExecContext& ctx, DistVector& x,
                            DistVector& y) const {
  apply_as(ctx, x, y, KernelFamily::Matvec, "matvec");
}

void StencilOperator::apply_as(ExecContext& ctx, DistVector& x, DistVector& y,
                               KernelFamily family,
                               const std::string& region) const {
  V2D_REQUIRE(x.ns() == ns_ && y.ns() == ns_, "species count mismatch");

  // The halo exchange is part of the matrix-free product.
  grid::DistField& xf = x.field();
  const auto transfers = xf.exchange_ghosts();
  xf.apply_bc(grid::BcKind::Dirichlet0);  // BCs are folded into coefficients
  ctx.exchange(transfers);
  if (ctx.dag != nullptr) {
    const auto gn = static_cast<std::uint64_t>(x.global_size());
    ctx.dag->op("matvec", gn, {&x, this}, {&y});
    if (csp_) ctx.dag->op("coupling", gn, {&x, this}, {&y});
  }

  auto* self = const_cast<StencilOperator*>(this);
  par_ranks(ctx, *dec_, [&](int r, ExecContext& rctx) {
    const grid::TileExtent& e = dec_->extent(r);
    const auto n = static_cast<std::size_t>(e.ni);
    for (int s = 0; s < ns_; ++s) {
      grid::TileView xv = xf.view(r, s);
      grid::TileView yv = y.field().view(r, s);
      grid::TileView vcc = self->cc_.view(r, s);
      grid::TileView vcw = self->cw_.view(r, s);
      grid::TileView vce = self->ce_.view(r, s);
      grid::TileView vcs = self->cs_.view(r, s);
      grid::TileView vcn = self->cn_.view(r, s);
      for (int lj = 0; lj < e.nj; ++lj) {
        stencil_row(rctx.vctx, std::span<const double>(vcc.row(lj), n),
                    std::span<const double>(vcw.row(lj), n),
                    std::span<const double>(vce.row(lj), n),
                    std::span<const double>(vcs.row(lj), n),
                    std::span<const double>(vcn.row(lj), n), xv.row(lj),
                    xv.row(lj - 1), xv.row(lj + 1),
                    std::span<double>(yv.row(lj), n));
      }
      if (csp_) {
        grid::TileView vsp = self->csp_->view(r, s);
        grid::TileView xo = xf.view(r, 1 - s);
        for (int lj = 0; lj < e.nj; ++lj) {
          coupling_row(rctx.vctx, std::span<const double>(vsp.row(lj), n),
                       xo.row(lj), std::span<double>(yv.row(lj), n));
        }
      }
    }
    const auto elements = static_cast<std::uint64_t>(e.ni) * e.nj * ns_;
    if (eval_doubles_read_ > 0 || eval_flops_ > 0) {
      // On-the-fly coefficient evaluation: mostly state/table reads plus
      // a little arithmetic, per element (see kMatvecEval* docs).
      rctx.vctx.record_external(sim::OpClass::LoadContig,
                                elements * eval_doubles_read_,
                                elements * eval_doubles_read_ * sizeof(double),
                                0);
      rctx.vctx.record_external(sim::OpClass::FlopFma,
                                elements * eval_flops_ / 2, 0, 0);
    }
    // Working set: x (with ghosts), y, five coefficient arrays (+coupling).
    // The on-the-fly evaluation's table/state reads revisit the same zones
    // every sweep, so they add traffic (bytes_moved) but not footprint.
    const int arrays = 7 + (csp_ ? 1 : 0);
    rctx.commit(r, family, region, elements, y.working_set(r, arrays));
  });
}

double StencilOperator::apply_dot(ExecContext& ctx, DistVector& x,
                                  DistVector& y, const DistVector* w) const {
  if (!ctx.fused()) return LinearOperator::apply_dot(ctx, x, y, w);
  V2D_REQUIRE(x.ns() == ns_ && y.ns() == ns_, "species count mismatch");
  grid::DistField& xf = x.field();
  const auto transfers = xf.exchange_ghosts();
  xf.apply_bc(grid::BcKind::Dirichlet0);
  ctx.exchange(transfers);
  if (ctx.dag != nullptr) {
    const auto gn = static_cast<std::uint64_t>(x.global_size());
    ctx.dag->op("matvec", gn, {&x, this}, {&y});
    ctx.dag->op("dot", gn, {&y, w != nullptr ? static_cast<const void*>(w)
                                             : static_cast<const void*>(&x)},
                {});
  }

  auto* self = const_cast<StencilOperator*>(this);
  auto* wv = const_cast<DistVector*>(w);
  const int nranks = dec_->nranks();
  // Per-rank compensated lane sets collapsed in rank order below — the
  // same accumulation dot_ganged performs, so the result is bit-identical
  // to the unfused apply() + dot() and independent of the host-thread count.
  std::vector<DdLanes> partial(static_cast<std::size_t>(nranks));
  par_ranks(ctx, *dec_, [&](int r, ExecContext& rctx) {
    const grid::TileExtent& e = dec_->extent(r);
    const auto n = static_cast<std::size_t>(e.ni);
    DdLanes& acc = partial[static_cast<std::size_t>(r)];
    for (int s = 0; s < ns_; ++s) {
      grid::TileView xv = xf.view(r, s);
      grid::TileView yv = y.field().view(r, s);
      grid::TileView vcc = self->cc_.view(r, s);
      grid::TileView vcw = self->cw_.view(r, s);
      grid::TileView vce = self->ce_.view(r, s);
      grid::TileView vcs = self->cs_.view(r, s);
      grid::TileView vcn = self->cn_.view(r, s);
      for (int lj = 0; lj < e.nj; ++lj) {
        const double* csp_row = nullptr;
        const double* xo_row = nullptr;
        if (csp_) {
          csp_row = self->csp_->view(r, s).row(lj);
          xo_row = xf.view(r, 1 - s).row(lj);
        }
        const double* wrow =
            wv != nullptr ? wv->field().view(r, s).row(lj) : xv.row(lj);
        fusion::stencil_row_fused(
            rctx.vctx, std::span<const double>(vcc.row(lj), n),
            std::span<const double>(vcw.row(lj), n),
            std::span<const double>(vce.row(lj), n),
            std::span<const double>(vcs.row(lj), n),
            std::span<const double>(vcn.row(lj), n), xv.row(lj),
            xv.row(lj - 1), xv.row(lj + 1), csp_row, xo_row,
            /*bsub=*/nullptr, wrow, &acc,
            std::span<double>(yv.row(lj), n));
      }
    }
    const auto elements = static_cast<std::uint64_t>(e.ni) * e.nj * ns_;
    if (eval_doubles_read_ > 0 || eval_flops_ > 0) {
      rctx.vctx.record_external(sim::OpClass::LoadContig,
                                elements * eval_doubles_read_,
                                elements * eval_doubles_read_ * sizeof(double),
                                0);
      rctx.vctx.record_external(sim::OpClass::FlopFma,
                                elements * eval_flops_ / 2, 0, 0);
    }
    // Working set: the matvec's arrays plus w when it is a distinct
    // vector; the dot itself streams nothing extra.
    const int arrays = 7 + (csp_ ? 1 : 0) + (wv != nullptr ? 1 : 0);
    rctx.commit(r, compiler::KernelFamily::Matvec, "matvec-dot", elements,
                y.working_set(r, arrays));
  });
  // The folded dot still pays its single global reduction.
  ctx.allreduce(sizeof(double));
  DdAccumulator total;
  for (const DdLanes& p : partial) p.collapse_into(total);
  return total.value();
}

void StencilOperator::apply_residual(ExecContext& ctx, DistVector& x,
                                     const DistVector& b, DistVector& r) const {
  // The unfused product books as a plain "matvec"; only the one-pass form
  // is a region of its own.
  apply_residual_as(ctx, x, b, r, KernelFamily::Matvec,
                    ctx.fused() ? "matvec-residual" : "matvec");
}

void StencilOperator::apply_residual_as(ExecContext& ctx, DistVector& x,
                                        const DistVector& b, DistVector& r,
                                        KernelFamily family,
                                        const std::string& region) const {
  if (!ctx.fused()) {
    apply_as(ctx, x, r, family, region);
    r.assign_sub(ctx, b, r);
    return;
  }
  V2D_REQUIRE(x.ns() == ns_ && b.ns() == ns_ && r.ns() == ns_,
              "species count mismatch");
  grid::DistField& xf = x.field();
  const auto transfers = xf.exchange_ghosts();
  xf.apply_bc(grid::BcKind::Dirichlet0);
  ctx.exchange(transfers);
  if (ctx.dag != nullptr) {
    const auto gn = static_cast<std::uint64_t>(x.global_size());
    ctx.dag->op("matvec", gn, {&x, this}, {&r});
    ctx.dag->op("sub", gn, {&b, &r}, {&r});
  }

  auto* self = const_cast<StencilOperator*>(this);
  grid::DistField& bf = const_cast<DistVector&>(b).field();
  par_ranks(ctx, *dec_, [&](int rank, ExecContext& rctx) {
    const grid::TileExtent& e = dec_->extent(rank);
    const auto n = static_cast<std::size_t>(e.ni);
    for (int s = 0; s < ns_; ++s) {
      grid::TileView xv = xf.view(rank, s);
      grid::TileView bv = bf.view(rank, s);
      grid::TileView rv = r.field().view(rank, s);
      grid::TileView vcc = self->cc_.view(rank, s);
      grid::TileView vcw = self->cw_.view(rank, s);
      grid::TileView vce = self->ce_.view(rank, s);
      grid::TileView vcs = self->cs_.view(rank, s);
      grid::TileView vcn = self->cn_.view(rank, s);
      for (int lj = 0; lj < e.nj; ++lj) {
        const double* csp_row = nullptr;
        const double* xo_row = nullptr;
        if (csp_) {
          csp_row = self->csp_->view(rank, s).row(lj);
          xo_row = xf.view(rank, 1 - s).row(lj);
        }
        fusion::stencil_row_fused(
            rctx.vctx, std::span<const double>(vcc.row(lj), n),
            std::span<const double>(vcw.row(lj), n),
            std::span<const double>(vce.row(lj), n),
            std::span<const double>(vcs.row(lj), n),
            std::span<const double>(vcn.row(lj), n), xv.row(lj),
            xv.row(lj - 1), xv.row(lj + 1), csp_row, xo_row,
            /*bsub=*/bv.row(lj), /*wdot=*/nullptr,
            /*dot=*/nullptr, std::span<double>(rv.row(lj), n));
      }
    }
    const auto elements = static_cast<std::uint64_t>(e.ni) * e.nj * ns_;
    if (eval_doubles_read_ > 0 || eval_flops_ > 0) {
      rctx.vctx.record_external(sim::OpClass::LoadContig,
                                elements * eval_doubles_read_,
                                elements * eval_doubles_read_ * sizeof(double),
                                0);
      rctx.vctx.record_external(sim::OpClass::FlopFma,
                                elements * eval_flops_ / 2, 0, 0);
    }
    // Working set: x (with ghosts), b, r, five coefficient arrays
    // (+coupling) — one array more than the plain product, two passes
    // fewer than the unfused apply + assign_sub.
    const int arrays = 8 + (csp_ ? 1 : 0);
    rctx.commit(rank, family, region, elements, r.working_set(rank, arrays));
  });
}

BandedMatrix StencilOperator::assemble() const {
  const std::int64_t nx1 = grid_->nx1();
  const std::int64_t plane = nx1 * grid_->nx2();
  std::vector<std::int64_t> offsets = {0, -1, 1, -nx1, nx1};
  if (csp_) {
    offsets.push_back(-plane);
    offsets.push_back(plane);
  }
  BandedMatrix A(size(), std::move(offsets));

  auto* self = const_cast<StencilOperator*>(this);
  for (int r = 0; r < dec_->nranks(); ++r) {
    const grid::TileExtent& e = dec_->extent(r);
    for (int s = 0; s < ns_; ++s) {
      grid::TileView vcc = self->cc_.view(r, s);
      grid::TileView vcw = self->cw_.view(r, s);
      grid::TileView vce = self->ce_.view(r, s);
      grid::TileView vcs = self->cs_.view(r, s);
      grid::TileView vcn = self->cn_.view(r, s);
      for (int lj = 0; lj < e.nj; ++lj) {
        for (int li = 0; li < e.ni; ++li) {
          const int gi = e.i0 + li, gj = e.j0 + lj;
          const std::int64_t row = grid_->linear_index(s, gi, gj);
          A.at(row, 0) = vcc(li, lj);
          if (gi > 0) A.at(row, -1) = vcw(li, lj);
          if (gi + 1 < nx1) A.at(row, 1) = vce(li, lj);
          if (gj > 0) A.at(row, -nx1) = vcs(li, lj);
          if (gj + 1 < grid_->nx2()) A.at(row, nx1) = vcn(li, lj);
          if (csp_) {
            grid::TileView vsp = self->csp_->view(r, s);
            A.at(row, s == 0 ? plane : -plane) = vsp(li, lj);
          }
        }
      }
    }
  }
  return A;
}

}  // namespace v2d::linalg
