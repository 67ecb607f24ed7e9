#include "linalg/stencil_op.hpp"

#include <memory>
#include <vector>

#include "linalg/fusion/fused_exec.hpp"
#include "linalg/kernels.hpp"
#include "support/dd.hpp"
#include "support/error.hpp"
#include "support/task_graph.hpp"

namespace v2d::linalg {

using compiler::KernelFamily;

namespace {

/// Graph-mode stencil application: per rank, a four-task subgraph that
/// overlaps halo packing with interior compute —
///
///   A_r: W/E ghost-column copies + x1 boundary conditions
///   C_r: S/N ghost-row copies + x2 boundary conditions   (after A_r: the
///        x2 BC pass sources domain-edge corners from the x1 ghosts)
///   B_r: interior stencil rows 1..nj-2                   (after A_r: rows
///        read the W/E ghost columns, but not the S/N ghost rows)
///   D_r: boundary rows 0 and nj-1 + the rank's commit    (after B_r, C_r)
///
/// so a rank's interior compute starts as soon as its own ghost columns
/// land, while other ranks are still packing.  B_r and D_r share one
/// fork()ed per-rank context (D_r runs strictly after B_r), keeping the
/// recording/commit stream identical to the single-task sweep.  The
/// subgraph drains before returning: overlap is within the operator
/// application, so callers never see a half-applied product.
template <typename Rows, typename Finish>
void build_overlap_graph(ExecContext& ctx, task_graph::Session& ses,
                         const grid::Decomposition& dec, grid::DistField& xf,
                         Rows rows, Finish finish) {
  grid::DistField* xfp = &xf;
  for (int r = 0; r < dec.nranks(); ++r) {
    const int nj = dec.extent(r).nj;
    auto rctx = std::make_shared<ExecContext>(ctx.fork());
    auto* a = ses.create([xfp, r] {
      xfp->copy_halo(r, /*x1_dirs=*/true);
      xfp->apply_bc_dir(grid::BcKind::Dirichlet0, r, /*x1_dirs=*/true);
    });
    auto* c = ses.create([xfp, r] {
      xfp->copy_halo(r, /*x1_dirs=*/false);
      xfp->apply_bc_dir(grid::BcKind::Dirichlet0, r, /*x1_dirs=*/false);
    });
    ses.add_dep(c, a);
    task_graph::Session::Task* b = nullptr;
    if (nj > 2) {
      b = ses.create([rows, rctx, r, nj] { rows(*rctx, r, 1, nj - 1); });
      ses.add_dep(b, a);
    }
    auto* d = ses.create([rows, finish, rctx, r, nj] {
      rows(*rctx, r, 0, 1);
      if (nj > 1) rows(*rctx, r, nj - 1, nj);
      finish(*rctx, r);
    });
    ses.add_dep(d, c);
    ses.add_dep(d, b != nullptr ? b : a);
    ses.submit(a);
    ses.submit(c);
    if (b != nullptr) ses.submit(b);
    ses.submit(d);
  }
  ses.sync();
}

}  // namespace

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
  task_graph::Session* ses = task_graph::current();
  const bool overlap = ses != nullptr && !task_graph::in_task();
  if (overlap) {
    // Graph mode: price the exchange up front — the Transfer list is
    // analytically identical to the one the copies below imply, and the
    // collective is a join node that drains any chained predecessors.  The
    // strip copies themselves become per-rank overlap tasks.
    ctx.exchange(xf.ghost_transfer_plan());
  } else {
    const auto transfers = xf.exchange_ghosts();
    xf.apply_bc(grid::BcKind::Dirichlet0);  // BCs are folded into coefficients
    ctx.exchange(transfers);
  }
  if (ctx.dag != nullptr) {
    const auto gn = static_cast<std::uint64_t>(x.global_size());
    ctx.dag->op("matvec", gn, {&x, this}, {&y});
    if (csp_) ctx.dag->op("coupling", gn, {&x, this}, {&y});
  }

  auto* self = const_cast<StencilOperator*>(this);
  grid::DistField* xfp = &xf;
  DistVector* yp = &y;
  // Stencil rows [lo, hi) of rank r.  Per-zone results depend only on x,
  // the ghosts and the coefficients — never on row grouping — and the VLA
  // recording is a commutative sum, so any split over rows commits the
  // same values and the same counts as the single full sweep.
  auto rows = [self, xfp, yp](ExecContext& rctx, int r, int lo, int hi) {
    const grid::TileExtent& e = self->dec_->extent(r);
    const auto n = static_cast<std::size_t>(e.ni);
    for (int s = 0; s < self->ns_; ++s) {
      grid::TileView xv = xfp->view(r, s);
      grid::TileView yv = yp->field().view(r, s);
      grid::TileView vcc = self->cc_.view(r, s);
      grid::TileView vcw = self->cw_.view(r, s);
      grid::TileView vce = self->ce_.view(r, s);
      grid::TileView vcs = self->cs_.view(r, s);
      grid::TileView vcn = self->cn_.view(r, s);
      for (int lj = lo; lj < hi; ++lj) {
        stencil_row(rctx.vctx, std::span<const double>(vcc.row(lj), n),
                    std::span<const double>(vcw.row(lj), n),
                    std::span<const double>(vce.row(lj), n),
                    std::span<const double>(vcs.row(lj), n),
                    std::span<const double>(vcn.row(lj), n), xv.row(lj),
                    xv.row(lj - 1), xv.row(lj + 1),
                    std::span<double>(yv.row(lj), n));
      }
      if (self->csp_) {
        grid::TileView vsp = self->csp_->view(r, s);
        grid::TileView xo = xfp->view(r, 1 - s);
        for (int lj = lo; lj < hi; ++lj) {
          coupling_row(rctx.vctx, std::span<const double>(vsp.row(lj), n),
                       xo.row(lj), std::span<double>(yv.row(lj), n));
        }
      }
    }
  };
  auto finish = [self, yp, family, region](ExecContext& rctx, int r) {
    const grid::TileExtent& e = self->dec_->extent(r);
    const auto elements = static_cast<std::uint64_t>(e.ni) * e.nj * self->ns_;
    if (self->eval_doubles_read_ > 0 || self->eval_flops_ > 0) {
      // On-the-fly coefficient evaluation: mostly state/table reads plus
      // a little arithmetic, per element (see kMatvecEval* docs).
      rctx.vctx.record_external(
          sim::OpClass::LoadContig, elements * self->eval_doubles_read_,
          elements * self->eval_doubles_read_ * sizeof(double), 0);
      rctx.vctx.record_external(sim::OpClass::FlopFma,
                                elements * self->eval_flops_ / 2, 0, 0);
    }
    // Working set: x (with ghosts), y, five coefficient arrays (+coupling).
    // The on-the-fly evaluation's table/state reads revisit the same zones
    // every sweep, so they add traffic (bytes_moved) but not footprint.
    const int arrays = 7 + (self->csp_ ? 1 : 0);
    rctx.commit(r, family, region, elements, yp->working_set(r, arrays));
  };

  if (overlap) {
    build_overlap_graph(ctx, *ses, *dec_, xf, rows, finish);
    return;
  }
  par_ranks(ctx, *dec_, [&](int r, ExecContext& rctx) {
    rows(rctx, r, 0, dec_->extent(r).nj);
    finish(rctx, r);
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
  task_graph::Session* ses = task_graph::current();
  const bool overlap = ses != nullptr && !task_graph::in_task();
  if (overlap) {
    ctx.exchange(xf.ghost_transfer_plan());
  } else {
    const auto transfers = xf.exchange_ghosts();
    xf.apply_bc(grid::BcKind::Dirichlet0);
    ctx.exchange(transfers);
  }
  if (ctx.dag != nullptr) {
    const auto gn = static_cast<std::uint64_t>(x.global_size());
    ctx.dag->op("matvec", gn, {&x, this}, {&r});
    ctx.dag->op("sub", gn, {&b, &r}, {&r});
  }

  auto* self = const_cast<StencilOperator*>(this);
  grid::DistField* xfp = &xf;
  grid::DistField* bfp = &const_cast<DistVector&>(b).field();
  DistVector* rp = &r;
  auto rows = [self, xfp, bfp, rp](ExecContext& rctx, int rank, int lo,
                                   int hi) {
    const grid::TileExtent& e = self->dec_->extent(rank);
    const auto n = static_cast<std::size_t>(e.ni);
    for (int s = 0; s < self->ns_; ++s) {
      grid::TileView xv = xfp->view(rank, s);
      grid::TileView bv = bfp->view(rank, s);
      grid::TileView rv = rp->field().view(rank, s);
      grid::TileView vcc = self->cc_.view(rank, s);
      grid::TileView vcw = self->cw_.view(rank, s);
      grid::TileView vce = self->ce_.view(rank, s);
      grid::TileView vcs = self->cs_.view(rank, s);
      grid::TileView vcn = self->cn_.view(rank, s);
      for (int lj = lo; lj < hi; ++lj) {
        const double* csp_row = nullptr;
        const double* xo_row = nullptr;
        if (self->csp_) {
          csp_row = self->csp_->view(rank, s).row(lj);
          xo_row = xfp->view(rank, 1 - s).row(lj);
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
  };
  auto finish = [self, rp, family, region](ExecContext& rctx, int rank) {
    const grid::TileExtent& e = self->dec_->extent(rank);
    const auto elements = static_cast<std::uint64_t>(e.ni) * e.nj * self->ns_;
    if (self->eval_doubles_read_ > 0 || self->eval_flops_ > 0) {
      rctx.vctx.record_external(
          sim::OpClass::LoadContig, elements * self->eval_doubles_read_,
          elements * self->eval_doubles_read_ * sizeof(double), 0);
      rctx.vctx.record_external(sim::OpClass::FlopFma,
                                elements * self->eval_flops_ / 2, 0, 0);
    }
    // Working set: x (with ghosts), b, r, five coefficient arrays
    // (+coupling) — one array more than the plain product, two passes
    // fewer than the unfused apply + assign_sub.
    const int arrays = 8 + (self->csp_ ? 1 : 0);
    rctx.commit(rank, family, region, elements,
                rp->working_set(rank, arrays));
  };

  if (overlap) {
    build_overlap_graph(ctx, *ses, *dec_, xf, rows, finish);
    return;
  }
  par_ranks(ctx, *dec_, [&](int rank, ExecContext& rctx) {
    rows(rctx, rank, 0, dec_->extent(rank).nj);
    finish(rctx, rank);
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
