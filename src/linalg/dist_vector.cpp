#include "linalg/dist_vector.hpp"

#include <cmath>

#include "linalg/fusion/fused_exec.hpp"
#include "linalg/kernels.hpp"
#include "support/dd.hpp"
#include "support/error.hpp"

namespace v2d::linalg {

using compiler::KernelFamily;

namespace {
void require_same_shape(const DistVector& a, const DistVector& b) {
  V2D_REQUIRE(a.ns() == b.ns() && a.nranks() == b.nranks() &&
                  a.global_size() == b.global_size(),
              "distributed vectors have different shapes");
}

/// DAG-capture hook: record one primitive launch of `name` over the whole
/// vector when the driving context is capturing (see linalg/dag_capture.hpp).
void dag_op(ExecContext& ctx, const char* name, const DistVector& shape,
            std::initializer_list<const void*> reads,
            std::initializer_list<const void*> writes) {
  if (ctx.dag != nullptr)
    ctx.dag->op(name, static_cast<std::uint64_t>(shape.global_size()), reads,
                writes);
}
}  // namespace

std::uint64_t DistVector::working_set(int rank, int arrays) const {
  const grid::TileExtent& e = field_.decomp().extent(rank);
  return static_cast<std::uint64_t>(arrays) * field_.ns() *
         static_cast<std::uint64_t>(e.ni) * e.nj * sizeof(double);
}

template <typename RowOp>
void DistVector::for_each_row(ExecContext& ctx, KernelFamily family,
                              const std::string& region, int arrays,
                              RowOp&& op) {
  par_ranks(ctx, field_, [&](int r, ExecContext& rctx) {
    const grid::TileExtent& e = field_.decomp().extent(r);
    for (int s = 0; s < ns(); ++s) {
      for (int lj = 0; lj < e.nj; ++lj) {
        op(rctx, r, s, lj, static_cast<std::size_t>(e.ni));
      }
    }
    const auto elements = static_cast<std::uint64_t>(e.ni) * e.nj * ns();
    rctx.commit(r, family, region, elements, working_set(r, arrays));
  });
}

void DistVector::daxpy(ExecContext& ctx, double a, const DistVector& x) {
  require_same_shape(*this, x);
  dag_op(ctx, "daxpy", *this, {&x, this}, {this});
  for_each_row(ctx, KernelFamily::Daxpy, "daxpy", 2,
               [this, a, xp = &x](ExecContext& rctx, int r, int s, int lj,
                                  std::size_t n) {
                 grid::TileView xv =
                     const_cast<DistVector*>(xp)->field().view(r, s);
                 grid::TileView yv = field_.view(r, s);
                 linalg::daxpy(rctx.vctx, a,
                               std::span<const double>(xv.row(lj), n),
                               std::span<double>(yv.row(lj), n));
               });
}

void DistVector::dscal(ExecContext& ctx, double c, double d) {
  dag_op(ctx, "dscal", *this, {this}, {this});
  for_each_row(ctx, KernelFamily::Dscal, "dscal", 1,
               [this, c, d](ExecContext& rctx, int r, int s, int lj,
                            std::size_t n) {
                 grid::TileView yv = field_.view(r, s);
                 linalg::dscal(rctx.vctx, c, d,
                               std::span<double>(yv.row(lj), n));
               });
}

void DistVector::ddaxpy(ExecContext& ctx, double a, const DistVector& x,
                        double b, const DistVector& y) {
  require_same_shape(*this, x);
  require_same_shape(*this, y);
  dag_op(ctx, "ddaxpy", *this, {&x, &y, this}, {this});
  for_each_row(ctx, KernelFamily::Ddaxpy, "ddaxpy", 3,
               [this, a, b, xp = &x, yp = &y](ExecContext& rctx, int r, int s,
                                              int lj, std::size_t n) {
                 grid::TileView xv =
                     const_cast<DistVector*>(xp)->field().view(r, s);
                 grid::TileView yv =
                     const_cast<DistVector*>(yp)->field().view(r, s);
                 grid::TileView zv = field_.view(r, s);
                 linalg::ddaxpy(rctx.vctx, a,
                                std::span<const double>(xv.row(lj), n), b,
                                std::span<const double>(yv.row(lj), n),
                                std::span<double>(zv.row(lj), n));
               });
}

void DistVector::xpby(ExecContext& ctx, const DistVector& x, double b) {
  require_same_shape(*this, x);
  dag_op(ctx, "xpby", *this, {&x, this}, {this});
  for_each_row(ctx, KernelFamily::VecMisc, "xpby", 2,
               [this, b, xp = &x](ExecContext& rctx, int r, int s, int lj,
                                  std::size_t n) {
                 grid::TileView xv =
                     const_cast<DistVector*>(xp)->field().view(r, s);
                 grid::TileView yv = field_.view(r, s);
                 linalg::xpby(rctx.vctx,
                              std::span<const double>(xv.row(lj), n), b,
                              std::span<double>(yv.row(lj), n));
               });
}

void DistVector::copy_from(ExecContext& ctx, const DistVector& x) {
  require_same_shape(*this, x);
  dag_op(ctx, "copy", *this, {&x}, {this});
  for_each_row(ctx, KernelFamily::VecMisc, "copy", 2,
               [this, xp = &x](ExecContext& rctx, int r, int s, int lj,
                               std::size_t n) {
                 grid::TileView xv =
                     const_cast<DistVector*>(xp)->field().view(r, s);
                 grid::TileView yv = field_.view(r, s);
                 linalg::copy(rctx.vctx,
                              std::span<const double>(xv.row(lj), n),
                              std::span<double>(yv.row(lj), n));
               });
}

void DistVector::fill(ExecContext& ctx, double a) {
  dag_op(ctx, "fill", *this, {}, {this});
  for_each_row(ctx, KernelFamily::VecMisc, "fill", 1,
               [this, a](ExecContext& rctx, int r, int s, int lj,
                         std::size_t n) {
                 grid::TileView yv = field_.view(r, s);
                 linalg::fill(rctx.vctx, a, std::span<double>(yv.row(lj), n));
               });
}

void DistVector::assign_sub(ExecContext& ctx, const DistVector& x,
                            const DistVector& y) {
  require_same_shape(*this, x);
  require_same_shape(*this, y);
  dag_op(ctx, "sub", *this, {&x, &y}, {this});
  for_each_row(ctx, KernelFamily::VecMisc, "sub", 3,
               [this, xp = &x, yp = &y](ExecContext& rctx, int r, int s,
                                        int lj, std::size_t n) {
                 grid::TileView xv =
                     const_cast<DistVector*>(xp)->field().view(r, s);
                 grid::TileView yv =
                     const_cast<DistVector*>(yp)->field().view(r, s);
                 grid::TileView zv = field_.view(r, s);
                 linalg::sub(rctx.vctx,
                             std::span<const double>(xv.row(lj), n),
                             std::span<const double>(yv.row(lj), n),
                             std::span<double>(zv.row(lj), n));
               });
}

void DistVector::daxpy2(ExecContext& ctx, DistVector& x, double a,
                        const DistVector& p, DistVector& r, double b,
                        const DistVector& q) {
  if (!ctx.fused()) {
    x.daxpy(ctx, a, p);
    r.daxpy(ctx, b, q);
    return;
  }
  require_same_shape(x, p);
  require_same_shape(x, r);
  require_same_shape(x, q);
  dag_op(ctx, "daxpy", x, {&p, &x}, {&x});
  dag_op(ctx, "daxpy", x, {&q, &r}, {&r});
  x.for_each_row(ctx, KernelFamily::Daxpy, "daxpy2", 4,
                 [a, b, xp = &x, pp = &p, rp = &r, qp = &q](
                     ExecContext& rctx, int rk, int s, int lj, std::size_t n) {
                   grid::TileView pv =
                       const_cast<DistVector*>(pp)->field().view(rk, s);
                   grid::TileView qv =
                       const_cast<DistVector*>(qp)->field().view(rk, s);
                   grid::TileView xv = xp->field().view(rk, s);
                   grid::TileView rv = rp->field().view(rk, s);
                   fusion::daxpy2(rctx.vctx, a,
                                  std::span<const double>(pv.row(lj), n),
                                  std::span<double>(xv.row(lj), n), b,
                                  std::span<const double>(qv.row(lj), n),
                                  std::span<double>(rv.row(lj), n));
                 });
}

void DistVector::assign_axpy(ExecContext& ctx, const DistVector& x, double a,
                             const DistVector& z) {
  if (!ctx.fused()) {
    copy_from(ctx, x);
    daxpy(ctx, a, z);
    return;
  }
  require_same_shape(*this, x);
  require_same_shape(*this, z);
  dag_op(ctx, "copy", *this, {&x}, {this});
  dag_op(ctx, "daxpy", *this, {&z, this}, {this});
  for_each_row(ctx, KernelFamily::VecMisc, "axpy", 3,
               [this, a, xp = &x, zp = &z](ExecContext& rctx, int r, int s,
                                           int lj, std::size_t n) {
                 grid::TileView xv =
                     const_cast<DistVector*>(xp)->field().view(r, s);
                 grid::TileView zv =
                     const_cast<DistVector*>(zp)->field().view(r, s);
                 grid::TileView yv = field_.view(r, s);
                 fusion::axpy_out(rctx.vctx,
                                  std::span<const double>(xv.row(lj), n), a,
                                  std::span<const double>(zv.row(lj), n),
                                  std::span<double>(yv.row(lj), n));
               });
}

void DistVector::fused_p_update(ExecContext& ctx, const DistVector& x,
                                double b, double w, const DistVector& v) {
  if (!ctx.fused()) {
    daxpy(ctx, -w, v);
    xpby(ctx, x, b);
    return;
  }
  require_same_shape(*this, x);
  require_same_shape(*this, v);
  dag_op(ctx, "daxpy", *this, {&v, this}, {this});
  dag_op(ctx, "xpby", *this, {&x, this}, {this});
  for_each_row(ctx, KernelFamily::VecMisc, "p-update", 3,
               [this, b, w, xp = &x, vp = &v](ExecContext& rctx, int r, int s,
                                              int lj, std::size_t n) {
                 grid::TileView xv =
                     const_cast<DistVector*>(xp)->field().view(r, s);
                 grid::TileView vv =
                     const_cast<DistVector*>(vp)->field().view(r, s);
                 grid::TileView pv = field_.view(r, s);
                 fusion::p_update(rctx.vctx,
                                  std::span<const double>(xv.row(lj), n), b, w,
                                  std::span<const double>(vv.row(lj), n),
                                  std::span<double>(pv.row(lj), n));
               });
}

double DistVector::dot(ExecContext& ctx, const DistVector& x,
                       const DistVector& y) {
  const DotPair pair{&x, &y};
  return dot_ganged(ctx, std::span<const DotPair>(&pair, 1))[0];
}

std::vector<double> DistVector::dot_ganged(ExecContext& ctx,
                                           std::span<const DotPair> pairs) {
  V2D_REQUIRE(!pairs.empty(), "dot_ganged: no pairs");
  const DistVector& first = *pairs[0].x;
  for (const DotPair& pr : pairs) {
    require_same_shape(*pr.x, *pr.y);
    require_same_shape(*pr.x, first);
  }
  // Compensated lane accumulation (support/dd.hpp) fixes the arithmetic
  // of the result; the VLA recording below still prices the ordinary
  // strip-mined DPROD the hardware would run.  The compensated sum is the
  // result in both exec modes, so on the fast path the interpreted DPROD
  // is skipped entirely and only its analytic recording is kept —
  // execution and recording fully decoupled.  Ranks accumulate into
  // private lane sets collapsed in rank order afterwards, so the result is
  // also independent of the host-thread count.
  for (const DotPair& pr : pairs) dag_op(ctx, "dot", first, {pr.x, pr.y}, {});
  const bool fast = ctx.vctx.native();
  const int nranks = first.nranks();
  const std::size_t npairs = pairs.size();
  // One flat buffer: rank r's lane set for pair k is partial[r·npairs + k].
  std::vector<DdLanes> partial(static_cast<std::size_t>(nranks) * npairs);
  par_ranks(ctx, first, [&](int r, ExecContext& rctx) {
    const grid::TileExtent& e = first.field().decomp().extent(r);
    const auto n = static_cast<std::size_t>(e.ni);
    DdLanes* acc = partial.data() + static_cast<std::size_t>(r) * npairs;
    for (std::size_t k = 0; k < npairs; ++k) {
      for (int s = 0; s < first.ns(); ++s) {
        grid::TileView xv =
            const_cast<DistVector*>(pairs[k].x)->field().view(r, s);
        grid::TileView yv =
            const_cast<DistVector*>(pairs[k].y)->field().view(r, s);
        for (int lj = 0; lj < e.nj; ++lj) {
          if (fast) {
            linalg::dprod_record_only(rctx.vctx,
                                      static_cast<std::uint64_t>(e.ni));
          } else {
            (void)linalg::dprod(rctx.vctx,
                                std::span<const double>(xv.row(lj), n),
                                std::span<const double>(yv.row(lj), n));
          }
          acc[k].dot_row(xv.row(lj), yv.row(lj), n);
        }
      }
    }
    const auto elements =
        static_cast<std::uint64_t>(e.ni) * e.nj * first.ns() * npairs;
    rctx.commit(r, KernelFamily::Dprod, "dprod", elements,
                first.working_set(r, 2 * static_cast<int>(npairs)));
  });
  // One ganged allreduce for all inner products in the gang.
  ctx.allreduce(npairs * sizeof(double));
  // Rank-ordered collapse.
  std::vector<double> out(npairs);
  for (std::size_t k = 0; k < npairs; ++k) {
    DdAccumulator total;
    for (int r = 0; r < nranks; ++r)
      partial[static_cast<std::size_t>(r) * npairs + k].collapse_into(total);
    out[k] = total.value();
  }
  return out;
}

double DistVector::norm2(ExecContext& ctx, const DistVector& x) {
  return std::sqrt(dot(ctx, x, x));
}

}  // namespace v2d::linalg
