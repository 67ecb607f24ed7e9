#include "rad/fld.hpp"

#include <algorithm>
#include <cmath>
#include <vector>

#include "support/error.hpp"

namespace v2d::rad {

using compiler::KernelFamily;
using linalg::DistVector;
using linalg::ExecContext;
using linalg::StencilOperator;

FldBuilder::FldBuilder(const grid::Grid2D& g, const grid::Decomposition& d,
                       int ns, OpacitySet opacities, FldConfig config)
    : grid_(&g),
      dec_(&d),
      ns_(ns),
      opacities_(std::move(opacities)),
      config_(config),
      rho_(g, d, 1, 1),
      temp_(g, d, 1, 1) {
  V2D_REQUIRE(opacities_.ns() == ns, "opacity set species count mismatch");
  rho_.fill(1.0);
  temp_.fill(1.0);
}

namespace {

/// Shared diffusion-coefficient fill: charges Physics work and fills the
/// five stencil bands plus V/Δt (+ absorption) on the diagonal.
///
/// Two material branches share the loop: when every opacity law is
/// constant (the study's test problem) the evaluation is hoisted to one
/// per tile, bit-identically to the historical path; when any law carries
/// a temperature/density power the material fields are halo-exchanged and
/// the opacities are evaluated per zone, with face transport opacities
/// taken as the arithmetic mean of the adjacent zones.  The priced cost
/// is the same either way — commit_synthetic below already charges the
/// per-zone evaluation the real code pays.
void fill_diffusion(const grid::Grid2D& g, const grid::Decomposition& dec,
                    int ns, const OpacitySet& opac, const FldConfig& cfg,
                    ExecContext& ctx, DistVector& e_limiter, double dt,
                    StencilOperator& A, grid::DistField& rho,
                    grid::DistField& temp) {
  V2D_REQUIRE(dt > 0.0, "time step must be positive");
  const bool uniform = opac.uniform();
  // Ghosts for face gradients and material lookups.
  auto transfers = e_limiter.field().exchange_ghosts();
  e_limiter.field().apply_bc(grid::BcKind::Neumann0);
  ctx.exchange(transfers);
  if (!uniform) {
    // Face opacities at tile interfaces read the neighbour's material
    // state: exchange the (per-zone-evaluated) material halos too.
    auto rho_t = rho.exchange_ghosts();
    rho.apply_bc(grid::BcKind::Neumann0);
    ctx.exchange(rho_t);
    auto temp_t = temp.exchange_ghosts();
    temp.apply_bc(grid::BcKind::Neumann0);
    ctx.exchange(temp_t);
  }

  // The V2D operator is applied matrix-free with on-the-fly coefficient
  // evaluation; attach that per-element cost to every application.
  A.set_evaluation_overhead(linalg::kMatvecEvalDoublesRead,
                            linalg::kMatvecEvalFlops);

  const double c = cfg.c_light;
  linalg::par_ranks(ctx, dec, [&](int r, ExecContext& rctx) {
    const grid::TileExtent& e = dec.extent(r);
    grid::TileView rv = rho.view(r, 0);
    grid::TileView tv = temp.view(r, 0);
    // Non-uniform branch: each zone's transport opacity feeds its own
    // face average and all four neighbours', so evaluate the power laws
    // once per zone (ghost edges included, corners skipped — no face ever
    // reads them and the corner ghosts are never exchanged) into scratch
    // tiles instead of ~5x per zone inside the stencil loop.  The
    // absorption leg is kept separately so the diagonal's ka needs no
    // second evaluation.
    std::vector<double> kt_tile, ka_tile;
    const std::ptrdiff_t kt_stride = e.ni + 2;
    if (!uniform) {
      kt_tile.resize(static_cast<std::size_t>(kt_stride) * (e.nj + 2));
      ka_tile.resize(static_cast<std::size_t>(e.ni) * e.nj);
    }
    for (int s = 0; s < ns; ++s) {
      grid::TileView ev = e_limiter.field().view(r, s);
      grid::TileView cc = A.cc().view(r, s);
      grid::TileView cw = A.cw().view(r, s);
      grid::TileView ce = A.ce().view(r, s);
      grid::TileView cs = A.cs().view(r, s);
      grid::TileView cn = A.cn().view(r, s);
      // The study's test problem uses spatially uniform material state, so
      // the opacity laws are evaluated once per tile here; the per-zone
      // evaluation cost the real code would pay is still charged through
      // commit_synthetic below — pricing is separate from host execution.
      const double kt_u = opac.total(s, 1.0, 1.0);
      const double ka_u = cfg.include_absorption
                              ? opac.absorption(s).evaluate(1.0, 1.0)
                              : 0.0;
      // Zone transport opacity: hoisted when uniform, read from the
      // per-zone scratch otherwise (ghost indices hold the exchanged
      // material halos' evaluations).
      auto kt_at = [&](int li, int lj) {
        return uniform ? kt_u
                       : kt_tile[static_cast<std::size_t>(
                             (li + 1) + kt_stride * (lj + 1))];
      };
      if (!uniform) {
        for (int lj = -1; lj <= e.nj; ++lj) {
          const bool edge_j = lj < 0 || lj >= e.nj;
          for (int li = -1; li <= e.ni; ++li) {
            if (edge_j && (li < 0 || li >= e.ni)) continue;  // corner
            const double ka_z =
                opac.absorption(s).evaluate(tv(li, lj), rv(li, lj));
            const double ks_z =
                opac.scattering(s).evaluate(tv(li, lj), rv(li, lj));
            kt_tile[static_cast<std::size_t>((li + 1) +
                                             kt_stride * (lj + 1))] =
                ka_z + ks_z;
            if (!edge_j && li >= 0 && li < e.ni)
              ka_tile[static_cast<std::size_t>(li + e.ni * lj)] =
                  cfg.include_absorption ? ka_z : 0.0;
          }
        }
      }
      for (int lj = 0; lj < e.nj; ++lj) {
        for (int li = 0; li < e.ni; ++li) {
          const int gi = e.i0 + li, gj = e.j0 + lj;
          const double vol = g.volume(gi, gj);
          const double ka =
              uniform ? ka_u
                      : ka_tile[static_cast<std::size_t>(li + e.ni * lj)];

          auto face_d = [&](double e_l, double e_r, double delta,
                            double kt) {
            const double e_f = std::max(0.5 * (e_l + e_r), cfg.e_floor);
            const double big_r = std::fabs(e_r - e_l) / (delta * kt * e_f);
            const double lam = flux_limiter(cfg.limiter, big_r);
            return c * lam / kt;
          };
          const double kt_c = kt_at(li, lj);
          auto face_kt = [&](int nli, int nlj) {
            return uniform ? kt_u : 0.5 * (kt_c + kt_at(nli, nlj));
          };

          double diag = vol / dt + vol * c * ka;
          // West face (skipped at the domain boundary: zero flux).
          if (gi > 0) {
            const double d = face_d(ev(li - 1, lj), ev(li, lj), g.dx1(),
                                    face_kt(li - 1, lj));
            const double k = g.area1(gi, gj) * d / g.dx1();
            cw(li, lj) = -k;
            diag += k;
          } else {
            cw(li, lj) = 0.0;
          }
          if (gi + 1 < g.nx1()) {
            const double d = face_d(ev(li, lj), ev(li + 1, lj), g.dx1(),
                                    face_kt(li + 1, lj));
            const double k = g.area1(gi + 1, gj) * d / g.dx1();
            ce(li, lj) = -k;
            diag += k;
          } else {
            ce(li, lj) = 0.0;
          }
          if (gj > 0) {
            const double d = face_d(ev(li, lj - 1), ev(li, lj), g.dx2(),
                                    face_kt(li, lj - 1));
            const double k = g.area2(gi, gj) * d / g.dx2();
            cs(li, lj) = -k;
            diag += k;
          } else {
            cs(li, lj) = 0.0;
          }
          if (gj + 1 < g.nx2()) {
            const double d = face_d(ev(li, lj), ev(li, lj + 1), g.dx2(),
                                    face_kt(li, lj + 1));
            const double k = g.area2(gi, gj + 1) * d / g.dx2();
            cn(li, lj) = -k;
            diag += k;
          } else {
            cn(li, lj) = 0.0;
          }
          cc(li, lj) = diag;
        }
      }
    }
    const auto elements = static_cast<std::uint64_t>(e.ni) * e.nj * ns;
    // ~70 flops/zone (4 face limiters + geometry), ~13 doubles read, 6
    // written; branchy short loops — the Physics family prices this with
    // low vectorized fraction.
    rctx.commit_synthetic(r, KernelFamily::Physics, "physics-assembly",
                          elements, 70, 104, 48, elements * 152);
  });
}

}  // namespace

void FldBuilder::build_diffusion(ExecContext& ctx, DistVector& e_limiter,
                                 const DistVector& e_old, double dt,
                                 StencilOperator& A, DistVector& rhs) const {
  auto* self = const_cast<FldBuilder*>(this);
  fill_diffusion(*grid_, *dec_, ns_, opacities_, config_, ctx, e_limiter, dt,
                 A, self->rho_, self->temp_);
  // rhs = (V/Δt)·Eⁿ from the time-level-n field.
  linalg::par_ranks(ctx, *dec_, [&](int r, ExecContext& rctx) {
    const grid::TileExtent& e = dec_->extent(r);
    for (int s = 0; s < ns_; ++s) {
      grid::TileView ev = const_cast<DistVector&>(e_old).field().view(r, s);
      grid::TileView bv = rhs.field().view(r, s);
      for (int lj = 0; lj < e.nj; ++lj) {
        for (int li = 0; li < e.ni; ++li) {
          bv(li, lj) =
              grid_->volume(e.i0 + li, e.j0 + lj) / dt * ev(li, lj);
        }
      }
    }
    const auto elements = static_cast<std::uint64_t>(e.ni) * e.nj * ns_;
    rctx.commit_synthetic(r, KernelFamily::Physics, "physics-rhs", elements, 2,
                          8, 8, elements * 16);
  });
}

void FldBuilder::build_coupling(ExecContext& ctx, DistVector& e_limiter,
                                const DistVector& e_old, double dt,
                                StencilOperator& A, DistVector& rhs) const {
  V2D_REQUIRE(ns_ == 2, "coupling solve is defined for ns == 2");
  V2D_REQUIRE(A.coupled(), "operator must have coupling enabled");
  auto* self = const_cast<FldBuilder*>(this);
  fill_diffusion(*grid_, *dec_, ns_, opacities_, config_, ctx, e_limiter, dt,
                 A, self->rho_, self->temp_);

  const double c = config_.c_light;
  const double kx = config_.exchange_kappa;
  const bool uniform = opacities_.uniform();
  linalg::par_ranks(ctx, *dec_, [&](int r, ExecContext& rctx) {
    const grid::TileExtent& e = dec_->extent(r);
    grid::TileView tv = self->temp_.view(r, 0);
    grid::TileView rv = self->rho_.view(r, 0);
    for (int s = 0; s < ns_; ++s) {
      grid::TileView cc = A.cc().view(r, s);
      grid::TileView sp = A.csp().view(r, s);
      grid::TileView ev = const_cast<DistVector&>(e_old).field().view(r, s);
      grid::TileView bv = rhs.field().view(r, s);
      const double ka_u = config_.include_absorption
                              ? opacities_.absorption(s).evaluate(1.0, 1.0)
                              : 0.0;
      for (int lj = 0; lj < e.nj; ++lj) {
        for (int li = 0; li < e.ni; ++li) {
          const double vol = grid_->volume(e.i0 + li, e.j0 + lj);
          cc(li, lj) += vol * c * kx;
          sp(li, lj) = -vol * c * kx;
          const double T = tv(li, lj);
          const double ka =
              uniform ? ka_u
                      : (config_.include_absorption
                             ? opacities_.absorption(s).evaluate(T, rv(li, lj))
                             : 0.0);
          const double emission =
              0.5 * config_.radiation_constant * T * T * T * T;
          bv(li, lj) = vol / dt * ev(li, lj) + vol * c * ka * emission;
        }
      }
    }
    const auto elements = static_cast<std::uint64_t>(e.ni) * e.nj * ns_;
    rctx.commit_synthetic(r, KernelFamily::Physics, "physics-coupling",
                          elements, 12, 32, 24, elements * 56);
  });
}

void FldBuilder::update_temperature(ExecContext& ctx,
                                    const DistVector& e_new, double dt) {
  const double c = config_.c_light;
  const bool uniform = opacities_.uniform();
  linalg::par_ranks(ctx, *dec_, [&](int r, ExecContext& rctx) {
    const grid::TileExtent& e = dec_->extent(r);
    grid::TileView tv = temp_.view(r, 0);
    grid::TileView rv = rho_.view(r, 0);
    // Per-species views and (uniform-material) absorption opacities hoisted
    // out of the zone loop; the per-zone evaluation is priced below.
    std::vector<grid::TileView> evs;
    std::vector<double> kas;
    for (int s = 0; s < ns_; ++s) {
      evs.push_back(const_cast<DistVector&>(e_new).field().view(r, s));
      kas.push_back(config_.include_absorption
                        ? opacities_.absorption(s).evaluate(1.0, 1.0)
                        : 0.0);
    }
    for (int lj = 0; lj < e.nj; ++lj) {
      for (int li = 0; li < e.ni; ++li) {
        const double T = tv(li, lj);
        const double emission =
            0.5 * config_.radiation_constant * T * T * T * T;
        double heating = 0.0;
        for (int s = 0; s < ns_; ++s) {
          const double ka =
              uniform ? kas[static_cast<std::size_t>(s)]
                      : (config_.include_absorption
                             ? opacities_.absorption(s).evaluate(T, rv(li, lj))
                             : 0.0);
          heating +=
              c * ka * (evs[static_cast<std::size_t>(s)](li, lj) - emission);
        }
        const double dT = dt * heating / (config_.cv * rv(li, lj));
        tv(li, lj) = std::max(1.0e-10, T + dT);
      }
    }
    const auto elements = static_cast<std::uint64_t>(e.ni) * e.nj;
    rctx.commit_synthetic(r, KernelFamily::Physics, "physics-temperature",
                          elements, 16, 32, 8, elements * 40);
  });
}

}  // namespace v2d::rad
