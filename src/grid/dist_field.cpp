#include "grid/dist_field.hpp"

#include <algorithm>

#include "support/thread_pool.hpp"

namespace v2d::grid {

namespace {

/// Concatenate per-rank transfer lists in rank order, so the returned
/// (priceable) list is identical to the one a serial rank loop builds.
std::vector<mpisim::Transfer> concat(
    const std::vector<std::vector<mpisim::Transfer>>& per_rank) {
  std::vector<mpisim::Transfer> out;
  std::size_t total = 0;
  for (const auto& t : per_rank) total += t.size();
  out.reserve(total);
  for (const auto& t : per_rank) out.insert(out.end(), t.begin(), t.end());
  return out;
}

}  // namespace

using mpisim::Dir;

DistField::DistField(const Grid2D& grid, const Decomposition& dec, int ns,
                     int ng)
    : grid_(&grid), dec_(&dec), ns_(ns), ng_(ng) {
  V2D_REQUIRE(ns >= 1, "need at least one species");
  V2D_REQUIRE(ng >= 1, "need at least one ghost layer");
  data_.resize(static_cast<std::size_t>(dec.nranks()));
  for (int r = 0; r < dec.nranks(); ++r) {
    const TileExtent& e = dec.extent(r);
    const std::size_t n = static_cast<std::size_t>(ns) * (e.ni + 2 * ng) *
                          (e.nj + 2 * ng);
    data_[static_cast<std::size_t>(r)].assign(n, 0.0);
  }
}

std::ptrdiff_t DistField::stride(int rank) const {
  return dec_->extent(rank).ni + 2 * ng_;
}

double* DistField::tile_origin(int rank, int s) {
  const TileExtent& e = dec_->extent(rank);
  const std::ptrdiff_t per_species =
      static_cast<std::ptrdiff_t>(e.ni + 2 * ng_) * (e.nj + 2 * ng_);
  // origin points at (li=0, lj=0): skip ghost rows and columns.
  return data_[static_cast<std::size_t>(rank)].data() + per_species * s +
         stride(rank) * ng_ + ng_;
}

const double* DistField::tile_origin(int rank, int s) const {
  return const_cast<DistField*>(this)->tile_origin(rank, s);
}

TileView DistField::view(int rank, int s) {
  V2D_REQUIRE(s >= 0 && s < ns_, "species index out of range");
  const TileExtent& e = dec_->extent(rank);
  return TileView{tile_origin(rank, s), e.ni, e.nj, ng_, stride(rank)};
}

const TileView DistField::view(int rank, int s) const {
  return const_cast<DistField*>(this)->view(rank, s);
}

double DistField::gget(int s, int gi, int gj) const {
  const int r = dec_->owner(gi, gj);
  const TileExtent& e = dec_->extent(r);
  return view(r, s)(gi - e.i0, gj - e.j0);
}

void DistField::gset(int s, int gi, int gj, double v) {
  const int r = dec_->owner(gi, gj);
  const TileExtent& e = dec_->extent(r);
  view(r, s)(gi - e.i0, gj - e.j0) = v;
}

void DistField::fill(double v) {
  for (auto& buf : data_) std::fill(buf.begin(), buf.end(), v);
}

std::uint64_t DistField::tile_bytes(int rank) const {
  return data_[static_cast<std::size_t>(rank)].size() * sizeof(double);
}

std::uint64_t DistField::copy_halo_strip(int rank, int nb, Dir dir, int lo,
                                         int hi) {
  const TileExtent& e = dec_->extent(rank);
  const TileExtent& en = dec_->extent(nb);
  for (int s = 0; s < ns_; ++s) {
    TileView mine = view(rank, s);
    TileView theirs = view(nb, s);
    for (int g = 0; g < ng_; ++g) {
      switch (dir) {
        case Dir::West:
          for (int lj = lo; lj < hi; ++lj)
            mine(-1 - g, lj) = theirs(en.ni - 1 - g, lj);
          break;
        case Dir::East:
          for (int lj = lo; lj < hi; ++lj)
            mine(e.ni + g, lj) = theirs(g, lj);
          break;
        case Dir::South:
          for (int li = lo; li < hi; ++li)
            mine(li, -1 - g) = theirs(li, en.nj - 1 - g);
          break;
        case Dir::North:
          for (int li = lo; li < hi; ++li)
            mine(li, e.nj + g) = theirs(li, g);
          break;
      }
    }
  }
  return static_cast<std::uint64_t>(hi - lo) * ns_ * ng_ * sizeof(double);
}

std::vector<mpisim::Transfer> DistField::exchange_ghosts() {
  const auto& topo = dec_->topology();
  // Rank-parallel: each rank writes only its own ghost strips and reads
  // neighbours' interior strips, which no concurrent task writes.
  std::vector<std::vector<mpisim::Transfer>> per_rank(
      static_cast<std::size_t>(dec_->nranks()));
  par_ranks(*dec_, [&](int r) {
    const TileExtent& e = dec_->extent(r);
    // Pull model: each rank copies its neighbours' interface strips into
    // its own ghosts; the transfer is neighbour → r.
    for (int d = 0; d < mpisim::kNumDirs; ++d) {
      const auto dir = static_cast<Dir>(d);
      const auto nb = topo.neighbor(r, dir);
      if (!nb) continue;
      const bool x1_dir = dir == Dir::West || dir == Dir::East;
      const std::uint64_t bytes =
          copy_halo_strip(r, *nb, dir, 0, x1_dir ? e.nj : e.ni);
      // West/East halos are grid columns (stride = row length); they pay a
      // pack/unpack penalty in the cost model.
      per_rank[static_cast<std::size_t>(r)].push_back(
          mpisim::Transfer{*nb, r, bytes, x1_dir});
    }
  });
  return concat(per_rank);
}

std::vector<mpisim::Transfer> DistField::ghost_transfer_plan() const {
  const auto& topo = dec_->topology();
  std::vector<mpisim::Transfer> out;
  for (int r = 0; r < dec_->nranks(); ++r) {
    const TileExtent& e = dec_->extent(r);
    for (int d = 0; d < mpisim::kNumDirs; ++d) {
      const auto dir = static_cast<Dir>(d);
      const auto nb = topo.neighbor(r, dir);
      if (!nb) continue;
      const bool x1_dir = dir == Dir::West || dir == Dir::East;
      const auto strip = static_cast<std::uint64_t>(x1_dir ? e.nj : e.ni);
      out.push_back(
          mpisim::Transfer{*nb, r, strip * ns_ * ng_ * sizeof(double), x1_dir});
    }
  }
  return out;
}

std::vector<mpisim::Transfer> DistField::exchange_ghosts_full() {
  const auto& topo = dec_->topology();
  std::vector<std::vector<mpisim::Transfer>> phase1(
      static_cast<std::size_t>(dec_->nranks()));
  std::vector<std::vector<mpisim::Transfer>> phase2(
      static_cast<std::size_t>(dec_->nranks()));
  // Phase 1: x1-direction columns (interior rows only), all ranks.  Each
  // par_ranks call is a barrier, so phase 2 (which reads the ghost columns
  // phase 1 wrote) never overlaps it.
  par_ranks(*dec_, [&](int r) {
    const TileExtent& e = dec_->extent(r);
    for (const auto dir : {Dir::West, Dir::East}) {
      const auto nb = topo.neighbor(r, dir);
      if (!nb) continue;
      const std::uint64_t bytes = copy_halo_strip(r, *nb, dir, 0, e.nj);
      phase1[static_cast<std::size_t>(r)].push_back(
          mpisim::Transfer{*nb, r, bytes, /*strided=*/true});
    }
  });
  // Phase 2: x2-direction rows over the *padded* width.  The neighbour's
  // interface rows already carry their x1 ghosts from phase 1, so the
  // corner values ride along.  (At the domain edge the padded strip copies
  // whatever the neighbour's physical-boundary ghosts hold; apply_bc()
  // overwrites those corners afterwards.)
  par_ranks(*dec_, [&](int r) {
    const TileExtent& e = dec_->extent(r);
    for (const auto dir : {Dir::South, Dir::North}) {
      const auto nb = topo.neighbor(r, dir);
      if (!nb) continue;
      const std::uint64_t bytes =
          copy_halo_strip(r, *nb, dir, -ng_, e.ni + ng_);
      phase2[static_cast<std::size_t>(r)].push_back(
          mpisim::Transfer{*nb, r, bytes, /*strided=*/false});
    }
  });
  std::vector<mpisim::Transfer> transfers = concat(phase1);
  const std::vector<mpisim::Transfer> tail = concat(phase2);
  transfers.insert(transfers.end(), tail.begin(), tail.end());
  return transfers;
}

void DistField::apply_bc(BcKind bc) {
  // Rank-parallel: each rank writes only its own boundary ghosts; the
  // periodic wrap-around reads other tiles' interiors, which stay
  // untouched during the sweep.  The x1 pass runs before the x2 pass so
  // domain-edge corner ghosts source from already-filled x1 ghosts.
  par_ranks(*dec_, [&](int r) {
    apply_bc_dir(bc, r, /*x1_dirs=*/true);
    apply_bc_dir(bc, r, /*x1_dirs=*/false);
  });
}

void DistField::apply_bc_dir(BcKind bc, int r, bool x1_dirs) {
  const int gnx1 = grid_->nx1();
  const int gnx2 = grid_->nx2();
  const TileExtent& e = dec_->extent(r);
  const bool at_w = x1_dirs && e.i0 == 0;
  const bool at_e = x1_dirs && e.i0 + e.ni == gnx1;
  const bool at_s = !x1_dirs && e.j0 == 0;
  const bool at_n = !x1_dirs && e.j0 + e.nj == gnx2;
  // Dirichlet/Neumann fills cover the padded range so domain-edge corner
  // ghosts get defined values.  Periodic keeps the interior range: its
  // wrap-around lookup is only defined for in-domain rows/columns.
  const int pad = bc == BcKind::Periodic ? 0 : ng_;
  for (int s = 0; s < ns_; ++s) {
    TileView v = view(r, s);
    for (int g = 0; g < ng_; ++g) {
      if (at_w) {
        for (int lj = -pad; lj < e.nj + pad; ++lj) {
          switch (bc) {
            case BcKind::Dirichlet0: v(-1 - g, lj) = 0.0; break;
            case BcKind::Neumann0: v(-1 - g, lj) = v(g, lj); break;
            case BcKind::Periodic:
              v(-1 - g, lj) = gget(s, gnx1 - 1 - g, e.j0 + lj);
              break;
          }
        }
      }
      if (at_e) {
        for (int lj = -pad; lj < e.nj + pad; ++lj) {
          switch (bc) {
            case BcKind::Dirichlet0: v(e.ni + g, lj) = 0.0; break;
            case BcKind::Neumann0: v(e.ni + g, lj) = v(e.ni - 1 - g, lj); break;
            case BcKind::Periodic:
              v(e.ni + g, lj) = gget(s, g, e.j0 + lj);
              break;
          }
        }
      }
      if (at_s) {
        for (int li = -pad; li < e.ni + pad; ++li) {
          switch (bc) {
            case BcKind::Dirichlet0: v(li, -1 - g) = 0.0; break;
            case BcKind::Neumann0: v(li, -1 - g) = v(li, g); break;
            case BcKind::Periodic:
              v(li, -1 - g) = gget(s, e.i0 + li, gnx2 - 1 - g);
              break;
          }
        }
      }
      if (at_n) {
        for (int li = -pad; li < e.ni + pad; ++li) {
          switch (bc) {
            case BcKind::Dirichlet0: v(li, e.nj + g) = 0.0; break;
            case BcKind::Neumann0: v(li, e.nj + g) = v(li, e.nj - 1 - g); break;
            case BcKind::Periodic:
              v(li, e.nj + g) = gget(s, e.i0 + li, g);
              break;
          }
        }
      }
    }
  }
}

std::vector<double> DistField::gather_global() const {
  std::vector<double> out(static_cast<std::size_t>(ns_) * grid_->nx1() *
                          grid_->nx2());
  par_ranks(*dec_, [&](int r) {
    const TileExtent& e = dec_->extent(r);
    for (int s = 0; s < ns_; ++s) {
      const TileView v = view(r, s);
      for (int lj = 0; lj < e.nj; ++lj) {
        for (int li = 0; li < e.ni; ++li) {
          out[static_cast<std::size_t>(
              grid_->linear_index(s, e.i0 + li, e.j0 + lj))] = v(li, lj);
        }
      }
    }
  });
  return out;
}

void DistField::scatter_global(std::span<const double> data) {
  V2D_REQUIRE(data.size() == static_cast<std::size_t>(ns_) * grid_->nx1() *
                                 grid_->nx2(),
              "scatter_global: payload size does not match the field");
  par_ranks(*dec_, [&](int r) {
    const TileExtent& e = dec_->extent(r);
    for (int s = 0; s < ns_; ++s) {
      TileView v = view(r, s);
      for (int lj = 0; lj < e.nj; ++lj) {
        for (int li = 0; li < e.ni; ++li) {
          v(li, lj) = data[static_cast<std::size_t>(
              grid_->linear_index(s, e.i0 + li, e.j0 + lj))];
        }
      }
    }
  });
}

}  // namespace v2d::grid
