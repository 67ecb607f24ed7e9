#pragma once
/// \file kernels_native.hpp
/// \brief Native raw-pointer loops of the two multigrid transfer rows.
///
/// Every other kernel's native loop is stamped from its planner chain
/// (fusion/chain_exec.hpp).  The transfer rows gather through index
/// tables, which the chain IR cannot express, so their VlaExecMode::Native
/// forms are written here by hand, behind the dispatch in mg/mg_kernels.cpp.
/// Each is a plain loop that evaluates the interpreter's per-element
/// expression in the same association order, so the two backends are
/// bit-identical; no vla::Context is touched here, and the recording comes
/// from the closed-form formulas in kernel_counts.hpp.

#include <cstddef>
#include <cstdint>

namespace v2d::linalg::native {

/// One coarse row of full-weighting restriction.  `fine[dj]` are the four
/// fine rows 2·cj−1 … 2·cj+2 (each with a readable ghost on both sides);
/// `fm1`/`f0`/`f1`/`f2` are the same gather-index tables the interpreter
/// uses (2c−1 … 2c+2); separable weights (1/4, 3/4, 3/4, 1/4)/4, summed in
/// the interpreter's dj-major order.
void restrict_row(const double* const fine[4], const std::int64_t* fm1,
                  const std::int64_t* f0, const std::int64_t* f1,
                  const std::int64_t* f2, double* coarse, std::size_t n);

/// One fine row of bilinear prolongation (additive).  `cnear`/`cfar` are
/// the parent and parity-adjacent coarse rows, indexed through the
/// interpreter's `near`/`far` gather tables (parent / parity-adjacent;
/// ghosts readable at the ends).
void prolong_row_add(const double* cnear, const double* cfar,
                     const std::int64_t* near, const std::int64_t* far,
                     double* fine, std::size_t n);

}  // namespace v2d::linalg::native
