#include "linalg/kernels_native.hpp"

namespace v2d::linalg::native {

void restrict_row(const double* const fine[4], const std::int64_t* fm1,
                  const std::int64_t* f0, const std::int64_t* f1,
                  const std::int64_t* f2, double* coarse, std::size_t n) {
  constexpr double kQ = 0.25, kT = 0.75;
  constexpr double wj[4] = {0.25, 0.75, 0.75, 0.25};
  for (std::size_t c = 0; c < n; ++c) {
    double acc = 0.0;
    for (int dj = 0; dj < 4; ++dj) {
      const double* frow = fine[dj];
      // Row value 1/4·a + 3/4·b + 3/4·c + 1/4·d in the interpreter's
      // association order (mul, then three chained FMAs).
      double row = kQ * frow[fm1[c]];
      row = kT * frow[f0[c]] + row;
      row = kT * frow[f1[c]] + row;
      row = kQ * frow[f2[c]] + row;
      acc = (0.25 * wj[dj]) * row + acc;
    }
    coarse[c] = acc;
  }
}

void prolong_row_add(const double* cnear, const double* cfar,
                     const std::int64_t* near, const std::int64_t* far,
                     double* fine, std::size_t n) {
  constexpr double kQ = 0.25, kT = 0.75;
  for (std::size_t f = 0; f < n; ++f) {
    double rn = kT * cnear[near[f]];
    rn = kQ * cnear[far[f]] + rn;
    double rf = kT * cfar[near[f]];
    rf = kQ * cfar[far[f]] + rf;
    double y = fine[f];
    y = kT * rn + y;
    y = kQ * rf + y;
    fine[f] = y;
  }
}

}  // namespace v2d::linalg::native
