#include "linalg/mg/mg_kernels.hpp"

#include "linalg/fusion/chain_exec.hpp"

namespace v2d::linalg::mg {

void diag_correct_row(vla::Context& ctx, double omega,
                      std::span<const double> d, std::span<const double> r,
                      std::span<double> x) {
  const std::size_t n = x.size();
  const auto slot = fusion::bind_slots("diag_correct_row", n, d, r, x, nullptr);
  const double scal[] = {omega};
  fusion::run_chain<fusion::Builtin::DiagCorrectRow>(
      ctx, {slot.data(), scal, nullptr, n});
}

void diag_scale_row(vla::Context& ctx, double omega, std::span<const double> d,
                    std::span<const double> r, std::span<double> z) {
  const std::size_t n = z.size();
  const auto slot = fusion::bind_slots("diag_scale_row", n, d, r, z, nullptr);
  const double scal[] = {omega};
  fusion::run_chain<fusion::Builtin::DiagScaleRow>(
      ctx, {slot.data(), scal, nullptr, n});
}

void restrict_row(vla::Context& ctx, const double* const fine[4],
                  const TransferTables& tab, std::span<double> coarse) {
  const std::size_t n = coarse.size();
  const auto slot = fusion::bind_slots("restrict_row", n, fine[0], fine[1],
                                       fine[2], fine[3], coarse, nullptr,
                                       nullptr);
  const auto table =
      fusion::bind_tables("restrict_row", n, tab.fm1, tab.f0, tab.f1, tab.f2);
  // The i-direction taps 1/4, 3/4, the +0.0 accumulator start, and the
  // j-direction weights (1/4)·(1/4, 3/4).
  const double scal[] = {0.25, 0.75, 0.0, 0.0625, 0.1875};
  fusion::run_chain<fusion::Builtin::RestrictRow>(
      ctx, {slot.data(), scal, nullptr, n, table.data()});
}

void prolong_row_add(vla::Context& ctx, const double* cnear,
                     const double* cfar, const TransferTables& tab,
                     std::span<double> fine) {
  const std::size_t n = fine.size();
  const auto slot = fusion::bind_slots("prolong_row_add", n, cnear, cfar, fine,
                                       nullptr, nullptr, nullptr);
  const auto table =
      fusion::bind_tables("prolong_row_add", n, tab.near, tab.far);
  const double scal[] = {0.25, 0.75};
  fusion::run_chain<fusion::Builtin::ProlongRowAdd>(
      ctx, {slot.data(), scal, nullptr, n, table.data()});
}

}  // namespace v2d::linalg::mg
