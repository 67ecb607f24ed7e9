#include "linalg/kernels.hpp"

#include "linalg/fusion/chain_exec.hpp"

namespace v2d::linalg {

using fusion::bind_slots;
using fusion::Builtin;
using fusion::run_chain;
using vla::Context;

void dprod(Context& ctx, std::span<const double> x, std::span<const double> y,
           DdLanes& acc) {
  const std::size_t n = x.size();
  const auto slot = bind_slots("dprod", n, x, y);
  DdLanes* const accs[] = {&acc};
  run_chain<Builtin::Dprod>(ctx, {slot.data(), nullptr, accs, n});
}

double dprod(Context& ctx, std::span<const double> x,
             std::span<const double> y) {
  DdLanes acc;
  dprod(ctx, x, y, acc);
  return acc.value();
}

void daxpy(Context& ctx, double a, std::span<const double> x,
           std::span<double> y) {
  const std::size_t n = y.size();
  const auto slot = bind_slots("daxpy", n, x, y);
  const double scal[] = {a};
  run_chain<Builtin::Daxpy>(ctx, {slot.data(), scal, nullptr, n});
}

void dscal(Context& ctx, double c, double d, std::span<double> y) {
  const std::size_t n = y.size();
  const auto slot = bind_slots("dscal", n, y);
  const double scal[] = {-d, c};  // y·(−d) + c
  run_chain<Builtin::Dscal>(ctx, {slot.data(), scal, nullptr, n});
}

void ddaxpy(Context& ctx, double a, std::span<const double> x, double b,
            std::span<const double> y, std::span<double> z) {
  const std::size_t n = z.size();
  const auto slot = bind_slots("ddaxpy", n, x, y, z, nullptr);
  const double scal[] = {a, b};
  run_chain<Builtin::Ddaxpy>(ctx, {slot.data(), scal, nullptr, n});
}

void xpby(Context& ctx, std::span<const double> x, double b,
          std::span<double> y) {
  const std::size_t n = y.size();
  const auto slot = bind_slots("xpby", n, x, y);
  const double scal[] = {b};
  run_chain<Builtin::Xpby>(ctx, {slot.data(), scal, nullptr, n});
}

void copy(Context& ctx, std::span<const double> x, std::span<double> y) {
  const std::size_t n = y.size();
  const auto slot = bind_slots("copy", n, x, y);
  run_chain<Builtin::Copy>(ctx, {slot.data(), nullptr, nullptr, n});
}

void fill(Context& ctx, double a, std::span<double> y) {
  const std::size_t n = y.size();
  const auto slot = bind_slots("fill", n, y);
  const double scal[] = {a};
  run_chain<Builtin::Fill>(ctx, {slot.data(), scal, nullptr, n});
}

void sub(Context& ctx, std::span<const double> x, std::span<const double> y,
         std::span<double> z) {
  const std::size_t n = z.size();
  const auto slot = bind_slots("sub", n, x, y, z);
  run_chain<Builtin::Sub>(ctx, {slot.data(), nullptr, nullptr, n});
}

void hadamard(Context& ctx, std::span<const double> x,
              std::span<const double> y, std::span<double> z) {
  const std::size_t n = z.size();
  const auto slot = bind_slots("hadamard", n, x, y, z);
  run_chain<Builtin::Hadamard>(ctx, {slot.data(), nullptr, nullptr, n});
}

void stencil_row(Context& ctx, std::span<const double> cc,
                 std::span<const double> cw, std::span<const double> ce,
                 std::span<const double> cs, std::span<const double> cn,
                 const double* xc, const double* xs, const double* xn,
                 std::span<double> y) {
  const std::size_t n = y.size();
  const auto slot =
      bind_slots("stencil_row", n, cc, cw, ce, cs, cn, xc, xs, xn, y);
  run_chain<Builtin::StencilRow>(ctx, {slot.data(), nullptr, nullptr, n});
}

void coupling_row(Context& ctx, std::span<const double> csp, const double* xo,
                  std::span<double> y) {
  const std::size_t n = y.size();
  const auto slot = bind_slots("coupling_row", n, csp, xo, y);
  run_chain<Builtin::CouplingRow>(ctx, {slot.data(), nullptr, nullptr, n});
}

}  // namespace v2d::linalg
