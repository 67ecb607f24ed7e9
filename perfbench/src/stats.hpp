#pragma once
/// \file stats.hpp
/// \brief Sample statistics and failure accounting for the benchmark.
///
/// Percentiles use the nearest-rank definition, so every reported value is
/// a measured sample.  A percentile is only *reportable* when at least
/// kMinTail samples lie strictly beyond it: the tail then holds enough
/// observations that one outlier cannot be the whole answer.  For p90 that
/// means at least 100 samples.

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <stdexcept>
#include <utility>
#include <vector>

namespace perfbench {

inline constexpr std::size_t kMinTail = 10;

/// 1-based nearest rank of quantile q (0 < q <= 1) among n samples.
inline std::size_t nearest_rank(std::size_t n, double q) {
  const auto k = static_cast<std::size_t>(std::ceil(q * static_cast<double>(n)));
  return std::clamp<std::size_t>(k, 1, n);
}

/// Samples lying strictly beyond the nearest-rank q-th percentile.
inline std::size_t samples_beyond(std::size_t n, double q) {
  return n == 0 ? 0 : n - nearest_rank(n, q);
}

/// True when the q-th percentile of n samples has at least kMinTail
/// samples beyond it.
inline bool percentile_reportable(std::size_t n, double q) {
  return samples_beyond(n, q) >= kMinTail;
}

/// Nearest-rank q-th percentile.  Throws on an empty sample.
inline double percentile(std::vector<double> v, double q) {
  if (v.empty()) throw std::invalid_argument("percentile of an empty sample");
  const std::size_t k = nearest_rank(v.size(), q) - 1;
  std::nth_element(v.begin(), v.begin() + static_cast<std::ptrdiff_t>(k),
                   v.end());
  return v[k];
}

inline double median(std::vector<double> v) {
  return percentile(std::move(v), 0.5);
}

/// Attempted vs failed operations (steps or jobs).  An operation fails when
/// it throws, does not converge, or fails a correctness check.
struct Tally {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;

  void record(bool ok) {
    ++attempted;
    if (!ok) ++failed;
  }
  /// A correctness check on state the last operation produced: a failure
  /// marks that operation failed (without counting a new attempt).
  void fail_last() {
    if (attempted == 0) attempted = 1;
    failed = std::min(failed + 1, attempted);
  }
  double failed_frac() const {
    return attempted == 0 ? 1.0
                          : static_cast<double>(failed) /
                                static_cast<double>(attempted);
  }
  bool ok() const { return attempted > 0 && failed == 0; }
};

}  // namespace perfbench
