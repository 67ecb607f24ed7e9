#pragma once
/// \file farm_mix.hpp
/// \brief Seeded generator for the farm-mix workload's job list.
///
/// The proportions are fixed and only the assignment varies with the seed:
/// 16 single-rank 64×32 jobs of kMixSteps steps each.  12 are
/// gaussian-pulse at VL 512 (same shape, so count-memo and PriceMemo hits
/// across concurrent sessions); 2 are sedov-radhydro (hydro), 1
/// hotspot-absorber and 1 two-species-relax, two of those four at VL 128
/// and two at VL 2048 (memo and price misses: writes beside the reads).
/// Two jobs write checkpoints on a cadence.  The seed picks the VL pairing,
/// the checkpointing jobs and the job order.  Job cost does not depend on
/// the seed beyond that, so seeds change the schedule, not the amount of
/// work.  The same seed always yields the same list, on every platform
/// (xoshiro256** from support/rng.hpp).

#include <cstdint>
#include <string>
#include <vector>

#include "core/config.hpp"

namespace perfbench {

struct MixJob {
  std::string name;
  std::string problem;
  unsigned vector_bits = 512;
  int steps = 0;
  int checkpoint_every = 0;  ///< 0 = no checkpoints
};

inline constexpr int kMixJobs = 16;
inline constexpr int kMixPulseJobs = 12;
inline constexpr int kMixCheckpointJobs = 2;
inline constexpr int kMixCheckpointEvery = 5;
inline constexpr int kMixSteps = 20;
inline constexpr int kMixNx1 = 64;
inline constexpr int kMixNx2 = 32;

/// The paper's compiler set; every workload prices under it.
inline const std::vector<std::string>& paper_compilers() {
  static const std::vector<std::string> c = {"cray", "gnu", "fujitsu"};
  return c;
}

std::vector<MixJob> generate_farm_mix(std::uint64_t seed);

/// The job as a `v2d --farm` job-file line (replayable with the CLI).
/// `checkpoint_dir` prefixes checkpoint paths.
std::string job_line(const MixJob& job, const std::string& checkpoint_dir);

/// The RunConfig the job-file line parses to, with the problem renamed to
/// `problem` (the benchmark's timed wrapper of the same scenario).
v2d::core::RunConfig job_config(const MixJob& job,
                                const std::string& checkpoint_dir,
                                const std::string& problem);

}  // namespace perfbench
