#include "farm_mix.hpp"

#include <cstdio>
#include <utility>

#include "farm/job_file.hpp"
#include "support/rng.hpp"

namespace perfbench {

namespace {

template <typename T>
void shuffle(std::vector<T>& v, v2d::Rng& rng) {
  for (std::size_t i = v.size(); i > 1; --i)
    std::swap(v[i - 1], v[static_cast<std::size_t>(rng.below(i))]);
}

std::string join(const std::vector<std::string>& items) {
  std::string out;
  for (const auto& s : items) out += (out.empty() ? "" : ",") + s;
  return out;
}

}  // namespace

std::vector<MixJob> generate_farm_mix(std::uint64_t seed) {
  v2d::Rng rng(seed);
  std::vector<MixJob> jobs;
  for (int i = 0; i < kMixPulseJobs; ++i)
    jobs.push_back({"", "gaussian-pulse", 512, kMixSteps, 0});

  // The other four: two hydro jobs plus one of each remaining scenario,
  // two at VL 128 and two at VL 2048, paired by a seeded shuffle.
  const std::vector<std::string> others = {
      "sedov-radhydro", "sedov-radhydro", "hotspot-absorber",
      "two-species-relax"};
  std::vector<unsigned> vls = {128, 128, 2048, 2048};
  shuffle(vls, rng);
  for (std::size_t i = 0; i < others.size(); ++i)
    jobs.push_back({"", others[i], vls[i], kMixSteps, 0});

  shuffle(jobs, rng);
  std::vector<std::size_t> order(jobs.size());
  for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
  shuffle(order, rng);
  for (int k = 0; k < kMixCheckpointJobs; ++k)
    jobs[order[static_cast<std::size_t>(k)]].checkpoint_every =
        kMixCheckpointEvery;

  for (std::size_t i = 0; i < jobs.size(); ++i) {
    char name[64];
    std::snprintf(name, sizeof name, "j%02zu-%s-vl%u", i,
                  jobs[i].problem.c_str(), jobs[i].vector_bits);
    jobs[i].name = name;
  }
  return jobs;
}

std::string job_line(const MixJob& job, const std::string& checkpoint_dir) {
  std::string line = job.name + ": --problem " + job.problem + " --nx1 " +
                     std::to_string(kMixNx1) + " --nx2 " +
                     std::to_string(kMixNx2) + " --steps " +
                     std::to_string(job.steps) + " --vector-bits " +
                     std::to_string(job.vector_bits) + " --compilers " +
                     join(paper_compilers());
  if (job.checkpoint_every > 0)
    line += " --checkpoint " + checkpoint_dir + "/" + job.name +
            ".h5l --checkpoint-every " + std::to_string(job.checkpoint_every);
  return line;
}

v2d::core::RunConfig job_config(const MixJob& job,
                                const std::string& checkpoint_dir,
                                const std::string& problem) {
  v2d::core::RunConfig cfg =
      v2d::farm::parse_job_line(job_line(job, checkpoint_dir), job.name).cfg;
  cfg.problem = problem;
  return cfg;
}

}  // namespace perfbench
