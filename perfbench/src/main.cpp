/// \file main.cpp
/// \brief The repository benchmark: three workloads driven through the
/// library's public API from one process, end-to-end metrics with tracing
/// off, per-layer probes and a Chrome trace with tracing on.
///
///   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
///             [--work-dir <dir>] [--trace-out <file>]
///
/// Workloads (closed loops with one caller; see NOTES.md for why):
///   paper-solo       gaussian-pulse 200x100x2, 1x1 rank, 1 host thread
///   paper-16rank-2t  the same problem on 4x4 ranks, 2 host threads
///   farm-mix         one FarmScheduler, 2 host threads, 16 seeded jobs
///
/// The last line of standard output is one JSON object:
///   {"correct": .., "attempted": .., "failed": .., "metrics": {..}}
/// holding the end-to-end metrics with --trace 0 and the per-layer metrics
/// with --trace 1.  Every line before it is the human-readable report.

#include <sys/resource.h>
#include <unistd.h>

#include <chrono>
#include <cmath>
#include <cstdio>
#include <exception>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "core/v2d.hpp"
#include "farm/farm.hpp"
#include "farm_mix.hpp"
#include "probes.hpp"
#include "scenario/registry.hpp"
#include "stats.hpp"
#include "trace.hpp"

namespace perfbench {
namespace {

using Clock = std::chrono::steady_clock;
namespace core = v2d::core;

double since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// p90 needs this many samples to have kMinTail beyond it.
constexpr std::size_t kMinTimedSteps = 100;
constexpr int kSetupsPerEpisode = 7;
constexpr int kEpisodeSteps = 25;
constexpr int kFarmSetupRepeats = 21;
constexpr int kFarmThreads = 2;
constexpr int kFarmProbeSteps = 6;

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string work_dir = ".bench_build/work";
  std::string trace_out;
};

struct Result {
  Tally tally;
  std::vector<Metric> e2e;
  std::vector<Metric> layers;
  std::vector<std::string> notes;
  std::size_t samples = 0;  ///< step-time samples behind step_s.*
};

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;
}

std::string fmt(const char* f, double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, f, v);
  return buf;
}

/// The scenario's correctness tolerance on analytic_error() at simulated
/// time t.  gaussian-pulse compares a flux-limited solution with the
/// unlimited free-space reference, so its error grows with time (about
/// 0.16 per unit time on both grids the benchmark runs); the others are
/// exact up to round-off (mass drift) or solver tolerance.
double scenario_tolerance(const std::string& problem, double t) {
  if (problem == "gaussian-pulse") return 0.05 + 0.2 * t;
  if (problem == "sedov-radhydro") return 1.0e-12;
  return 1.0e-6;
}

/// FNV-1a over the radiation field's bytes in global dictionary order.
std::uint64_t field_hash(const v2d::linalg::DistVector& e) {
  const std::vector<double> v = e.field().gather_global();
  std::uint64_t h = 1469598103934665603ull;
  const auto* p = reinterpret_cast<const unsigned char*>(v.data());
  for (std::size_t i = 0; i < v.size() * sizeof(double); ++i) {
    h ^= p[i];
    h *= 1099511628211ull;
  }
  return h;
}

std::string hex(std::uint64_t h) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(h));
  return buf;
}

void add_step_metrics(Result& r, const std::vector<double>& step_s) {
  r.samples = step_s.size();
  r.e2e.push_back({"step_s.p50", percentile(step_s, 0.5), "s"});
  r.e2e.push_back({"step_s.p90", percentile(step_s, 0.9), "s"});
  if (!percentile_reportable(step_s.size(), 0.9)) {
    r.notes.push_back("step_s.p90 has only " +
                      std::to_string(samples_beyond(step_s.size(), 0.9)) +
                      " samples beyond it (needs " + std::to_string(kMinTail) +
                      ")");
    r.tally.fail_last();
  }
}

// --- paper workloads -------------------------------------------------------

struct PaperSpec {
  const char* name;
  int nprx;
  int threads;
};

constexpr PaperSpec kPaperSolo{"paper-solo", 1, 1};
constexpr PaperSpec kPaper16{"paper-16rank-2t", 4, 2};

core::RunConfig paper_config(const PaperSpec& p) {
  core::RunConfig cfg;
  cfg.problem = "gaussian-pulse";
  cfg.nx1 = 200;
  cfg.nx2 = 100;
  cfg.ns = 2;
  cfg.nprx1 = p.nprx;
  cfg.nprx2 = p.nprx;
  cfg.host_threads = p.threads;
  cfg.compilers = paper_compilers();
  cfg.steps = 1 << 30;  // the benchmark loop decides when to stop
  return cfg;
}

/// One checked drive_step: returns its host seconds, or nullopt when it
/// threw, did not converge, or left a non-finite conserved total.
std::optional<double> checked_step(core::Simulation& ses, Result& r,
                                   Tracer& tracer, bool traced,
                                   int* iterations = nullptr) {
  const auto t0 = Clock::now();
  v2d::rad::StepStats st;
  std::string error;
  {
    std::optional<Scope> span;
    if (traced) span.emplace(tracer, "Simulation::drive_step", "core");
    try {
      st = ses.drive_step();
    } catch (const std::exception& ex) {
      error = ex.what();
    }
  }
  const double dt = since(t0);
  if (error.empty() && !st.all_converged()) error = "solve did not converge";
  if (error.empty() && !std::isfinite(ses.total_energy()))
    error = "non-finite total energy";
  r.tally.record(error.empty());
  if (!error.empty()) {
    r.notes.push_back("step " + std::to_string(ses.steps_taken()) +
                      " failed: " + error);
    return std::nullopt;
  }
  if (iterations != nullptr) *iterations = st.total_iterations();
  return dt;
}

Result run_paper(const PaperSpec& spec, const Args& args, Tracer& tracer) {
  Result r;
  const core::RunConfig cfg = paper_config(spec);
  std::vector<double> setup;
  std::unique_ptr<core::Simulation> ses;
  auto construct = [&] {
    ses.reset();
    Scope span(tracer, "setup", "core");
    const auto t0 = Clock::now();
    ses = std::make_unique<core::Simulation>(cfg);
    setup.push_back(since(t0));
  };

  // Episodes: a fresh session (constructed kSetupsPerEpisode times, so
  // setup_s is sampled across the whole run rather than in one burst at
  // its start), one cold first step (core.first_step_s, kept out of
  // step_s), then kEpisodeSteps timed steps.  Every episode repeats the
  // same deterministic step sequence, so the slow early steps that set
  // step_s.p90 are sampled in several windows of the run instead of one.
  // The run stops only at an episode boundary.
  std::vector<double> step_s, first_steps, traced_per_iter, untraced_per_iter;
  CounterSnapshot before, after;
  double timed_s = 0.0, iterations = 0.0, episode_iterations = 0.0;
  double err = 0.0, tol = 0.0;
  std::uint64_t hash = 0;
  bool ok = true;
  const auto t_start = Clock::now();
  for (int episode = 0; ok && (since(t_start) < args.seconds ||
                               step_s.size() < kMinTimedSteps);
       ++episode) {
    for (int i = 0; i < kSetupsPerEpisode; ++i) construct();
    Scope span(tracer, "episode " + std::to_string(episode), "core");
    const auto first = checked_step(*ses, r, tracer, tracer.enabled());
    ok = first.has_value();
    if (!ok) break;
    first_steps.push_back(*first);
    before = CounterSnapshot::take(*ses);
    episode_iterations = 0.0;
    const auto t0 = Clock::now();
    for (int k = 0; ok && k < kEpisodeSteps; ++k) {
      // With tracing on every other step is traced, so the trace's own
      // overhead is measured in the same run (per Krylov iteration, which
      // removes the drift of iteration counts from step to step).
      const bool traced = tracer.enabled() && k % 2 == 0;
      int iters = 0;
      const auto dt = checked_step(*ses, r, tracer, traced, &iters);
      ok = dt.has_value();
      if (!ok) break;
      step_s.push_back(*dt);
      episode_iterations += iters;
      (traced ? traced_per_iter : untraced_per_iter)
          .push_back(*dt / std::max(iters, 1));
    }
    timed_s += since(t0);
    iterations += episode_iterations;
    after = CounterSnapshot::take(*ses);
    if (!ok) break;

    // Every episode must end within the scenario's tolerance, on the same
    // bits as the first.
    err = ses->analytic_error();
    tol = scenario_tolerance(cfg.problem, ses->time());
    const std::uint64_t h = field_hash(ses->radiation());
    if (!(err <= tol)) {
      r.tally.fail_last();
      r.notes.push_back("episode " + std::to_string(episode) +
                        ": analytic error " + fmt("%.4g", err) +
                        " exceeds tolerance " + fmt("%.4g", tol));
    }
    if (episode > 0 && h != hash) {
      r.tally.fail_last();
      r.notes.push_back("episode " + std::to_string(episode) +
                        " ended on radiation hash " + hex(h) + ", not " +
                        hex(hash));
    }
    hash = h;
  }
  const double rss = peak_rss_mb();
  if (step_s.empty()) step_s.push_back(since(t_start));
  if (timed_s <= 0.0) timed_s = since(t_start);

  r.e2e.push_back({"steps_per_s", static_cast<double>(step_s.size()) / timed_s,
                   "1/s"});
  add_step_metrics(r, step_s);
  r.e2e.push_back({"setup_s", median(setup), "s"});
  r.e2e.push_back({"peak_rss_mb", rss, "MB"});

  const int steps_taken = ses->steps_taken();
  std::string sim_seconds;
  for (std::size_t p = 0; p < ses->exec().nprofiles(); ++p)
    sim_seconds += std::string(p ? ", " : "") + ses->exec().profile(p).name() +
                   " " + fmt("%.6f", ses->elapsed(p)) + " s";
  r.notes.push_back(std::to_string(first_steps.size()) + " episodes of " +
                    std::to_string(steps_taken) + " steps, each ending at t = " +
                    fmt("%.4f", ses->time()) + " with analytic error " +
                    fmt("%.5g", err) + " (tolerance " + fmt("%.4g", tol) +
                    ") and radiation hash " + hex(hash));
  r.notes.push_back("deterministic counts (not performance): " +
                    fmt("%.2f", iterations / std::max<double>(step_s.size(), 1)) +
                    " Krylov iterations per timed step; simulated seconds per "
                    "episode: " + sim_seconds);

  if (tracer.enabled() && ok) {
    ProbeInput in;
    in.sim = ses.get();
    in.counts = StepCounts::between(before, after, kEpisodeSteps,
                                    episode_iterations);
    in.step_s = median(step_s);
    in.work_dir = args.work_dir;
    r.layers.push_back({"core.first_step_s", median(first_steps), "s"});
    r.layers.push_back(
        {"core.trace_overhead_frac",
         median(traced_per_iter) / median(untraced_per_iter) - 1.0, "ratio"});
    for (auto& m : run_probes(in, tracer)) r.layers.push_back(std::move(m));
  }

  // The decomposed run must reproduce the single-rank field bit for bit;
  // the reference is computed here, in the same invocation, so no stored
  // trajectory has to change when the model deliberately does.
  if (spec.nprx > 1 && ok) {
    Scope span(tracer, "paper-solo reference", "core");
    Result ref;
    core::Simulation solo(paper_config(kPaperSolo));
    bool ref_ok = true;
    while (ref_ok && solo.steps_taken() < steps_taken)
      ref_ok = checked_step(solo, ref, tracer, false).has_value();
    const std::uint64_t solo_hash = field_hash(solo.radiation());
    if (!ref_ok || solo_hash != hash) {
      r.tally.fail_last();
      r.notes.push_back("radiation hash " + hex(hash) +
                        " differs from the paper-solo reference " +
                        hex(solo_hash) + " after " +
                        std::to_string(steps_taken) + " steps");
    } else {
      r.notes.push_back("radiation hash matches the paper-solo reference "
                        "after " + std::to_string(steps_taken) + " steps");
    }
  }
  return r;
}

// --- farm-mix ---------------------------------------------------------------

/// Wraps a registered scenario and timestamps each of its steps (pick_dt
/// through advance) from outside, so the farm's waves are observable
/// without instrumenting the library.
class TimedProblem final : public v2d::scenario::Problem {
public:
  TimedProblem(std::string name,
               std::unique_ptr<v2d::scenario::Problem> inner)
      : name_(std::move(name)), inner_(std::move(inner)) {}

  const char* name() const override { return name_.c_str(); }
  v2d::grid::Grid2D make_grid(const core::RunConfig& cfg) const override {
    return inner_->make_grid(cfg);
  }
  void initialize(const v2d::scenario::ProblemSetup& setup) override {
    inner_->initialize(setup);
  }
  double pick_dt(v2d::linalg::ExecContext& ctx,
                 const core::RunConfig& cfg) override {
    t0_ = Clock::now();
    if (tracer_ != nullptr && traced_)
      span_.emplace(*tracer_, name_ + " step", "farm", parent_);
    return inner_->pick_dt(ctx, cfg);
  }
  v2d::rad::StepStats advance(v2d::linalg::ExecContext& ctx,
                              double dt) override {
    v2d::rad::StepStats st = inner_->advance(ctx, dt);
    span_.reset();
    const auto end = Clock::now();
    first_step_s_ = ends_.empty() ? std::chrono::duration<double>(end - t0_).count()
                                  : first_step_s_;
    ends_.push_back(end);
    return st;
  }
  double analytic_error(double t) const override {
    return inner_->analytic_error(t);
  }
  double total_energy() const override { return inner_->total_energy(); }
  int state_arrays() const override { return inner_->state_arrays(); }
  void write_state(v2d::io::Group& fields) const override {
    inner_->write_state(fields);
  }
  void read_state(const v2d::io::Group& fields) override {
    inner_->read_state(fields);
  }
  v2d::rad::RadiationStepper* stepper() override { return inner_->stepper(); }
  v2d::linalg::DistVector* radiation() override { return inner_->radiation(); }

  /// When each step ended, and how long the first step took.
  const std::vector<Clock::time_point>& step_ends() const { return ends_; }
  double first_step_s() const { return first_step_s_; }

  /// Where steps of the sessions created from now on record their spans.
  static void trace_into(Tracer* tracer, bool traced, std::int64_t parent) {
    tracer_ = tracer;
    traced_ = traced;
    parent_ = parent;
  }

private:
  // Set on the scheduler thread between batches, read by steps inside a
  // batch; FarmScheduler::run() orders the two.
  static inline Tracer* tracer_ = nullptr;
  static inline bool traced_ = false;
  static inline std::int64_t parent_ = -1;

  std::string name_;
  std::unique_ptr<v2d::scenario::Problem> inner_;
  Clock::time_point t0_;
  std::optional<Scope> span_;
  std::vector<Clock::time_point> ends_;
  double first_step_s_ = 0.0;
};

std::string timed_name(const std::string& problem) {
  return "perfbench-timed-" + problem;
}

void register_timed_problems() {
  auto& reg = v2d::scenario::ScenarioRegistry::instance();
  for (const std::string& p : reg.names()) {
    if (p.rfind("perfbench-timed-", 0) == 0 || reg.has(timed_name(p)))
      continue;
    reg.add(timed_name(p), "per-step timed wrapper of " + p, [p] {
      return std::make_unique<TimedProblem>(
          timed_name(p), v2d::scenario::ScenarioRegistry::instance().create(p));
    });
  }
}

Result run_farm(const Args& args, Tracer& tracer) {
  Result r;
  register_timed_problems();
  std::filesystem::create_directories(args.work_dir);

  const std::vector<MixJob> mix = generate_farm_mix(args.seed);
  r.notes.push_back("farm-mix job list for seed " + std::to_string(args.seed) +
                    " (replay: save these lines to a file and run `v2d "
                    "--farm <file> --host-threads " +
                    std::to_string(kFarmThreads) + "`):");
  for (const MixJob& j : mix)
    r.notes.push_back("  " + job_line(j, args.work_dir));

  std::vector<double> setup, step_s, first_steps;
  double batch_s = 0.0, steps = 0.0, jobs_ok = 0.0;
  double traced_s = 0.0, traced_steps = 0.0, untraced_s = 0.0,
         untraced_steps = 0.0;
  std::unique_ptr<v2d::farm::FarmScheduler> last;
  v2d::farm::FarmSummary summary;
  const auto t_start = Clock::now();
  for (int batch = 0;; ++batch) {
    // With tracing on, odd batches record their steps' spans and even ones
    // do not; the overhead compares the two, leaving out batch 0, which
    // also pays the process's first-use costs.
    const bool traced = tracer.enabled() && batch % 2 == 1;
    std::vector<std::vector<Clock::time_point>> step_ends(mix.size());
    std::vector<double> first_step(mix.size(), 0.0);
    v2d::farm::FarmOptions opt;
    opt.host_threads = kFarmThreads;
    opt.on_job_complete = [&](std::size_t i, core::Simulation& s) {
      const auto& p = dynamic_cast<TimedProblem&>(s.problem());
      step_ends[i] = p.step_ends();
      first_step[i] = p.first_step_s();
    };

    // Set-up: job-list generation plus scheduler construction, repeated
    // so the median of a microsecond-scale phase is steady.
    for (int rep = 0; rep < kFarmSetupRepeats; ++rep) {
      last.reset();
      Scope span(tracer, "setup", "core");
      const auto t0 = Clock::now();
      const std::vector<MixJob> jobs = generate_farm_mix(args.seed);
      last = std::make_unique<v2d::farm::FarmScheduler>(opt);
      for (const MixJob& j : jobs)
        last->add({j.name, job_config(j, args.work_dir, timed_name(j.problem))});
      setup.push_back(since(t0));
    }

    double dt = 0.0;
    Clock::time_point t0;
    {
      Scope span(tracer, "FarmScheduler::run", "farm");
      TimedProblem::trace_into(&tracer, traced, span.id());
      t0 = Clock::now();
      summary = last->run();
      dt = since(t0);
      TimedProblem::trace_into(nullptr, false, -1);
    }
    batch_s += dt;
    steps += static_cast<double>(summary.scenario_steps);
    if (batch > 0) {
      (traced ? traced_s : untraced_s) += dt;
      (traced ? traced_steps : untraced_steps) +=
          static_cast<double>(summary.scenario_steps);
    }

    for (std::size_t i = 0; i < summary.jobs.size(); ++i) {
      const auto& job = summary.jobs[i];
      std::string error = job.error;
      const double tol = scenario_tolerance(mix[i].problem, job.sim_time);
      if (error.empty() && (job.steps != mix[i].steps ||
                            step_ends[i].size() != std::size_t(kMixSteps)))
        error = "ran " + std::to_string(job.steps) + " steps";
      if (error.empty() && !(job.analytic_error <= tol))
        error = "analytic error " + fmt("%.4g", job.analytic_error) +
                " exceeds tolerance " + fmt("%.4g", tol);
      r.tally.record(error.empty());
      if (!error.empty()) {
        r.notes.push_back("batch " + std::to_string(batch) + " job " +
                          job.name + " failed: " + error);
        continue;
      }
      jobs_ok += 1.0;
      if (batch == 0) first_steps.push_back(first_step[i]);
    }
    // Every job is admitted in wave 0 and takes kMixSteps steps, so wave k
    // holds the k-th step of every job and ends with the last of them.  A
    // wave's host seconds, from the end of the previous wave (the batch
    // start for wave 0: admission included), over the jobs it stepped is
    // the farm's host time per scenario-step.
    if (r.tally.ok()) {
      Clock::time_point prev = t0;
      for (int k = 0; k < kMixSteps; ++k) {
        Clock::time_point end = prev;
        for (const auto& ends : step_ends)
          end = std::max(end, ends[static_cast<std::size_t>(k)]);
        step_s.push_back(std::chrono::duration<double>(end - prev).count() /
                         static_cast<double>(mix.size()));
        prev = end;
      }
    }
    const bool enough = since(t_start) >= args.seconds &&
                        step_s.size() >= kMinTimedSteps &&
                        (!tracer.enabled() || untraced_s > 0.0);
    if (enough || !r.tally.ok()) break;
  }
  const double rss = peak_rss_mb();
  if (step_s.empty()) step_s.push_back(batch_s);

  r.e2e.push_back({"steps_per_s", steps / batch_s, "1/s"});
  add_step_metrics(r, step_s);
  r.e2e.push_back({"setup_s", median(setup), "s"});
  r.e2e.push_back({"peak_rss_mb", rss, "MB"});
  r.e2e.push_back({"jobs_per_s", jobs_ok / batch_s, "1/s"});
  r.notes.push_back(
      "last batch: " + std::to_string(summary.jobs.size()) + " jobs, " +
      std::to_string(summary.scenario_steps) + " steps in " +
      std::to_string(summary.waves) + " waves; count memo " +
      std::to_string(summary.memo_hits) + " hits / " +
      std::to_string(summary.memo_misses) + " misses; PriceMemo " +
      std::to_string(summary.price_hits) + " hits / " +
      std::to_string(summary.price_misses) + " misses");

  if (tracer.enabled() && r.tally.ok()) {
    // Probe a session of the dominant job shape on the farm's warm shared
    // runtime (the farm's own sessions are gone once run() returns).
    MixJob shape{"probe", "gaussian-pulse", 512, 1 << 30, 0};
    const core::RunConfig cfg = job_config(shape, args.work_dir, shape.problem);
    core::Simulation probe(cfg, v2d::sim::MachineSpec::a64fx(),
                           &last->shared());
    Result scratch;
    std::vector<double> probe_steps;
    double iterations = 0.0;
    bool ok = checked_step(probe, scratch, tracer, true).has_value();
    const CounterSnapshot before = CounterSnapshot::take(probe);
    for (int i = 0; ok && i < kFarmProbeSteps; ++i) {
      int iters = 0;
      const auto dt = checked_step(probe, scratch, tracer, true, &iters);
      ok = dt.has_value();
      if (ok) probe_steps.push_back(*dt);
      iterations += ok ? iters : 0;
    }
    if (!ok) {
      r.tally.fail_last();
      r.notes.insert(r.notes.end(), scratch.notes.begin(), scratch.notes.end());
    } else {
      ProbeInput in;
      in.sim = &probe;
      in.counts = StepCounts::between(before, CounterSnapshot::take(probe),
                                      kFarmProbeSteps, iterations);
      in.step_s = median(probe_steps);
      in.farm = &summary;
      in.price_memo = last->shared().price_memo();
      in.work_dir = args.work_dir;
      r.layers.push_back({"core.first_step_s",
                          first_steps.empty() ? 0.0 : median(first_steps),
                          "s"});
      r.layers.push_back({"core.trace_overhead_frac",
                          (untraced_steps / untraced_s) /
                                  (traced_steps / traced_s) -
                              1.0,
                          "ratio"});
      for (auto& m : run_probes(in, tracer)) r.layers.push_back(std::move(m));
    }
  }
  for (const MixJob& j : mix)
    if (j.checkpoint_every > 0)
      std::filesystem::remove(args.work_dir + "/" + j.name + ".h5l");
  return r;
}

// --- output -----------------------------------------------------------------

const Metric* find(const std::vector<Metric>& ms, const std::string& name) {
  for (const auto& m : ms)
    if (m.name == name) return &m;
  return nullptr;
}

std::string pad(const std::string& s, std::size_t width) {
  return s + std::string(s.size() < width ? width - s.size() : 1, ' ');
}

void print_report(const Args& args, const Result& r) {
  std::cout << "perfbench " << args.workload << " seed=" << args.seed
            << " seconds=" << args.seconds << " trace=" << args.trace << '\n';
  std::cout << "end-to-end (" << r.samples << " step samples):\n";
  for (const char* name : {"steps_per_s", "step_s.p50", "step_s.p90",
                           "jobs_per_s", "setup_s", "peak_rss_mb"}) {
    const Metric* m = find(r.e2e, name);
    std::cout << "  " << pad(name, 16)
              << (m != nullptr ? fmt("%.6g", m->value) + ' ' + m->unit
                               : std::string("n/a (not a farm workload)"))
              << '\n';
  }
  std::cout << "  " << pad("failed_frac", 16)
            << fmt("%.6g", r.tally.failed_frac()) << " (" << r.tally.failed
            << " of " << r.tally.attempted << " operations)\n";
  if (!r.layers.empty()) {
    std::cout << "per-layer (probes timed from outside; bypassed = the "
                 "workload does not use the layer, no change predicted):\n";
    for (const auto& m : r.layers)
      std::cout << "  " << pad(m.name, 34) << fmt("%.6g", m.value) << ' '
                << m.unit << (m.bypassed ? "  (bypassed: n/a)" : "") << '\n';
  }
  for (const auto& n : r.notes) std::cout << n << '\n';
}

std::string json_line(const Result& r, const std::vector<Metric>& metrics) {
  std::ostringstream os;
  os << "{\"correct\": " << (r.tally.ok() ? "true" : "false")
     << ", \"attempted\": " << r.tally.attempted
     << ", \"failed\": " << r.tally.failed << ", \"metrics\": {";
  bool first = true;
  for (const auto& m : metrics) {
    os << (first ? "" : ", ") << json_string(m.name) << ": {\"value\": "
       << fmt("%.17g", m.value) << ", \"unit\": " << json_string(m.unit)
       << '}';
    first = false;
  }
  os << "}}";
  return os.str();
}

Args parse_args(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string k = argv[i];
    if (i + 1 >= argc) throw std::invalid_argument("missing value for " + k);
    const std::string v = argv[++i];
    if (k == "--workload") a.workload = v;
    else if (k == "--seed") a.seed = std::stoull(v);
    else if (k == "--seconds") a.seconds = std::stod(v);
    else if (k == "--trace") a.trace = std::stoi(v) != 0;
    else if (k == "--work-dir") a.work_dir = v;
    else if (k == "--trace-out") a.trace_out = v;
    else throw std::invalid_argument("unknown option " + k);
  }
  if (a.workload.empty()) throw std::invalid_argument("--workload is required");
  if (!(a.seconds > 0.0)) throw std::invalid_argument("--seconds must be > 0");
  return a;
}

int run(int argc, char** argv) {
  const Args args = parse_args(argc, argv);
  std::filesystem::create_directories(args.work_dir);
  Tracer tracer(args.trace, args.workload + "/seed" +
                                std::to_string(args.seed) + "/pid" +
                                std::to_string(::getpid()));
  Result r;
  {
    Scope span(tracer, args.workload, "core");
    if (args.workload == kPaperSolo.name) r = run_paper(kPaperSolo, args, tracer);
    else if (args.workload == kPaper16.name) r = run_paper(kPaper16, args, tracer);
    else if (args.workload == "farm-mix") r = run_farm(args, tracer);
    else throw std::invalid_argument("unknown workload " + args.workload);
  }
  if (args.trace) {
    const std::string path = args.trace_out.empty()
                                 ? args.work_dir + "/" + args.workload +
                                       "-seed" + std::to_string(args.seed) +
                                       ".trace.json"
                                 : args.trace_out;
    std::ofstream os(path);
    tracer.write_json(os);
    if (!os) throw std::runtime_error("cannot write trace " + path);
    r.notes.push_back("trace: " + path + " (" +
                      std::to_string(tracer.spans().size()) + " spans)");
  }
  for (const auto& m : r.layers)
    if (!std::isfinite(m.value))
      throw std::runtime_error("metric " + m.name + " is not finite");
  print_report(args, r);
  std::vector<Metric> reported;
  for (const char* name :
       {"steps_per_s", "step_s.p50", "step_s.p90", "setup_s", "peak_rss_mb"})
    if (const Metric* m = find(r.e2e, name)) reported.push_back(*m);
  std::cout << json_line(r, args.trace ? r.layers : reported) << std::endl;
  return r.tally.ok() ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  try {
    return perfbench::run(argc, argv);
  } catch (const std::exception& e) {
    std::cerr << "perfbench: " << e.what() << '\n';
    return 2;
  }
}
