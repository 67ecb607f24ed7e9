#pragma once
/// \file exec_context.hpp
/// \brief Bundles the VLA recorder with the execution pricer.
///
/// Every distributed operation takes an ExecContext.  The vla::Context
/// executes and records; commit() flushes the recording as one priced
/// kernel call attributed to a rank.  When `em` is null the numerics run
/// unpriced (unit tests of pure math use this).

#include <cstdint>
#include <string>
#include <vector>

#include "compiler/profile.hpp"
#include "mpisim/exec_model.hpp"
#include "support/thread_pool.hpp"
#include "vla/vla.hpp"

namespace v2d::linalg {

/// Whether the solvers' hot-loop call sites run as fused one-pass groups
/// (MATVEC+DPROD, DAXPY₂, precond+ganged-dot, fused residual/smoother)
/// instead of the kernel-per-pass Table II sequence.
///
///   Off — every call site runs the original kernel sequence; results,
///         recorded counts, ledgers and simulated clocks are bit-identical
///         to a build without the fusion layer.
///   On  — the call sites run groups generated by the fusion planner
///         (src/linalg/fusion/) in all three representations (interpreter
///         sweep, signature-keyed native stamps, composed analytic
///         counts), and the first solver iteration of each configuration
///         records its kernel DAG (vla/kernel_dag.hpp).  Fewer memory
///         passes, fewer kernel calls, less priced traffic.  Numerics are
///         pinned to Off: the groups evaluate the same per-element
///         expressions in the same association order, and reductions keep
///         the rank-ordered compensated merge, so the Krylov trajectory is
///         unchanged — only the price is.
///
/// "plan" is accepted as an alias of "on" (it named the planner while a
/// hand-written set of composites still backed "on"), so older job files
/// and checkpoints keep working.
enum class FuseMode : std::uint8_t {
  Off,
  On,
};

inline const char* fuse_mode_name(FuseMode m) {
  return m == FuseMode::On ? "on" : "off";
}

inline FuseMode fuse_mode_from_name(const std::string& name) {
  if (name == "on" || name == "plan") return FuseMode::On;
  if (name == "off") return FuseMode::Off;
  throw Error("unknown fuse mode '" + name +
              "' (expected off|on; plan is an alias of on)");
}

/// Host scheduler tag.  The barrier pool (par_ranks → ThreadPool::run) is
/// the only executor, so the tag has one value; the field is kept because
/// perfbench/src/probes.cpp copies it, its only reader.
enum class HostSched : std::uint8_t {
  Barrier,
};

struct ExecContext {
  vla::Context vctx;
  mpisim::ExecModel* em = nullptr;
  FuseMode fuse = FuseMode::Off;
  HostSched sched = HostSched::Barrier;
  /// When non-null, call sites record their primitive kernel launches
  /// here (the fusion planner's iteration-DAG capture, armed by
  /// linalg::DagCapture for the first solver iteration of a new
  /// configuration under FuseMode::On).  Never set on fork()ed rank
  /// contexts: recording stays on the driving thread so the captured
  /// node order is independent of the host-thread count.
  vla::DagRecorder* dag = nullptr;

  ExecContext() = default;
  explicit ExecContext(vla::VectorArch arch, mpisim::ExecModel* model = nullptr,
                       vla::VlaExecMode mode = vla::VlaExecMode::Interpret,
                       FuseMode fuse_mode = FuseMode::Off)
      : vctx(arch, mode), em(model), fuse(fuse_mode) {}
  ExecContext(vla::Context v, mpisim::ExecModel* model,
              FuseMode fuse_mode = FuseMode::Off)
      : vctx(std::move(v)), em(model), fuse(fuse_mode) {}

  /// True when call sites should run the planner-generated fused groups.
  bool fused() const { return fuse == FuseMode::On; }

  /// Rank-local child context for par_ranks: shares the pricer and the
  /// analytic count cache, with a private recording accumulator so
  /// concurrent rank tasks keep their instruction streams separate.
  /// Allocation-free beyond a shared_ptr bump — runs once per rank task.
  /// The DAG recorder is deliberately not propagated (capture stays on the
  /// driving thread).
  ExecContext fork() const { return ExecContext(vctx.fork(), em, fuse); }

  /// Flush the recording accumulated since the last commit as one kernel
  /// call by `rank` touching a `working_set_bytes` footprint.
  void commit(int rank, compiler::KernelFamily family,
              const std::string& region, std::uint64_t elements,
              std::uint64_t working_set_bytes) {
    sim::KernelCounts counts = vctx.take_counts();
    counts.calls = 1;
    counts.elements = elements;
    if (em != nullptr) em->kernel(rank, family, region, counts, working_set_bytes);
  }

  /// Discard any recording (used around setup code that should not be
  /// attributed to the solver).
  void discard() { (void)vctx.take_counts(); }

  /// Price scalar-heavy host code (coefficient assembly, small dense
  /// solves) from analytic per-element flop/traffic estimates instead of a
  /// VLA recording.  FMA-dominated mix is assumed; loop control is charged
  /// per element.
  void commit_synthetic(int rank, compiler::KernelFamily family,
                        const std::string& region, std::uint64_t elements,
                        std::uint64_t flops_per_elem,
                        std::uint64_t bytes_read_per_elem,
                        std::uint64_t bytes_written_per_elem,
                        std::uint64_t working_set_bytes) {
    if (em == nullptr) return;
    sim::KernelCounts c;
    const unsigned vl = vctx.lanes();
    const std::uint64_t fma = elements * flops_per_elem / 2;
    const std::uint64_t ld = elements * bytes_read_per_elem / 8;
    const std::uint64_t st = elements * bytes_written_per_elem / 8;
    auto rec = [&](sim::OpClass cls, std::uint64_t lanes) {
      const auto i = static_cast<std::size_t>(cls);
      c.lanes[i] = lanes;
      c.instr[i] = (lanes + vl - 1) / vl;
    };
    rec(sim::OpClass::FlopFma, fma);
    rec(sim::OpClass::LoadContig, ld);
    rec(sim::OpClass::StoreContig, st);
    c.lanes[static_cast<std::size_t>(sim::OpClass::Branch)] = elements;
    c.instr[static_cast<std::size_t>(sim::OpClass::Branch)] = elements;
    c.bytes_read = elements * bytes_read_per_elem;
    c.bytes_written = elements * bytes_written_per_elem;
    c.elements = elements;
    c.calls = 1;
    em->kernel(rank, family, region, c, working_set_bytes);
  }

  void allreduce(std::uint64_t bytes,
                 const std::string& region = "mpi_allreduce") {
    if (dag != nullptr) dag->barrier("allreduce");
    if (em != nullptr) em->allreduce(bytes, region);
  }

  void exchange(const std::vector<mpisim::Transfer>& transfers,
                const std::string& region = "mpi_halo") {
    if (dag != nullptr) dag->barrier("halo");
    if (em != nullptr) em->exchange(transfers, region);
  }
};

/// Run `fn(rank, rank_ctx)` for every simulated rank of `dec` (anything
/// with nranks()), concurrently on the host pool when it has more than one
/// lane.  Each task gets a fork()ed ExecContext — private recording,
/// shared count cache — so per-rank commits stay correctly attributed.
/// Safe whenever ranks touch disjoint tiles, which every V2D rank loop
/// guarantees; ExecModel::kernel writes only the committing rank's clock
/// and ledger slots.  Collective pricing (exchange/allreduce) must stay
/// outside — those are serial barrier points.  Results are bit-identical
/// to the serial loop: tasks share no mutable state, and the forked-
/// context path is taken even at one host thread so only execution order
/// varies with the thread count.
template <typename Dec, typename Fn>
void par_ranks(ExecContext& ctx, const Dec& dec, Fn&& fn) {
  parallel_for(dec.nranks(), [&](int r) {
    ExecContext rctx = ctx.fork();
    fn(r, rctx);
  });
}

}  // namespace v2d::linalg
