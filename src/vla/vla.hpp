#pragma once
/// \file vla.hpp
/// \brief Vector-length-agnostic SVE-like execution layer.
///
/// This is the repo's stand-in for ACLE SVE intrinsics.  Kernels are
/// written once against vla::Context in the canonical SVE idiom —
/// `whilelt` predicated strip-mined loops — and every operation both
/// *computes* the double-precision result on the host and *records* an
/// instruction into a sim::KernelCounts.  The recorded stream is later
/// priced by sim::CostModel under any ExecMode/compiler profile, so
/// "SVE on/off" and "which compiler" are pricing decisions, not re-runs.
///
/// Supported vector lengths are the architectural SVE range, 128–2048 bits
/// in multiples of 128 (2–32 double lanes).  Predicates are prefix
/// predicates (the only kind `whilelt` produces); that covers every V2D
/// kernel, which are all strip-mined streaming loops.

#include <array>
#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <shared_mutex>
#include <span>
#include <string>
#include <unordered_map>
#include <utility>

#include "sim/isa.hpp"
#include "support/error.hpp"
#include "vla/kernel_dag.hpp"

namespace v2d::vla {

/// How the VLA layer runs a kernel.
///
///   Interpret — the reference backend: every ld1/fma/st1 loops lane-by-lane
///               over a VReg and records its instruction op-by-op.
///   Native    — the fast path: kernels run as raw-pointer loops the host
///               compiler can auto-vectorize, and the recording is produced
///               analytically from closed-form KernelCounts formulas
///               (memoized per fork family).  Results and counts are
///               bit-identical to the interpreter by construction; the
///               equivalence suite (tests/test_vla_fastpath.cpp) proves it.
enum class VlaExecMode : std::uint8_t {
  Interpret,
  Native,
};

inline const char* vla_exec_mode_name(VlaExecMode m) {
  return m == VlaExecMode::Native ? "native" : "interpret";
}

inline VlaExecMode vla_exec_mode_from_name(const std::string& name) {
  if (name == "native") return VlaExecMode::Native;
  if (name == "interpret") return VlaExecMode::Interpret;
  throw Error("unknown VLA exec mode '" + name +
              "' (expected interpret|native)");
}

namespace detail {
inline std::atomic<std::uint64_t>& process_hits() {
  static std::atomic<std::uint64_t> v{0};
  return v;
}
inline std::atomic<std::uint64_t>& process_misses() {
  static std::atomic<std::uint64_t> v{0};
  return v;
}
}  // namespace detail

/// Process-wide analytic-count memo statistics, accumulated across *every*
/// Context family in the process — fork()ed rank contexts and farm-shared
/// session contexts alike.  Per-family counters (Context::memo_hits /
/// memo_misses) only see their own fork family, which made the totals a
/// per-run report; long-lived multi-session processes (the farm) want the
/// process-wide view, so every memo probe is counted here as well (a
/// front-entry hit when its context publishes, see Context::memo_counts).
inline std::uint64_t process_memo_hits() {
  return detail::process_hits().load(std::memory_order_relaxed);
}
inline std::uint64_t process_memo_misses() {
  return detail::process_misses().load(std::memory_order_relaxed);
}

/// Architectural bounds for SVE vector lengths.
inline constexpr unsigned kMinVectorBits = 128;
inline constexpr unsigned kMaxVectorBits = 2048;
inline constexpr unsigned kMaxLanes = kMaxVectorBits / 64;

/// A configured vector length (the "hardware" VL the kernel runs at).
class VectorArch {
public:
  explicit VectorArch(unsigned bits = 512) : bits_(bits) {
    V2D_REQUIRE(bits >= kMinVectorBits && bits <= kMaxVectorBits &&
                    bits % kMinVectorBits == 0,
                "SVE vector length must be 128..2048 bits in steps of 128");
  }
  unsigned bits() const { return bits_; }
  unsigned lanes() const { return bits_ / 64; }

private:
  unsigned bits_;
};

/// Prefix predicate: lanes [0, active) enabled out of [0, width).
struct Predicate {
  std::uint32_t active = 0;
  std::uint32_t width = 0;

  bool any() const { return active > 0; }
  bool full() const { return active == width; }
};

/// A vector register of f64 lanes.  Only the first Context::lanes() entries
/// are meaningful.
struct VReg {
  std::array<double, kMaxLanes> lane{};

  double operator[](unsigned i) const { return lane[i]; }
  double& operator[](unsigned i) { return lane[i]; }
};

/// Execution + recording context.  One per simulated rank (cheap to
/// construct).  All operations are predicated; inactive lanes of the
/// result are zero (SVE zeroing predication).
class Context {
public:
  explicit Context(VectorArch arch = VectorArch{},
                   VlaExecMode mode = VlaExecMode::Interpret)
      : arch_(arch), mode_(mode),
        count_cache_(std::make_shared<CountCache>()),
        dag_store_(std::make_shared<DagStore>()) {}

  /// Copies share the source's fork family and recording but start with
  /// an empty memo front entry and no unpublished hits; moves carry both.
  Context(const Context& o)
      : arch_(o.arch_), mode_(o.mode_), counts_(o.counts_),
        count_cache_(o.count_cache_), dag_store_(o.dag_store_) {}
  Context(Context&& o) noexcept
      : arch_(o.arch_), mode_(o.mode_), counts_(o.counts_),
        count_cache_(std::move(o.count_cache_)),
        dag_store_(std::move(o.dag_store_)), front_key_(o.front_key_),
        front_(std::exchange(o.front_, nullptr)),
        front_hits_(std::exchange(o.front_hits_, 0)) {}
  /// Publishes this context's pending hits to its old family first.
  Context& operator=(Context o) noexcept {
    publish_hits();
    arch_ = o.arch_;
    mode_ = o.mode_;
    counts_ = o.counts_;
    count_cache_ = std::move(o.count_cache_);
    dag_store_ = std::move(o.dag_store_);
    front_key_ = o.front_key_;
    front_ = std::exchange(o.front_, nullptr);
    front_hits_ = std::exchange(o.front_hits_, 0);
    return *this;
  }
  ~Context() { publish_hits(); }

  unsigned lanes() const { return arch_.lanes(); }
  const VectorArch& arch() const { return arch_; }

  /// Child context for rank-parallel host execution: same VL and exec
  /// mode, sharing this context's (read-mostly, lock-guarded) analytic
  /// count cache, but with a private recording accumulator so concurrent
  /// rank tasks never interleave their instruction streams.  Allocation-
  /// free beyond the shared_ptr bump — fork() runs once per rank task.
  Context fork() const { return Context(arch_, mode_, count_cache_, dag_store_); }

  /// The fork-family memo of captured solver-iteration kernel DAGs (see
  /// vla/kernel_dag.hpp).  Like the analytic-count cache it is shared
  /// across fork()ed contexts and farm sessions built from one prototype;
  /// keys carry the full (solver, precond, shape, VL, exec-mode)
  /// configuration, so concurrent sessions never collide.
  DagStore& dag_store() const { return *dag_store_; }

  VlaExecMode exec_mode() const { return mode_; }
  void set_exec_mode(VlaExecMode m) { mode_ = m; }
  /// True when kernels should take the native raw-pointer fast path.
  bool native() const { return mode_ == VlaExecMode::Native; }

  /// Fold a pre-computed recording (an analytic fast-path formula) into the
  /// accumulated counts.  Entries must carry calls == elements == 0; those
  /// fields belong to ExecContext::commit.
  void add_counts(const sim::KernelCounts& c) { counts_ += c; }

  /// Memoized analytic-count lookup.  `key` identifies (kernel shape, n);
  /// the factory runs once per distinct key and its result is cached for
  /// the lifetime of this Context *and all its forks* (the fork family),
  /// so steady-state solver iterations pay one probe per kernel call per
  /// tile row instead of per-op recording.
  ///
  /// Each Context keeps a private front entry: the last key it probed and
  /// a pointer to that key's entry in the family's shared map.  A probe
  /// that matches the front takes no lock and writes only this Context,
  /// so rank tasks on different host threads never share a cache line on
  /// the hit path.  The pointer stays valid because map entries are never
  /// erased and unordered_map never relocates a node, across later
  /// inserts and rehashes alike.  Copies start with an empty front, so a
  /// Context can never serve an entry from another family's map.
  ///
  /// Any other probe takes the family's shared_mutex: a hit there counts
  /// at once, a miss runs the factory and inserts under the exclusive
  /// lock (a duplicate concurrent miss recomputes the same deterministic
  /// value).  Front hits are counted privately and published to the
  /// family and process counters by take_counts(), memo_hits() and the
  /// destructor.
  ///
  /// The key space is partitioned by producer so a Context shared across
  /// farm jobs running different --fuse modes can never read a count
  /// cached under another mode's kernel: primitive/bespoke shapes key as
  /// (KernelShape << 56) | n with bit 63 clear, while planner-generated
  /// fused groups key as (1 << 63) | (stamp id << 56) | n, where the
  /// stamp id is assigned from the fused-op signature registry
  /// (fusion::GroupProgram::sig) in fixed registration order.
  template <typename Factory>
  const sim::KernelCounts& memo_counts(std::uint64_t key, Factory&& make) {
    if (front_ != nullptr && front_key_ == key) {
      ++front_hits_;
      return *front_;
    }
    CountCache& cache = *count_cache_;
    {
      std::shared_lock<std::shared_mutex> lk(cache.mu);
      auto it = cache.map.find(key);
      if (it != cache.map.end()) {
        cache.hits.fetch_add(1, std::memory_order_relaxed);
        detail::process_hits().fetch_add(1, std::memory_order_relaxed);
        return set_front(key, it->second);
      }
    }
    cache.misses.fetch_add(1, std::memory_order_relaxed);
    detail::process_misses().fetch_add(1, std::memory_order_relaxed);
    sim::KernelCounts made = make();
    std::unique_lock<std::shared_mutex> lk(cache.mu);
    return set_front(key, cache.map.try_emplace(key, made).first->second);
  }

  /// Analytic-count memo cache statistics, accumulated across this context
  /// and all its forks for the lifetime of the fork family.  Exact once
  /// every fork that probed has committed (take_counts) or been destroyed;
  /// this context's own front hits are published by the call itself.  A
  /// steady-state native-mode run should be almost all hits; the miss
  /// count bounds how many distinct (shape, n) formulas were ever
  /// evaluated.  Exposed so perfmon can report fast-path recording
  /// overhead (see perfmon::MemoCacheStats).
  std::uint64_t memo_hits() const {
    publish_hits();
    return count_cache_->hits.load(std::memory_order_relaxed);
  }
  std::uint64_t memo_misses() const {
    return count_cache_->misses.load(std::memory_order_relaxed);
  }

  /// Fold an externally-estimated instruction stream into the recording
  /// (used for work the kernel does that is not expressed through VLA
  /// calls, e.g. V2D's on-the-fly coefficient evaluation).  `lanes` is the
  /// scalar-equivalent op count; vector instructions are derived at the
  /// configured VL.
  void record_external(sim::OpClass c, std::uint64_t scalar_ops,
                       std::uint64_t bytes_read, std::uint64_t bytes_written) {
    const auto i = static_cast<std::size_t>(c);
    counts_.lanes[i] += scalar_ops;
    counts_.instr[i] += (scalar_ops + lanes() - 1) / lanes();
    counts_.bytes_read += bytes_read;
    counts_.bytes_written += bytes_written;
  }

  /// Take and reset the accumulated recording.  Also publishes this
  /// context's front-entry memo hits (see memo_counts), so the family
  /// counters are exact after every ExecContext::commit.
  sim::KernelCounts take_counts() {
    publish_hits();
    sim::KernelCounts out = counts_;
    counts_ = sim::KernelCounts{};
    return out;
  }
  const sim::KernelCounts& counts() const { return counts_; }

  // --- predicate construction -------------------------------------------
  Predicate ptrue() {
    record(sim::OpClass::Predicate, lanes());
    return Predicate{lanes(), lanes()};
  }

  /// whilelt i, n — enable lanes for indices [i, min(i+VL, n)).
  Predicate whilelt(std::uint64_t i, std::uint64_t n) {
    record(sim::OpClass::Predicate, lanes());
    const std::uint64_t remaining = i < n ? n - i : 0;
    const std::uint32_t active =
        remaining < lanes() ? static_cast<std::uint32_t>(remaining) : lanes();
    return Predicate{active, lanes()};
  }

  /// Book the per-iteration loop control (index increment + back-edge).
  /// `elems` is the number of elements this iteration advanced by, so the
  /// scalar-equivalent pricing sees one branch per element.
  void loop_iter(std::uint32_t elems) {
    record(sim::OpClass::IntOp, elems);
    record(sim::OpClass::Branch, elems);
  }

  // --- moves --------------------------------------------------------------
  VReg dup(double x) {
    record(sim::OpClass::Select, 1);
    VReg r;
    for (unsigned l = 0; l < lanes(); ++l) r[l] = x;
    return r;
  }

  // --- memory -------------------------------------------------------------
  VReg ld1(const Predicate& p, const double* base) {
    check(p);
    record(sim::OpClass::LoadContig, p.active);
    counts_.bytes_read += p.active * sizeof(double);
    VReg r;
    for (unsigned l = 0; l < p.active; ++l) r[l] = base[l];
    return r;
  }

  void st1(const Predicate& p, double* base, const VReg& v) {
    check(p);
    record(sim::OpClass::StoreContig, p.active);
    counts_.bytes_written += p.active * sizeof(double);
    for (unsigned l = 0; l < p.active; ++l) base[l] = v[l];
  }

  /// Gather load: r[l] = base[idx[l]].
  VReg ld1_gather(const Predicate& p, const double* base,
                  std::span<const std::int64_t> idx) {
    check(p);
    V2D_REQUIRE(idx.size() >= p.active, "gather index vector too short");
    record(sim::OpClass::LoadGather, p.active);
    counts_.bytes_read += p.active * sizeof(double);
    VReg r;
    for (unsigned l = 0; l < p.active; ++l) r[l] = base[idx[l]];
    return r;
  }

  /// Scatter store: base[idx[l]] = v[l].
  void st1_scatter(const Predicate& p, double* base,
                   std::span<const std::int64_t> idx, const VReg& v) {
    check(p);
    V2D_REQUIRE(idx.size() >= p.active, "scatter index vector too short");
    record(sim::OpClass::StoreScatter, p.active);
    counts_.bytes_written += p.active * sizeof(double);
    for (unsigned l = 0; l < p.active; ++l) base[idx[l]] = v[l];
  }

  // --- arithmetic ----------------------------------------------------------
  VReg add(const Predicate& p, const VReg& a, const VReg& b) {
    return binary(p, a, b, sim::OpClass::FlopAdd,
                  [](double x, double y) { return x + y; });
  }
  VReg sub(const Predicate& p, const VReg& a, const VReg& b) {
    return binary(p, a, b, sim::OpClass::FlopAdd,
                  [](double x, double y) { return x - y; });
  }
  VReg mul(const Predicate& p, const VReg& a, const VReg& b) {
    return binary(p, a, b, sim::OpClass::FlopMul,
                  [](double x, double y) { return x * y; });
  }
  VReg div(const Predicate& p, const VReg& a, const VReg& b) {
    return binary(p, a, b, sim::OpClass::FlopDiv,
                  [](double x, double y) { return x / y; });
  }
  VReg vmin(const Predicate& p, const VReg& a, const VReg& b) {
    return binary(p, a, b, sim::OpClass::FlopCmp,
                  [](double x, double y) { return x < y ? x : y; });
  }
  VReg vmax(const Predicate& p, const VReg& a, const VReg& b) {
    return binary(p, a, b, sim::OpClass::FlopCmp,
                  [](double x, double y) { return x > y ? x : y; });
  }

  /// Fused multiply-add: a*b + c (SVE fmla, zeroing predication).
  VReg fma(const Predicate& p, const VReg& a, const VReg& b, const VReg& c) {
    check(p);
    record(sim::OpClass::FlopFma, p.active);
    VReg r;
    for (unsigned l = 0; l < p.active; ++l) r[l] = a[l] * b[l] + c[l];
    return r;
  }

  /// Fused multiply-add with *merging* predication: inactive lanes keep
  /// c's value (SVE fmla/m).  This is what reduction accumulators need —
  /// a zeroing tail strip would wipe the lanes accumulated so far.
  VReg fma_merge(const Predicate& p, const VReg& a, const VReg& b,
                 const VReg& c) {
    check(p);
    record(sim::OpClass::FlopFma, p.active);
    VReg r = c;
    for (unsigned l = 0; l < p.active; ++l) r[l] = a[l] * b[l] + c[l];
    return r;
  }

  VReg sqrt(const Predicate& p, const VReg& a) {
    check(p);
    record(sim::OpClass::FlopSqrt, p.active);
    VReg r;
    for (unsigned l = 0; l < p.active; ++l) r[l] = __builtin_sqrt(a[l]);
    return r;
  }

  VReg abs(const Predicate& p, const VReg& a) {
    check(p);
    record(sim::OpClass::FlopCmp, p.active);
    VReg r;
    for (unsigned l = 0; l < p.active; ++l)
      r[l] = a[l] < 0.0 ? -a[l] : a[l];
    return r;
  }

  /// Lane select: p ? a : b.  With prefix predicates this implements SVE
  /// `sel` where the predicate came from a comparison collapsed to a prefix;
  /// used for boundary handling.
  VReg sel(const Predicate& p, const VReg& a, const VReg& b) {
    record(sim::OpClass::Select, p.width);
    VReg r;
    for (unsigned l = 0; l < p.width && l < lanes(); ++l)
      r[l] = l < p.active ? a[l] : b[l];
    return r;
  }

  // --- reductions -----------------------------------------------------------
  /// Horizontal sum of active lanes (SVE faddv).
  double reduce_add(const Predicate& p, const VReg& a) {
    check(p);
    record(sim::OpClass::Reduce, p.active);
    double s = 0.0;
    for (unsigned l = 0; l < p.active; ++l) s += a[l];
    return s;
  }

  double reduce_max(const Predicate& p, const VReg& a) {
    check(p);
    record(sim::OpClass::Reduce, p.active);
    double s = p.any() ? a[0] : 0.0;
    for (unsigned l = 1; l < p.active; ++l) s = a[l] > s ? a[l] : s;
    return s;
  }

private:
  void check(const Predicate& p) const {
    V2D_CHECK(p.width == lanes(), "predicate built for a different VL");
    V2D_CHECK(p.active <= p.width, "corrupt predicate");
  }

  template <typename F>
  VReg binary(const Predicate& p, const VReg& a, const VReg& b,
              sim::OpClass c, F f) {
    check(p);
    record(c, p.active);
    VReg r;
    for (unsigned l = 0; l < p.active; ++l) r[l] = f(a[l], b[l]);
    return r;
  }

  void record(sim::OpClass c, std::uint64_t active) {
    counts_.record(c, active);
  }

  const sim::KernelCounts& set_front(std::uint64_t key,
                                     const sim::KernelCounts& entry) {
    front_key_ = key;
    front_ = &entry;
    return entry;
  }

  /// Add the front hits counted since the last publish to the family and
  /// process counters.
  void publish_hits() const {
    if (front_hits_ == 0) return;
    count_cache_->hits.fetch_add(front_hits_, std::memory_order_relaxed);
    detail::process_hits().fetch_add(front_hits_, std::memory_order_relaxed);
    front_hits_ = 0;
  }

  // Fast-path memo: (kernel shape, n) -> analytic counts.  Shared across
  // fork()ed contexts; entries are never erased, so a front-entry pointer
  // into `map` stays valid for the family's lifetime.
  struct CountCache {
    std::shared_mutex mu;
    std::unordered_map<std::uint64_t, sim::KernelCounts> map;
    std::atomic<std::uint64_t> hits{0};
    std::atomic<std::uint64_t> misses{0};
  };

  Context(VectorArch arch, VlaExecMode mode, std::shared_ptr<CountCache> cache,
          std::shared_ptr<DagStore> dags)
      : arch_(arch), mode_(mode), count_cache_(std::move(cache)),
        dag_store_(std::move(dags)) {}

  VectorArch arch_;
  VlaExecMode mode_ = VlaExecMode::Interpret;
  sim::KernelCounts counts_;
  std::shared_ptr<CountCache> count_cache_;
  std::shared_ptr<DagStore> dag_store_;
  // Private memo front entry (see memo_counts) and its unpublished hits.
  std::uint64_t front_key_ = 0;
  const sim::KernelCounts* front_ = nullptr;
  mutable std::uint64_t front_hits_ = 0;
};

}  // namespace v2d::vla
