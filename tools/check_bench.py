#!/usr/bin/env python3
"""Perf-regression gate for the committed bench baselines.

Compares a freshly produced bench JSON against the baseline committed
under bench/baselines/, row by row.  Two kinds of checks run:

  * absolute floors — the properties a PR must never regress past
    (fusion >= 1.3x host speedup on memory-bound sizes, reduced simulated
    memory cycles/bytes, pinned trajectories; native fast path >= 5x on
    the hot Table II kernels);
  * relative-to-baseline — each row's speedup may not drop below
    (1 - tol) x its committed value.  Host timings on shared CI runners
    are noisy, so the default tolerance is generous; the floors do the
    hard gating.

Simulated quantities (cycles, bytes, iteration counts) are deterministic,
so those compare near-exactly; drift there means the pricing or the
solver trajectory changed and the baseline must be regenerated
deliberately (rerun the bench and commit the new JSON with the change
that explains it).

Usage:
  tools/check_bench.py fusion  BENCH_fusion.json  bench/baselines/BENCH_fusion.json
  tools/check_bench.py kernels BENCH_kernels.json bench/baselines/BENCH_kernels.json
  tools/check_bench.py rank_parallel BENCH_rank_parallel.json \
      bench/baselines/BENCH_rank_parallel.json
  tools/check_bench.py farm BENCH_farm.json bench/baselines/BENCH_farm.json
  tools/check_bench.py resilience BENCH_resilience.json \
      bench/baselines/BENCH_resilience.json

Conditional floors (rank_parallel, farm) carry an explicit per-row
"speedup_gate" marker — "enforced", "skipped" (host lacks the cores) or
"n/a" (not a gate row).  This checker re-derives what the marker *should*
be from the row's own host_cores, so a runner can neither silently skip a
floor it could have judged nor claim to have enforced one it couldn't.

--subset (rank_parallel only) permits the current run's rows to be a
subset of the baseline's, for CI legs that re-run only a slice of the
thread sweep (e.g. a forced --threads 1,2 leg on a 2-core runner).
"""

import argparse
import json
import sys

# Deterministic fields drift only when code meaningfully changes; allow a
# hair of slack for platform libm differences in iteration counts.
SIM_REL_TOL = 0.02

# Host-speedup floors (mirror the in-binary gates).
FUSION_GATE_SIZE = 256
FUSION_GATE_SPEEDUP = 1.3
KERNELS_GATE_N = 40000
KERNELS_GATE_SPEEDUP = 5.0
KERNELS_HOT = {"daxpy", "dprod", "matvec"}
RANK_PARALLEL_GATE_THREADS = 4
RANK_PARALLEL_GATE_SPEEDUP = 2.0
RANK_PARALLEL_GATE_RANKS = 16
FARM_GATE_JOBS = 8
FARM_GATE_SPEEDUP = 1.3
FARM_GATE_CORES = 2
# Resilience floors (mirror bench_resilience's in-binary gates).
GUARD_GATE_PCT = 5.0
GUARD_GATE_MIN_SECONDS = 0.05


def check_gate_marker(row, tag, expected, errors, field="speedup_gate"):
    """The marker in the JSON must match what the row's own data says it
    should be — a mismatch means the bench binary and this checker
    disagree about when the floor applies."""
    got = row.get(field, "<missing>")
    if got != expected:
        errors.append(
            f"{tag}: {field} is '{got}' but this row's own data says it "
            f"should be '{expected}'")
    return got == expected


def load(path):
    with open(path) as f:
        return json.load(f)


def index(rows, key_fields):
    out = {}
    for row in rows:
        out[tuple(row[k] for k in key_fields)] = row
    return out


def check_fusion(current, baseline, tol):
    errors = []
    cur = index(current, ("solver", "n", "vl_bits", "precond"))
    base = index(baseline, ("solver", "n", "vl_bits", "precond"))
    missing = set(base) - set(cur)
    if missing:
        errors.append(f"rows missing from current run: {sorted(missing)}")
    for key, row in sorted(cur.items()):
        tag = f"fusion {key[0]}/{key[1]}x{key[1]}@vl{key[2]}/{key[3]}"
        if not row["identical"]:
            errors.append(f"{tag}: fused trajectory diverged from unfused")
        if row["mem_cycles_fused"] >= row["mem_cycles_unfused"]:
            errors.append(f"{tag}: simulated memory cycles not reduced")
        if row["bytes_fused"] >= row["bytes_unfused"]:
            errors.append(f"{tag}: priced bytes not reduced")
        if (row["n"] >= FUSION_GATE_SIZE
                and row["host_speedup"] < FUSION_GATE_SPEEDUP):
            errors.append(
                f"{tag}: host speedup {row['host_speedup']:.2f} "
                f"< floor {FUSION_GATE_SPEEDUP}")
        ref = base.get(key)
        if ref is None:
            continue
        floor = ref["host_speedup"] * (1.0 - tol)
        if row["host_speedup"] < floor:
            errors.append(
                f"{tag}: host speedup {row['host_speedup']:.2f} < "
                f"baseline {ref['host_speedup']:.2f} - {tol:.0%}")
        for field in ("iters", "bytes_unfused", "bytes_fused",
                      "sim_fused_s", "mem_cycles_fused"):
            a, b = row[field], ref[field]
            if abs(a - b) > SIM_REL_TOL * max(abs(b), 1):
                errors.append(
                    f"{tag}: deterministic field '{field}' drifted "
                    f"({b} -> {a}); regenerate the baseline deliberately")
    return errors


def check_kernels(current, baseline, tol):
    errors = []
    cur = index(current, ("kernel", "n", "vl_bits"))
    base = index(baseline, ("kernel", "n", "vl_bits"))
    missing = set(base) - set(cur)
    if missing:
        errors.append(f"rows missing from current run: {sorted(missing)}")
    for key, row in sorted(cur.items()):
        kernel, n, vl = key
        tag = f"kernels {kernel}@n={n}/vl{vl}"
        if kernel in KERNELS_HOT and n >= KERNELS_GATE_N:
            if row["speedup"] < KERNELS_GATE_SPEEDUP:
                errors.append(
                    f"{tag}: native speedup {row['speedup']:.1f} "
                    f"< floor {KERNELS_GATE_SPEEDUP}")
        ref = base.get(key)
        if ref is None:
            continue
        floor = ref["speedup"] * (1.0 - tol)
        if row["speedup"] < floor:
            errors.append(
                f"{tag}: native speedup {row['speedup']:.1f} < "
                f"baseline {ref['speedup']:.1f} - {tol:.0%}")
    return errors


def check_rank_parallel(current, baseline, tol, subset=False):
    errors = []
    cur = index(current, ("threads",))
    base = index(baseline, ("threads",))
    missing = set(base) - set(cur)
    if missing and not subset:
        errors.append(f"rows missing from current run: {sorted(missing)}")
    for key, row in sorted(cur.items()):
        tag = f"rank_parallel threads={key[0]}"
        # The engine's invariant: bit-identical fields and simulated clocks
        # at any host-thread count.
        if not row["identical"]:
            errors.append(f"{tag}: diverged from the serial baseline")
        # The in-binary floor, re-checked here, fires only when the runner
        # can physically deliver the parallelism; the row's marker must
        # agree with that derivation.
        if (row["threads"] >= RANK_PARALLEL_GATE_THREADS
                and row["ranks"] >= RANK_PARALLEL_GATE_RANKS):
            expected = ("enforced" if row["host_cores"] >= row["threads"]
                        else "skipped")
            check_gate_marker(row, tag, expected, errors)
            if (expected == "enforced"
                    and row["speedup"] < RANK_PARALLEL_GATE_SPEEDUP):
                errors.append(
                    f"{tag}: host speedup {row['speedup']:.2f} "
                    f"< floor {RANK_PARALLEL_GATE_SPEEDUP}")
        else:
            check_gate_marker(row, tag, "n/a", errors)
        ref = base.get(key)
        if ref is None:
            continue
        # The simulated clock is deterministic: drift means the pricing or
        # trajectory changed and the baseline must be regenerated.
        a, b = row["sim_elapsed_s"], ref["sim_elapsed_s"]
        if abs(a - b) > SIM_REL_TOL * max(abs(b), 1e-30):
            errors.append(
                f"{tag}: deterministic field 'sim_elapsed_s' drifted "
                f"({b} -> {a}); regenerate the baseline deliberately")
        # Host speedups only compare like-for-like core counts: CI runners
        # differ from the baseline machine.
        if row["host_cores"] == ref["host_cores"]:
            floor = ref["speedup"] * (1.0 - tol)
            if row["speedup"] < floor:
                errors.append(
                    f"{tag}: host speedup {row['speedup']:.2f} < "
                    f"baseline {ref['speedup']:.2f} - {tol:.0%}")
    return errors


def check_farm(current, baseline, tol):
    errors = []
    cur = index(current, ("jobs",))
    base = index(baseline, ("jobs",))
    missing = set(base) - set(cur)
    if missing:
        errors.append(f"rows missing from current run: {sorted(missing)}")
    for key, row in sorted(cur.items()):
        tag = f"farm jobs={key[0]}"
        # The farm's invariant: every farmed job is bit-identical to its
        # solo run (fields and simulated clocks), at every batch size.
        if not row["identical"]:
            errors.append(f"{tag}: a farmed job diverged from its solo run")
        # The throughput floor applies at >= 8 same-shape jobs, but only
        # when the host can actually run sessions concurrently.
        if row["jobs"] >= FARM_GATE_JOBS:
            expected = ("enforced" if row["host_cores"] >= FARM_GATE_CORES
                        else "skipped")
            check_gate_marker(row, tag, expected, errors)
            if expected == "enforced" and row["speedup"] < FARM_GATE_SPEEDUP:
                errors.append(
                    f"{tag}: farm speedup {row['speedup']:.2f} "
                    f"< floor {FARM_GATE_SPEEDUP}")
        else:
            check_gate_marker(row, tag, "n/a", errors)
        ref = base.get(key)
        if ref is None:
            continue
        # The simulated clock of a farmed job is deterministic: drift means
        # pricing or the solver trajectory changed, and the baseline must
        # be regenerated deliberately.
        a, b = row["sim_elapsed_s"], ref["sim_elapsed_s"]
        if abs(a - b) > SIM_REL_TOL * max(abs(b), 1e-30):
            errors.append(
                f"{tag}: deterministic field 'sim_elapsed_s' drifted "
                f"({b} -> {a}); regenerate the baseline deliberately")
        # Host throughput only compares like-for-like core counts.
        if row["host_cores"] == ref["host_cores"]:
            floor = ref["speedup"] * (1.0 - tol)
            if row["speedup"] < floor:
                errors.append(
                    f"{tag}: farm speedup {row['speedup']:.2f} < "
                    f"baseline {ref['speedup']:.2f} - {tol:.0%}")
    return errors


def check_resilience(current, baseline, tol):
    del tol  # no host-speedup ratio to relax; floors + exact fields only
    errors = []
    cur = index(current, ("kind",))
    base = index(baseline, ("kind",))
    missing = set(base) - set(cur)
    if missing:
        errors.append(f"rows missing from current run: {sorted(missing)}")

    guard = cur.get(("guard",))
    if guard is not None:
        tag = f"resilience guard {guard['nx1']}x{guard['nx2']}"
        # Guards are host-only and unpriced: a guarded run must be
        # bit-identical to an unguarded one.
        if not guard["identical"]:
            errors.append(f"{tag}: --guard on perturbed fields or clocks")
        # The 5% floor is judged only when the unguarded run is long
        # enough to time; the marker must agree with the row's own
        # plain_seconds, so a runner can't skip a floor it could judge.
        expected = ("enforced"
                    if guard["plain_seconds"] >= GUARD_GATE_MIN_SECONDS
                    else "skipped")
        check_gate_marker(guard, tag, expected, errors,
                          field="overhead_gate")
        if expected == "enforced" and guard["overhead_pct"] > GUARD_GATE_PCT:
            errors.append(
                f"{tag}: guard overhead {guard['overhead_pct']:.2f}% "
                f"> floor {GUARD_GATE_PCT}%")

    retry = cur.get(("retry",))
    if retry is not None:
        tag = "resilience retry"
        if not retry["recovered_identical"]:
            errors.append(
                f"{tag}: retried job diverged from its fault-free run")
        # Driven steps are deterministic (pure scheduler arithmetic): the
        # checkpoint resume must beat restart-from-scratch, and both
        # counts must match the committed baseline exactly.
        if retry["driven_ckpt"] >= retry["driven_scratch"]:
            errors.append(
                f"{tag}: checkpoint resume drove {retry['driven_ckpt']} "
                f"steps, not fewer than from-scratch's "
                f"{retry['driven_scratch']}")
        ref = base.get(("retry",))
        if ref is not None:
            for field in ("driven_ckpt", "driven_scratch", "steps",
                          "fault_step", "checkpoint_every"):
                if retry[field] != ref[field]:
                    errors.append(
                        f"{tag}: deterministic field '{field}' drifted "
                        f"({ref[field]} -> {retry[field]}); regenerate "
                        f"the baseline deliberately")
    return errors


CHECKS = {
    "fusion": check_fusion,
    "kernels": check_kernels,
    "rank_parallel": check_rank_parallel,
    "farm": check_farm,
    "resilience": check_resilience,
}


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("kind", choices=tuple(CHECKS))
    ap.add_argument("current", help="freshly produced bench JSON")
    ap.add_argument("baseline", help="committed baseline JSON")
    ap.add_argument("--tol", type=float, default=0.35,
                    help="relative host-speedup tolerance vs baseline "
                         "(default 0.35 — CI runners are noisy; the "
                         "absolute floors do the hard gating)")
    ap.add_argument("--subset", action="store_true",
                    help="permit the current rows to be a subset of the "
                         "baseline's (rank_parallel only; for CI legs "
                         "that re-run a slice of the thread sweep)")
    args = ap.parse_args()

    if args.subset and args.kind != "rank_parallel":
        ap.error("--subset is only supported for rank_parallel")
    kwargs = {"subset": True} if args.subset else {}
    errors = CHECKS[args.kind](load(args.current), load(args.baseline),
                               args.tol, **kwargs)
    if errors:
        print(f"check_bench: {len(errors)} regression(s) vs "
              f"{args.baseline}:", file=sys.stderr)
        for e in errors:
            print(f"  {e}", file=sys.stderr)
        return 1
    print(f"check_bench: {args.kind} OK "
          f"({args.current} vs {args.baseline})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
