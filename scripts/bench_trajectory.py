"""Track the repo's benchmark trajectories (stdlib only).

Three benchmarks, selected with ``--bench``:

* ``clarity`` (default) -- runs the seeded advisor-validation workload
  (``repro.clarity.validate.validate_advisor``) and writes a byte-stable
  JSON summary -- baseline p50/p95 service time, the advisor's top pick
  and ranking, and each candidate's relative prediction error against
  ground-truth re-simulation -- to ``BENCH_clarity.json``.
* ``kernel`` -- runs the seeded kernel-throughput workload
  (``repro.kernelbench``: an observed serving stream with the full
  clarity/telemetry pipeline attached) and writes ``BENCH_kernel.json``:
  deterministic workload invariants, the current wall-clock throughput
  (best of ``--repeats``), and the frozen pre-optimization baseline
  carried forward so the speedup trajectory stays visible.
* ``datasvc`` -- runs the seeded disaggregated-vs-co-located fault
  scenarios (``repro.datasvc.bench``: compute crash mid-shuffle, block
  corruption, storage-node crash, both engines) and writes
  ``BENCH_datasvc.json``: attempt-outcome and data-tier counters that
  pin the "a compute crash loses no map output" contrast.
* ``controlplane`` -- runs the seeded multi-driver scenarios
  (``repro.controlplane.bench``: jobs/sec at 1/2/4 driver replicas, a
  mid-run leader crash with checkpointed failover on vs off) and writes
  ``BENCH_controlplane.json``: throughput, p95, election/failover and
  lost-vs-resumed counters that pin the "a driver crash loses no
  requests" contrast.
* ``obs`` -- runs the seeded observability scenarios
  (``repro.obs.bench``: a silent fault-free stream, a fail-slow machine
  that must be named by alerts before the health monitor excludes it,
  a leader crash that must fire driver-down) and writes
  ``BENCH_obs.json``: the full alert timelines plus detection-latency
  invariants, diffed exactly; the plane's measured self-overhead is
  budget-gated against the committed
  ``workload.overhead_budget_ms_per_sim_s``, never diffed.
* ``xray`` -- runs the seeded capsule/differential-debugger scenarios
  (``repro.xray.bench``: byte-identical same-seed capsule recording for
  both engines, the fail-slow diff that must blame machine 1's network,
  the Spark NOT ATTRIBUTABLE contrast, the clean self-diff) and writes
  ``BENCH_xray.json``: capsule sha256s, manifest counts, and the ranked
  blame invariants, diffed exactly.

The committed copy at the repo root is the baseline; the CI
clarity-bench / kernel-bench / datasvc-bench jobs regenerate the file
and diff it against that baseline so regressions fail loudly instead of
rotting silently.  For clarity, every numeric field must agree within
``--tolerance``.  For kernel and datasvc, the deterministic invariants
must match *exactly* (same seed => same counts on any machine); the
kernel bench additionally requires measured monotasks/sec to clear the
committed conservative floor (wall-clock fields themselves are
machine-dependent and are not diffed).

Usage:
    python scripts/bench_trajectory.py [--bench clarity]
        [--output BENCH_clarity.json] [--check BASELINE]
        [--tolerance 0.02]
    python scripts/bench_trajectory.py --bench kernel
        [--output BENCH_kernel.json] [--check BASELINE] [--repeats 2]
    python scripts/bench_trajectory.py --bench datasvc
        [--output BENCH_datasvc.json] [--check BASELINE] [--repeats 2]
    python scripts/bench_trajectory.py --bench controlplane
        [--output BENCH_controlplane.json] [--check BASELINE]
        [--repeats 2]
    python scripts/bench_trajectory.py --bench obs
        [--output BENCH_obs.json] [--check BASELINE] [--repeats 2]
    python scripts/bench_trajectory.py --bench xray
        [--output BENCH_xray.json] [--check BASELINE] [--repeats 2]

The check runs before the fresh result is written, and ``--output``
and ``--check`` must name different files, so a check never compares
the baseline with a copy of the result or replaces it with a drifted
one.

Exit status 0 on match, 1 on drift or a failed acceptance gate, 2 when
``--output`` and ``--check`` are the same file.
"""

import argparse
import functools
import json
import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "src"))

from repro.clarity.validate import (ClarityWorkload, ERROR_ENVELOPE,
                                    validate_advisor)  # noqa: E402

_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
DEFAULT_OUTPUTS = {
    "clarity": os.path.join(_ROOT, "BENCH_clarity.json"),
    "kernel": os.path.join(_ROOT, "BENCH_kernel.json"),
    "datasvc": os.path.join(_ROOT, "BENCH_datasvc.json"),
    "controlplane": os.path.join(_ROOT, "BENCH_controlplane.json"),
    "obs": os.path.join(_ROOT, "BENCH_obs.json"),
    "xray": os.path.join(_ROOT, "BENCH_xray.json"),
}


def write(result: dict, path: str) -> None:
    with open(path, "w") as handle:
        json.dump(result, handle, indent=2, sort_keys=True)
        handle.write("\n")


def _numbers(prefix: str, value) -> dict:
    """Flatten every numeric leaf to ``path -> value``."""
    out = {}
    if isinstance(value, bool):
        return out
    if isinstance(value, (int, float)):
        out[prefix] = float(value)
    elif isinstance(value, dict):
        for key in value:
            out.update(_numbers(f"{prefix}.{key}", value[key]))
    elif isinstance(value, list):
        for index, item in enumerate(value):
            out.update(_numbers(f"{prefix}[{index}]", item))
    return out


# -- clarity ------------------------------------------------------------------


def compute_clarity() -> dict:
    """One validation run, as the byte-stable JSON dict."""
    return validate_advisor(ClarityWorkload()).to_json()


def check_clarity(result: dict, baseline_path: str, tolerance: float) -> int:
    with open(baseline_path) as handle:
        baseline = json.load(handle)
    failures = []
    for key in ("predicted_ranking", "actual_ranking", "ranking_matches",
                "advisor_top", "bottleneck", "engine", "seed"):
        if result.get(key) != baseline.get(key):
            failures.append(f"{key}: baseline {baseline.get(key)!r} "
                            f"vs current {result.get(key)!r}")
    ours, theirs = _numbers("$", result), _numbers("$", baseline)
    for path in sorted(set(ours) | set(theirs)):
        if path not in ours or path not in theirs:
            failures.append(f"{path}: present on only one side")
        elif abs(ours[path] - theirs[path]) > tolerance:
            failures.append(f"{path}: baseline {theirs[path]} vs "
                            f"current {ours[path]} "
                            f"(tolerance {tolerance})")
    if not result.get("ranking_matches"):
        failures.append("advisor ranking no longer matches ground truth")
    if result.get("max_error_p95", 1.0) > ERROR_ENVELOPE:
        failures.append(f"max_error_p95 {result['max_error_p95']} exceeds "
                        f"the {ERROR_ENVELOPE} envelope")
    if failures:
        print(f"clarity trajectory drifted from {baseline_path}:")
        for failure in failures:
            print(f"  {failure}")
        return 1
    print(f"clarity trajectory matches {baseline_path} "
          f"(tolerance {tolerance})")
    return 0


# -- kernel -------------------------------------------------------------------


def compute_kernel(repeats: int, carry_from: str) -> dict:
    """One throughput measurement (best of ``repeats``).

    The frozen pre-optimization baseline and the CI floor are carried
    forward from ``carry_from`` when it exists: the slow code they were
    measured against is gone, so they cannot be regenerated.
    """
    from repro.kernelbench import (KernelWorkload, run_kernel_benchmark,
                                   trajectory_summary)
    baseline = None
    floor = None
    if carry_from and os.path.exists(carry_from):
        with open(carry_from) as handle:
            committed = json.load(handle)
        baseline = committed.get("baseline")
        floor = committed.get("min_monotasks_per_s")
    result = run_kernel_benchmark(KernelWorkload(), repeats=repeats)
    return trajectory_summary(result, baseline=baseline, floor=floor,
                              repeats=repeats)


def check_kernel(result: dict, baseline_path: str) -> int:
    with open(baseline_path) as handle:
        baseline = json.load(handle)
    failures = []
    for section in ("workload", "invariants"):
        ours, theirs = result.get(section, {}), baseline.get(section, {})
        for key in sorted(set(ours) | set(theirs)):
            if ours.get(key) != theirs.get(key):
                failures.append(
                    f"{section}.{key}: baseline {theirs.get(key)!r} "
                    f"vs current {ours.get(key)!r} (must match exactly)")
    floor = baseline.get("min_monotasks_per_s")
    rate = result.get("current", {}).get("monotasks_per_s", 0.0)
    if floor is not None and rate < floor:
        failures.append(f"monotasks_per_s {rate} fell below the "
                        f"committed floor {floor}")
    if failures:
        print(f"kernel trajectory drifted from {baseline_path}:")
        for failure in failures:
            print(f"  {failure}")
        return 1
    print(f"kernel trajectory matches {baseline_path} "
          f"(floor {floor} monotasks/s, measured {rate})")
    return 0


# -- datasvc ------------------------------------------------------------------


def compute_datasvc(repeats: int) -> dict:
    """The seeded fault scenarios, verified byte-stable across repeats."""
    from repro.datasvc.bench import (DataSvcWorkload, run_datasvc_benchmark,
                                     trajectory_summary)
    workload = DataSvcWorkload()
    invariants = run_datasvc_benchmark(workload, repeats=repeats)
    return trajectory_summary(invariants, workload, repeats=repeats)


def check_datasvc(result: dict, baseline_path: str) -> int:
    with open(baseline_path) as handle:
        baseline = json.load(handle)
    failures = []
    for section in ("workload", "invariants"):
        ours = _numbers(section, result.get(section, {}))
        theirs = _numbers(section, baseline.get(section, {}))
        for path in sorted(set(ours) | set(theirs)):
            if ours.get(path) != theirs.get(path):
                failures.append(
                    f"{path}: baseline {theirs.get(path)!r} vs current "
                    f"{ours.get(path)!r} (must match exactly)")
    if failures:
        print(f"datasvc trajectory drifted from {baseline_path}:")
        for failure in failures:
            print(f"  {failure}")
        return 1
    print(f"datasvc trajectory matches {baseline_path} (exact)")
    return 0


# -- controlplane -------------------------------------------------------------


def compute_controlplane(repeats: int) -> dict:
    """The seeded multi-driver scenarios, byte-stable across repeats."""
    from repro.controlplane.bench import (ControlPlaneWorkload,
                                          run_controlplane_benchmark,
                                          trajectory_summary)
    workload = ControlPlaneWorkload()
    invariants = run_controlplane_benchmark(workload, repeats=repeats)
    return trajectory_summary(invariants, workload, repeats=repeats)


def check_controlplane(result: dict, baseline_path: str) -> int:
    with open(baseline_path) as handle:
        baseline = json.load(handle)
    failures = []
    for section in ("workload", "invariants"):
        ours = _numbers(section, result.get(section, {}))
        theirs = _numbers(section, baseline.get(section, {}))
        for path in sorted(set(ours) | set(theirs)):
            if ours.get(path) != theirs.get(path):
                failures.append(
                    f"{path}: baseline {theirs.get(path)!r} vs current "
                    f"{ours.get(path)!r} (must match exactly)")
    if failures:
        print(f"controlplane trajectory drifted from {baseline_path}:")
        for failure in failures:
            print(f"  {failure}")
        return 1
    print(f"controlplane trajectory matches {baseline_path} (exact)")
    return 0


# -- obs ----------------------------------------------------------------------


def compute_obs(repeats: int) -> dict:
    """The seeded observability scenarios, byte-stable across repeats."""
    from repro.obs.bench import (ObsWorkload, run_obs_benchmark,
                                 trajectory_summary)
    workload = ObsWorkload()
    result = run_obs_benchmark(workload, repeats=repeats)
    return trajectory_summary(result, workload, repeats=repeats)


def check_obs(result: dict, baseline_path: str) -> int:
    """Exact-diff workload + invariants; budget-gate the overhead."""
    with open(baseline_path) as handle:
        baseline = json.load(handle)
    failures = []
    for section in ("workload", "invariants"):
        ours = _numbers(section, result.get(section, {}))
        theirs = _numbers(section, baseline.get(section, {}))
        for path in sorted(set(ours) | set(theirs)):
            if ours.get(path) != theirs.get(path):
                failures.append(
                    f"{path}: baseline {theirs.get(path)!r} vs current "
                    f"{ours.get(path)!r} (must match exactly)")
    slow = result["invariants"]["fail_slow"]
    base_slow = baseline.get("invariants", {}).get("fail_slow", {})
    if slow.get("timeline") != base_slow.get("timeline"):
        failures.append("fail_slow alert timeline drifted (must match "
                        "to the byte)")
    budget = baseline.get("workload", {}).get(
        "overhead_budget_ms_per_sim_s")
    measured = result.get("observed_overhead", {}).get("ms_per_sim_s")
    if budget is not None and measured is not None and measured > budget:
        failures.append(f"self-overhead {measured} ms/sim-s exceeds the "
                        f"committed budget {budget}")
    if failures:
        print(f"obs trajectory drifted from {baseline_path}:")
        for failure in failures:
            print(f"  {failure}")
        return 1
    print(f"obs trajectory matches {baseline_path} (exact invariants; "
          f"overhead {measured} of {budget} ms/sim-s budget)")
    return 0


# -- xray ---------------------------------------------------------------------


def compute_xray(repeats: int) -> dict:
    """The seeded capsule/diff scenarios, byte-stable across repeats."""
    from repro.xray.bench import (XrayWorkload, run_xray_benchmark,
                                  trajectory_summary)
    workload = XrayWorkload()
    result = run_xray_benchmark(workload, repeats=repeats)
    return trajectory_summary(result, workload, repeats=repeats)


def check_xray(result: dict, baseline_path: str) -> int:
    """Exact-diff workload + invariants (sha256s included)."""
    with open(baseline_path) as handle:
        baseline = json.load(handle)
    failures = []
    for section in ("workload", "invariants"):
        ours = _flatten(section, result.get(section, {}))
        theirs = _flatten(section, baseline.get(section, {}))
        for path in sorted(set(ours) | set(theirs)):
            if ours.get(path) != theirs.get(path):
                failures.append(
                    f"{path}: baseline {theirs.get(path)!r} vs current "
                    f"{ours.get(path)!r} (must match exactly)")
    if failures:
        print(f"xray trajectory drifted from {baseline_path}:")
        for failure in failures:
            print(f"  {failure}")
        return 1
    print(f"xray trajectory matches {baseline_path} (exact, "
          f"capsule sha256s included)")
    return 0


def _flatten(prefix: str, value) -> dict:
    """Flatten every leaf (numbers AND strings) to ``path -> value``."""
    out = {}
    if isinstance(value, dict):
        for key in value:
            out.update(_flatten(f"{prefix}.{key}", value[key]))
    elif isinstance(value, list):
        for index, item in enumerate(value):
            out.update(_flatten(f"{prefix}[{index}]", item))
    else:
        out[prefix] = value
    return out


# -- driver -------------------------------------------------------------------


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--bench",
                        choices=("clarity", "kernel", "datasvc",
                                 "controlplane", "obs", "xray"),
                        default="clarity",
                        help="which trajectory to run (default clarity)")
    parser.add_argument("--output", default=None,
                        help="where to write the JSON summary "
                             "(default BENCH_<bench>.json at the repo root)")
    parser.add_argument("--check", metavar="BASELINE", default=None,
                        help="compare against this committed baseline "
                             "instead of accepting the new result")
    parser.add_argument("--tolerance", type=float, default=0.02,
                        help="absolute per-field drift allowed under "
                             "--check for the clarity bench (default 0.02)")
    parser.add_argument("--repeats", type=int, default=2,
                        help="kernel bench: repeats per measurement (best "
                             "wall-clock kept); datasvc bench: determinism "
                             "cross-check repeats (default 2)")
    args = parser.parse_args(argv)
    output = args.output or DEFAULT_OUTPUTS[args.bench]
    if args.check is not None and _same_file(output, args.check):
        print(f"--output and --check are the same file ({args.check}): the "
              f"fresh result would overwrite the baseline it is checked "
              f"against; pass --output a scratch path", file=sys.stderr)
        return 2

    if args.bench == "datasvc":
        result = compute_datasvc(args.repeats)
        mono = result["invariants"]["monospark"]
        summary = (f"co-located crash outcomes "
                   f"{mono['colocated_crash_outcomes']} vs disaggregated "
                   f"{mono['datasvc_crash_outcomes']}")
        check = check_datasvc
    elif args.bench == "controlplane":
        result = compute_controlplane(args.repeats)
        inv = result["invariants"]
        scaling = inv["driver_scaling"]
        rates = ", ".join(f"{n}={scaling[n]['jobs_per_s']}"
                          for n in sorted(scaling, key=int))
        summary = (f"jobs/s by drivers ({rates}); crash with failover lost "
                   f"{inv['crash_failover_on']['jobs_lost']} (resumed "
                   f"{inv['crash_failover_on']['jobs_resumed']}) vs "
                   f"{inv['crash_failover_off']['jobs_lost']} without")
        check = check_controlplane
    elif args.bench == "obs":
        result = compute_obs(args.repeats)
        slow = result["invariants"]["fail_slow"]
        summary = (f"source-slow fired at {slow['source_slow_fired_at']}s "
                   f"(fault at {result['workload']['slow_at']}s, exclusion "
                   f"at {slow['health_excluded_at']}s); overhead "
                   f"{result['observed_overhead']['ms_per_sim_s']} ms/sim-s")
        check = check_obs
    elif args.bench == "xray":
        result = compute_xray(args.repeats)
        summary = result["invariants"]["blame"]["narrative"]
        check = check_xray
    elif args.bench == "clarity":
        result = compute_clarity()
        summary = (f"{result['jobs']} jobs, top pick {result['advisor_top']}, "
                   f"worst p95 error {result['max_error_p95']:.2%}")
        check = functools.partial(check_clarity, tolerance=args.tolerance)
    else:
        result = compute_kernel(args.repeats,
                                args.check or DEFAULT_OUTPUTS["kernel"])
        current = result["current"]
        speedup = result.get("speedup_monotasks")
        summary = (f"{result['invariants']['monotasks']} monotasks in "
                   f"{current['wall_s']}s wall "
                   f"({current['monotasks_per_s']} monotasks/s"
                   + (f", {speedup}x over the frozen baseline)"
                      if speedup else ")"))
        check = check_kernel

    # Compare before writing: the baseline must be read as committed.
    status = 0 if args.check is None else check(result, args.check)
    write(result, output)
    print(f"wrote {output}: {summary}")
    return status


def _same_file(a: str, b: str) -> bool:
    """Whether two paths name one file (symlinks and hard links too)."""
    if os.path.realpath(a) == os.path.realpath(b):
        return True
    return (os.path.exists(a) and os.path.exists(b)
            and os.path.samefile(a, b))


if __name__ == "__main__":
    sys.exit(main())
