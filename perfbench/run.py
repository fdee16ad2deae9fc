"""Run the simulator benchmark and print its metrics.

One workload, as the benchmark contract drives it::

    python3 perfbench/run.py --workload serve_observed --seed 1 \\
        --seconds 40 --trace 0

repeats set-up plus simulated run (an *episode*) until ``--seconds``
have passed, checks every episode's output digest, and prints as its
last line a JSON object with the end-to-end metrics (``--trace 0``) or
the per-layer ledger of one extra traced episode (``--trace 1``).

Every metric of every workload, by name with its unit, plus the layer
self-time ranking on the default seed and on a held-out seed::

    python3 perfbench/run.py --report

After a change that deliberately moves simulated results, rewrite the
default-seed reference digests with ``--rebaseline``.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
if not os.path.isdir(os.path.join(ROOT, "src", "repro")):
    sys.exit(f"perfbench: no simulator sources in {ROOT}/src")
sys.path[:0] = [os.path.join(ROOT, "src"), ROOT]

from perfbench.ledger import (EXTRA_METRICS, LAYERS,  # noqa: E402
                              PER_LAYER_UNITS, Tracer, ledger_metrics)
from perfbench.workloads import (WORKLOADS, Episode,  # noqa: E402
                                 compare_fields, run_episode)

REFERENCE = os.path.join(ROOT, "perfbench", "reference.json")
WORKDIR = os.path.join(ROOT, ".perfbench_tmp")
#: The seed whose digests are pinned in ``reference.json``.
DEFAULT_SEED = 1
#: A seed used for nothing but the report's second ranking.
HELD_OUT_SEED = 8191
#: Episodes per run whatever ``--seconds`` says, so medians exist.
MIN_EPISODES = 3

END_TO_END_UNITS = {"tasks_per_s": "1/s", "peak_rss_mb": "MB",
                    "setup_s": "s"}


def _log(message: str) -> None:
    print(message, file=sys.stderr, flush=True)


def _load_reference() -> dict:
    with open(REFERENCE, encoding="utf-8") as handle:
        return json.load(handle)


class Checker:
    """Digest checks and job accounting over a run's episodes.

    At the default seed every episode must match the committed
    reference; at any other seed every episode must match the run's
    first one.  A mismatching episode counts all its jobs as failed.
    """

    def __init__(self, workload: str, seed: int) -> None:
        self.workload = workload
        self.expected = (_load_reference()[workload]["fields"]
                         if seed == DEFAULT_SEED else None)
        self.attempted = 0
        self.failed = 0
        self.correct = True

    def check(self, episode: Episode, label: str) -> None:
        outcome = episode.outcome
        fields = outcome.fields()
        if self.expected is None:
            self.expected = fields
        diff = compare_fields(self.expected, fields)
        self.attempted += outcome.submitted
        if diff:
            self.correct = False
            self.failed += outcome.submitted
            _log(f"{self.workload} {label}: digest mismatch, first "
                 f"differing field {diff}")
        else:
            self.failed += outcome.failed
            if outcome.failed:
                self.correct = False


def _episodes(workload: str, seed: int, seconds: float,
              checker: Checker) -> list:
    episodes = []
    start = time.perf_counter()
    while len(episodes) < MIN_EPISODES or (
            time.perf_counter() - start + statistics.median(
                e.setup_s + e.run_s for e in episodes) <= seconds):
        episode = run_episode(workload, seed, WORKDIR)
        checker.check(episode, f"episode {len(episodes)}")
        _log(f"{workload} seed {seed} episode {len(episodes)}: "
             f"setup {episode.setup_s:.4f}s run {episode.run_s:.3f}s "
             f"{episode.tasks_per_s:.1f} tasks/s "
             f"digest {episode.outcome.digest()[:16]}")
        episodes.append(episode)
    return episodes


def _traced(workload: str, seed: int, untraced: list,
            checker: Checker) -> dict:
    tracer = Tracer()
    with tracer.installed():
        episode = run_episode(workload, seed, WORKDIR)
    checker.check(episode, "traced episode")
    outcome = episode.outcome
    wall_s = episode.setup_s + episode.run_s
    data = outcome.datasvc.get("data", {})
    return ledger_metrics(tracer, wall_s, {
        "simulator.core.events": outcome.events_scheduled,
        "metrics.records": outcome.records,
        "xray.capsule_bytes": outcome.capsule_bytes,
        "datasvc.puts": data.get("puts", 0),
        "datasvc.fetches": data.get("fetches", 0),
        "datasvc.bytes_in": data.get("bytes_in", 0.0),
        "bench.trace_overhead_ratio": wall_s / statistics.median(
            e.setup_s + e.run_s for e in untraced),
    })


def run(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    """One benchmark run; returns the contract's result object."""
    os.makedirs(WORKDIR, exist_ok=True)
    try:
        checker = Checker(workload, seed)
        episodes = _episodes(workload, seed, seconds, checker)
        if trace:
            values = _traced(workload, seed, episodes, checker)
            units = PER_LAYER_UNITS
        else:
            values = {
                # Other tenants of the host slow it in stretches of
                # seconds to minutes, so episode rates cluster at a few
                # speed levels and their median jumps between them; the
                # run's total rate moves only with the slowed share.
                "tasks_per_s": sum(e.outcome.task_attempts
                                   for e in episodes)
                / sum(e.run_s for e in episodes),
                "peak_rss_mb": resource.getrusage(
                    resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                "setup_s": statistics.median(e.setup_s for e in episodes),
            }
            units = END_TO_END_UNITS
    finally:
        shutil.rmtree(WORKDIR, ignore_errors=True)
    _log(f"{workload}: jobs_failed_ratio "
         f"{checker.failed / max(1, checker.attempted)} "
         f"({checker.failed} of {checker.attempted} jobs)")
    return {"correct": checker.correct, "attempted": checker.attempted,
            "failed": checker.failed,
            "metrics": {name: {"value": values[name], "unit": unit}
                        for name, unit in units.items()}}


def _child(workload: str, seed: int, seconds: float, trace: int) -> dict:
    """Run one workload in a fresh process (so its peak RSS is its own)."""
    done = subprocess.run(
        [sys.executable, os.path.abspath(__file__), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds),
         "--trace", str(trace)],
        cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
        text=True, check=True)
    return json.loads(done.stdout.strip().splitlines()[-1])


def _ranking(result: dict) -> str:
    selfs = {name[:-len(".self_s")]: entry["value"]
             for name, entry in result["metrics"].items()
             if name.endswith(".self_s")}
    selfs["metrics.critpath"] = result["metrics"][
        "metrics.critpath_self_s"]["value"]
    selfs["simulator.core"] = result["metrics"][
        "simulator.core.residual_s"]["value"]
    ranked = sorted(selfs.items(), key=lambda item: -item[1])
    return ", ".join(f"{name} {value:.3f}s" for name, value in ranked[:6])


def report(seconds: float) -> int:
    """Print every metric of every workload, by name with its unit."""
    moves = {name: why for name, (_, why) in EXTRA_METRICS.items()}
    for layer, (_, why) in LAYERS.items():
        for suffix in ("calls", "self_s"):
            moves[f"{layer}.{suffix}"] = why
    moves["metrics.critpath_self_s"] = LAYERS["metrics.critpath"][1]
    ok = True
    for workload in WORKLOADS:
        end_to_end = _child(workload, DEFAULT_SEED, seconds, 0)
        layered = _child(workload, DEFAULT_SEED, seconds, 1)
        held_out = _child(workload, HELD_OUT_SEED, seconds, 1)
        print(f"== {workload} (seed {DEFAULT_SEED})")
        for result in (end_to_end, layered, held_out):
            ok = ok and result["correct"]
        print(f"  {'correct':34s} {end_to_end['correct']}")
        print(f"  {'jobs_failed_ratio':34s} "
              f"{end_to_end['failed'] / end_to_end['attempted']:<14.6g} "
              f"ratio  ({end_to_end['failed']} of "
              f"{end_to_end['attempted']} jobs)")
        for name, entry in end_to_end["metrics"].items():
            print(f"  {name:34s} {entry['value']:<14.6g} {entry['unit']}")
        for name, entry in layered["metrics"].items():
            print(f"  {name:34s} {entry['value']:<14.6g} "
                  f"{entry['unit']:6s} -> {moves[name]}")
        print(f"  self-time ranking, seed {DEFAULT_SEED}: "
              f"{_ranking(layered)}")
        print(f"  self-time ranking, held-out seed {HELD_OUT_SEED}: "
              f"{_ranking(held_out)}")
    return 0 if ok else 1


def rebaseline() -> int:
    """Rewrite the default-seed reference digests from one episode each."""
    os.makedirs(WORKDIR, exist_ok=True)
    try:
        reference = {}
        for workload in WORKLOADS:
            outcome = run_episode(workload, DEFAULT_SEED, WORKDIR).outcome
            reference[workload] = {"digest": outcome.digest(),
                                   "fields": outcome.fields()}
            _log(f"{workload}: {outcome.digest()}")
    finally:
        shutil.rmtree(WORKDIR, ignore_errors=True)
    with open(REFERENCE, "w", encoding="utf-8") as handle:
        json.dump(reference, handle, indent=2, sort_keys=True)
        handle.write("\n")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--report", action="store_true",
                        help="print every metric of every workload")
    parser.add_argument("--rebaseline", action="store_true",
                        help="rewrite the default-seed reference digests")
    args = parser.parse_args(argv)
    if args.report:
        return report(args.seconds)
    if args.rebaseline:
        return rebaseline()
    if args.workload is None:
        parser.error("--workload is required")
    result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
