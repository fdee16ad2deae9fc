"""Regenerate a committed benchmark trajectory and check it (stdlib only).

``--bench`` names a scenario in ``repro.bench.SCENARIOS`` (default
clarity); ``scripts/README.md`` describes each.  The scenario's gates
always apply; ``--check`` also diffs against the baseline.  The check
runs before the write, and ``--output`` and ``--check`` must name
different files, so a check never compares the baseline with a copy of
the result or replaces it with a drifted one.

Usage:
    python scripts/bench_trajectory.py [--bench clarity]
        [--output BENCH_clarity.json] [--check BASELINE] [--repeats 2]

Exit status 0 on match, 1 on drift, a failed gate or repeats that
disagree, 2 when ``--output`` and ``--check`` are the same file.
"""

import argparse
import json
import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

from repro.bench import (SCENARIOS, NonDeterministicRun, check, load,
                         run)  # noqa: E402


def write(result: dict, path: str) -> None:
    with open(path, "w") as handle:
        json.dump(result, handle, indent=2, sort_keys=True)
        handle.write("\n")


def read(path: str) -> dict:
    with open(path) as handle:
        return json.load(handle)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--bench", choices=tuple(SCENARIOS),
                        default="clarity",
                        help="which trajectory to run (default clarity)")
    parser.add_argument("--output", default=None,
                        help="where to write the JSON summary "
                             "(default BENCH_<bench>.json at the repo root)")
    parser.add_argument("--check", metavar="BASELINE", default=None,
                        help="compare against this committed baseline "
                             "instead of accepting the new result")
    parser.add_argument("--repeats", type=int, default=2,
                        help="runs per measurement: invariants must agree "
                             "across them, the best wall-clock is kept "
                             "(default 2)")
    args = parser.parse_args(argv)
    committed_path = os.path.join(ROOT, f"BENCH_{args.bench}.json")
    output = args.output or committed_path
    if args.check is not None and _same_file(output, args.check):
        print(f"--output and --check are the same file ({args.check}): the "
              f"fresh result would overwrite the baseline it is checked "
              f"against; pass --output a scratch path", file=sys.stderr)
        return 2

    scenario = load(args.bench)
    carry_from = args.check or committed_path
    try:
        result = run(scenario, args.repeats, read(carry_from)
                     if os.path.exists(carry_from) else {})
    except NonDeterministicRun as exc:
        print(f"non-deterministic run: {exc}", file=sys.stderr)
        return 1

    # Compare before writing: the baseline must be read as committed.
    failures = check(scenario, result,
                     None if args.check is None else read(args.check))
    against = args.check or "its gates"
    if failures:
        print(f"{args.bench} trajectory fails {against} "
              f"(leaf: fresh != committed):")
        for failure in failures:
            print(f"  {failure}")
    else:
        print(f"{args.bench} trajectory passes {against}")
    write(result, output)
    print(f"wrote {output}")
    return 1 if failures else 0


def _same_file(a: str, b: str) -> bool:
    """Whether two paths name one file (symlinks and hard links too)."""
    if os.path.realpath(a) == os.path.realpath(b):
        return True
    return (os.path.exists(a) and os.path.exists(b)
            and os.path.samefile(a, b))


if __name__ == "__main__":
    sys.exit(main())
