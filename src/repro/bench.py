"""One bench harness: seeded scenarios, one runner, one checker.

Each committed ``BENCH_<name>.json`` trajectory comes from one
:class:`Scenario`, defined in the package whose claims it pins (see
:data:`SCENARIOS`).  A scenario only says what to run and which gates
its measurements must clear; repeating, checking determinism and
diffing against the committed file happen here, the same way for every
scenario:

* :func:`run` executes the scenario ``repeats`` times.  The invariants
  must be identical on every repeat (same seed, same bytes), so every
  bench run doubles as a determinism check; a mismatch names the first
  differing leaf.  The measurement the scenario names is kept from the
  best (smallest) repeat.
* :func:`check` diffs every leaf of ``workload`` and ``invariants`` --
  numbers, strings, bools, nulls, and keys present on one side only --
  against the committed file.  Measurements are wall-clock and
  machine-dependent: they are never diffed, only held to the gates the
  scenario declares.

``scripts/bench_trajectory.py`` is the command-line front end.
"""

from __future__ import annotations

import importlib
import json
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Tuple

__all__ = ["SCENARIOS", "Scenario", "NonDeterministicRun", "load", "run",
           "check", "diff"]

#: Bench name -> the module whose ``SCENARIO`` defines it.
SCENARIOS = {
    "clarity": "repro.clarity.validate",
    "kernel": "repro.kernelbench",
    "datasvc": "repro.datasvc.bench",
    "controlplane": "repro.controlplane.bench",
    "obs": "repro.obs.bench",
    "xray": "repro.xray.bench",
}


class NonDeterministicRun(AssertionError):
    """Two repeats of one seeded scenario produced different invariants."""


@dataclass(frozen=True)
class Scenario:
    """One seeded benchmark and the gates its trajectory must clear."""

    #: The key under :data:`SCENARIOS`.
    name: str
    #: The workload knobs, written to (and diffed against) the file.
    workload: Dict
    #: One full execution: ``(invariants, measurements)``.  Invariants
    #: are diffed exactly; measurements are top-level sections of the
    #: file that only the gates read.
    run: Callable[[], Tuple[Dict, Dict]]
    #: The file's ``benchmark`` tag.
    benchmark: str = ""
    #: Dotted path of the measurement minimised across repeats.
    best: str = ""
    #: Absolute drift allowed on numeric leaves under :func:`check`.
    tolerance: float = 0.0
    #: Each gate reads the fresh trajectory and returns why it failed,
    #: or None.
    gates: Tuple[Callable[[Dict], Optional[str]], ...] = ()
    #: Extra top-level fields taken from the committed file, for values
    #: that cannot be regenerated: ``(fresh, committed) -> fields``.
    carry: Optional[Callable[[Dict, Dict], Dict]] = None
    #: The file is the invariants dict itself, with no workload or
    #: repeats sections (the clarity layout).
    flat: bool = False


def load(name: str) -> Scenario:
    """The scenario registered under ``name`` in :data:`SCENARIOS`."""
    return importlib.import_module(SCENARIOS[name]).SCENARIO


def run(scenario: Scenario, repeats: int = 2,
        committed: Optional[Dict] = None) -> Dict:
    """Run ``scenario`` ``repeats`` times; return the trajectory dict.

    Raises :class:`NonDeterministicRun` naming the first leaf where a
    repeat's invariants differ from the first repeat's.  ``committed``
    is the previous trajectory, read only by ``scenario.carry``.
    """
    invariants, measurements = scenario.run()
    for repeat in range(2, max(1, repeats) + 1):
        again, measured = scenario.run()
        drift = diff(invariants, again, prefix="invariants")
        if drift:
            raise NonDeterministicRun(
                f"{scenario.name}: repeats 1 and {repeat} differ at "
                f"{drift[0]}")
        if (scenario.best and _at(measured, scenario.best)
                < _at(measurements, scenario.best)):
            measurements = measured
    if scenario.flat:
        return invariants
    result = {"benchmark": scenario.benchmark,
              "workload": scenario.workload, "repeats": repeats,
              "invariants": invariants, **measurements}
    if scenario.carry is not None:
        result.update(scenario.carry(result, committed or {}))
    return result


def check(scenario: Scenario, fresh: Dict,
          committed: Optional[Dict] = None) -> List[str]:
    """Every way ``fresh`` fails; empty when it passes.

    The scenario's gates always apply; with ``committed`` the workload
    and invariants are also diffed against it.  ``fresh`` is compared
    as it will be written (through JSON), so a tuple and the list it is
    written as are the same value.
    """
    fresh = json.loads(json.dumps(fresh))
    failures = []
    if committed is not None:
        failures = diff(_checked(scenario, fresh),
                        _checked(scenario, committed),
                        tolerance=scenario.tolerance)
    for gate in scenario.gates:
        failure = gate(fresh)
        if failure:
            failures.append(failure)
    return failures


def diff(ours: Any, theirs: Any, tolerance: float = 0.0,
         prefix: str = "") -> List[str]:
    """``path: ours != theirs`` for every leaf that differs.

    Numbers (not bools) may differ by ``tolerance``; every other leaf
    must be equal and of the same type.  A leaf present on one side
    only is reported as missing from the other.
    """
    mine, other = _leaves(ours, prefix), _leaves(theirs, prefix)
    failures = []
    for path in list(mine) + [p for p in other if p not in mine]:
        if path not in other:
            failures.append(f"{path}: {mine[path]!r} != (missing)")
        elif path not in mine:
            failures.append(f"{path}: (missing) != {other[path]!r}")
        elif not _equal(mine[path], other[path], tolerance):
            failures.append(f"{path}: {mine[path]!r} != {other[path]!r}")
    return failures


def _checked(scenario: Scenario, trajectory: Dict) -> Dict:
    if scenario.flat:
        return trajectory
    return {section: trajectory.get(section, {})
            for section in ("workload", "invariants")}


def _leaves(value: Any, path: str) -> Dict[str, Any]:
    """Flatten ``value`` to ``path -> leaf``; empty containers are leaves."""
    if isinstance(value, dict) and value:
        items = [(f"{path}.{key}" if path else str(key), item)
                 for key, item in value.items()]
    elif isinstance(value, (list, tuple)) and value:
        items = [(f"{path}[{index}]", item)
                 for index, item in enumerate(value)]
    else:
        return {path: value}
    out: Dict[str, Any] = {}
    for item_path, item in items:
        out.update(_leaves(item, item_path))
    return out


def _equal(a: Any, b: Any, tolerance: float) -> bool:
    numbers = (int, float)
    if (isinstance(a, numbers) and isinstance(b, numbers)
            and not isinstance(a, bool) and not isinstance(b, bool)):
        return abs(a - b) <= tolerance
    return type(a) is type(b) and a == b


def _at(tree: Dict, dotted: str) -> Any:
    for key in dotted.split("."):
        tree = tree[key]
    return tree
