"""The Local DAG Scheduler (§3.3).

Each worker tracks the dependency DAG of every multitask assigned to it
and submits a monotask to its per-resource scheduler only once all of
its dependencies have completed -- guaranteeing that monotasks "can
fully utilize the underlying resource and do not block on other
monotasks during their execution".
"""

from __future__ import annotations

from typing import Callable, Dict, List

from repro.errors import SimulationError
from repro.monospark.monotask import Monotask
from repro.simulator import Environment, Event

__all__ = ["LocalDagScheduler"]


class LocalDagScheduler:
    """Per-worker dependency tracker for monotask DAGs."""

    def __init__(self, env: Environment,
                 route: Callable[[Monotask], None]) -> None:
        self.env = env
        #: Routes a ready monotask to the right per-resource scheduler.
        self._route = route
        self.monotasks_submitted = 0

    def submit_multitask(self, monotasks: List[Monotask]) -> Event:
        """Register a multitask's DAG; returns an event that fires when
        every monotask has completed."""
        if not monotasks:
            raise SimulationError("a multitask needs at least one monotask")
        self._check_acyclic(monotasks)
        self.monotasks_submitted += len(monotasks)
        all_done = self.env.all_of([m.done for m in monotasks])
        for monotask in monotasks:
            self._watch(monotask)
        return all_done

    def _watch(self, monotask: Monotask) -> None:
        remaining = len(monotask.deps)
        if remaining == 0:
            self._route(monotask)
            return
        state = {"remaining": remaining, "failed": False}

        def on_dep_done(event: Event) -> None:
            if not event._ok:
                # A dependency died (machine crash/disk fault): never
                # route the dependent.  The multitask's AllOf barrier
                # already fails fast on the dependency itself.
                state["failed"] = True
            state["remaining"] -= 1
            if state["remaining"] == 0 and not state["failed"]:
                self._route(monotask)

        for dep in monotask.deps:
            dep.done.add_callback(on_dep_done)

    @staticmethod
    def _check_acyclic(monotasks: List[Monotask]) -> None:
        """Reject cyclic DAGs up front instead of deadlocking silently.

        Depth-first with an explicit stack, so a deep dependency chain
        cannot hit the interpreter's recursion limit.  Dependencies
        outside ``monotasks`` count as already checked.
        """
        WHITE, GREY, BLACK = 0, 1, 2
        color: Dict[int, int] = {id(m): WHITE for m in monotasks}
        for root in monotasks:
            if color[id(root)] != WHITE:
                continue
            color[id(root)] = GREY
            stack = [(root, iter(root.deps))]
            while stack:
                node, deps = stack[-1]
                for dep in deps:
                    state = color.get(id(dep), BLACK)
                    if state == GREY:
                        raise SimulationError("monotask DAG has a cycle")
                    if state == WHITE:
                        color[id(dep)] = GREY
                        stack.append((dep, iter(dep.deps)))
                        break
                else:
                    color[id(node)] = BLACK
                    stack.pop()
