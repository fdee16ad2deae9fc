"""Per-resource monotask schedulers (§3.3).

Each scheduler runs "the minimum number of monotasks necessary to keep
the underlying resource fully utilized, and queues remaining monotasks":
one compute monotask per core, one disk monotask per spinning disk,
a configurable number per flash drive, and requests from a limited
number of multitasks on the network receiver.

Queues implement **round-robin over monotask phases** so that, e.g., a
convoy of disk writes cannot starve the disk reads that feed the CPU --
the exact scenario §3.3 ("Queueing monotasks") describes.  Contention is
visible as each scheduler's queue length.
"""

from __future__ import annotations

from collections import OrderedDict, deque
from typing import Deque, Dict, Generator, List, Optional

from repro.errors import (FaultError, Interrupted, MachineFailure,
                          SimulationError)
from repro.monospark.monotask import Monotask
from repro.simulator import Environment, Process

__all__ = ["ResourceScheduler"]


class ResourceScheduler:
    """Admits at most ``concurrency`` monotasks; queues the rest."""

    def __init__(self, env: Environment, concurrency: int, name: str,
                 round_robin_phases: bool = True,
                 prefer_phases_when=None) -> None:
        if concurrency < 1:
            raise SimulationError(
                f"{name}: scheduler concurrency must be >= 1")
        self.env = env
        self.concurrency = concurrency
        self.name = name
        self.round_robin_phases = round_robin_phases
        #: Optional (predicate, phase-substring) pair: while the
        #: predicate holds, queues whose phase contains the substring are
        #: served first (the §3.5 memory-pressure write priority).
        self.prefer_phases_when = prefer_phases_when
        self._queues: "OrderedDict[str, Deque[Monotask]]" = OrderedDict()
        self._rr_cursor = 0
        #: Monotasks waiting across all phase queues, kept in step with
        #: every append and pop so reading it is O(1).
        self._queued = 0
        self.running = 0
        #: Longest queue length seen (for contention reporting/tests).
        self.max_queue_length = 0
        self.completed = 0
        #: True after fail_all(): the machine is down and new monotasks
        #: are rejected immediately.
        self.dead = False
        self._executing: Dict[Monotask, Process] = {}

    @property
    def queue_length(self) -> int:
        """Monotasks waiting (contention made visible, §3.1)."""
        return self._queued

    def submit(self, monotask: Monotask) -> None:
        """Enqueue a ready monotask; runs when the resource frees."""
        if self.dead:
            monotask.done.fail(MachineFailure(f"{self.name} is down"))
            return
        monotask.submitted_at = self.env.now
        phase = monotask.phase if self.round_robin_phases else "all"
        queue = self._queues.get(phase)
        if queue is None:
            queue = deque()
            self._queues[phase] = queue
        queue.append(monotask)
        self._queued += 1
        self.max_queue_length = max(self.max_queue_length, self._queued)
        self._dispatch()

    def _next_monotask(self) -> Optional[Monotask]:
        """Pop from the next non-empty phase queue, round-robin."""
        phases: List[str] = list(self._queues.keys())
        if not phases:
            return None
        if self.prefer_phases_when is not None:
            predicate, substring = self.prefer_phases_when
            if predicate():
                for phase in phases:
                    if substring in phase and self._queues[phase]:
                        return self._queues[phase].popleft()
        for offset in range(len(phases)):
            index = (self._rr_cursor + offset) % len(phases)
            queue = self._queues[phases[index]]
            if queue:
                self._rr_cursor = (index + 1) % len(phases)
                return queue.popleft()
        return None

    def _dispatch(self) -> None:
        while self._queued and self.running < self.concurrency:
            monotask = self._next_monotask()
            self._queued -= 1
            self.running += 1
            self.env.process(self._run(monotask))

    def _run(self, monotask: Monotask) -> Generator:
        monotask.started_at = self.env.now
        error: Optional[BaseException] = None
        process = self.env.process(monotask.execute())
        self._executing[monotask] = process
        try:
            yield process
        except (Interrupted, FaultError) as exc:
            # The monotask was killed by a crash, or its I/O failed on
            # dead hardware; its multitask fails, not the simulation.
            error = exc
        finally:
            self._executing.pop(monotask, None)
            self.running -= 1
        if error is None:
            monotask.record()
            monotask.done.succeed()
        elif not monotask.done.triggered:
            monotask.done.fail(error)
        self._dispatch()

    # -- fault handling -----------------------------------------------------------

    def fail_all(self) -> None:
        """Machine crash: reject the queue, kill executing monotasks."""
        self.dead = True
        victims: List[Monotask] = []
        for queue in self._queues.values():
            victims.extend(queue)
            queue.clear()
        self._queued = 0
        for monotask in victims:
            if not monotask.done.triggered:
                monotask.done.fail(MachineFailure(f"{self.name} is down"))
        for process in list(self._executing.values()):
            if process.is_alive and process.target is not None:
                process.interrupt(cause="machine-crash")

    def revive(self) -> None:
        """The machine restarted: accept monotasks again."""
        self.dead = False
