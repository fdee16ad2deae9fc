"""Flow-level network fabric with max-min fair bandwidth sharing.

Machines attach to a non-blocking core fabric through full-duplex NICs,
so the only capacity constraints are each machine's uplink and downlink.
Active flows receive their max-min fair rates (computed by water-filling
over the link constraints); whenever a flow starts or finishes, progress
is banked at the old rates and rates are recomputed.

Flows between the same (src, dst) machine pair cross the same two links,
so max-min fairness always gives them one rate.  The fabric therefore
groups active flows by pair and water-fills over pairs weighted by their
flow counts: a cluster of n machines has at most n*(n-1) pairs however
many flows are in the air.  The rates, and so every finish time, are
bit-identical to water-filling flow by flow (see
:meth:`Network._compute_rates`).

This is the standard flow-level approximation used by cluster
simulators: it captures exactly the effect the paper cares about --
transfers from one machine contending with other flows from the same
sender or to the same receiver (§3.3).
"""

from __future__ import annotations

from itertools import chain
from operator import attrgetter
from typing import Callable, Dict, Generator, List, Optional, Set, Tuple

from repro.errors import (Interrupted, LinkPartitionError, MachineFailure,
                          SimulationError)
from repro.simulator.core import Environment, Event, Process
from repro.simulator.resources import BusyTracker

__all__ = ["Network", "Flow"]

#: One-way latency charged at flow start (connection + first byte).
FLOW_LATENCY_S = 0.0005

_INF = float("inf")
_SEQ = attrgetter("_seq")
_HEAD = attrgetter("head")
_LINKS = attrgetter("links")


class Flow:
    """An active transfer of ``nbytes`` from ``src`` to ``dst``."""

    __slots__ = ("src", "dst", "nbytes", "remaining", "done", "label",
                 "started_at", "_seq", "_pair")

    def __init__(self, env: Environment, src: int, dst: int, nbytes: float,
                 label: str = "") -> None:
        self.src = src
        self.dst = dst
        self.nbytes = float(nbytes)
        self.remaining = float(nbytes)
        self.started_at = env.now
        self.done: Event = env.event()
        self.label = label
        #: Start order among remote flows (set when the flow joins).
        self._seq = 0
        self._pair: Optional[_Pair] = None

    @property
    def rate(self) -> float:
        """Max-min fair rate in bytes/s, shared by every flow on the same
        (src, dst) pair (0.0 for a local, empty or finished transfer)."""
        return 0.0 if self._pair is None else self._pair.rate

    @property
    def last_update(self) -> float:
        """Simulated time ``remaining`` was last brought up to date (the
        start time for a local, empty or finished transfer)."""
        return self.started_at if self._pair is None else self._pair.banked_at


class _Link:
    """One direction of a machine's NIC and the pairs crossing it."""

    __slots__ = ("bps", "cap", "tracker", "pairs", "flows", "pending",
                 "spare")

    def __init__(self, bps: float, tracker: BusyTracker) -> None:
        self.bps = bps
        #: Effective capacity: nominal speed times the gray-failure factor.
        self.cap = bps * 1.0
        #: Busy while any pair crosses the link.
        self.tracker = tracker
        self.pairs: List[_Pair] = []
        self.flows = 0
        #: Water-filling scratch: flows not yet frozen, and the capacity
        #: they still share.
        self.pending = 0
        self.spare = 0.0


class _Pair:
    """The active flows from one machine to another, in start order.

    They cross the same uplink and downlink, so max-min fairness always
    gives them one rate.
    """

    __slots__ = ("src", "dst", "up", "down", "links", "flows", "head",
                 "rate", "least", "banked_at")

    def __init__(self, src: int, dst: int, up: _Link, down: _Link,
                 now: float) -> None:
        self.src = src
        self.dst = dst
        self.up = up
        self.down = down
        self.links = (up, down)
        self.flows: List[Flow] = []
        #: Start sequence of the oldest flow.
        self.head = 0
        self.rate = 0.0
        #: Smallest ``remaining`` among the flows.
        self.least = _INF
        self.banked_at = now


class Network:
    """The cluster fabric: per-machine up/down links, max-min fair flows."""

    def __init__(self, env: Environment) -> None:
        self.env = env
        self._uplinks: Dict[int, _Link] = {}
        self._downlinks: Dict[int, _Link] = {}
        #: Active flows grouped by (src, dst).
        self._pairs: Dict[Tuple[int, int], _Pair] = {}
        self._started = 0
        self._banked_at = env.now
        #: One persistent waiter process re-armed on every rebalance, so
        #: flow churn does not leave superseded waiters in the event heap.
        self._waiter: Optional[Process] = None
        self._wake_at: float = _INF
        self._machine_up: Dict[int, bool] = {}
        #: Gray-failure partitions: blocked directed src->dst paths.
        self._partitions: Set[Tuple[int, int]] = set()
        self.bytes_transferred = 0.0
        #: (completion time, bytes, dst, src) per flow -- machine-level
        #: observation used by the Spark-based models (§6.6).
        self.completion_log: List[tuple] = []
        #: Per-machine receive-side busy trackers (1 unit = link saturated
        #: is approximated as "any flow active"); used for utilization plots.
        self.rx_trackers: Dict[int, BusyTracker] = {}
        self.tx_trackers: Dict[int, BusyTracker] = {}

    def register_machine(self, machine_id: int, up_bps: float,
                         down_bps: float) -> None:
        """Attach a machine's NIC to the fabric."""
        if up_bps <= 0 or down_bps <= 0:
            raise SimulationError("link bandwidth must be positive")
        if machine_id in self._uplinks:
            raise SimulationError(f"machine {machine_id} already registered")
        self._machine_up[machine_id] = True
        self.rx_trackers[machine_id] = BusyTracker(
            self.env, 1, f"net-rx-{machine_id}")
        self.tx_trackers[machine_id] = BusyTracker(
            self.env, 1, f"net-tx-{machine_id}")
        self._uplinks[machine_id] = _Link(
            up_bps, self.tx_trackers[machine_id])
        self._downlinks[machine_id] = _Link(
            down_bps, self.rx_trackers[machine_id])

    def down_bps(self, machine_id: int) -> float:
        """A machine's downlink capacity."""
        return self._downlinks[machine_id].bps

    def up_bps(self, machine_id: int) -> float:
        """A machine's uplink capacity."""
        return self._uplinks[machine_id].bps

    @property
    def active_flows(self) -> int:
        """Flows currently in the air."""
        return sum(len(pair.flows) for pair in self._pairs.values())

    def transfer(self, src: int, dst: int, nbytes: float,
                 label: str = "") -> Event:
        """Start a flow; the returned event fires (with value ``None``)
        when the last byte lands."""
        if src not in self._uplinks or dst not in self._downlinks:
            raise SimulationError(f"unregistered machine in flow {src}->{dst}")
        flow = Flow(self.env, src, dst, nbytes, label)
        if not (self._machine_up[src] and self._machine_up[dst]):
            flow.done.fail(MachineFailure(
                f"flow {src}->{dst}: endpoint is down"))
            return flow.done
        if src != dst and (src, dst) in self._partitions:
            flow.done.fail(LinkPartitionError(
                f"flow {src}->{dst}: link partitioned"))
            return flow.done
        self.bytes_transferred += flow.nbytes
        if nbytes <= 0 or src == dst:
            # Local or empty: completes after the fixed latency only.
            self.env.process(self._deliver([flow]))
            return flow.done
        self._bank_progress()
        self._add(flow)
        self._compute_rates()
        self._arm()
        return flow.done

    def _deliver(self, finished: List[Flow]) -> Generator:
        """Charge the one-way latency, then complete the flows.

        Remote flows pay it on top of their bandwidth time (connection
        setup plus propagation of the last byte); local/empty transfers
        pay only the latency.
        """
        yield self.env.timeout(FLOW_LATENCY_S)
        for flow in finished:
            if flow.done.triggered:
                continue  # Failed by a machine crash while in delivery.
            self.completion_log.append(
                (self.env.now, flow.nbytes, flow.dst, flow.src))
            flow.done.succeed()

    # -- pair bookkeeping ------------------------------------------------------

    def _add(self, flow: Flow) -> None:
        """Put a flow into its pair, opening the pair if it is the first
        (which turns idle NICs busy)."""
        self._started += 1
        flow._seq = self._started
        key = (flow.src, flow.dst)
        pair = self._pairs.get(key)
        if pair is None:
            pair = self._pairs[key] = _Pair(
                flow.src, flow.dst, self._uplinks[flow.src],
                self._downlinks[flow.dst], self.env.now)
            pair.head = flow._seq
            for link in pair.links:
                link.pairs.append(pair)
                if len(link.pairs) == 1:
                    link.tracker.set_busy(1)
        pair.flows.append(flow)
        pair.up.flows += 1
        pair.down.flows += 1
        if flow.remaining < pair.least:
            pair.least = flow.remaining
        flow._pair = pair

    def _remove(self, flows: List[Flow]) -> None:
        """Take flows out of their pairs, closing pairs left empty."""
        touched = []
        for flow in flows:
            pair = flow._pair
            flow._pair = None
            pair.flows.remove(flow)
            pair.up.flows -= 1
            pair.down.flows -= 1
            if pair.flows:
                touched.append(pair)
                continue
            del self._pairs[(pair.src, pair.dst)]
            for link in pair.links:
                link.pairs.remove(pair)
                if not link.pairs:
                    link.tracker.set_busy(0)
        for pair in touched:
            if pair.flows:
                pair.head = pair.flows[0]._seq
                pair.least = min(flow.remaining for flow in pair.flows)

    def _active(self) -> List[Flow]:
        """Every flow in the air, in start order."""
        return sorted((flow for pair in self._pairs.values()
                       for flow in pair.flows), key=_SEQ)

    # -- max-min fair rate allocation -----------------------------------------

    def _compute_rates(self) -> None:
        """Water-filling: repeatedly freeze the most-constrained link.

        Runs over pairs: a pair of k flows counts k times on each of its
        links, and freezing it subtracts the share from its other link's
        spare capacity k times -- the same float operations a
        flow-by-flow pass makes, so every rate is bit-identical to it.
        Links are ranked in order of each pair's oldest flow, the order
        a flow-by-flow scan meets them, so ``min`` breaks ties the same
        way.  Cost O(pairs + links^2) per recompute.
        """
        if not self._pairs:
            return
        links = dict.fromkeys(chain.from_iterable(
            map(_LINKS, sorted(self._pairs.values(), key=_HEAD))))
        for link in links:
            link.pending = link.flows
            link.spare = link.cap
        # Fair share of every link not yet frozen, in ranking order.
        fair = {link: link.cap / link.flows for link in links}
        while fair:
            best = min(fair, key=fair.__getitem__)
            share = fair.pop(best)
            if share < 1e-6:
                share = 1e-6
            for pair in best.pairs:
                # A pair is frozen once either of its links is; the other
                # links of best's pairs are all distinct.
                link = pair.down if best is pair.up else pair.up
                if link not in fair:
                    continue
                pair.rate = share
                k = len(pair.flows)
                pending = link.pending - k
                if pending == 0:
                    del fair[link]
                    continue
                spare = link.spare
                for _ in range(k):
                    spare -= share
                link.pending = pending
                link.spare = spare
                fair[link] = spare / pending

    def _bank_progress(self) -> List[Flow]:
        """Charge every flow for the bytes it moved since the last bank.

        Each flow's ``remaining`` is updated on its own: float
        subtraction does not associate, so a shared per-pair clock
        would drift from the flow-by-flow result.  Refreshes each pair's
        smallest ``remaining`` and returns the flows within float slack
        of done (pair by pair, not in start order).
        """
        now = self.env.now
        elapsed = now - self._banked_at
        self._banked_at = now
        finished = []
        for pair in self._pairs.values():
            pair.banked_at = now
            moved = pair.rate * elapsed
            least = _INF
            for flow in pair.flows:
                left = flow.remaining - moved
                if left <= 1e-6:
                    if left <= 0.0:
                        left = 0.0
                    finished.append(flow)
                flow.remaining = left
                if left < least:
                    least = left
            pair.least = least
        return finished

    def _next_deadline(self) -> float:
        # Every rate is at least the 1e-6 floor, and division by a
        # positive rate is monotone: a pair's smallest remaining over its
        # rate is the soonest finish among its flows.
        return self.env.now + min([pair.least / pair.rate
                                   for pair in self._pairs.values()])

    def _arm(self) -> None:
        """(Re)aim the single waiter at the soonest-finishing flow.

        The waiter is only interrupted when the deadline moved *earlier*;
        a later deadline is discovered by the waiter itself when it wakes
        and finds nothing finished.  Either way there is exactly one
        waiter and at most one pending wakeup -- flow churn cannot pile
        superseded events into the heap.
        """
        if not self._pairs:
            self._wake_at = _INF
            return
        wake_at = self._next_deadline()
        if self._waiter is None or not self._waiter.is_alive:
            self._wake_at = wake_at
            self._waiter = self.env.process(self._completion_loop())
        elif wake_at < self._wake_at:
            self._wake_at = wake_at
            self._waiter.interrupt(cause="rearm")

    def _completion_loop(self) -> Generator:
        while self._pairs:
            delay = self._wake_at - self.env.now
            if delay > 0:
                try:
                    yield self.env.timeout(delay)
                except Interrupted:
                    continue  # Re-armed at an earlier deadline.
                if not self._pairs:
                    break  # All in-flight flows failed while we slept.
            finished = self._bank_progress()
            if not finished:
                soonest = self._next_deadline() - self.env.now
                if soonest >= 1e-9:
                    # Rates dropped since we armed (new flows joined):
                    # this wakeup is early, not late.  Sleep again.
                    self._wake_at = self.env.now + soonest
                    continue
                # Float slack: force the closest flow to completion.
                closest = min(self._active(), key=lambda f: f.remaining)
                closest.remaining = 0.0
                finished = [closest]
            finished.sort(key=_SEQ)
            self._remove(finished)
            self._compute_rates()
            if self._pairs:
                self._wake_at = self._next_deadline()
            self.env.process(self._deliver(finished))

    # -- fault injection --------------------------------------------------------

    def _kill(self, doomed: Callable[[_Pair], bool]) -> List[Flow]:
        """Drop every flow on the pairs ``doomed`` selects and re-balance
        the survivors; returns the dropped flows in start order."""
        self._bank_progress()
        dead = sorted((flow for pair in self._pairs.values() if doomed(pair)
                       for flow in pair.flows), key=_SEQ)
        self._remove(dead)
        self._compute_rates()
        self._arm()
        return dead

    def set_machine_up(self, machine_id: int, up: bool) -> None:
        """Mark a machine up or down; transfers touching a down machine
        fail immediately."""
        if machine_id not in self._machine_up:
            raise SimulationError(f"unregistered machine {machine_id}")
        self._machine_up[machine_id] = up

    def fail_machine(self, machine_id: int) -> int:
        """Fail every in-flight flow from or to ``machine_id``.

        Returns the number of flows killed.  Survivors are re-balanced
        over the freed bandwidth.
        """
        dead = self._kill(lambda pair: machine_id in (pair.src, pair.dst))
        for flow in dead:
            flow.done.fail(MachineFailure(
                f"flow {flow.src}->{flow.dst}: machine {machine_id} failed"))
        return len(dead)

    def degrade_link(self, machine_id: int, up_factor: float = 1.0,
                     down_factor: float = 1.0) -> None:
        """Scale a machine's NIC to a fraction of nominal speed.

        Factors are relative speeds in (0, 1]; 1.0 restores full speed.
        In-flight flows are re-balanced at the new capacities.
        """
        if machine_id not in self._machine_up:
            raise SimulationError(f"unregistered machine {machine_id}")
        if not (0.0 < up_factor <= 1.0) or not (0.0 < down_factor <= 1.0):
            raise SimulationError(
                f"link factors must be in (0, 1]: {up_factor}, {down_factor}")
        for link, factor in ((self._uplinks[machine_id], up_factor),
                             (self._downlinks[machine_id], down_factor)):
            link.cap = link.bps * factor
        if self._pairs:
            self._bank_progress()
            self._compute_rates()
            self._arm()

    def restore_link(self, machine_id: int) -> None:
        """Return a degraded NIC to full speed."""
        self.degrade_link(machine_id, up_factor=1.0, down_factor=1.0)

    def partition_link(self, src: int, dst: int) -> int:
        """Block the directed path ``src -> dst``.

        In-flight flows on the path fail with
        :class:`~repro.errors.LinkPartitionError` and new transfers fail
        fast, so callers back off and retry instead of hanging.  Returns
        the number of flows killed.
        """
        for machine_id in (src, dst):
            if machine_id not in self._machine_up:
                raise SimulationError(f"unregistered machine {machine_id}")
        self._partitions.add((src, dst))
        dead = self._kill(lambda pair: pair.src == src and pair.dst == dst)
        for flow in dead:
            flow.done.fail(LinkPartitionError(
                f"flow {flow.src}->{flow.dst}: link partitioned"))
        return len(dead)

    def heal_link(self, src: int, dst: int) -> None:
        """Remove a partition; subsequent transfers flow normally."""
        self._partitions.discard((src, dst))

    def is_partitioned(self, src: int, dst: int) -> bool:
        """Whether the directed path ``src -> dst`` is blocked."""
        return (src, dst) in self._partitions

    # -- introspection for the performance model -------------------------------

    def rates_snapshot(self) -> Dict[str, float]:
        """Current per-flow rates, keyed by label (for tests/debugging).

        Read-only: every flow start, finish, failure and link change
        already re-balanced, so the rates are current and reading them
        leaves the simulation untouched.
        """
        return {f.label or f"{f.src}->{f.dst}": f.rate
                for f in self._active()}
