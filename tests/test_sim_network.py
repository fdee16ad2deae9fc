"""Unit tests for the max-min fair network fabric."""

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.config import MB
from repro.errors import (Interrupted, LinkPartitionError, MachineFailure,
                          SimulationError)
from repro.simulator import BusyTracker, Environment, Network
from repro.simulator.network import FLOW_LATENCY_S

BW = 100 * MB  # symmetric link bandwidth used in these tests


def make_network(env, machines=4, bw=BW):
    net = Network(env)
    for machine in range(machines):
        net.register_machine(machine, up_bps=bw, down_bps=bw)
    return net


def test_single_flow_uses_full_bandwidth():
    env = Environment()
    net = make_network(env)
    env.run(until=net.transfer(0, 1, 100 * MB))
    assert env.now == pytest.approx(1.0, rel=0.01)


def test_two_flows_share_receiver_link():
    env = Environment()
    net = make_network(env)
    done = env.all_of([
        net.transfer(0, 2, 100 * MB),
        net.transfer(1, 2, 100 * MB),
    ])
    env.run(until=done)
    # Both into machine 2: each gets 50 MB/s.
    assert env.now == pytest.approx(2.0, rel=0.01)


def test_two_flows_share_sender_link():
    env = Environment()
    net = make_network(env)
    done = env.all_of([
        net.transfer(0, 1, 100 * MB),
        net.transfer(0, 2, 100 * MB),
    ])
    env.run(until=done)
    assert env.now == pytest.approx(2.0, rel=0.01)


def test_disjoint_flows_do_not_contend():
    env = Environment()
    net = make_network(env)
    done = env.all_of([
        net.transfer(0, 1, 100 * MB),
        net.transfer(2, 3, 100 * MB),
    ])
    env.run(until=done)
    assert env.now == pytest.approx(1.0, rel=0.01)


def test_rates_rebalance_when_flow_finishes():
    env = Environment()
    net = make_network(env)
    finish = {}

    def run_flow(tag, nbytes):
        yield net.transfer(tag, 2, nbytes)
        finish[tag] = env.now

    env.process(run_flow(0, 50 * MB))
    env.process(run_flow(1, 100 * MB))
    env.run()
    # Shared 100 MB/s receiver: flow 0 (50 MB) finishes at t=1 while both
    # run at 50 MB/s; flow 1 then gets the full link for its last 50 MB.
    assert finish[0] == pytest.approx(1.0, rel=0.02)
    assert finish[1] == pytest.approx(1.5, rel=0.02)


def test_max_min_fairness_water_filling():
    env = Environment()
    net = make_network(env)
    # Flows: A 0->1, B 0->2, C 3->2.  Link 0-up shared by A,B; link 2-down
    # shared by B,C.  Max-min: A=50, B=50, C=50 at first; all symmetric.
    net.transfer(0, 1, 500 * MB, label="A")
    net.transfer(0, 2, 500 * MB, label="B")
    net.transfer(3, 2, 500 * MB, label="C")
    rates = net.rates_snapshot()
    assert rates["A"] == pytest.approx(50 * MB)
    assert rates["B"] == pytest.approx(50 * MB)
    assert rates["C"] == pytest.approx(50 * MB)


def test_asymmetric_water_filling():
    env = Environment()
    net = Network(env)
    net.register_machine(0, up_bps=100 * MB, down_bps=100 * MB)
    net.register_machine(1, up_bps=100 * MB, down_bps=30 * MB)
    net.register_machine(2, up_bps=100 * MB, down_bps=100 * MB)
    # B bottlenecked at machine 1's 30 MB/s downlink; A then gets the
    # remaining 70 MB/s of machine 0's uplink.
    net.transfer(0, 2, 500 * MB, label="A")
    net.transfer(0, 1, 500 * MB, label="B")
    rates = net.rates_snapshot()
    assert rates["B"] == pytest.approx(30 * MB)
    assert rates["A"] == pytest.approx(70 * MB)


def test_local_transfer_is_latency_only():
    env = Environment()
    net = make_network(env)
    env.run(until=net.transfer(1, 1, 1000 * MB))
    assert env.now == pytest.approx(FLOW_LATENCY_S)


def test_unregistered_machine_rejected():
    env = Environment()
    net = make_network(env, machines=2)
    with pytest.raises(SimulationError):
        net.transfer(0, 99, 10)


def test_duplicate_registration_rejected():
    env = Environment()
    net = make_network(env, machines=1)
    with pytest.raises(SimulationError):
        net.register_machine(0, BW, BW)


def test_bytes_accounting():
    env = Environment()
    net = make_network(env)
    env.run(until=net.transfer(0, 1, 42 * MB))
    assert net.bytes_transferred == 42 * MB


def test_many_flows_conserve_bandwidth():
    env = Environment()
    net = make_network(env, machines=8)
    flows = []
    for src in range(4):
        for dst in range(4, 8):
            flows.append(net.transfer(src, dst, 25 * MB))
    env.run(until=env.all_of(flows))
    # 16 flows, each sender uplink 100 MB/s shared by 4 flows -> 25 MB/s
    # each; total 400 MB moved through 400 MB/s of aggregate capacity.
    assert env.now == pytest.approx(1.0, rel=0.02)


# -- differential check against flow-by-flow water-filling --------------------


class _RefFlow:
    __slots__ = ("src", "dst", "nbytes", "remaining", "rate", "last_update",
                 "done", "label")

    def __init__(self, env, src, dst, nbytes, label):
        self.src, self.dst, self.label = src, dst, label
        self.nbytes = self.remaining = float(nbytes)
        self.rate = 0.0
        self.last_update = env.now
        self.done = env.event()


class FlowByFlowNetwork:
    """Reference model: max-min fair water-filling over every flow.

    The direct per-flow algorithm, which :class:`Network`'s
    water-filling over (src, dst) pairs must reproduce to the bit.
    """

    def __init__(self, env):
        self.env = env
        self.up, self.down, self.factor = {}, {}, {}
        self.machine_up, self.partitions = {}, set()
        self.flows = []
        self.waiter, self.wake_at = None, float("inf")
        self.completion_log = []
        self.rx_trackers, self.tx_trackers = {}, {}

    def register_machine(self, machine, up_bps, down_bps):
        self.up[machine], self.down[machine] = up_bps, down_bps
        self.factor[machine] = self.factor[~machine] = 1.0
        self.machine_up[machine] = True
        self.rx_trackers[machine] = BusyTracker(self.env, 1)
        self.tx_trackers[machine] = BusyTracker(self.env, 1)

    def set_machine_up(self, machine, up):
        self.machine_up[machine] = up

    def transfer(self, src, dst, nbytes, label):
        flow = _RefFlow(self.env, src, dst, nbytes, label)
        if not (self.machine_up[src] and self.machine_up[dst]):
            flow.done.fail(MachineFailure("endpoint is down"))
        elif src != dst and (src, dst) in self.partitions:
            flow.done.fail(LinkPartitionError("link partitioned"))
        elif nbytes <= 0 or src == dst:
            self.env.process(self._deliver([flow]))
        else:
            self.flows.append(flow)
            self._rebalance()
        return flow.done

    def _deliver(self, finished):
        yield self.env.timeout(FLOW_LATENCY_S)
        for flow in finished:
            if not flow.done.triggered:
                self.completion_log.append(
                    (self.env.now, flow.nbytes, flow.dst, flow.src))
                flow.done.succeed(flow)

    def _compute_rates(self):
        by_link, count, cap = {}, {}, {}
        for flow in self.flows:
            flow.rate = -1.0
            for link, bps in ((flow.src, self.up[flow.src]),
                              (~flow.dst, self.down[flow.dst])):
                if link not in by_link:
                    by_link[link], count[link] = [], 0
                    cap[link] = bps * self.factor[link]
                by_link[link].append(flow)
                count[link] += 1
        while count:
            best = min(count, key=lambda l: cap[l] / count[l])
            share = max(cap[best] / count[best], 1e-6)
            for flow in by_link[best]:
                if flow.rate >= 0.0:
                    continue
                flow.rate = share
                link = ~flow.dst if best == flow.src else flow.src
                if count[link] == 1:
                    del count[link], cap[link]
                else:
                    count[link] -= 1
                    cap[link] -= share
            del count[best], cap[best]

    def _bank_progress(self):
        for flow in self.flows:
            elapsed = self.env.now - flow.last_update
            if elapsed > 0 and flow.rate > 0:
                flow.remaining = max(0.0,
                                     flow.remaining - flow.rate * elapsed)
            flow.last_update = self.env.now

    def _update_trackers(self):
        for trackers, side in ((self.rx_trackers, "dst"),
                               (self.tx_trackers, "src")):
            busy = {getattr(flow, side) for flow in self.flows}
            for machine, tracker in trackers.items():
                if tracker.busy != (machine in busy):
                    tracker.set_busy(int(machine in busy))

    def _next_deadline(self):
        return self.env.now + min(f.remaining / max(f.rate, 1e-12)
                                  for f in self.flows)

    def _rebalance(self):
        self._bank_progress()
        self._compute_rates()
        self._update_trackers()
        self._arm()

    def _arm(self):
        if not self.flows:
            self.wake_at = float("inf")
            return
        wake_at = self._next_deadline()
        if self.waiter is None or not self.waiter.is_alive:
            self.wake_at = wake_at
            self.waiter = self.env.process(self._completion_loop())
        elif wake_at < self.wake_at:
            self.wake_at = wake_at
            self.waiter.interrupt(cause="rearm")

    def _completion_loop(self):
        while self.flows:
            delay = self.wake_at - self.env.now
            if delay > 0:
                try:
                    yield self.env.timeout(delay)
                except Interrupted:
                    continue
                if not self.flows:
                    break
            self._bank_progress()
            finished = [f for f in self.flows if f.remaining <= 1e-6]
            if not finished:
                soonest = self._next_deadline() - self.env.now
                if soonest >= 1e-9:
                    self.wake_at = self.env.now + soonest
                    continue
                closest = min(self.flows, key=lambda f: f.remaining)
                closest.remaining = 0.0
                finished = [closest]
            for flow in finished:
                self.flows.remove(flow)
            self._compute_rates()
            self._update_trackers()
            if self.flows:
                self.wake_at = self._next_deadline()
            self.env.process(self._deliver(finished))

    def _kill(self, doomed, error):
        self._bank_progress()
        dead = [f for f in self.flows if doomed(f)]
        for flow in dead:
            self.flows.remove(flow)
        self._compute_rates()
        self._update_trackers()
        self._arm()
        for flow in dead:
            flow.done.fail(error("killed"))

    def fail_machine(self, machine):
        self._kill(lambda f: machine in (f.src, f.dst), MachineFailure)

    def partition_link(self, src, dst):
        self.partitions.add((src, dst))
        self._kill(lambda f: (f.src, f.dst) == (src, dst),
                   LinkPartitionError)

    def heal_link(self, src, dst):
        self.partitions.discard((src, dst))

    def degrade_link(self, machine, up_factor=1.0, down_factor=1.0):
        self.factor[machine], self.factor[~machine] = up_factor, down_factor
        if self.flows:
            self._rebalance()

    def restore_link(self, machine):
        self.degrade_link(machine)

    def rates_snapshot(self):
        return {flow.label: flow.rate for flow in self.flows}


#: Few distinct sizes so shares tie and equal-size flows finish together.
_SIZES = (0, 1, 8 * MB, 16 * MB, 16 * MB, 40 * MB, 128 * MB)
_FACTORS = (0.1, 0.5, 1.0)


def churn_script(rng, machines, steps):
    """A timed script of transfers and faults drawn from ``rng``.

    Most transfers reuse a few hot (src, dst) pairs and start at the
    same instant as the previous step, so pairs carry several flows and
    equal flows finish together; local (src == dst) and zero-byte
    transfers, crashes, partitions and NIC degradation are mixed in.
    """
    def pick():
        return (rng.randrange(machines), rng.randrange(machines))

    hot = [pick() for _ in range(rng.randint(2, 8))]
    script = []
    for _ in range(steps):
        pair = rng.choice(hot) if rng.random() < 0.7 else pick()
        machine = rng.randrange(machines)
        roll = rng.random()
        if roll < 0.85:
            size = (rng.choice(_SIZES) if rng.random() < 0.8
                    else rng.uniform(1.0, 50 * MB))
            op = ("transfer", pair, size)
        elif roll < 0.86:
            op = ("crash", machine)
        elif roll < 0.9:
            op = ("revive", machine)
        elif roll < 0.91:
            op = ("partition", pair)
        elif roll < 0.93:
            op = ("heal", pair)
        elif roll < 0.97:
            op = ("degrade", machine, rng.choice(_FACTORS),
                  rng.choice(_FACTORS))
        else:
            op = ("restore", machine)
        delay = rng.choice((0.0, 0.0, 0.0, 0.0, 0.005, 0.02, 0.1))
        script.append((delay, op))
    return script


@st.composite
def churn(draw):
    """A cluster plus a seeded churn script for it."""
    machines = draw(st.integers(2, 8))
    if draw(st.integers(0, 2)):
        links = [(BW, BW)] * machines  # symmetric: shares tie exactly
    else:
        speeds = st.sampled_from((30 * MB, 100 * MB, 125 * MB))
        links = [(draw(speeds), draw(speeds)) for _ in range(machines)]
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    return links, churn_script(rng, machines, draw(st.integers(1, 200)))


def _drive(model, links, script, on_step=None):
    """Run ``script`` on a fresh ``model`` fabric; everything observable.

    ``on_step(net, index)`` runs before each step; its return values are
    collected too.
    """
    env = Environment()
    net = model(env)
    for machine, (up, down) in enumerate(links):
        net.register_machine(machine, up_bps=up, down_bps=down)
    outcomes = []
    probes = []

    def watch(index):
        def settle(event):
            if event.ok:
                outcomes.append((index, env.now, "ok"))
            else:
                event.defused = True
                outcomes.append((index, env.now, type(event.value).__name__))
        return settle

    def run():
        for index, (delay, (kind, *args)) in enumerate(script):
            if delay:
                yield env.timeout(delay)
            if on_step is not None:
                probes.append(on_step(net, index))
            if kind == "transfer":
                (src, dst), nbytes = args
                net.transfer(src, dst, nbytes,
                             label=str(index)).add_callback(watch(index))
            elif kind == "crash":
                net.set_machine_up(args[0], False)
                net.fail_machine(args[0])
            elif kind == "revive":
                net.set_machine_up(args[0], True)
            elif kind == "partition":
                net.partition_link(*args[0])
            elif kind == "heal":
                net.heal_link(*args[0])
            elif kind == "degrade":
                net.degrade_link(*args)
            else:
                net.restore_link(args[0])

    env.process(run())
    env.run()
    trackers = {side: {m: list(t.changes) for m, t in getattr(
        net, f"{side}_trackers").items()} for side in ("rx", "tx")}
    return outcomes, list(net.completion_log), trackers, env.now, probes


def _rates(net, index):
    return net.rates_snapshot()


@settings(max_examples=200, deadline=None)
@given(churn())
def test_pair_model_is_bit_identical_to_flow_by_flow(case):
    links, script = case
    ours = _drive(Network, links, script, on_step=_rates)
    reference = _drive(FlowByFlowNetwork, links, script, on_step=_rates)
    # Exact equality: same finish times and failures, same completion
    # order, same busy-tracker change points, same rate of every flow
    # in the air at every step.
    assert ours == reference


@settings(max_examples=50, deadline=None)
@given(churn(), st.randoms(use_true_random=False))
def test_rates_snapshot_does_not_perturb_the_run(case, rng):
    links, script = case
    probes = {index for index in range(len(script)) if rng.random() < 0.5}

    def probe(net, index):
        if index in probes:
            net.rates_snapshot()

    assert (_drive(Network, links, script, on_step=probe)[:4]
            == _drive(Network, links, script)[:4])
