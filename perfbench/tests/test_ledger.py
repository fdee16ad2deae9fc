"""The ledger's tracer, and the ledger measured from outside the simulator."""

import pytest

from perfbench.ledger import LAYERS, Tracer, entry_points, ledger_metrics
from perfbench.workloads import run_episode
from repro.metrics.collector import MetricsCollector

#: Workload sizes small enough for a test, large enough to touch every
#: layer the full-size workload touches.
SMALL = {
    "serve_observed": {"jobs": 12},
    "batch_spark": {"sort_gb": 1.0, "map_tasks": 32},
    "sharded_datasvc": {"tenants": 6, "jobs_per_tenant": 1},
}


class FakeClock:
    """A clock that only moves when the code under test says so."""

    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        return self.now

    def advance(self, seconds: float) -> None:
        self.now += seconds


class Toy:
    """A call tree with known costs: engine -> metrics, plus a process."""

    def __init__(self, clock: FakeClock) -> None:
        self.clock = clock

    def outer(self):
        self.clock.advance(1.0)
        self.inner()
        self.clock.advance(2.0)
        self.inner()
        return "done"

    def inner(self):
        self.clock.advance(0.5)

    def process(self):
        self.clock.advance(3.0)
        got = yield "first"
        self.clock.advance(got)
        self.inner()
        try:
            yield "second"
        except KeyError:
            self.clock.advance(4.0)
        return "finished"


TOY_POINTS = [(Toy, "outer", "engine"), (Toy, "inner", "metrics"),
              (Toy, "process", "simulator.network")]


def test_self_times_and_residual_partition_wall_on_toy_tree():
    clock = FakeClock()
    tracer = Tracer(clock=clock)
    toy = Toy(clock)
    with tracer.installed(TOY_POINTS):
        start = clock()
        clock.advance(10.0)  # untraced glue: lands in the residual
        assert toy.outer() == "done"
        gen = toy.process()
        assert next(gen) == "first"
        clock.advance(7.0)  # "simulated waiting": not charged to process
        assert gen.send(6.0) == "second"
        with pytest.raises(StopIteration) as stop:
            gen.throw(KeyError("x"))
        assert stop.value.value == "finished"
        wall = clock() - start
    assert dict(tracer.calls) == {"engine": 1, "metrics": 3,
                                  "simulator.network": 1}
    assert tracer.self_s["engine"] == 3.0
    assert tracer.self_s["metrics"] == 1.5
    assert tracer.self_s["simulator.network"] == 13.0
    values = ledger_metrics(tracer, wall, {})
    assert values["simulator.core.residual_s"] == 17.0
    layer_self = sum(values[f"{layer}.self_s"] for layer in LAYERS
                     if layer != "metrics.critpath")
    assert layer_self + values["metrics.critpath_self_s"] + values[
        "simulator.core.residual_s"] == wall
    # The patches are gone once the block exits.
    assert Toy.outer.__name__ == "outer" and not hasattr(Toy.outer,
                                                          "__wrapped__")


def test_forwarding_generator_supports_yield_from_and_close():
    clock = FakeClock()
    tracer = Tracer(clock=clock)
    closed = []

    class Proc:
        def body(self):
            try:
                value = yield 1
                clock.advance(value)
                yield 2
            finally:
                clock.advance(0.25)
                closed.append(True)

    def caller(proc):
        result = yield from proc.body()
        return result

    with tracer.installed([(Proc, "body", "datasvc")]):
        gen = caller(Proc())
        assert next(gen) == 1
        assert gen.send(2.0) == 2
        gen.close()
    assert closed == [True]
    assert tracer.calls["datasvc"] == 1
    assert tracer.self_s["datasvc"] == 2.25


def test_every_entry_point_resolves():
    points = entry_points()
    layers = {layer for _, _, layer in points}
    assert layers == set(LAYERS)
    # Overrides are wrapped on each class that defines them.
    picks = [owner.__name__ for owner, attr, _ in points
             if attr == "pick_next"]
    assert len(picks) >= 3


def _traced_episode(name: str, workdir: str):
    tracer = Tracer()
    with tracer.installed():
        episode = run_episode(name, 3, workdir, **SMALL[name])
    return tracer, episode


@pytest.mark.parametrize("name", sorted(SMALL))
def test_tracing_is_invisible_to_simulated_results(name, tmp_path):
    untraced = run_episode(name, 3, str(tmp_path), **SMALL[name])
    tracer, traced = _traced_episode(name, str(tmp_path))
    assert traced.outcome.digest() == untraced.outcome.digest()
    assert traced.outcome.failed == 0 and traced.outcome.submitted > 0
    values = ledger_metrics(tracer, traced.setup_s + traced.run_s, {})
    assert values["simulator.core.residual_s"] > 0


ZERO_CALLS = {
    "batch_spark": ("clarity", "obs", "xray", "monospark", "controlplane",
                    "datasvc", "trace", "serve"),
    "serve_observed": ("controlplane", "datasvc", "spark"),
    "sharded_datasvc": ("spark", "clarity", "obs", "xray", "trace"),
}


@pytest.mark.parametrize("name", sorted(ZERO_CALLS))
def test_layers_a_workload_bypasses_report_zero_calls(name, tmp_path):
    tracer, _ = _traced_episode(name, str(tmp_path))
    for layer in ZERO_CALLS[name]:
        assert tracer.calls[layer] == 0, layer
    used = set(LAYERS) - set(ZERO_CALLS[name]) - {"metrics.critpath"}
    for layer in used:
        assert tracer.calls[layer] > 0, layer


def test_history_delay_in_record_span_is_named_metrics(tmp_path,
                                                       monkeypatch):
    """An O(history) scan added to span recording shows up, from the
    outside, as the metrics layer's self time and nowhere else."""
    before, _ = _traced_episode("serve_observed", str(tmp_path))

    original = MetricsCollector.record_span

    def record_span_scanning_history(self, span):
        for _ in range(20):
            sum(1 for _ in self.spans)
        original(self, span)

    monkeypatch.setattr(MetricsCollector, "record_span",
                        record_span_scanning_history)
    after, _ = _traced_episode("serve_observed", str(tmp_path))
    growth = {layer: after.self_s[layer] - before.self_s[layer]
              for layer in LAYERS}
    assert max(growth, key=growth.get) == "metrics", growth
