"""The per-layer ledger: self time and call counts per ``repro`` package.

A :class:`Tracer` wraps the public entry points of each layer from the
outside, by replacing class attributes for the duration of one traced
run; nothing under ``src/`` knows it is being measured.  Each wrapped
call pushes a frame on a stack.  When the frame pops, its inclusive time
minus the time of the wrapped calls nested inside it is the layer's
*self* time.  A call that returns a generator (a simulation process
body) is handed back wrapped in a forwarding generator that times every
resume the same way, so a process is charged for the host time it runs,
not for the simulated time it waits.

Whatever wall time no wrapped call covers is ``simulator.core``'s
residual: the event loop plus the glue between layers.  By construction
the layer self times and that residual partition the traced wall time.
"""

from __future__ import annotations

import functools
import importlib
import time
import types
from collections import defaultdict
from contextlib import contextmanager
from typing import Callable, Dict, Iterator, List, Tuple

__all__ = ["LAYERS", "Tracer", "entry_points", "ledger_metrics",
           "PER_LAYER_UNITS"]

#: layer -> (entry points, the end-to-end metric it should move and on
#: which workload).  Entry points are "module:Class.method"; a trailing
#: ``*`` on the method matches every function of that prefix the class
#: defines.  ``metrics.critpath`` is kept apart from ``metrics`` so its
#: self time can be read on its own.
LAYERS: Dict[str, Tuple[Tuple[str, ...], str]] = {
    "simulator.network": (
        ("repro.simulator.network:Network.transfer",),
        "tasks_per_s on batch_spark, then sharded_datasvc"),
    "simulator.disk": (
        ("repro.simulator.disk:Disk.submit",),
        "tasks_per_s on batch_spark and sharded_datasvc"),
    "simulator.cpu": (
        ("repro.simulator.cpu:CpuPool.run",
         "repro.simulator.cpu:CpuPool.acquire",
         "repro.simulator.cpu:CpuPool.release"),
        "tasks_per_s on batch_spark and sharded_datasvc"),
    "engine": (
        ("repro.engine.base:TaskPool.submit",
         "repro.engine.base:TaskPool.resubmit",
         "repro.engine.base:BaseEngine.submit_job"),
        "tasks_per_s on sharded_datasvc"),
    "spark": (
        ("repro.spark.engine:SparkEngine.run_task_on_machine",),
        "tasks_per_s on batch_spark only"),
    "monospark": (
        ("repro.monospark.engine:MonoSparkEngine.run_task_on_machine",
         "repro.monospark.worker:MonoWorker.submit_multitask",
         "repro.monospark.worker:MonoWorker.submit_ready",
         "repro.monospark.schedulers:ResourceScheduler.submit"),
        "tasks_per_s on sharded_datasvc and serve_observed; "
        "zero calls on batch_spark"),
    "api": (
        ("repro.api.dagscheduler:DagScheduler.compile",
         "repro.serve.workload:JobTemplate.instantiate"),
        "setup_s and tasks_per_s on sharded_datasvc"),
    "metrics": (
        ("repro.metrics.collector:MetricsCollector.record_*",
         "repro.metrics.collector:MetricsCollector.job_*",
         "repro.metrics.collector:MetricsCollector.stage_*",
         "repro.metrics.collector:MetricsCollector.attempt_*"),
        "tasks_per_s and peak_rss_mb on serve_observed"),
    "metrics.critpath": (
        ("repro.metrics.collector:MetricsCollector.critical_path_report",),
        "tasks_per_s and peak_rss_mb on serve_observed"),
    "trace": (
        ("repro.trace.telemetry:TelemetryRegistry.sample",),
        "tasks_per_s on serve_observed; zero calls on batch_spark"),
    "clarity": (
        ("repro.clarity.aggregator:ClarityAggregator.observe_job",),
        "tasks_per_s on serve_observed; zero calls on batch_spark"),
    "obs": (
        ("repro.obs.alerts:AlertEngine.evaluate",
         "repro.obs.drift:ModelDriftDetector.observe_job",
         "repro.obs.journal:EventJournal.observe"),
        "tasks_per_s on serve_observed; zero calls on batch_spark"),
    "xray": (
        ("repro.xray.capsule:RunRecorder.span_finished",
         "repro.xray.capsule:RunRecorder.link_recorded",
         "repro.xray.capsule:RunRecorder.finalize"),
        "tasks_per_s on serve_observed; zero calls on batch_spark"),
    "serve": (
        ("repro.serve.admission:CostEstimator.estimate",
         "repro.serve.admission:CostEstimator.observe",
         "repro.serve.admission:AdmissionController.decide",
         "repro.serve.scheduler:JobScheduler.pick_next"),
        "tasks_per_s on serve_observed and sharded_datasvc"),
    "controlplane": (
        ("repro.controlplane.plane:ControlPlane.submit",
         "repro.controlplane.plane:ControlPlane.finalize",
         "repro.controlplane.plane:ControlPlane.checkpoint_tenant"),
        "tasks_per_s and peak_rss_mb on sharded_datasvc only"),
    "datasvc": (
        ("repro.datasvc.service:DataService.put_map_output",
         "repro.datasvc.service:DataService.write_block",
         "repro.datasvc.service:DataService.fetch_shuffle",
         "repro.datasvc.service:DataService.read_block"),
        "tasks_per_s and peak_rss_mb on sharded_datasvc only"),
}

#: Metrics the ledger adds beside each layer's calls and self time,
#: with the end-to-end metric each should move.
EXTRA_METRICS: Dict[str, Tuple[str, str]] = {
    "simulator.core.residual_s": ("s", "tasks_per_s on batch_spark"),
    "simulator.core.events": ("count", "tasks_per_s on batch_spark"),
    "metrics.records": ("count", "peak_rss_mb on serve_observed"),
    "xray.capsule_bytes": ("bytes", "tasks_per_s on serve_observed"),
    "datasvc.puts": ("count", "tasks_per_s on sharded_datasvc"),
    "datasvc.fetches": ("count", "tasks_per_s on sharded_datasvc"),
    "datasvc.bytes_in": ("bytes", "peak_rss_mb on sharded_datasvc"),
    "bench.trace_overhead_ratio": ("ratio", "none: the cost of tracing"),
}


def _layer_metric_names() -> List[Tuple[str, str]]:
    names = []
    for layer in LAYERS:
        if layer == "metrics.critpath":
            names.append(("metrics.critpath_self_s", "s"))
            continue
        names.append((f"{layer}.calls", "count"))
        names.append((f"{layer}.self_s", "s"))
    names.extend((name, unit) for name, (unit, _) in EXTRA_METRICS.items())
    return names


#: Every per-layer metric name -> unit, in report order.
PER_LAYER_UNITS: Dict[str, str] = dict(_layer_metric_names())


def _resolve(spec: str) -> List[Tuple[type, str]]:
    """``module:Class.method`` -> [(class defining it, attribute)].

    A method that subclasses override (``JobScheduler.pick_next``) is
    wrapped on every class that defines it, so each override is seen.
    """
    module_name, _, path = spec.partition(":")
    class_name, _, method = path.partition(".")
    cls = getattr(importlib.import_module(module_name), class_name)
    classes, todo = [], [cls]
    while todo:
        current = todo.pop()
        classes.append(current)
        todo.extend(current.__subclasses__())
    found = []
    for owner in classes:
        for attr, value in vars(owner).items():
            if not isinstance(value, types.FunctionType):
                continue
            if method.endswith("*"):
                matched = attr.startswith(method[:-1])
            else:
                matched = attr == method
            if matched:
                found.append((owner, attr))
    if not found:
        raise LookupError(f"no entry point matches {spec}")
    return found


def entry_points() -> List[Tuple[type, str, str]]:
    """Every (class, attribute, layer) the ledger wraps."""
    return [(owner, attr, layer)
            for layer, (specs, _) in LAYERS.items()
            for spec in specs
            for owner, attr in _resolve(spec)]


class Tracer:
    """Self time and call counts per bucket, kept on a frame stack."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter
                 ) -> None:
        self.clock = clock
        self.calls: Dict[str, int] = defaultdict(int)
        self.self_s: Dict[str, float] = defaultdict(float)
        #: Open frames: [bucket, start, time of nested wrapped frames].
        self._stack: List[list] = []

    def _enter(self, bucket: str) -> None:
        self._stack.append([bucket, self.clock(), 0.0])

    def _exit(self) -> None:
        bucket, start, nested = self._stack.pop()
        elapsed = self.clock() - start
        self.self_s[bucket] += elapsed - nested
        if self._stack:
            self._stack[-1][2] += elapsed

    def wrap(self, func: Callable, bucket: str) -> Callable:
        """``func`` with each call (and each resume of a generator it
        returns) charged to ``bucket``."""

        @functools.wraps(func)
        def traced(*args, **kwargs):
            self.calls[bucket] += 1
            self._enter(bucket)
            try:
                result = func(*args, **kwargs)
            finally:
                self._exit()
            if isinstance(result, types.GeneratorType):
                return self._resumes(result, bucket)
            return result

        return traced

    def _resumes(self, gen, bucket: str):
        """Forward ``send``/``throw``/``close`` to ``gen``, timing each."""
        value, error = None, None
        while True:
            self._enter(bucket)
            try:
                if error is None:
                    item = gen.send(value)
                else:
                    item = gen.throw(error)
            except StopIteration as stop:
                return stop.value
            finally:
                self._exit()
            try:
                value, error = (yield item), None
            except GeneratorExit:
                self._enter(bucket)
                try:
                    gen.close()
                finally:
                    self._exit()
                raise
            except BaseException as exc:  # forwarded into gen, not handled
                value, error = None, exc

    @contextmanager
    def installed(self, points=None) -> Iterator["Tracer"]:
        """Wrap every entry point for the duration of the block."""
        patches = []
        try:
            for owner, attr, bucket in (points if points is not None
                                        else entry_points()):
                original = vars(owner)[attr]
                setattr(owner, attr, self.wrap(original, bucket))
                patches.append((owner, attr, original))
            yield self
        finally:
            for owner, attr, original in reversed(patches):
                setattr(owner, attr, original)


def ledger_metrics(tracer: Tracer, wall_s: float,
                   extras: Dict[str, float]) -> Dict[str, float]:
    """The per-layer metrics of one traced run, by name.

    ``simulator.core.residual_s`` is the traced wall time no layer's
    self time covers, so the self times and it sum to ``wall_s``.
    """
    values: Dict[str, float] = {}
    for layer in LAYERS:
        if layer == "metrics.critpath":
            values["metrics.critpath_self_s"] = tracer.self_s[layer]
            continue
        values[f"{layer}.calls"] = tracer.calls[layer]
        values[f"{layer}.self_s"] = tracer.self_s[layer]
    values["simulator.core.residual_s"] = wall_s - sum(
        tracer.self_s[layer] for layer in LAYERS)
    values.update(extras)
    return values
