"""Ground-truth validation of the capacity advisor.

The advisor's predictions are only worth acting on if they match what
the change would actually buy.  Because the cluster is simulated, the
ground truth is obtainable: re-build the cluster under each candidate
configuration, re-run the *same* seeded serving workload, and compare
the advisor's predicted service-time percentiles against the measured
ones.  The paper validates its §6.2 what-ifs the same way (against real
re-runs) and reports worst-case relative error under 30%; the
:data:`ERROR_ENVELOPE` here pins that envelope.

Everything is deterministic: the same :class:`ClarityWorkload` yields
byte-identical :class:`ValidationResult` JSON, which seeds the repo's
benchmark trajectory (``BENCH_clarity.json``, :data:`SCENARIO` for
:mod:`repro.bench`) and is diffed in CI.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Dict, List, Optional, Tuple

from repro.api.context import AnalyticsContext
from repro.bench import Scenario
from repro.clarity.advisor import (AdvisorReport, Candidate, CapacityAdvisor)
from repro.clarity.aggregator import BottleneckWindow, ClarityAggregator
from repro.cluster.cluster import Cluster
from repro.config import HDD, MB, SSD, MachineSpec
from repro.errors import ClarityError
from repro.metrics.utilization import percentile
from repro.model.ideal import hardware_profile
from repro.model.predictor import WhatIf
from repro.workloads.scaling import scaled_memory_overrides

__all__ = ["ClarityWorkload", "CandidateOutcome", "ValidationResult",
           "run_clarity_serving", "validate_advisor", "ERROR_ENVELOPE",
           "SCENARIO"]

#: The paper's worst-case relative prediction error (§6.2).
ERROR_ENVELOPE = 0.30


@dataclass(frozen=True)
class ClarityWorkload:
    """One seeded serving workload the validation re-runs per config.

    A shuffle-heavy sort stream on a small HDD cluster: disk-bound, so
    the disk candidates separate cleanly from the network one.
    ``max_concurrent_jobs=1`` keeps service times contention-free --
    the what-if model predicts a job running alone, so the measured
    quantity must be the same thing.

    The task count is deliberately fine-grained (64 tasks over 4
    machines): the §6.1 model reasons about aggregate bandwidth, which
    matches reality only when load is balanced.  Coarse waves leave one
    machine carrying most of the critical path, and no aggregate
    what-if explains a straggler.
    """

    machines: int = 4
    disks: int = 2
    cores: int = 8
    network_mb_s: float = 125.0
    seed: int = 0
    fraction: float = 0.01
    duration_s: float = 300.0
    rate_per_s: float = 0.02
    sort_gb: float = 1.5
    sort_tasks: int = 64
    engine: str = "monospark"

    def build_cluster(self, disks: Optional[int] = None,
                      disk_throughput_bps: Optional[float] = None,
                      ssd: bool = False,
                      network_bps: Optional[float] = None,
                      machines: Optional[int] = None) -> Cluster:
        """The workload's cluster, with optional candidate overrides."""
        disk_spec = SSD if ssd else HDD
        if disk_throughput_bps is not None:
            disk_spec = replace(disk_spec,
                                throughput_bps=disk_throughput_bps)
        spec = MachineSpec(
            cores=self.cores,
            disks=(disk_spec,) * (disks if disks is not None else self.disks),
            network_bps=(network_bps if network_bps is not None
                         else self.network_mb_s * MB),
            **scaled_memory_overrides(self.fraction))
        return Cluster(machines if machines is not None else self.machines,
                       spec, seed=self.seed)


def run_clarity_serving(workload: ClarityWorkload,
                        cluster: Optional[Cluster] = None,
                        engine: Optional[str] = None,
                        ) -> Tuple[AnalyticsContext, "object",
                                   ClarityAggregator]:
    """Run the seeded serving stream with the clarity pipeline attached.

    Returns ``(ctx, serve_report, aggregator)``.  The aggregator's
    window spans the whole run, so ``aggregator.observations()`` is
    every completed job.
    """
    from repro.serve.server import JobServer
    from repro.serve.workload import PoissonArrivals, sort_template

    if cluster is None:
        cluster = workload.build_cluster()
    ctx = AnalyticsContext(cluster, engine=engine or workload.engine,
                           scheduling_policy="fair")
    aggregator = ClarityAggregator(window_s=workload.duration_s * 10,
                                   engine=ctx.engine.name)
    server = JobServer(ctx, policy="fifo", max_concurrent_jobs=1,
                       seed=workload.seed, clarity=aggregator)
    server.add_tenant("analytics")
    template = sort_template(ctx, total_gb=workload.sort_gb,
                             num_tasks=workload.sort_tasks,
                             seed=workload.seed)
    server.add_workload(
        "analytics", template,
        PoissonArrivals(workload.rate_per_s,
                        horizon_s=workload.duration_s))
    report = server.run()
    return ctx, report, aggregator


def _service_times(report) -> List[float]:
    return [r.service_s for r in report.records if r.outcome == "completed"]


@dataclass
class CandidateOutcome:
    """Predicted vs re-simulated percentiles for one candidate."""

    name: str
    predicted_p50_s: float
    predicted_p95_s: float
    actual_p50_s: float
    actual_p95_s: float

    @property
    def error_p50(self) -> float:
        """Relative p50 prediction error vs the re-simulation."""
        return abs(self.predicted_p50_s - self.actual_p50_s) \
            / self.actual_p50_s

    @property
    def error_p95(self) -> float:
        """Relative p95 prediction error vs the re-simulation."""
        return abs(self.predicted_p95_s - self.actual_p95_s) \
            / self.actual_p95_s


@dataclass
class ValidationResult:
    """The advisor ranking, the ground truth, and the errors."""

    engine: str
    seed: int
    jobs: int
    baseline_p50_s: float
    baseline_p95_s: float
    advisor: AdvisorReport
    bottleneck: BottleneckWindow
    #: Per-candidate outcomes, in the advisor's predicted rank order.
    outcomes: List[CandidateOutcome] = field(default_factory=list)

    @property
    def predicted_ranking(self) -> List[str]:
        """Candidate names best-first by predicted p95."""
        return [o.name for o in sorted(
            self.outcomes, key=lambda o: (o.predicted_p95_s, o.name))]

    @property
    def actual_ranking(self) -> List[str]:
        """Candidate names best-first by re-simulated p95."""
        return [o.name for o in sorted(
            self.outcomes, key=lambda o: (o.actual_p95_s, o.name))]

    @property
    def ranking_matches(self) -> bool:
        """Did the advisor order the candidates correctly?"""
        return self.predicted_ranking == self.actual_ranking

    @property
    def max_error_p95(self) -> float:
        """The worst relative p95 prediction error across candidates."""
        return max(o.error_p95 for o in self.outcomes)

    def to_json(self) -> Dict:
        """A byte-stable JSON-serializable summary (rounded floats)."""
        def r(x: float) -> float:
            return round(x, 4)
        top = self.advisor.top
        return {
            "benchmark": "clarity_advisor",
            "engine": self.engine,
            "seed": self.seed,
            "jobs": self.jobs,
            "baseline_p50_s": r(self.baseline_p50_s),
            "baseline_p95_s": r(self.baseline_p95_s),
            "bottleneck": (self.bottleneck.dominant[0]
                           if self.bottleneck.dominant else None),
            "advisor_top": top.name if top else None,
            "predicted_ranking": self.predicted_ranking,
            "actual_ranking": self.actual_ranking,
            "ranking_matches": self.ranking_matches,
            "max_error_p95": r(self.max_error_p95),
            "candidates": [
                {"name": o.name,
                 "predicted_p50_s": r(o.predicted_p50_s),
                 "predicted_p95_s": r(o.predicted_p95_s),
                 "actual_p50_s": r(o.actual_p50_s),
                 "actual_p95_s": r(o.actual_p95_s),
                 "error_p50": r(o.error_p50),
                 "error_p95": r(o.error_p95)}
                for o in self.outcomes],
        }


def validate_advisor(workload: ClarityWorkload = ClarityWorkload()
                     ) -> ValidationResult:
    """Advisor ranking vs ground-truth re-simulation for ``workload``.

    Three hardware candidates are both predicted and re-simulated:
    ``add-disk`` (one more disk per machine), ``hdd-to-ssd`` (the SSD
    disk spec), and ``2x-network``.  The advisor predicts from the
    baseline run's job window; the ground truth rebuilds the cluster
    and replays the identical seeded stream.
    """
    if workload.engine != "monospark":
        raise ClarityError(
            "advisor validation needs monotask profiles; run the "
            "workload on the monospark engine")
    cluster = workload.build_cluster()
    hardware = hardware_profile(cluster)
    _, report, aggregator = run_clarity_serving(workload, cluster=cluster)
    baseline = _service_times(report)
    if not baseline:
        raise ClarityError("baseline serving run completed no jobs")

    candidates = [
        Candidate("add-disk", WhatIf(hardware=hardware.scaled(
            disks_per_machine=workload.disks + 1))),
        Candidate("hdd-to-ssd", WhatIf(hardware=hardware.scaled(
            disk_throughput_bps=SSD.throughput_bps))),
        Candidate("2x-network", WhatIf(hardware=hardware.scaled(
            network_bps=hardware.network_bps * 2))),
    ]
    rebuilds = {
        "add-disk": dict(disks=workload.disks + 1),
        "hdd-to-ssd": dict(ssd=True),
        "2x-network": dict(network_bps=workload.network_mb_s * MB * 2),
    }
    advisor = CapacityAdvisor(hardware, candidates)
    observations = aggregator.observations()
    advisor_report = advisor.advise(observations)

    outcomes = []
    for rec in advisor_report.recommendations:
        candidate_cluster = workload.build_cluster(**rebuilds[rec.name])
        _, candidate_report, _ = run_clarity_serving(
            workload, cluster=candidate_cluster)
        actual = _service_times(candidate_report)
        if len(actual) != len(baseline):
            raise ClarityError(
                f"re-simulation of {rec.name!r} completed {len(actual)} "
                f"jobs vs baseline {len(baseline)}; the seeded stream "
                f"must replay identically")
        outcomes.append(CandidateOutcome(
            name=rec.name,
            predicted_p50_s=rec.predicted_p50_s,
            predicted_p95_s=rec.predicted_p95_s,
            actual_p50_s=percentile(actual, 50),
            actual_p95_s=percentile(actual, 95)))

    return ValidationResult(
        engine=workload.engine, seed=workload.seed,
        jobs=len(baseline),
        baseline_p50_s=percentile(baseline, 50),
        baseline_p95_s=percentile(baseline, 95),
        advisor=advisor_report,
        bottleneck=aggregator.bottleneck(),
        outcomes=outcomes)


def _ranking_gate(fresh: Dict) -> Optional[str]:
    if not fresh["ranking_matches"]:
        return "advisor ranking no longer matches ground truth"
    return None


def _envelope_gate(fresh: Dict) -> Optional[str]:
    if fresh["max_error_p95"] > ERROR_ENVELOPE:
        return (f"max_error_p95 {fresh['max_error_p95']} exceeds the "
                f"{ERROR_ENVELOPE} envelope")
    return None


#: The committed trajectory is the flat ``to_json`` dict.  Its numbers
#: are re-simulated percentiles, so they may move by 0.02 absolute.
SCENARIO = Scenario(
    name="clarity", workload={}, flat=True, tolerance=0.02,
    run=lambda: (validate_advisor().to_json(), {}),
    gates=(_ranking_gate, _envelope_gate))
