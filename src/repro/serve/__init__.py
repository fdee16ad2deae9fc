"""Continuous multi-tenant job serving (``repro.serve``).

The batch engines answer "how long does this job take"; this package
answers "how does the system behave as a *service*": open-loop workload
generators submit jobs over time, an admission controller sheds load,
a job scheduler divides capacity between tenants, and per-tenant SLO
accounting reports latency distributions with queueing-delay
attribution.

One front-end (:mod:`repro.serve.frontend`) does submit, per-driver
dispatch, completion watching, finalize and the observer life-cycle;
:class:`JobServer` is its one-driver case and
:class:`repro.controlplane.ControlPlane` its sharded extension.  See
``docs/serving.md``.
"""

from repro.serve.admission import AdmissionController, CostEstimator
from repro.serve.scheduler import (DeadlineScheduler, FifoScheduler,
                                   JobScheduler, WeightedFairScheduler,
                                   make_scheduler)
from repro.serve.frontend import JobRequest, Tenant
from repro.serve.server import JobServer
from repro.serve.slo import ServeReport, TenantStats
from repro.serve.workload import (BurstyArrivals, JobTemplate,
                                  PoissonArrivals, TraceArrivals,
                                  bdb_template, instantiate_plan,
                                  ml_template, sort_template,
                                  wordcount_template)

__all__ = [
    "AdmissionController", "CostEstimator",
    "JobScheduler", "FifoScheduler", "WeightedFairScheduler",
    "DeadlineScheduler", "make_scheduler",
    "JobServer", "JobRequest", "Tenant",
    "ServeReport", "TenantStats",
    "PoissonArrivals", "BurstyArrivals", "TraceArrivals",
    "JobTemplate", "instantiate_plan",
    "sort_template", "wordcount_template", "bdb_template", "ml_template",
]
