"""Sharded multi-driver control plane (``repro.controlplane``).

The serving layer's single :class:`~repro.serve.server.JobServer`
driver is both a throughput ceiling (every dispatch serializes through
one admission loop) and a single point of failure.  This package runs
N driver replicas over one engine: a consistent-hash ring shards
tenants across replicas, heartbeat membership and bully leader
election keep the replica set coherent, and per-tenant checkpoints on
a dedicated metadata data-service tier let a surviving replica adopt a
dead driver's shard -- resuming its in-flight jobs through the
engine's attempt-tracked task pool instead of failing them.

The plane is the sharded extension of the one serving front-end
(:mod:`repro.serve.frontend`): submission, dispatch, completion and the
observer life-cycle are shared with the ``JobServer``; this package adds
only ring routing, fencing, control-service time, membership,
checkpoints and failover.  See ``docs/controlplane.md``.
"""

from repro.controlplane.checkpoint import (CheckpointStore, decode_state,
                                           encode_state)
from repro.controlplane.plane import ControlPlane
from repro.controlplane.policy import ControlPlanePolicy
from repro.controlplane.replica import DriverReplica
from repro.controlplane.report import ControlPlaneReport, FailoverSummary
from repro.controlplane.ring import HashRing

__all__ = [
    "CheckpointStore",
    "ControlPlane",
    "ControlPlanePolicy",
    "ControlPlaneReport",
    "DriverReplica",
    "FailoverSummary",
    "HashRing",
    "decode_state",
    "encode_state",
]
