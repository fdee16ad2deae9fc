"""Exception hierarchy for the repro package.

All errors raised by the library derive from :class:`ReproError` so that
callers can catch library failures without masking programming errors.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by this library."""


class SimulationError(ReproError):
    """A structural problem in the discrete-event simulation."""


class EmptySchedule(SimulationError):
    """``Environment.step`` was called with no scheduled events."""


class StopSimulation(Exception):
    """Internal control-flow signal used by ``Environment.run(until=event)``.

    Not a :class:`ReproError`: it never escapes ``Environment.run``.
    """

    def __init__(self, value: object = None) -> None:
        super().__init__(value)
        self.value = value


class Abandoned(BaseException):
    """Control-flow signal: the process raising it can never resume.

    The kernel abandons the process instead of failing it (see
    ``Event.abandon``).  Not an ``Exception``, so ``except Exception``
    handlers on the way out let it pass.
    """


class Interrupted(SimulationError):
    """Raised inside a process that another process interrupted."""

    def __init__(self, cause: object = None) -> None:
        super().__init__(cause)
        self.cause = cause


class TraceReleasedError(SimulationError):
    """A finished job's spans were released from memory once a span
    sink held them; its trace must be read from the sink's output."""


class ConfigError(ReproError):
    """Invalid hardware spec, cost model, or engine configuration."""


class PlanError(ReproError):
    """A logical plan could not be compiled into stages and tasks."""


class ExecutionError(ReproError):
    """A task failed while executing on the simulated cluster."""


class OutOfMemoryError(ExecutionError):
    """A worker exceeded its configured memory capacity."""


class ShuffleError(ExecutionError):
    """Shuffle data was requested that was never registered."""


class FaultError(ExecutionError):
    """Work was lost to an injected hardware fault."""


class MachineFailure(FaultError):
    """A machine crashed while work was running on or against it."""


class DiskFailure(FaultError):
    """A disk failed with requests outstanding."""


class LinkPartitionError(FaultError):
    """A flow was refused or killed by a network partition between its
    endpoints (fail-fast, so the task layer can back off and retry)."""


class FetchFailed(ExecutionError):
    """A reduce task found map output missing (lost with its machine).

    The engine reacts by re-registering the shuffle's lineage: the lost
    map tasks are re-executed before the reduce task is retried, mirroring
    Spark's FetchFailed / map-output-recompute path.
    """

    def __init__(self, shuffle_id: int, missing) -> None:
        self.shuffle_id = shuffle_id
        self.missing = sorted(missing)
        super().__init__(
            f"shuffle {shuffle_id}: map outputs {self.missing} missing")


class TaskFailedError(ExecutionError):
    """A task exhausted its retry budget."""


class ModelError(ReproError):
    """The performance model was given inconsistent measurements."""


class ClarityError(ReproError):
    """Invalid use of the clarity pipeline (time-series store,
    windowed aggregation, or the capacity advisor)."""


class ObsError(ReproError):
    """Invalid use of the observability plane (alert rules, the event
    journal, or the drift detector)."""


class CapsuleError(ReproError):
    """A run capsule is malformed: unknown schema version, missing or
    inconsistent manifest, or a line that does not parse."""
