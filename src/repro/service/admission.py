"""Admission control: keep the queue schedulable within a round budget.

No schedule of a workload containing job *j* can run shorter than
``max(congestion_j, dilation_j)`` — the trivial lower bound applies to
every subset of a workload. A job whose *own* standalone parameters
already exceed the service's round budget can therefore never be served
within it, no matter how it is batched, and is rejected outright (or
parked, when the operator prefers to hold such jobs for a later budget
raise). A bounded queue depth additionally sheds load before the
backlog grows unserviceable.

The probe feeding these decisions is the job's solo reference run —
which the service needs anyway as the verification ground truth, and
which the content-addressed :class:`~repro.parallel.cache.SoloRunCache`
shares with the batched workload's own references, so admission costs
no extra simulation in the steady state.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from ..metrics.congestion import WorkloadParams

__all__ = ["AdmissionDecision", "AdmissionPolicy"]


@dataclass(frozen=True)
class AdmissionDecision:
    """Outcome of one admission check."""

    #: ``"admit"``, ``"park"``, or ``"reject"``.
    action: str
    reason: str = ""
    #: Which gate produced a non-admit decision: ``"queue"`` (global
    #: depth), ``"depth"`` (per-shard depth), or ``"budget"`` (round
    #: budget). Lets the serve loop release backpressure-parked jobs
    #: (``cause == "depth"``) once their shard drains, without touching
    #: jobs parked to wait for a bigger budget.
    cause: str = ""

    @property
    def admitted(self) -> bool:
        return self.action == "admit"


_ADMIT = AdmissionDecision("admit")


@dataclass(frozen=True)
class AdmissionPolicy:
    """Configurable admission rules for the scheduling service.

    Parameters
    ----------
    round_budget:
        Cap on any single workload execution's schedule length. A job
        whose standalone ``dilation`` or ``congestion`` exceeds it is
        unservable (the trivial lower bound) and is rejected — or
        parked when ``park_over_budget`` is set. ``None`` admits any
        size.
    max_queue_depth:
        Bound on jobs waiting in the queue (queued + parked); further
        submissions are rejected until the backlog drains. The service
        judges this gate against the backlog summed across *all*
        shards. ``None`` never sheds.
    park_over_budget:
        Park over-budget jobs (state ``parked``, releasable later)
        instead of rejecting them.
    max_shard_depth:
        Per-shard backpressure: bound on the backlog of the single
        shard a submission would land in. A
        submission to a shard at capacity is shed (rejected) — or
        parked when ``park_over_depth`` is set, to be released once the
        hot shard drains — while submissions to other shards are
        unaffected. ``None`` disables the per-shard gate.
    park_over_depth:
        Park submissions to a full shard (decision cause ``"depth"``)
        instead of shedding them.
    """

    round_budget: Optional[int] = None
    max_queue_depth: Optional[int] = None
    park_over_budget: bool = False
    max_shard_depth: Optional[int] = None
    park_over_depth: bool = False

    def __post_init__(self) -> None:
        if self.round_budget is not None and self.round_budget < 1:
            raise ValueError("round_budget must be positive (or None)")
        if self.max_queue_depth is not None and self.max_queue_depth < 1:
            raise ValueError("max_queue_depth must be positive (or None)")
        if self.max_shard_depth is not None and self.max_shard_depth < 1:
            raise ValueError("max_shard_depth must be positive (or None)")

    def check(
        self,
        params: WorkloadParams,
        queue_depth: int,
        shard_depth: Optional[int] = None,
    ) -> AdmissionDecision:
        """Decide whether a probed job may enter the queue.

        ``queue_depth`` is the global backlog (summed across shards);
        ``shard_depth`` is the backlog of the shard
        the job would join, or ``None`` when the caller has no shard
        notion (then the per-shard gate is skipped).
        """
        if (
            self.max_queue_depth is not None
            and queue_depth >= self.max_queue_depth
        ):
            return AdmissionDecision(
                "reject",
                f"queue depth {queue_depth} at capacity "
                f"{self.max_queue_depth}",
                cause="queue",
            )
        if (
            self.max_shard_depth is not None
            and shard_depth is not None
            and shard_depth >= self.max_shard_depth
        ):
            reason = (
                f"shard depth {shard_depth} at capacity "
                f"{self.max_shard_depth}"
            )
            action = "park" if self.park_over_depth else "reject"
            return AdmissionDecision(action, reason, cause="depth")
        if self.round_budget is not None:
            over = max(params.dilation, params.congestion)
            if over > self.round_budget:
                reason = (
                    f"standalone max(congestion, dilation)={over} exceeds "
                    f"round budget {self.round_budget}"
                )
                if self.park_over_budget:
                    return AdmissionDecision("park", reason, cause="budget")
                return AdmissionDecision("reject", reason, cause="budget")
        return _ADMIT
