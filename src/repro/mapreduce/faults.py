"""Deterministic fault injection for the parallel engine.

Fault tolerance cannot be trusted on inspection: the only way to know that a
worker SIGKILL mid-shard is survived -- with the bit-identity contract intact
and no shared-memory segment leaked -- is to kill a worker mid-shard, on every
stage, on purpose.  This module is that switch.  A :class:`FaultSpec` names a
*stage* (the supervisor's stage label, e.g. ``"wnp_stats"`` or ``"clustering"``),
a *shard* index, a *mode* and how many dispatch *attempts* it fires on; the
spec travels to the worker processes through the :data:`ENV_VAR` environment
variable (so it reaches forked and spawned pools alike), and
:func:`maybe_trigger` -- called by the supervisor's worker-side entry point
just before the shard job runs -- applies it.

Modes
-----
``"kill"``
    ``SIGKILL`` the worker process immediately (the OOM-killer scenario).
    The supervisor observes the pool's worker set change and retries the
    lost shards.
``"hang"``
    Sleep for an hour (the wedged-native-extension scenario).  Recovery
    requires a ``worker_timeout``; the supervisor terminates the pool when
    the shard batch stops making progress.
``"delay"``
    Sleep for :attr:`FaultSpec.seconds` and then run the job normally (the
    straggler scenario).  No recovery is needed; the run must simply still
    be bit-identical.

Determinism rules:

* a fault fires only in *worker* processes (marked by the pool initializer
  via :func:`mark_worker`), never on the driver -- so the serial degraded
  recomputation of a failed shard can never re-trigger the fault;
* a fault fires only while ``attempt < spec.attempts`` (the attempt number
  is shipped with each dispatched shard), so "fail once, succeed on retry"
  and "fail always, force degradation" are both expressible exactly.

Programmatic use::

    from repro.mapreduce import faults

    with faults.injected(faults.FaultSpec(stage="wnp_stats", mode="kill")):
        workflow.run(data)          # shard 0 of the wnp_stats stage dies once

or from the shell: ``REPRO_FAULTS="stage=wnp_stats;mode=kill;shard=0"``.
"""

from __future__ import annotations

import os
import signal
import time
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Iterator, Optional

__all__ = [
    "ENV_VAR",
    "FaultSpec",
    "active",
    "clear",
    "injected",
    "install",
    "mark_worker",
    "maybe_trigger",
]

#: Environment variable carrying the encoded fault spec to worker processes.
ENV_VAR = "REPRO_FAULTS"

#: How long a "hang" fault sleeps -- effectively forever at test timescales,
#: but interruptible by the SIGTERM the supervisor's pool teardown sends.
_HANG_SECONDS = 3600.0

_MODES = ("kill", "hang", "delay")

#: set by the pool initializer; faults only ever fire in worker processes
_worker_process = False


@dataclass(frozen=True)
class FaultSpec:
    """One injected fault: which stage/shard it hits, how, and how often.

    Attributes
    ----------
    stage:
        Supervisor stage label the fault applies to (exact match).
    mode:
        ``"kill"``, ``"hang"`` or ``"delay"``.
    shard:
        Index of the targeted shard within the stage's task batch.
    attempts:
        The fault fires while the shard's dispatch-attempt number is below
        this bound: ``1`` (default) fails only the first attempt (the retry
        succeeds), a large value fails every pool attempt (exhausting the
        retries and forcing the configured failure policy).
    seconds:
        Sleep length of ``"delay"`` mode (ignored by the other modes).
    """

    stage: str
    mode: str
    shard: int = 0
    attempts: int = 1
    seconds: float = 0.1

    def __post_init__(self) -> None:
        if self.mode not in _MODES:
            raise ValueError(f"unknown fault mode {self.mode!r}; expected one of {_MODES}")

    def encode(self) -> str:
        """The environment-variable form of this spec."""
        return (
            f"stage={self.stage};mode={self.mode};shard={self.shard};"
            f"attempts={self.attempts};seconds={self.seconds}"
        )

    @classmethod
    def decode(cls, text: str) -> "FaultSpec":
        """Parse the environment-variable form back into a spec."""
        fields = {}
        for piece in text.split(";"):
            piece = piece.strip()
            if not piece:
                continue
            key, _, value = piece.partition("=")
            fields[key.strip()] = value.strip()
        try:
            return cls(
                stage=fields["stage"],
                mode=fields["mode"],
                shard=int(fields.get("shard", 0)),
                attempts=int(fields.get("attempts", 1)),
                seconds=float(fields.get("seconds", 0.1)),
            )
        except (KeyError, ValueError) as error:
            raise ValueError(f"malformed {ENV_VAR} spec {text!r}: {error}") from error


def install(spec: FaultSpec) -> None:
    """Arm ``spec`` for every worker pool created (or forked) from now on."""
    os.environ[ENV_VAR] = spec.encode()


def clear() -> None:
    """Disarm any installed fault."""
    os.environ.pop(ENV_VAR, None)


def active() -> Optional[FaultSpec]:
    """The currently armed spec, or ``None``."""
    text = os.environ.get(ENV_VAR)
    return FaultSpec.decode(text) if text else None


@contextmanager
def injected(spec: FaultSpec) -> Iterator[FaultSpec]:
    """Context manager: arm ``spec``, disarm on exit."""
    install(spec)
    try:
        yield spec
    finally:
        clear()


def mark_worker() -> None:
    """Declare this process a pool worker (called by the pool initializer)."""
    global _worker_process
    _worker_process = True


def maybe_trigger(stage: str, shard: int, attempt: int) -> None:
    """Apply the armed fault if it matches ``(stage, shard, attempt)``.

    No-op on the driver, with no spec armed, or when the spec does not
    match -- the check is one environment lookup, so leaving the hook in the
    production dispatch path costs nothing measurable.
    """
    if not _worker_process:
        return
    text = os.environ.get(ENV_VAR)
    if not text:
        return
    spec = FaultSpec.decode(text)
    if spec.stage != stage or spec.shard != shard or attempt >= spec.attempts:
        return
    if spec.mode == "kill":
        os.kill(os.getpid(), signal.SIGKILL)
    elif spec.mode == "hang":
        time.sleep(_HANG_SECONDS)
    else:  # delay: be slow, then behave
        time.sleep(spec.seconds)
