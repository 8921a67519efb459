"""Shared request-resilience primitives for the serving path.

The storage tier heals itself (replication, tombstones, probe-driven
failover, read-repair); this module gives the *request* path the matching
discipline, so the platform degrades gracefully under overload instead of
collapsing:

:class:`Deadline` / :func:`deadline_scope` / :func:`current_deadline`
    An absolute, monotonic-clock expiry carried from submission into the
    scheduler's group closures via a thread-local scope, so storage IO deep
    in the stack can stop working on requests nobody is waiting for.
:class:`TokenBucket`
    The ring store's *retry budget*: a dead shard may cost each caller its
    bounded attempts, but the bucket caps the cluster-wide amplification a
    retry storm could otherwise produce.
:class:`RetryPolicy`
    Bounded attempts with exponential backoff and full jitter for
    *transient* per-replica faults.  ``StorageError`` means absence, not
    infrastructure failure, and is never retried.
:class:`AdmissionController`
    Queue-depth + estimated-cost load shedding at the gateway: over budget,
    callers get a typed refusal with a computed ``Retry-After`` *before*
    anything is enqueued, so accepted work is never dropped.

A sick shard is not tracked here: the ring store's failure detector keeps
one consecutive-failure streak per shard and takes the shard out of every
read at F failures (:mod:`repro.platform.replication`).

Everything here is pure stdlib and lock-protected; the knobs surface on
``ApiGateway(...)`` and the CLI, the counters in ``platform_stats()``.
"""

from __future__ import annotations

import random
import threading
import time
from typing import Callable, Dict, Optional, Sequence, TypeVar

from ..exceptions import DeadlineExceededError, StorageError
from . import telemetry

__all__ = [
    "AdmissionController",
    "Deadline",
    "RetryPolicy",
    "TokenBucket",
    "current_deadline",
    "deadline_scope",
    "estimate_cost",
]

T = TypeVar("T")


# --------------------------------------------------------------------------- #
# Deadlines
# --------------------------------------------------------------------------- #
class Deadline:
    """An absolute expiry on the monotonic clock.

    Built once at submission time (:meth:`from_ms`) and carried down the
    stack; every layer asks the same object, so clock skew between layers
    is impossible.
    """

    __slots__ = ("deadline_ms", "_expires_at")

    def __init__(self, expires_at: float, *, deadline_ms: Optional[int] = None) -> None:
        self._expires_at = float(expires_at)
        self.deadline_ms = deadline_ms

    @classmethod
    def from_ms(cls, deadline_ms: int) -> "Deadline":
        """Build a deadline ``deadline_ms`` milliseconds from now."""
        if not isinstance(deadline_ms, int) or isinstance(deadline_ms, bool):
            raise TypeError(f"deadline_ms must be an int, got {type(deadline_ms).__name__}")
        if deadline_ms <= 0:
            raise ValueError(f"deadline_ms must be positive, got {deadline_ms}")
        return cls(time.monotonic() + deadline_ms / 1000.0, deadline_ms=deadline_ms)

    def remaining(self) -> float:
        """Seconds until expiry; negative once expired."""
        return self._expires_at - time.monotonic()

    def expired(self) -> bool:
        return time.monotonic() >= self._expires_at

    def raise_if_expired(self, context: str) -> None:
        if self.expired():
            raise DeadlineExceededError(
                f"deadline expired {context}"
                + (f" (deadline_ms={self.deadline_ms})" if self.deadline_ms else ""),
                deadline_ms=self.deadline_ms,
            )

    def __repr__(self) -> str:
        return f"<Deadline remaining={self.remaining():.3f}s>"


_deadline_local = threading.local()


class _DeadlineScope:
    """Context manager installing a deadline for the current thread."""

    __slots__ = ("_deadline", "_previous")

    def __init__(self, deadline: Optional[Deadline]) -> None:
        self._deadline = deadline
        self._previous: Optional[Deadline] = None

    def __enter__(self) -> Optional[Deadline]:
        self._previous = getattr(_deadline_local, "deadline", None)
        _deadline_local.deadline = self._deadline
        return self._deadline

    def __exit__(self, exc_type, exc_value, traceback) -> None:
        _deadline_local.deadline = self._previous


def deadline_scope(deadline: Optional[Deadline]) -> _DeadlineScope:
    """Install ``deadline`` as the current thread's deadline for a block.

    Scopes nest (the previous deadline is restored on exit) and ``None`` is
    accepted so call sites do not need to branch on "has a deadline".
    """
    return _DeadlineScope(deadline)


def current_deadline() -> Optional[Deadline]:
    """The deadline installed for this thread, if any."""
    return getattr(_deadline_local, "deadline", None)


# --------------------------------------------------------------------------- #
# Retry budget (token bucket)
# --------------------------------------------------------------------------- #
class TokenBucket:
    """A refillable token bucket bounding cluster-wide retry amplification.

    ``capacity`` tokens are available immediately; ``refill_per_second``
    tokens accrue continuously up to the cap.  A refill rate of ``0`` makes
    the bucket a fixed budget — once drained, every retry is denied until
    operator intervention (the configuration scripted outages are tested
    against).
    """

    def __init__(self, capacity: int, refill_per_second: float = 0.0) -> None:
        if capacity < 0:
            raise ValueError(f"capacity must be >= 0, got {capacity}")
        if refill_per_second < 0:
            raise ValueError(f"refill_per_second must be >= 0, got {refill_per_second}")
        self.capacity = int(capacity)
        self.refill_per_second = float(refill_per_second)
        self._tokens = float(capacity)
        self._last_refill = time.monotonic()
        self._lock = threading.Lock()
        self.granted = 0
        self.denied = 0

    def _refill_locked(self) -> None:
        now = time.monotonic()
        if self.refill_per_second > 0.0:
            self._tokens = min(
                float(self.capacity),
                self._tokens + (now - self._last_refill) * self.refill_per_second,
            )
        self._last_refill = now

    def try_acquire(self, tokens: int = 1) -> bool:
        """Take ``tokens`` from the bucket; ``False`` (and counted as a
        denial) when the budget is exhausted."""
        with self._lock:
            self._refill_locked()
            if self._tokens >= tokens:
                self._tokens -= tokens
                self.granted += tokens
                return True
            self.denied += tokens
            return False

    def available(self) -> float:
        with self._lock:
            self._refill_locked()
            return self._tokens

    def stats(self) -> Dict[str, float]:
        with self._lock:
            self._refill_locked()
            return {
                "capacity": self.capacity,
                "refill_per_second": self.refill_per_second,
                "available": round(self._tokens, 3),
                "granted": self.granted,
                "denied": self.denied,
            }


# --------------------------------------------------------------------------- #
# Retry policy
# --------------------------------------------------------------------------- #
class RetryPolicy:
    """Bounded retries with exponential backoff and full jitter.

    One shared policy instance serves every replica operation of a store,
    so the counters describe the whole gateway.  The discipline:

    - at most ``max_attempts`` total attempts per operation;
    - sleeps drawn uniformly from ``[0, min(max_delay, base * 2**n)]``
      (full jitter — retries from concurrent callers decorrelate);
    - a retry (attempt ≥ 2) must win a token from the shared ``budget``;
    - ``StorageError`` (absence, not infrastructure failure) never retries;
    - an installed :func:`deadline_scope` stops retries once the caller's
      deadline cannot accommodate another attempt.
    """

    def __init__(
        self,
        *,
        max_attempts: int = 3,
        base_delay: float = 0.02,
        max_delay: float = 0.5,
        budget: Optional[TokenBucket] = None,
    ) -> None:
        if max_attempts < 1:
            raise ValueError(f"max_attempts must be >= 1, got {max_attempts}")
        if base_delay < 0 or max_delay < 0:
            raise ValueError("delays must be >= 0")
        self.max_attempts = int(max_attempts)
        self.base_delay = float(base_delay)
        self.max_delay = float(max_delay)
        self.budget = budget
        self._lock = threading.Lock()
        self.retries_spent = 0
        self.retries_denied = 0

    def _backoff(self, attempt: int) -> float:
        """Full-jitter backoff before retry number ``attempt`` (1-based)."""
        ceiling = min(self.max_delay, self.base_delay * (2 ** (attempt - 1)))
        return random.uniform(0.0, ceiling)

    def run(self, operation: Callable[[], T]) -> T:
        """Run ``operation``, retrying transient failures per the policy."""
        attempt = 0
        while True:
            attempt += 1
            try:
                return operation()
            except (StorageError, DeadlineExceededError):
                raise  # absence / expired caller: retrying cannot help
            except Exception as exc:
                if attempt >= self.max_attempts:
                    raise
                delay = self._backoff(attempt)
                deadline = current_deadline()
                if deadline is not None and deadline.remaining() <= delay:
                    with self._lock:
                        self.retries_denied += 1
                    telemetry.add_span_event(
                        "retry_denied", reason="deadline", attempt=attempt
                    )
                    raise
                if self.budget is not None and not self.budget.try_acquire():
                    with self._lock:
                        self.retries_denied += 1
                    telemetry.add_span_event(
                        "retry_denied", reason="budget", attempt=attempt
                    )
                    raise
                with self._lock:
                    self.retries_spent += 1
                telemetry.add_span_event(
                    "retry", attempt=attempt, error=type(exc).__name__,
                    delay_ms=round(delay * 1000.0, 3),
                )
                if delay > 0:
                    time.sleep(delay)

    def stats(self) -> Dict[str, object]:
        with self._lock:
            payload: Dict[str, object] = {
                "max_attempts": self.max_attempts,
                "base_delay_seconds": self.base_delay,
                "max_delay_seconds": self.max_delay,
                "retries_spent": self.retries_spent,
                "retries_denied": self.retries_denied,
            }
        if self.budget is not None:
            payload["budget"] = self.budget.stats()
        return payload


# --------------------------------------------------------------------------- #
# Admission control
# --------------------------------------------------------------------------- #
#: Per-algorithm admission-cost weights; anything unlisted costs 1 per query.
#: CycleRank is the expensive one — its bounded-cycle enumeration dominates
#: the executors whenever it appears in a comparison.
DEFAULT_COST_WEIGHTS: Dict[str, int] = {"cyclerank": 4}


def estimate_cost(
    queries: Sequence[object],
    weights: Optional[Dict[str, int]] = None,
) -> int:
    """Estimate the executor cost of a submission for admission control.

    ``queries`` is anything with an ``algorithm`` attribute (the platform's
    ``Query``) or a plain mapping with an ``"algorithm"`` key (the REST
    payload before task building).  Unknown algorithms cost 1.
    """
    table = DEFAULT_COST_WEIGHTS if weights is None else weights
    total = 0
    for query in queries:
        algorithm = getattr(query, "algorithm", None)
        if algorithm is None and isinstance(query, dict):
            algorithm = query.get("algorithm")
        total += table.get(algorithm, 1)
    return max(1, total)


class AdmissionController:
    """Cost-budget load shedding at the gateway front door.

    Every accepted submission reserves its estimated cost until its job
    settles; a submission that would push the in-flight total past
    ``max_cost`` is shed with a computed retry-after *before* it is
    enqueued.  The retry-after scales with the overshoot (a gateway at 4x
    budget tells callers to stay away longer than one at 1.1x), clamped to
    ``[retry_after_seconds, 8 * retry_after_seconds]``.

    Admission is work-conserving: a submission whose cost alone exceeds
    the budget is still admitted when *nothing* is in flight — the budget
    bounds concurrent load, and shedding an expensive request on an idle
    gateway would starve it forever (every retry would find the same
    empty gateway and the same verdict).  The exception is ``max_cost =
    0``, an explicit drain mode that sheds everything (close the front
    door; let in-flight work finish).
    """

    def __init__(self, *, max_cost: int, retry_after_seconds: float = 1.0) -> None:
        if max_cost < 0:
            raise ValueError(f"max_cost must be >= 0, got {max_cost}")
        if retry_after_seconds <= 0:
            raise ValueError(f"retry_after_seconds must be > 0, got {retry_after_seconds}")
        self.max_cost = int(max_cost)
        self.retry_after_seconds = float(retry_after_seconds)
        self._lock = threading.Lock()
        self._inflight_cost = 0
        self._inflight_jobs = 0
        self.admitted = 0
        self.shed = 0
        self.peak_cost = 0

    def try_admit(self, cost: int) -> "tuple[bool, float]":
        """Reserve ``cost`` if the budget allows; otherwise compute a
        retry-after.  Returns ``(admitted, retry_after)`` — ``retry_after``
        is ``0.0`` on admission."""
        cost = max(1, int(cost))
        with self._lock:
            if self.max_cost > 0 and (
                self._inflight_cost + cost <= self.max_cost
                or self._inflight_jobs == 0
            ):
                self._inflight_cost += cost
                self._inflight_jobs += 1
                self.admitted += 1
                self.peak_cost = max(self.peak_cost, self._inflight_cost)
                return True, 0.0
            self.shed += 1
            budget = max(1, self.max_cost)
            overshoot = (self._inflight_cost + cost) / budget
            retry_after = min(
                self.retry_after_seconds * max(1.0, overshoot),
                8.0 * self.retry_after_seconds,
            )
            return False, retry_after

    def release(self, cost: int) -> None:
        """Return a settled submission's reservation to the budget."""
        cost = max(1, int(cost))
        with self._lock:
            self._inflight_cost = max(0, self._inflight_cost - cost)
            self._inflight_jobs = max(0, self._inflight_jobs - 1)

    def stats(self) -> Dict[str, object]:
        with self._lock:
            return {
                "max_cost": self.max_cost,
                "inflight_cost": self._inflight_cost,
                "inflight_jobs": self._inflight_jobs,
                "peak_cost": self.peak_cost,
                "admitted": self.admitted,
                "shed": self.shed,
                "retry_after_seconds": self.retry_after_seconds,
            }
