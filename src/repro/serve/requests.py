"""The tenant request taxonomy of the fabric serving layer.

The paper's fabric is operated as a shared service: tenants allocate
slices (§4.2.4), re-stripe topology, push traffic-matrix updates
(§4.2.3), and query telemetry (§3.2.2) against one long-running control
plane.  Every interaction is expressed as a :class:`TenantRequest` so
the serving layer (:mod:`repro.serve.service`) can apply one admission,
queueing, deadline, and accounting discipline to all of them.

Every request ends in exactly one terminal :class:`Outcome`; the
partition invariant the property tests pin is::

    offered == rejected + shed + admitted
    admitted == ok + timeout + error

and :func:`outcomes_digest` hashes the full per-request outcome table so
two runs can be compared byte-for-byte (same seed => equal digests).
"""

from __future__ import annotations

import enum
import hashlib
import sys
from dataclasses import dataclass
from typing import Iterable, Optional, Tuple, Union

from repro.core.errors import ConfigurationError

ParamValue = Union[int, float, str, bool]


class RequestKind(enum.Enum):
    """What a tenant is asking the control plane to do."""

    #: Place a slice of ``cubes`` cubes and program its fabric circuit.
    SLICE_ALLOC = "slice-alloc"
    #: Release a previously allocated slice (by alloc request id).
    SLICE_RELEASE = "slice-release"
    #: Re-stripe the tenant's circuit through a dedicated transaction
    #: (never coalesced: topology changes are latency-sensitive).
    RECONFIGURE = "reconfigure"
    #: Traffic-matrix-driven circuit retarget; coalescable under
    #: brownout into one batched controller transaction.
    TRAFFIC_UPDATE = "traffic-update"
    #: Read-only fleet telemetry (state digest + circuit counts).
    TELEMETRY_QUERY = "telemetry-query"


#: Service classes: lower is more important.  Sheds take the highest
#: (class, seq) entry first, so telemetry is dropped before mutations.
PRIORITY: dict = {
    RequestKind.SLICE_ALLOC: 0,
    RequestKind.SLICE_RELEASE: 0,
    RequestKind.RECONFIGURE: 0,
    RequestKind.TRAFFIC_UPDATE: 1,
    RequestKind.TELEMETRY_QUERY: 2,
}

#: Kinds whose successful service mutates durable fabric state (and
#: therefore lands in the commit log used for replay verification).
MUTATING_KINDS = frozenset(
    {
        RequestKind.SLICE_ALLOC,
        RequestKind.SLICE_RELEASE,
        RequestKind.RECONFIGURE,
        RequestKind.TRAFFIC_UPDATE,
    }
)


class Outcome(enum.Enum):
    """The exactly-one terminal state of every offered request."""

    #: Served within deadline; mutations committed.
    OK = "ok"
    #: Refused at admission (token bucket); zero work performed.
    REJECTED = "rejected"
    #: Evicted from (or refused by) the bounded queue; reported, never
    #: silent.
    SHED = "shed"
    #: Admitted but the deadline expired before completion; any
    #: downstream mutation was *not* committed.
    TIMEOUT = "timeout"
    #: Admitted but service failed (retries exhausted, breaker open,
    #: no capacity); no mutation committed.
    ERROR = "error"


#: Outcomes that count as *admitted* (the request reached the queue and
#: was carried to a service verdict).
ADMITTED_OUTCOMES = frozenset({Outcome.OK, Outcome.TIMEOUT, Outcome.ERROR})

#: Interned taxonomy strings.  The serving loop renders millions of
#: canonical outcome lines; interning the per-enum fragments makes every
#: join a pointer copy and every label lookup an identity-friendly hit.
KIND_VALUE: dict = {k: sys.intern(k.value) for k in RequestKind}
OUTCOME_VALUE: dict = {o: sys.intern(o.value) for o in Outcome}


@dataclass(frozen=True, slots=True)
class TenantRequest:
    """One tenant call in the open-loop request stream.

    Attributes:
        request_id: unique id, also the idempotency token for retried
            controller mutations.
        tenant: canonical tenant id (``t-017``).
        kind: taxonomy entry.
        arrival_s: arrival time on the service's simulation clock.
        deadline_s: absolute deadline; propagated to every downstream
            attempt (an attempt never starts past it).
        params: kind-specific detail, stored sorted for hashability.
        seq: arrival order assigned by the workload (tie-break).
    """

    request_id: str
    tenant: str
    kind: RequestKind
    arrival_s: float
    deadline_s: float
    params: Tuple[Tuple[str, ParamValue], ...] = ()
    seq: int = -1

    def __post_init__(self) -> None:
        if self.arrival_s < 0:
            raise ConfigurationError("arrival must be non-negative")
        if self.deadline_s <= self.arrival_s:
            raise ConfigurationError("deadline must be after arrival")
        if type(self.params) is not tuple or len(self.params) > 1:
            object.__setattr__(self, "params", tuple(sorted(self.params)))

    @property
    def priority(self) -> int:
        return PRIORITY[self.kind]

    def param(self, key: str, default: Optional[ParamValue] = None) -> Optional[ParamValue]:
        for k, v in self.params:
            if k == key:
                return v
        return default

    def canonical(self) -> str:
        params = ",".join(f"{k}={v!r}" for k, v in self.params)
        return (
            f"{self.request_id}|{self.tenant}|{KIND_VALUE[self.kind]}|"
            f"{self.arrival_s!r}|{self.deadline_s!r}|{params}"
        )


@dataclass(frozen=True, slots=True)
class RequestRecord:
    """The terminal accounting entry for one offered request.

    ``finish_s`` is the simulation time the outcome was decided (shed
    records finish at shed time, rejected at arrival).  ``attempts`` is
    the number of downstream controller attempts the request consumed --
    the quantity the retry budget caps.
    """

    request: TenantRequest
    outcome: Outcome
    finish_s: float
    attempts: int = 0
    detail: str = ""

    @property
    def latency_ms(self) -> float:
        return (self.finish_s - self.request.arrival_s) * 1e3

    def canonical(self) -> str:
        return (
            f"{self.request.canonical()}|{OUTCOME_VALUE[self.outcome]}|"
            f"{self.finish_s!r}|{self.attempts}|{self.detail}"
        )


def outcomes_digest(records: Iterable[RequestRecord]) -> str:
    """SHA-256 over every request's canonical outcome, in arrival order.

    Equal digests mean byte-identical per-request outcomes: same
    requests, same verdicts, same finish times, same attempt counts.
    """
    h = hashlib.sha256()
    for record in sorted(records, key=lambda r: (r.request.seq, r.request.request_id)):
        h.update(record.canonical().encode("utf-8"))
        h.update(b"\n")
    return h.hexdigest()
