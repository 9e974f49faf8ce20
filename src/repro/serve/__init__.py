"""``repro serve``: a warm-fleet solver daemon over a local Unix socket.

The expensive half of every solve — mesh build, field metrics, the
Jacobian pattern, Schwarz/ILU symbolics, forked worker fleets, multilevel
partitions — depends only on the mesh *family*, not on the case being
solved.  This package keeps those artifacts resident in one long-lived
process and multiplexes solve requests onto them:

* :mod:`.protocol` — length-prefixed JSON framing, family/case specs,
  HTTP-like error envelopes;
* :mod:`.queue` — bounded admission-controlled job queue (503 on depth,
  408 on expired deadlines);
* :mod:`.cache` — LRU :class:`WarmCache` of :class:`WarmFamily` bundles;
* :mod:`.batcher` — k-case sweeps through one warm family, bitwise equal
  to k independent solves;
* :mod:`.daemon` — the :class:`ServeDaemon` socket server;
* :mod:`.client` — :class:`ServeClient` used by ``repro submit``.
"""

from .batcher import (
    CaseResult,
    EvaluationResult,
    evaluate_cases,
    solve_cases,
    sweep_grid,
)
from .cache import ExecutionConfig, WarmCache, WarmFamily
from .client import ServeClient, ServeError, wait_for_socket
from .daemon import SERVE_SLOTS, ServeDaemon
from .protocol import (
    MAX_FRAME_BYTES,
    PROTOCOL_VERSION,
    CaseSpec,
    FamilySpec,
    ProtocolError,
    error_response,
    ok_response,
    parse_cases,
    read_frame,
    write_frame,
)
from .queue import AdmissionQueue, Job, QueueClosed, QueueFull

__all__ = [
    "AdmissionQueue",
    "CaseResult",
    "CaseSpec",
    "EvaluationResult",
    "ExecutionConfig",
    "FamilySpec",
    "Job",
    "MAX_FRAME_BYTES",
    "PROTOCOL_VERSION",
    "ProtocolError",
    "QueueClosed",
    "QueueFull",
    "SERVE_SLOTS",
    "ServeClient",
    "ServeDaemon",
    "ServeError",
    "WarmCache",
    "WarmFamily",
    "error_response",
    "evaluate_cases",
    "ok_response",
    "parse_cases",
    "read_frame",
    "solve_cases",
    "sweep_grid",
    "wait_for_socket",
    "write_frame",
]
