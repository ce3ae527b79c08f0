"""``repro.serve`` — arbitration as a service.

An asyncio HTTP/JSON server over the :mod:`repro.session` core: per-client
knowledge-base sessions on shared execution contexts, work-conserving
arrival-ordered batches on one worker thread, bounded-queue admission
control with 429 shedding,
and atomic snapshot persistence so sessions survive restarts.  Stdlib
only — see ``docs/serving.md`` for the protocol and operational story.
"""

from repro.serve.protocol import (
    MAX_BODY_BYTES,
    HttpRequest,
    ProtocolError,
    ServeClient,
    read_request,
    render_response,
)
from repro.serve.server import ArbitrationServer, ServeConfig, run_server
from repro.serve.store import SNAPSHOT_VERSION, SessionStore

__all__ = [
    "MAX_BODY_BYTES",
    "HttpRequest",
    "ProtocolError",
    "ServeClient",
    "read_request",
    "render_response",
    "ArbitrationServer",
    "ServeConfig",
    "run_server",
    "SNAPSHOT_VERSION",
    "SessionStore",
]
