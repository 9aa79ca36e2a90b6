"""Multi-tenant serving layer for the visibility solvers.

The paper's problem is inherently multi-seller: every new listing wants
the attribute subset that stands out against the *current* query
stream.  This package puts the streaming/monitor stack behind a real
service: a stdlib-only asyncio HTTP front end
(:class:`~repro.serve.app.VisibilityServer`) exposing ``POST /solve``,
``POST /ingest``, ``GET /status`` and ``GET /metrics``, with per-tenant
namespaces (:class:`~repro.serve.tenants.Tenant`) each owning a
streaming log (durable when ``--store-dir`` is set), a
:class:`~repro.stream.SolveCache` and a
:class:`~repro.runtime.CircuitBreaker`-guarded harness.  Admission
control (:class:`~repro.serve.admission.AdmissionController`) bounds
per-tenant and global queue depth and sheds load with 429/503 instead
of queueing without bound; solver work runs on a thread-pool executor
so the event loop never blocks on a solve.

perfbench's ``serve_mixed`` workload measures it end to end.  See
``docs/serving.md``.
"""

from repro.serve.admission import AdmissionController
from repro.serve.app import ServeConfig, ServerThread, VisibilityServer
from repro.serve.protocol import ProtocolError
from repro.serve.tenants import Tenant, TenantManager

__all__ = [
    "AdmissionController",
    "ProtocolError",
    "ServeConfig",
    "ServerThread",
    "Tenant",
    "TenantManager",
    "VisibilityServer",
]
