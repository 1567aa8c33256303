"""The planning service's request contract: dispatch and error envelope.

:func:`dispatch_request` runs one decoded request against a
:class:`PlannerService` and maps library errors to typed JSON error
envelopes::

    {"error": {"code": "saturated", "message": "..."}}

with the status codes a load balancer expects: 400 for malformed or
invalid requests, 422 for infeasible plans, 503 when admission control
rejects, 504 for missed request deadlines.

Every shard answers through this one function
(:mod:`repro.fleet.worker`), whether it runs in-process behind
``celia serve`` or in a worker process behind ``celia fleet serve``; the
HTTP front end both serve through is :mod:`repro.fleet.frontend`.
"""

from __future__ import annotations

from repro.errors import InfeasibleError, ReproError, ValidationError
from repro.service.planner import (
    PlannerService,
    RequestTimeoutError,
    ServiceSaturatedError,
)

__all__ = ["dispatch_request"]


def _error_body(code: str, message: str) -> dict:
    return {"error": {"code": code, "message": message}}


async def dispatch_request(service: PlannerService,
                           request: dict) -> tuple[int, dict]:
    """Run one decoded request; map library errors to (status, envelope).

    The single source of truth for the service's HTTP error contract,
    so a request answers identically whichever shard serves it.
    """
    try:
        return 200, await service.handle(request)
    except ServiceSaturatedError as exc:
        return 503, _error_body("saturated", str(exc))
    except RequestTimeoutError as exc:
        return 504, _error_body("deadline_exceeded", str(exc))
    except InfeasibleError as exc:
        return 422, _error_body("infeasible", str(exc))
    except ValidationError as exc:
        return 400, _error_body("invalid_request", str(exc))
    except ReproError as exc:
        return 400, _error_body("error", str(exc))
