"""``celia serve``: the fleet front end over one in-process shard.

:class:`LocalShard` is the :class:`~repro.fleet.frontend.FleetFrontend`
backend for a single process: one :class:`~repro.fleet.worker.ShardWorker`
without a socket, wrapping the caller's :class:`PlannerService`.  Every
request routes to it and is answered by a direct call to the same
:meth:`ShardWorker.answer <repro.fleet.worker.ShardWorker.answer>` a
fleet worker runs per frame, behind the same serialized-response memo —
so ``celia serve`` and ``celia fleet serve`` answer byte for byte alike
by construction.

:class:`PlannerServer` and :func:`run_server` are the thin constructors
``celia serve`` and library callers use.
"""

from __future__ import annotations

import os

from repro.errors import ValidationError
from repro.fleet.frontend import FleetFrontend, run_frontend
from repro.fleet.worker import ShardWorker
from repro.service.planner import PlannerService

__all__ = ["LocalShard", "PlannerServer", "run_server"]

_WORKER_ID = "local"


class LocalShard:
    """The front end's routing surface over one in-process shard.

    The shard is also its own link: it is always up, and a call is a
    memo lookup or an awaited :meth:`ShardWorker.answer`.
    """

    worker_ids = (_WORKER_ID,)
    up = True

    def __init__(self, service: PlannerService):
        self.service = service
        self._worker = ShardWorker(service, worker_id=_WORKER_ID,
                                   socket_path="")

    @property
    def default_quota(self) -> int:
        return self.service.config.default_quota

    @property
    def default_seed(self) -> int:
        return self.service.config.default_seed

    @property
    def warmed_apps(self) -> set:
        """Readiness follows the service, so a direct ``warm()`` counts."""
        return {s.app for s in self.service.warm_signatures}

    def route(self, key: str, *, exclude=frozenset()) -> str:
        return _WORKER_ID

    def link(self, worker_id: str) -> "LocalShard":
        return self

    def note_lost(self, worker_id: str) -> None:
        """Never called: an in-process call cannot lose its worker."""

    async def call_raw(self, kind: str, payload: bytes = b"", *,
                       timeout_s: "float | None" = None
                       ) -> tuple[int, bytes]:
        """``(status, response bytes)``; the service's own request
        deadline (a 504) bounds the call, so ``timeout_s`` is unused."""
        raw = self._worker.memo_hit(kind, payload)
        if raw is not None:
            return 200, raw
        return await self._worker.answer(kind, payload)

    async def scrape_metrics(self, *, timeout_s: "float | None" = None
                             ) -> list[dict]:
        """The service snapshot, unlabeled: series keep their names."""
        return [self.service.metrics.snapshot()]

    def health_fields(self) -> dict:
        return {"warm_signatures": [
            {"app": s.app, "quota": s.quota, "seed": s.seed}
            for s in self.service.warm_signatures]}

    def describe(self) -> dict:
        return {
            "workers": [{"id": _WORKER_ID, "pid": os.getpid(),
                         "socket": None, "alive": True, "routable": True}],
            "quota": self.default_quota,
            "seed": self.default_seed,
        }

    async def restart_worker(self, worker_id: str) -> None:
        raise ValidationError("the in-process shard cannot be restarted")

    async def start(self) -> None:
        """Nothing to spawn: the shard lives in this process."""

    async def stop(self) -> None:
        """Nothing to tear down: the caller owns the service."""

    async def warm(self, app: str) -> None:
        await self.service.warm(app)


class PlannerServer(FleetFrontend):
    """:class:`FleetFrontend` over a :class:`LocalShard` of ``service``."""

    def __init__(self, service: PlannerService, *, host: str = "127.0.0.1",
                 port: int = 0, expected_warm: tuple[str, ...] = ()):
        super().__init__(LocalShard(service), host=host, port=port,
                         expected_warm=expected_warm)
        self.service = service


def run_server(service: PlannerService, *, host: str = "127.0.0.1",
               port: int = 8337, warm_apps: tuple[str, ...] = (),
               ready_callback=None, drain_timeout_s: float = 10.0) -> None:
    """Blocking entry point used by ``celia serve``.

    ``warm_apps`` are warmed before ``ready_callback`` fires (and
    ``/healthz`` reports unready until they are warm); SIGTERM and
    SIGINT drain gracefully (see :func:`run_frontend`).
    """
    run_frontend(PlannerServer(service, host=host, port=port,
                               expected_warm=warm_apps),
                 ready_callback=ready_callback,
                 drain_timeout_s=drain_timeout_s)
