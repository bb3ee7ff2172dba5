"""In-process daemon harness: a PlanServer on a background thread.

Tests, the bench, CI smoke, and doc snippets all need "a running
daemon" without shelling out to ``python -m repro.serving``.
:class:`BackgroundServer` runs the server's event loop in a daemon
thread and hands back the bound address::

    with BackgroundServer(config) as daemon:
        with PlanClient(daemon.address) as client:
            client.optimize(spec)

Exit performs the same graceful shutdown the ``shutdown`` op does
(drain, autosave, pool teardown).
"""

from __future__ import annotations

import asyncio
import threading
from typing import Any, Optional

from ..optimizer import OptimizerConfig
from .server import PlanServer


class BackgroundServer:
    """Run a :class:`~repro.serving.server.PlanServer` on its own thread."""

    def __init__(
        self,
        config: Optional[OptimizerConfig] = None,
        start_timeout: float = 30.0,
        **server_kwargs: Any,
    ) -> None:
        self._loop = asyncio.new_event_loop()
        self._started = threading.Event()
        self._start_error: Optional[BaseException] = None
        self._start_timeout = start_timeout
        #: created on the loop thread in :meth:`_serve`; :meth:`stop`
        #: sets it through the loop
        self._stop_requested: Optional[asyncio.Event] = None
        self._drain_timeout = 10.0
        self.server = PlanServer(config, **server_kwargs)
        self._thread = threading.Thread(
            target=self._run, name="plan-server", daemon=True
        )

    def _run(self) -> None:
        asyncio.set_event_loop(self._loop)
        try:
            self._loop.run_until_complete(self._serve())
        finally:
            self._loop.close()

    async def _serve(self) -> None:
        try:
            await self.server.start()
        except BaseException as exc:
            self._start_error = exc
            self._started.set()
            raise
        stop_requested = self._stop_requested = asyncio.Event()
        self._started.set()
        serving = asyncio.ensure_future(self.server.serve_forever())
        stopping = asyncio.ensure_future(stop_requested.wait())
        await asyncio.wait(
            (serving, stopping), return_when=asyncio.FIRST_COMPLETED
        )
        # The loop thread owns the shutdown: either stop() asked for it,
        # or a client's shutdown op already ran it and this call
        # returns at once (shutdown is idempotent).
        await self.server.shutdown(drain_timeout=self._drain_timeout)
        stop_requested.set()
        await asyncio.gather(serving, stopping)

    @property
    def address(self) -> "tuple[str, int]":
        return self.server.address

    def start(self) -> "BackgroundServer":
        self._thread.start()
        if not self._started.wait(self._start_timeout):
            raise RuntimeError("plan server did not start in time")
        if self._start_error is not None:
            raise RuntimeError(
                f"plan server failed to start: {self._start_error}"
            )
        return self

    def stop(self, drain_timeout: float = 10.0) -> None:
        """Graceful shutdown; safe to call twice.

        Only signals the loop thread, which runs the shutdown itself:
        after a client-initiated ``shutdown`` the loop may already be
        leaving ``run_until_complete``, and a coroutine submitted to
        it from here would never run.
        """
        stop_requested = self._stop_requested
        if stop_requested is None or not self._thread.is_alive():
            return
        self._drain_timeout = drain_timeout
        try:
            self._loop.call_soon_threadsafe(stop_requested.set)
        except RuntimeError:
            pass  # the loop already closed: the thread is finishing
        self._thread.join(timeout=drain_timeout + 5.0)

    def __enter__(self) -> "BackgroundServer":
        return self.start()

    def __exit__(self, *exc_info: Any) -> None:
        self.stop()
