"""Fixtures for the serve suite: live cache + an in-process server.

The server runs on a background thread's event loop with the *inline*
worker pool (``jobs=0``), so tests exercise the full HTTP / coalescing /
cache path without paying a spawn-pool boot per test.  The subprocess
boot path is covered once by ``test_app.py::TestSubprocessBoot``.
"""

import asyncio
import threading

import pytest

from repro.cache import reset_cache_handles
from repro.experiments.records import RunPolicy
from repro.serve.app import ServeApp
from repro.serve.loadtest import ServeClient


@pytest.fixture
def serve_cache(tmp_path, monkeypatch):
    """A live persistent cache rooted in ``tmp_path``; yields the root."""
    root = tmp_path / "store"
    monkeypatch.setenv("REPRO_CACHE", "on")
    monkeypatch.setenv("REPRO_CACHE_DIR", str(root))
    reset_cache_handles()
    yield root
    reset_cache_handles()


class ServerHandle:
    """An in-process serve instance plus client factory."""

    def __init__(self, app: ServeApp):
        self.app = app
        self.loop = asyncio.new_event_loop()
        self.port = None
        self._server = None
        self._thread = threading.Thread(target=self._run, daemon=True)
        self._started = threading.Event()

    def _run(self):
        asyncio.set_event_loop(self.loop)
        self._server = self.loop.run_until_complete(
            self.app.start("127.0.0.1", 0)
        )
        self.port = self._server.sockets[0].getsockname()[1]
        self._started.set()
        self.loop.run_forever()
        self._server.close()
        self.loop.run_until_complete(self._server.wait_closed())
        # Cancel lingering connection handlers (idle keep-alives) while
        # the loop is still alive, so their cleanup can run.
        pending = asyncio.all_tasks(self.loop)
        for task in pending:
            task.cancel()
        if pending:
            self.loop.run_until_complete(
                asyncio.gather(*pending, return_exceptions=True)
            )
        self.loop.close()

    def start(self):
        self._thread.start()
        assert self._started.wait(timeout=10), "server did not start"
        return self

    def stop(self):
        self.loop.call_soon_threadsafe(self.loop.stop)
        self._thread.join(timeout=10)
        self.app.shutdown()

    def client(self, timeout: float = 30.0) -> ServeClient:
        return ServeClient("127.0.0.1", self.port, timeout=timeout)


@pytest.fixture
def make_server(serve_cache):
    """Factory for in-process servers with custom run/batch policies."""
    handles = []

    def make(policy=None, *, jobs=0, batching=None):
        app = ServeApp(
            policy or RunPolicy(retries=0), jobs=jobs, batching=batching
        )
        handle = ServerHandle(app).start()
        handles.append(handle)
        return handle

    yield make
    for handle in handles:
        handle.stop()


@pytest.fixture
def server(make_server):
    return make_server()
