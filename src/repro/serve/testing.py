"""In-process server fixtures for the serve test suites and benchmark.

:func:`running_server` boots a :class:`~repro.serve.server.ReproServer`
on a daemon thread, waits for the listener, yields ``(server, client)``,
and on exit drains the server.  The server's run cache — directory,
quota, memo and counters — is the one of its own
:class:`~repro.experiments.common.RunPolicy`'s directory, so servers on
distinct directories share nothing and need no restoring.
"""

from __future__ import annotations

import threading
from contextlib import contextmanager
from dataclasses import replace
from typing import Iterator

from repro.serve.client import ServeClient
from repro.serve.server import ReproServer, ServeConfig


@contextmanager
def running_server(
    config: ServeConfig | None = None,
    *,
    drain_on_exit: bool = True,
    **overrides,
) -> Iterator[tuple[ReproServer, ServeClient]]:
    """Run a server on a background thread for the duration of a test.

    Keyword ``overrides`` patch individual :class:`ServeConfig` fields::

        policy = common.RunPolicy(cache_dir=str(tmp_path))
        with running_server(policy=policy, queue_limit=8) as (server, client):
            response = client.run(workload="KCORE")

    ``drain_on_exit=False`` leaves shutdown to the test (lifecycle tests
    that exercise :meth:`ReproServer.request_shutdown` themselves).
    """
    base = config or ServeConfig()
    if overrides:
        base = replace(base, **overrides)
    server = ReproServer(base)
    thread = threading.Thread(
        target=server.run, name="repro-serve-test", daemon=True
    )
    thread.start()
    port = server.wait_ready(timeout=30.0)
    client = ServeClient(base.host, port)
    try:
        yield server, client
    finally:
        if drain_on_exit:
            server.request_shutdown()
        thread.join(timeout=30.0)


__all__ = ["running_server"]
