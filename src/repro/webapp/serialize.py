"""One lock per web app: where threads enter the program.

The proxy, the shard router, the origin server, the event loop and
everything under them are single-owner objects: one thread calls them
at a time, and they take no locks.  A WSGI server is the only place
threads can enter, so each Flask app serializes its own requests here.
"""

from __future__ import annotations

import threading
from typing import Any


def serialize_requests(app: Any) -> Any:
    """Run every request of ``app`` under one plain lock; returns ``app``.

    The lock covers the whole request, read endpoints such as
    ``/metrics`` and ``/events`` included.  No endpoint streams its
    response, so the body is complete before the lock is released.
    Behind a threaded server, extra requests wait here rather than
    counting toward an admission controller's ``max_inflight``.
    """
    lock = threading.Lock()
    inner = app.wsgi_app

    def wsgi_app(environ: Any, start_response: Any) -> Any:
        with lock:
            return inner(environ, start_response)

    app.wsgi_app = wsgi_app
    return app
