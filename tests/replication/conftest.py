"""Replication-suite fixtures: no test may leak a replica tailer thread."""

import threading

import pytest


@pytest.fixture(autouse=True)
def no_leaked_replica_tailers():
    """Fail any test that leaves a ``replica-*`` thread alive.

    ``Replica.stop()`` must wake and join its tailers promptly; a tailer
    that outlives its test is a stop that timed out (or never ran) and keeps
    a socket and a follower tree alive behind the suite's back.
    """
    yield
    leaked = [
        thread.name
        for thread in threading.enumerate()
        if thread.name.startswith("replica-") and thread.is_alive()
    ]
    assert not leaked, f"replica tailer threads still alive after the test: {leaked}"
