"""Shared test configuration.

Registers a deterministic hypothesis profile so property tests are
reproducible across runs and machines, and provides the ``cpus`` fixture,
which runs a test once per CPU count that the process may appear to use.
"""

import os

import pytest
from hypothesis import settings

settings.register_profile("deterministic", derandomize=True, max_examples=200)
settings.load_profile("deterministic")


@pytest.fixture(params=[1, 2])
def cpus(request, monkeypatch):
    """The CPU count seen through ``os.sched_getaffinity``: 1, then 2.

    Only ``os.sched_getaffinity`` is patched, so this sizes holonoise's own
    threads and worker processes; a native pool, such as OpenBLAS's, never
    reads it and keeps the count it took when its library was loaded.
    """
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(request.param)))
    return request.param
