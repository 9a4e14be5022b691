"""Pinned checkpoint run keys: journals on disk must keep resuming.

A supervised entry point journals its tasks under a *run key*, a digest
of the whole fan-out's inputs (see :mod:`repro.runtime.journal`).  If a
refactor changes how that key is built -- a renamed field, a reordered
dict, a different model encoding -- every journal already on disk
silently stops resuming.  These tests pin the hex digests for one fixed
instance per entry point; a deliberate format change must update the
digest here *and* say so in the release notes.
"""

import pytest

from repro.arch import networks
from repro.graph import families
from repro.larcs import stdlib
from repro.mapper import map_computation, run_portfolio
from repro.online import MappingSession
from repro.pipeline import ArtifactCache
from repro.resilience import failure_sweep
from repro.runtime.journal import Journal

PORTFOLIO_RUN_KEY = (
    "ecc4691d08979f673d26cf669596e8991e1e245d5593668bba8080121f0a42d4"
)
SWEEP_RUN_KEY = (
    "38ad490e41eeef4dd54f728ca234cd9dc0911bb32bed706e0b2c546478852d50"
)
SESSION_KEY = (
    "a0dff01ceeb1a9b13dd1693e1cea18581d0e81316289a595d5012e7a6ce7dbd3"
)


@pytest.fixture
def run_keys(monkeypatch):
    """The run keys of every journal a call consults."""
    seen: set[str] = set()
    load = Journal.load

    def spy(self, task_key):
        seen.add(self.run_key)
        return load(self, task_key)

    monkeypatch.setattr(Journal, "load", spy)
    return seen


def test_portfolio_run_key(run_keys):
    run_portfolio(
        families.nbody(15), networks.hypercube(3),
        strategies=("group", "mwm"), resume="auto", cache=ArtifactCache(),
    )
    assert run_keys == {PORTFOLIO_RUN_KEY}


def test_failure_sweep_run_key(run_keys):
    tg, topo = families.ring(8), networks.ring(8)
    failure_sweep(
        tg, topo, mapping=map_computation(tg, topo),
        resume="auto", cache=ArtifactCache(),
    )
    assert run_keys == {SWEEP_RUN_KEY}


def test_online_session_key():
    session = MappingSession(
        stdlib.load("jacobi", rows=3, cols=3), networks.mesh(2, 3),
        cache=ArtifactCache(),
    )
    assert session.session_key == SESSION_KEY

