"""Reference implementations kept as equivalence oracles.

Each MAPPER / METRICS step has one production implementation in
``src/repro``: an integer-indexed or array kernel.  The direct,
label-based algorithms they replaced live here, so the equivalence tests
(``tests/test_vectorized_kernels.py``) and the legacy benchmark can check
the production output against a second, independently written
implementation of the same algorithm.

* :func:`nn_embed_reference` -- NN-Embed as a per-pair Python loop;
* :func:`mm_route_reference` -- MM-Route over processor labels and
  :meth:`~repro.arch.Topology.next_hops`;
* :func:`analyze_reference` -- METRICS with per-hop dict accumulation of
  the link metrics.

The simulator has no oracle here: its per-step event loop stays in
``repro.sim.engine`` as the batched kernel's hazard fallback, and tests
reach both engines through ``_simulate_events`` / ``_simulate_vector``.
"""

from tests.oracles.link_metrics import analyze_reference
from tests.oracles.mm_route import mm_route_reference
from tests.oracles.nn_embed import nn_embed_reference

__all__ = ["analyze_reference", "mm_route_reference", "nn_embed_reference"]
