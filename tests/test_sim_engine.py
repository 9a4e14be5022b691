"""Tests for the discrete-event simulator (repro.sim)."""

import gc
import json
import pickle
import subprocess
import sys
import weakref
from pathlib import Path

import pytest

from repro.arch import networks
from repro.graph import families
from repro.larcs import stdlib
from repro.mapper import map_computation
from repro.mapper.mapping import Mapping
from repro.mapper.routing import random_route
from repro.pipeline import RunConfig, run_pipeline
from repro.sim import CostModel, simulate

SRC = str(Path(__file__).resolve().parent.parent / "src")


class TestCostModel:
    def test_transfer_time(self):
        m = CostModel(hop_latency=2.0, byte_time=0.5)
        assert m.transfer_time(4.0) == 4.0

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            CostModel(hop_latency=-1.0)

    def test_defaults(self):
        m = CostModel()
        assert m.transfer_time(1.0) == 2.0


class TestSimulateBasics:
    def test_single_processor_no_comm_time(self):
        tg = families.ring(4)
        topo = networks.ring(1)
        m = map_computation(tg, topo)
        res = simulate(m)
        # All messages intra-processor: only compute time remains.
        assert res.messages == 0
        assert res.link_busy == {}

    def test_exec_time_accumulates(self):
        tg = families.ring(4)  # phase expr: (ring; compute)^4
        topo = networks.ring(4)
        m = map_computation(tg, topo)
        res = simulate(m, CostModel(hop_latency=0.0, byte_time=0.0, exec_time=1.0))
        # 4 repetitions x (0 comm + 1 compute per proc) = 4.
        assert res.total_time == pytest.approx(4.0)

    def test_comm_time_single_message(self):
        tg = families.ring(2)
        topo = networks.ring(2)
        m = map_computation(tg, topo)
        model = CostModel(hop_latency=1.0, byte_time=2.0, exec_time=0.0)
        res = simulate(m, model)
        # Each ring step: 2 messages on 1 link... ring2 has one link, both
        # directions share it: 2 x (1 + 2) serialized = 6 per step, 2 steps.
        assert res.step_times[0] == pytest.approx(6.0)

    def test_contention_serializes(self):
        # Star topology: all traffic through the centre's links; two
        # messages sharing one link take twice as long.
        tg = families.star(3)
        topo = networks.star(3)
        m = map_computation(tg, topo, strategy="canned")
        model = CostModel(hop_latency=1.0, byte_time=0.0, exec_time=0.0)
        res = simulate(m, model)
        # broadcast: 0->1 and 0->2 use different links: time 1.
        assert res.step_times[0] == pytest.approx(1.0)

    def test_step_count_matches_phase_expr(self):
        tg = families.nbody(7)
        topo = networks.hypercube(2)
        m = map_computation(tg, topo)
        res = simulate(m)
        assert len(res.step_times) == len(tg.phase_expr.linearize())

    def test_no_phase_expr_single_step(self):
        tg = families.complete(4)
        tg.phase_expr = None
        topo = networks.complete(4)
        m = map_computation(tg, topo)
        res = simulate(m)
        assert len(res.step_times) == 1

    def test_requires_routes(self):
        tg = families.ring(4)
        topo = networks.ring(4)
        m = Mapping(tg, topo, {i: i for i in range(4)})
        with pytest.raises(ValueError):
            simulate(m)

    def test_busy_accounting(self):
        tg = families.ring(4)
        topo = networks.ring(4)
        m = map_computation(tg, topo)
        res = simulate(m)
        assert sum(res.proc_busy.values()) > 0
        assert all(t >= 0 for t in res.link_busy.values())
        assert 0 <= res.max_link_utilization() <= 1.0 + 1e-9

    def test_phase_time_accounting(self):
        tg = families.nbody(15)
        topo = networks.hypercube(3)
        m = map_computation(tg, topo)
        res = simulate(m)
        assert set(res.phase_time) == {"ring", "chordal", "compute1", "compute2"}
        # Sequential phases: their attributed times sum to the total.
        assert sum(res.phase_time.values()) == pytest.approx(res.total_time)
        # The chordal phase is the expensive one here (multi-hop traffic).
        assert res.phase_time["chordal"] > res.phase_time["compute2"]

    def test_phase_time_parallel_phases_both_charged(self):
        tg = stdlib.load("cannon", q=2)
        topo = networks.torus(2, 2)
        m = map_computation(tg, topo)
        res = simulate(m)
        # shiftA || shiftB share their steps: both carry the same total.
        assert res.phase_time["shiftA"] == pytest.approx(res.phase_time["shiftB"])


class TestContentionEffects:
    def test_mm_route_not_slower_than_random_on_nbody(self):
        tg = families.nbody(15)
        topo = networks.hypercube(3)
        m = map_computation(tg, topo)
        model = CostModel(hop_latency=1.0, byte_time=1.0, exec_time=0.001)
        t_mm = simulate(m, model).total_time
        random_times = []
        for seed in range(5):
            base = Mapping(tg, topo, dict(m.assignment))
            base.routes = random_route(tg, topo, base.assignment, seed=seed).routes
            random_times.append(simulate(base, model).total_time)
        # MM-Route must match the best random draw (it is deterministic and
        # phase-aware) and beat the average.
        assert t_mm <= min(random_times) * 1.01
        assert t_mm <= sum(random_times) / len(random_times)

    def test_parallel_phases_share_links(self):
        # cannon: shiftA || shiftB both use torus links in one step.
        tg = stdlib.load("cannon", q=2)
        topo = networks.torus(2, 2)
        m = map_computation(tg, topo)
        res = simulate(m, CostModel(hop_latency=1.0, byte_time=0.0, exec_time=0.0))
        # First step has both shifts: messages from both phases counted.
        assert res.messages >= 8

    def test_bad_mapping_is_slower(self):
        # A mapping that scatters the ring should simulate slower than the
        # gray-code one under nonzero hop costs.
        tg = families.ring(8)
        topo = networks.hypercube(3)
        good = map_computation(tg, topo)
        scattered = {i: (i * 3) % 8 for i in range(8)}
        from repro.mapper.routing import mm_route

        bad = Mapping(tg, topo, scattered)
        bad.routes = mm_route(tg, topo, scattered).routes
        model = CostModel(hop_latency=1.0, byte_time=1.0, exec_time=0.001)
        assert simulate(good, model).total_time < simulate(bad, model).total_time


class TestCompiledTables:
    def test_simulated_mapping_is_collectable(self):
        # The compiled phase tables hold the mapping; they must live on the
        # mapping (dying with it), not in a module-global cache keeping
        # every simulated mapping alive.
        result = run_pipeline(
            families.torus(4, 4), networks.mesh(2, 4), RunConfig(cache=False)
        )
        ref = weakref.ref(result.mapping)
        del result
        gc.collect()
        assert ref() is None

    def test_tables_reused_but_not_pickled(self):
        m = map_computation(families.ring(8), networks.mesh(2, 4))
        first = simulate(m)
        tables = m._sim_compiled
        assert simulate(m) == first
        assert m._sim_compiled is tables and len(tables) == 1
        clone = pickle.loads(pickle.dumps(m))
        assert not hasattr(clone, "_sim_compiled")
        assert not hasattr(m.copy(), "_sim_compiled")
        assert simulate(clone) == first


# Both engines' phase order, for graphs whose steps run several phases in
# parallel (cannon: shiftA || shiftB); the 300x repetition is long enough
# for simulate() to pick the batched kernel.
_PHASE_ORDER_SCRIPT = """
import json
from repro.arch import networks
from repro.graph.phase_expr import Rep
from repro.larcs import stdlib
from repro.mapper import map_computation
from repro.pipeline import RunConfig, run_pipeline
from repro.sim import simulate

topo = networks.torus(4, 4)
result = run_pipeline(stdlib.load("cannon", q=4), topo, RunConfig(cache=False))
long = stdlib.load("cannon", q=4)
long.phase_expr = Rep(long.phase_expr, 300)
vec = simulate(map_computation(long, topo))
print(json.dumps({
    "declared": result.mapping.task_graph.phase_names,
    "engines": [result.sim.kernel, vec.kernel],
    "events": list(result.sim.phase_time),
    "metrics": list(result.metrics.phase_critical_time),
    "vector": list(vec.phase_time),
}))
"""


def test_phase_order_independent_of_hash_seed():
    """Phase times are keyed in declared order under every hash seed."""
    runs = []
    for seed in ("1", "7", "4242"):
        proc = subprocess.run(
            [sys.executable, "-c", _PHASE_ORDER_SCRIPT],
            env={"PYTHONPATH": SRC, "PYTHONHASHSEED": seed,
                 "PATH": "/usr/bin:/bin"},
            capture_output=True, text=True, check=True,
        )
        runs.append(json.loads(proc.stdout))
    declared = runs[0]["declared"]
    for run in runs:
        assert run["engines"] == ["reference", "vector"]
        assert run["declared"] == declared
        for key in ("events", "metrics", "vector"):
            assert run[key] == declared, (key, run[key])
