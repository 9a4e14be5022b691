"""``serve_mix``: ``POST /v1/map`` against a ``repro serve`` subprocess.

Open loop over at most two keep-alive connections.  About 90% of requests
repeat a hot set warmed during set-up (served from the alias and rendered
LRUs); about 10% are first-seen instances, a quarter of them sent on both
connections at the same instant so they are in flight together and meet
in the cache's single-flight.

Phases, after set-up:

1. **High rate** -- ``HIGH_RPS`` for ``HIGH_SHARE`` of the run's seconds;
   gives the median and tail latency (timed from when each request was
   due).
2. **Ladder** -- ``LADDER_RPS`` rungs of ``RUNG_S`` seconds each, lowest
   first, up to the first rung that fails; then ``BISECT_STEPS`` more
   rungs bisect (geometrically) between the highest passing and the
   lowest failing rate, so the knee is found to within
   ``2 ** (1 / 2 ** BISECT_STEPS)`` (4.4%).  A rung passes when no
   request fails, its tail latency meets ``LATENCY_LIMIT_MS`` and the
   last request was sent within the limit of its due time (no growing
   backlog).  ``max_rate_rps`` is the highest passing rung.

The result bytes are hashed in the timed path and never parsed there;
afterwards one full parse-and-check per distinct instance compares the
served mapping with an in-process ``run_pipeline`` of the same instance.
"""

from __future__ import annotations

import hashlib
import json
import math
import random
import re
import subprocess
import sys
import time
from pathlib import Path

from perfbench import checker
from perfbench.client import Connection, build_request, run_schedule
from perfbench.common import (
    counter_layers, geomean, quantile, remove, scratch_dir, span_layers, tail_q,
)

HOST = "127.0.0.1"
CONNECTIONS = 2
HIGH_RPS = 60.0
LADDER_RPS = (20.0, 40.0, 80.0, 160.0, 320.0, 640.0, 1280.0)
BISECT_STEPS = 4
RUNG_S = 2.0
#: Share of the run's seconds spent at ``HIGH_RPS``; the ladder takes
#: about 18 s whatever the run length (nine 2-s rungs), so a 30-s run
#: measures for about 30 s and each half of a traced run still sends a
#: few hundred requests at the high rate.
HIGH_SHARE = 0.4
LATENCY_LIMIT_MS = 350.0
COLD_SHARE = 0.10
PAIR_EVERY = 4          # every 4th first-seen instance is sent twice at once

#: The hot set and its request weights (fixed; the seed draws from it).
#: Every hot response is larger than one loopback segment (~64 KB).
#: Smaller responses -- the first-seen instances here -- often wait ~40 ms
#: for a delayed ACK, because the server writes headers and body in two
#: sends; that stall is bimodal, and a hot set built from such responses
#: would put the median on a coin flip.  It shows in ``tail_ms`` and
#: ``serve.transport_ms`` instead.
HOT = (
    ({"program": "jacobi", "bind": {"rows": 16, "cols": 16},
      "topology": "mesh:4x4"}, 3),
    ({"program": "jacobi", "bind": {"rows": 16, "cols": 12},
      "machine": "fat_tree:2x8"}, 2),
    ({"program": "fft", "bind": {"m": 7}, "topology": "hypercube:5"}, 2),
    ({"program": "jacobi", "bind": {"rows": 16, "cols": 16},
      "machine": "node_core_tree:4x4"}, 1),
    ({"program": "annealing", "bind": {"rows": 14, "cols": 14},
      "topology": "hypercube:4"}, 1),
    ({"program": "dnc", "bind": {"m": 9}, "machine": "fat_tree:4x4"}, 1),
    ({"program": "jacobi", "bind": {"rows": 14, "cols": 14},
      "topology": "torus:4x4"}, 1),
)


def cold_pool() -> list[dict]:
    """Every first-seen instance, in a fixed (seed-independent) order."""
    programs = []
    for r in range(4, 10):
        for c in range(4, 10):
            programs.append(("jacobi", {"rows": r, "cols": c}))
    for r in range(4, 8):
        for c in range(4, 8):
            programs.append(("sor", {"rows": r, "cols": c}))
            programs.append(("annealing", {"rows": r, "cols": c}))
    programs += [("nbody", {"n": n}) for n in range(15, 64, 2)]
    programs += [("pipeline", {"n": n}) for n in range(8, 65, 2)]
    programs += [("oddeven", {"n": n}) for n in range(8, 41)]
    programs += [("fft", {"m": m}) for m in (3, 4, 5)]
    programs += [("dnc", {"m": m}) for m in (3, 4, 5)]
    programs += [("cannon", {"q": q}) for q in (2, 3, 4, 5)]
    machines = (("topology", "mesh:2x2"), ("topology", "mesh:3x3"),
                ("topology", "hypercube:3"), ("topology", "torus:3x3"),
                ("topology", "ring:8"), ("machine", "fat_tree:2x4"),
                ("machine", "node_core_tree:2x4"))
    pool = [
        {"program": p, "bind": b, kind: spec}
        for p, b in programs for kind, spec in machines
    ]
    random.Random(0).shuffle(pool)
    return pool


def _hot_picker(rng: random.Random):
    keys = [i for i, (_b, w) in enumerate(HOT) for _ in range(w)]
    return lambda: rng.choice(keys)


def build_phase(rng, rate: float, seconds: float, cold: list[int],
                hot_key) -> list[tuple[float, int]]:
    """A fixed-rate open-loop schedule: ``rate * seconds`` evenly spaced
    arrivals.  A ``COLD_SHARE`` of the slots, at seeded positions, carry
    first-seen instances taken in order from *cold*, every
    ``PAIR_EVERY``-th of them sent twice at the same instant; the rest
    repeat seeded picks from the hot set.
    """
    n = max(1, round(rate * seconds))
    times = [i * seconds / n for i in range(n)]
    n_cold = round(n * COLD_SHARE)
    cold_slots = set(rng.sample(range(n), n_cold))
    schedule = []
    used = 0
    for i, t in enumerate(times):
        if i in cold_slots and used < len(cold):
            key = cold[used]
            used += 1
            schedule.append((t, key))
            if used % PAIR_EVERY == 0:
                schedule.append((t, key))
        else:
            schedule.append((t, hot_key()))
    return schedule


class Server:
    """The launcher subprocess: spawn, wait for the ready line, drain."""

    def __init__(self, trace_out: str | None = None):
        self.dir = Path(scratch_dir("serve-"))
        self.cache_dir = str(self.dir / "cache")
        self.log_path = self.dir / "server.log"
        launcher = Path(__file__).resolve().parent / "serve_launcher.py"
        command = [sys.executable, str(launcher), "--cache-dir",
                   self.cache_dir]
        if trace_out:
            command += ["--trace-out", trace_out]
        # Output goes to a file, so a chatty server can never block on a
        # full pipe nobody reads.
        with open(self.log_path, "w") as log:
            self.process = subprocess.Popen(command, stdout=log,
                                            stderr=subprocess.STDOUT)
        deadline = time.monotonic() + 60
        while True:
            text = self.log_path.read_text()
            match = re.search(r"http://([\d.]+):(\d+)", text)
            if match:
                self.port = int(match.group(2))
                return
            if self.process.poll() is not None or time.monotonic() > deadline:
                self.stop()
                raise RuntimeError(f"server did not start: {text[-500:]!r}")
            time.sleep(0.01)

    def stats(self) -> dict:
        conn = Connection(HOST, self.port)
        try:
            request = (f"GET /v1/stats HTTP/1.1\r\nHost: {HOST}\r\n\r\n"
                       .encode())
            status, _c, _l = conn.exchange(request)
            return json.loads(conn.body()) if status == 200 else {}
        finally:
            conn.close()

    def stop(self) -> None:
        if self.process.poll() is None:
            self.process.terminate()
        try:
            self.process.wait(timeout=60)
        except subprocess.TimeoutExpired:
            self.process.kill()
            self.process.wait(timeout=10)
        remove(self.dir)


def _tail(latencies: list[float]) -> float:
    return quantile(latencies, tail_q(len(latencies)))


class Workload:
    name = "serve_mix"

    def setup(self, seed: int) -> None:
        self.seed = seed
        self.bodies = [b for b, _w in HOT] + cold_pool()
        self.server = Server()
        self._prefill()

    def _requests(self) -> list[bytes]:
        return [build_request(HOST, self.server.port, "/v1/map",
                              json.dumps(b).encode()) for b in self.bodies]

    def _prefill(self) -> None:
        """Warm the hot set: one request each, then one more per hot
        instance so the alias and rendered-bytes paths are warm too."""
        conn = Connection(HOST, self.server.port)
        try:
            requests = self._requests()
            for _round in range(2):
                for key in range(len(HOT)):
                    status, _c, _l = conn.exchange(requests[key])
                    if status != 200:
                        raise RuntimeError(
                            f"hot instance {HOT[key][0]} failed: "
                            f"{conn.body()[:200]!r}")
        finally:
            conn.close()

    def restart(self, trace_out: str | None) -> None:
        """A fresh server (used for the traced half of a traced run)."""
        self.server.stop()
        self.server = Server(trace_out)
        self._prefill()

    def measure(self, seconds: float, traced: bool = False) -> dict:
        trace_out = None
        if traced:
            trace_out = str(Path(scratch_dir("trace-")) / "server-trace.json")
            self.restart(trace_out)
        rng = random.Random(self.seed)
        hot_key = _hot_picker(rng)
        cold_keys = list(range(len(HOT), len(self.bodies)))
        requests = self._requests()
        high_s = HIGH_SHARE * seconds
        # Each phase takes its first-seen instances from a fixed slice of the
        # pool (the seed only orders them within it), so the set of
        # instances -- and hence the quality set and each rung's compute
        # load -- is the same for every seed.
        n_high = round(round(HIGH_RPS * high_s) * COLD_SHARE)
        high_cold = cold_keys[:n_high]
        rest = cold_keys[n_high:]
        rng.shuffle(high_cold)
        schedule = build_phase(rng, HIGH_RPS, high_s, high_cold, hot_key)
        results: dict = {}
        high = run_schedule(HOST, self.server.port, schedule, requests,
                            connections=CONNECTIONS, results=results)
        checked = sorted({o.key for o in high if o.key in results})

        rungs = []

        def rung(rate: float) -> bool:
            nonlocal rest
            n_cold = round(round(rate * RUNG_S) * COLD_SHARE)
            rung_cold, rest = rest[:n_cold], rest[n_cold:]
            rng.shuffle(rung_cold)
            sched = build_phase(rng, rate, RUNG_S, rung_cold, hot_key)
            outs = run_schedule(HOST, self.server.port, sched, requests,
                                connections=CONNECTIONS, results=results)
            ok = [o for o in outs if o.error is None and o.status == 200]
            lat = [o.latency_s * 1e3 for o in outs]
            passed = (
                len(ok) == len(outs)
                and _tail(lat) <= LATENCY_LIMIT_MS
                and max(o.lag_s for o in outs) * 1e3 <= LATENCY_LIMIT_MS
            )
            rungs.append({"rate": rate, "n": len(outs), "passed": passed,
                          "p50_ms": quantile(lat, 0.5),
                          "tail_ms": _tail(lat), "outcomes": outs})
            return passed

        low = high_fail = None
        for rate in LADDER_RPS:
            if not rung(rate):
                high_fail = rate
                break
            low = rate
        if low is not None and high_fail is not None:
            for _step in range(BISECT_STEPS):
                mid = math.sqrt(low * high_fail)
                if rung(mid):
                    low = mid
                else:
                    high_fail = mid
        raw = {"high": high, "rungs": rungs, "stats": self.server.stats(),
               "results": results, "checked": checked}
        if traced:
            # The launcher writes its spans and counters at the drain.
            self.server.stop()
            self.server = None
            trace = json.loads(Path(trace_out).read_text())
            raw.update(summary=trace["summary"], spans=trace["spans"],
                       counters=trace["counters"])
        return raw

    def check(self, raw: dict) -> tuple[int, int, list[str], dict]:
        """Count failures, and parse-and-check one response per distinct
        instance against an in-process run of the same instance."""
        from repro.metrics.analysis import comm_cost
        from repro.serve.protocol import parse_map_request
        from repro.pipeline import run_pipeline
        from dataclasses import replace

        outcomes = list(raw["high"])
        for rung in raw["rungs"]:
            outcomes += rung["outcomes"]
        problems: list[str] = []
        failed = 0
        for o in outcomes:
            if o.error is not None or o.status != 200:
                problems.append(f"request {o.op}: {o.status} {o.error}")
                failed += 1
            elif not o.same:
                problems.append(f"instance {o.key} returned different "
                                f"result bytes within one run")
                failed += 1

        quality = {}
        for key in raw["checked"]:
            body = self.bodies[key]
            doc = json.loads(raw["results"][key])
            request = parse_map_request(json.dumps(body).encode())
            oracle = run_pipeline(
                request.tg, request.topology,
                replace(request.config, cache=False), faults=request.faults,
            )
            expected = comm_cost(oracle.mapping)
            view = checker.view_from_doc(doc["mapping"])
            found = checker.check_view(
                view, comm_cost=expected,
                sim_time=doc["sim"]["total_time"],
                byte_time=request.config.sim.byte_time,
            )
            served = checker.bfs_comm_cost(view)
            if doc["sim"]["total_time"] != oracle.sim.total_time:
                found.append("served completion time differs from an "
                             "in-process run")
            if found:
                failed += 1
                problems.extend(f"instance {key}: {p}" for p in found)
            doc.pop("stage_seconds", None)
            quality[key] = (
                served, expected, doc["sim"]["total_time"],
                _digest(json.dumps(doc, sort_keys=True).encode()),
            )
        return len(outcomes), failed, problems, quality

    def metrics(self, raw: dict, quality: dict) -> dict:
        high = [o for o in raw["high"] if o.error is None]
        lat = [o.latency_s * 1e3 for o in high]
        passed = [r["rate"] for r in raw["rungs"] if r["passed"]]
        return {
            "throughput_per_s": max(passed) if passed else 0.0,
            "p50_ms": quantile(lat, 0.5),
            "tail_ms": _tail(lat),
            "geomean_ms": geomean(max(x, 1e-6) for x in lat),
            "comm_cost_geomean": geomean(max(q[0], 1e-9) for q in quality.values()),
            "sim_time_geomean": geomean(q[2] for q in quality.values()),
            "served_cost_ratio": geomean(
                max(q[0], 1e-9) / max(q[1], 1e-9) for q in quality.values()
            ),
        }

    def op_time(self, raw: dict) -> float:
        lat = [o.latency_s for o in raw["high"] if o.error is None]
        return sum(lat) / len(lat)

    def named(self, metrics: dict, raw: dict) -> dict:
        out = {
            "req_p50_ms": metrics["p50_ms"],
            f"req_p{100 * tail_q(len(raw['high'])):.1f}_ms": metrics["tail_ms"],
            "req_samples": len(raw["high"]),
            "max_rate_rps": metrics["throughput_per_s"],
        }
        for rung in raw["rungs"]:
            out[f"rung_{rung['rate']:g}rps_tail_ms"] = rung["tail_ms"]
        return out

    def layers(self, raw: dict, quality: dict) -> dict:
        high = [o for o in raw["high"] if o.error is None]
        ops = len(high) + sum(len(r["outcomes"]) for r in raw["rungs"])
        out = span_layers(raw["summary"], ops)
        out.update(counter_layers(raw["counters"], ops))

        for tier_name, tiers in (("hit", ("memory", "disk")),
                                 ("computed", ("computed",)),
                                 ("singleflight", ("singleflight",))):
            xs = [o.server_ms for o in high if o.tier in tiers]
            out[f"serve.server_ms.{tier_name}"] = (
                sum(xs) / len(xs) if xs else 0.0)
        out["serve.transport_ms"] = sum(
            (o.done - o.sent) * 1e3 - o.server_ms for o in high) / len(high)
        out["harness.client_ms"] = sum(o.client_s for o in high) * 1e3 / len(high)
        out["harness.post_ms"] = sum(o.post_s for o in high) * 1e3 / len(high)
        out["harness.sched_lag_ms"] = sum(o.lag_s for o in high) * 1e3 / len(high)

        stats = raw["stats"]
        cache = stats.get("cache") or {}
        for name in ("hits_memory", "hits_disk", "misses", "computed",
                     "singleflight_waits"):
            out[f"cache.{name}"] = float(cache.get(name, 0))
        server = stats.get("server") or {}
        out["serve.alias_hits"] = float(server.get("alias_hits", 0))
        out["serve.batch_size"] = float(
            (stats.get("batcher") or {}).get("mean_batch", 0.0))
        keys = {o.key for o in high}
        for rung in raw["rungs"]:
            keys |= {o.key for o in rung["outcomes"] if o.error is None}
        out["serve.computes_per_key"] = out["cache.computed"] / len(keys)
        renders = raw["summary"].get("serve.render", {}).get("calls", 0)
        out["serve.renders_per_key"] = renders / len(keys)
        return out

    def digests(self, raw: dict, quality: dict) -> dict:
        """Canonical (key-sorted) result digests: must match across runs."""
        return {json.dumps(self.bodies[k], sort_keys=True): q[3]
                for k, q in quality.items()}

    def teardown(self) -> None:
        if getattr(self, "server", None) is not None:
            self.server.stop()
            self.server = None


def _digest(data: bytes) -> str:
    return hashlib.blake2b(data, digest_size=16).hexdigest()
