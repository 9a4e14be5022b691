"""The repository benchmark: one command, three workloads.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload map_mix --seed 1 --seconds 30 --trace 0

``--trace 0`` measures the end-to-end metrics with no tracing.
``--trace 1`` measures twice -- untraced, then with timing wrappers on
the layers' public functions -- and reports the per-layer metrics from the
traced half, the latency summaries from the untraced half, and
``trace.overhead_ratio`` (traced / untraced time).

Set-up (imports, input generation, warm-up of first-call lazy work, server
spawn and hot-set prefill, session construction) is timed as ``setup_s``:
the median of this process's set-up and two more in fresh processes
(``--setup-only``).  Outputs are checked by ``perfbench/checker.py``; a
failed check counts as a failed operation and makes ``correct`` false.

The last line of standard output is the JSON result; the lines before it
are a human-readable summary in the workload's own metric names.
"""

from __future__ import annotations

import time

_T0 = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

from perfbench import common  # noqa: E402

#: name -> unit, for every end-to-end metric (``--trace 0``).
END_TO_END = {
    "setup_s": "s",
    "throughput_per_s": "1/s",
    "comm_cost_geomean": "volume_x_hops",
    "sim_time_geomean": "time",
    "served_cost_ratio": "ratio",
}

#: Latency summaries, reported with the per-layer set (from the untraced
#: half of a traced run): across runs on a shared 2-vCPU host they moved
#: by up to a third with the host's load, beyond any bound a gate can use.
LATENCY = ("p50_ms", "tail_ms", "geomean_ms")

_STAGES = ("contract", "embed", "refine", "route", "simulate", "analyze",
           "validate")

#: name -> unit, for every per-layer metric (``--trace 1``).  Layers a
#: workload does not exercise report 0.
PER_LAYER = {
    **{f"latency.{name}": "ms" for name in LATENCY},
    "larcs.compile_ms": "ms",
    "graph.csr_ms": "ms",
    "arch.distance_matrix_ms": "ms",
    **{f"pipeline.{s}_ms": "ms" for s in _STAGES},
    "pipeline.accounted_ratio": "ratio",
    "mapper.strategy.canned": "count/op",
    "mapper.strategy.group": "count/op",
    "mapper.strategy.mwm": "count/op",
    "mapper.strategy.multilevel": "count/op",
    "map.refine_moves": "count/op",
    "map.coarsen_levels": "count/op",
    "sim.vector_fallback": "count/op",
    "sim.step_cache_hit_ratio": "ratio",
    "serve.server_ms.hit": "ms",
    "serve.server_ms.computed": "ms",
    "serve.server_ms.singleflight": "ms",
    "serve.transport_ms": "ms",
    "serve.request_key_ms": "ms",
    "serve.parse_ms": "ms",
    "serve.pipeline_key_ms": "ms",
    "serve.batch_submit_ms": "ms",
    "serve.batch_wait_ms": "ms",
    "serve.batch_size": "count",
    "serve.render_ms": "ms",
    "serve.renders_per_key": "ratio",
    "serve.alias_hits": "count",
    "serve.computes_per_key": "ratio",
    "cache.hits_memory": "count",
    "cache.hits_disk": "count",
    "cache.misses": "count",
    "cache.computed": "count",
    "cache.singleflight_waits": "count",
    **{f"online.apply_ms.{k}": "ms"
       for k in ("arrival", "departure", "drift", "fault", "recovery")},
    "online.remap_ms": "ms",
    "online.remaps": "count",
    "online.swaps": "count",
    "online.portfolio_ms": "ms",
    "online.repair_ms": "ms",
    "online.route_ms": "ms",
    "online.final_cost_ratio": "ratio",
    "harness.client_ms": "ms",
    "harness.post_ms": "ms",
    "harness.sched_lag_ms": "ms",
    "trace.overhead_ratio": "ratio",
}

WORKLOADS = ("map_mix", "serve_mix", "online_churn")
SETUP_REPEATS = 3


def _workload(name: str):
    if name == "map_mix":
        from perfbench.map_mix import Workload
    elif name == "serve_mix":
        from perfbench.serve_mix import Workload
    else:
        from perfbench.online_churn import Workload
    return Workload()


def _child_setup(args) -> float:
    """Set-up time of one fresh process (``--setup-only``)."""
    command = [sys.executable, str(Path(__file__).resolve()),
               "--workload", args.workload, "--seed", str(args.seed),
               "--setup-only"]
    done = subprocess.run(command, capture_output=True, text=True,
                          timeout=170)
    if done.returncode != 0:
        raise RuntimeError(f"set-up child failed: {done.stderr[-800:]}")
    return float(json.loads(done.stdout.strip().splitlines()[-1])["setup_s"])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="Run one benchmark workload and print its metrics.")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    common.require_source()
    common.isolate_cache()
    workload = _workload(args.workload)
    try:
        workload.setup(args.seed)
        setup_s = time.perf_counter() - _T0
        if args.setup_only:
            print(json.dumps({"setup_s": setup_s}))
            return 0
        if args.trace:
            untraced = workload.measure(args.seconds / 2)
            raw = workload.measure(args.seconds / 2, traced=True)
        else:
            raw = workload.measure(args.seconds)
        attempted, failed, problems, quality = workload.check(raw)
        metrics = workload.metrics(raw, quality)
        named = workload.named(metrics, raw)
        if args.trace:
            a2, f2, p2, q2 = workload.check(untraced)
            attempted, failed, problems = attempted + a2, failed + f2, problems + p2
            plain = workload.metrics(untraced, q2)
            layers = workload.layers(raw, quality)
            layers.update({f"latency.{n}": plain[n] for n in LATENCY})
            layers["trace.overhead_ratio"] = (
                workload.op_time(raw) / workload.op_time(untraced))
            common.write_spans(args.workload, args.seed, raw["spans"])
        digest_problems = common.check_state(
            args.workload, workload.digests(raw, quality))
    finally:
        workload.teardown()
    if digest_problems:
        failed += len(digest_problems)
        problems += digest_problems

    setups = [setup_s] + [_child_setup(args)
                          for _ in range(SETUP_REPEATS - 1)]
    metrics["setup_s"] = common.quantile(setups, 0.5)
    common.remove(common.WORK)

    for problem in problems[:20]:
        print(f"check failed: {problem}", file=sys.stderr)
    runs = ", ".join(f"{s:.3g}" for s in setups)
    print(f"{args.workload} seed {args.seed}: " + ", ".join(
        f"{k}={v:.6g}" if isinstance(v, float) else f"{k}={v}"
        for k, v in named.items()
    ) + f", setup_s={metrics['setup_s']:.4g} (runs {runs})")
    if args.trace:
        out = {name: float(layers.get(name, 0.0)) for name in PER_LAYER}
        print("per-layer: " + ", ".join(
            f"{k}={v:.4g}" for k, v in layers.items() if k in PER_LAYER))
        units = PER_LAYER
    else:
        out = {name: metrics[name] for name in END_TO_END}
        units = END_TO_END
    common.emit(not problems and failed == 0, attempted, failed, out, units)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
