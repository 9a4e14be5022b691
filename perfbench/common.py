"""Shared helpers: paths inside the checkout, statistics, result lines."""

from __future__ import annotations

import hashlib
import json
import math
import os
import shutil
import sys
import tempfile
import time
from pathlib import Path

#: The checkout root (the benchmark always runs from it).
ROOT = Path.cwd()
#: Scratch space for caches, span dumps and server logs (removed at exit).
WORK = ROOT / ".bench_work"
#: Cross-run determinism records, one file per workload and program source.
STATE = ROOT / ".bench_state"


def require_source() -> None:
    """Put the checkout's ``src`` on the path, or exit without a result."""
    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program source under {src}; run from the "
              f"root of a checkout", file=sys.stderr)
        raise SystemExit(2)
    if str(src) not in sys.path:
        sys.path.insert(0, str(src))
    os.environ["PYTHONPATH"] = str(src) + (
        os.pathsep + os.environ["PYTHONPATH"]
        if os.environ.get("PYTHONPATH") else ""
    )


def scratch_dir(prefix: str) -> str:
    """A fresh directory under :data:`WORK`."""
    WORK.mkdir(exist_ok=True)
    return tempfile.mkdtemp(prefix=prefix, dir=WORK)


def isolate_cache() -> str:
    """Point the program's default artifact cache at a fresh scratch dir,
    so nothing is read from or written to the user's cache."""
    directory = scratch_dir("cache-")
    os.environ["REPRO_CACHE_DIR"] = directory
    os.environ.pop("REPRO_CACHE", None)
    os.environ.pop("REPRO_CACHE_MAX_MB", None)
    os.environ.pop("REPRO_CHAOS", None)
    return directory


#: ``throughput_per_s`` of ``map_mix`` and ``online_churn`` is scaled to a
#: host on which :func:`calibrate` takes this long (about its time on a
#: 2-vCPU x86 VM in a quiet spell, so scaled and raw rates read alike there).
CALIBRATION_REF_S = 1.5e-3
#: :class:`HostSpeed` samples no more often than this.
CALIBRATE_EVERY_S = 0.1
_CALIBRATION_TABLE = {i: {j: i * j for j in range(8)} for i in range(64)}


def calibrate() -> float:
    """Seconds a fixed pure-Python loop takes: dict lookups and integer
    arithmetic, the kind of work the mapping layers spend their time in."""
    table = _CALIBRATION_TABLE
    start = time.perf_counter()
    total = 0
    for _ in range(40):
        for i, row in table.items():
            for j in row:
                total += table[i][j] % 7
    return time.perf_counter() - start


class HostSpeed:
    """The host's speed over a run, sampled with :func:`calibrate`.

    A shared host's speed drifts by half from one stretch of seconds to
    the next, so a rate measured over a run moves with it.  The caller
    samples between operations, outside their timings; a rate times
    :meth:`finish` over :data:`CALIBRATION_REF_S` is the rate on the
    reference host.
    """

    def __init__(self) -> None:
        self.samples = [calibrate()]
        self.last = time.perf_counter()

    def sample(self) -> None:
        """Take a sample if :data:`CALIBRATE_EVERY_S` has passed since the
        last one."""
        if time.perf_counter() - self.last >= CALIBRATE_EVERY_S:
            self.samples.append(calibrate())
            self.last = time.perf_counter()

    def finish(self) -> float:
        """Take a last sample; the mean calibration time, in seconds."""
        self.samples.append(calibrate())
        return sum(self.samples) / len(self.samples)


def remove(path) -> None:
    shutil.rmtree(path, ignore_errors=True)


def quantile(values, q: float) -> float:
    """Linear-interpolated quantile of *values* (0 <= q <= 1)."""
    xs = sorted(values)
    if not xs:
        raise ValueError("quantile of no values")
    pos = q * (len(xs) - 1)
    lo = math.floor(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def tail_q(n: int) -> float:
    """The highest quantile (capped at p99) with >= 10 samples beyond it."""
    return max(0.5, min(0.99, 1.0 - 10.0 / n)) if n else 0.5


def geomean(values) -> float:
    xs = list(values)
    if not xs or any(x <= 0 for x in xs):
        raise ValueError("geomean needs positive values")
    return math.exp(sum(math.log(x) for x in xs) / len(xs))


def source_digest() -> str:
    """A digest of the program under test: every ``src/**/*.py`` file's
    path and bytes."""
    src = ROOT / "src"
    digest = hashlib.blake2b(digest_size=12)
    for path in sorted(src.rglob("*.py")):
        digest.update(path.relative_to(src).as_posix().encode() + b"\0")
        digest.update(path.read_bytes() + b"\0")
    return digest.hexdigest()


def check_state(workload: str, digests: dict[str, str]) -> list[str]:
    """Compare this run's deterministic outputs with earlier runs of the
    same program source in this checkout.  *digests* maps an instance's
    identity to a digest of what the program produced for it; an identity
    seen before must produce the same digest (any seed), and new
    identities are recorded.  Each source version keeps its own record,
    so a change that alters results starts a fresh one."""
    STATE.mkdir(exist_ok=True)
    path = STATE / f"{workload}-{source_digest()}.json"
    known: dict = {}
    if path.is_file():
        try:
            known = json.loads(path.read_text())
        except ValueError:
            known = {}
    problems = [
        f"{name}: output differs from an earlier run of the same source "
        f"({known[name]} vs {value})"
        for name, value in digests.items()
        if name in known and known[name] != value
    ]
    known.update({k: v for k, v in digests.items() if k not in known})
    path.write_text(json.dumps(known, sort_keys=True, indent=0))
    return problems


def write_spans(workload: str, seed: int, spans: list) -> None:
    """Keep a traced run's spans (name, start, end, parent, op id) for
    inspection, next to the determinism records."""
    directory = STATE / "traces"
    directory.mkdir(parents=True, exist_ok=True)
    (directory / f"{workload}-seed{seed}.json").write_text(json.dumps(spans))


def emit(correct: bool, attempted: int, failed: int, metrics: dict,
         units: dict) -> None:
    """Print the machine-readable result (always the last output line)."""
    print(json.dumps({
        "correct": bool(correct),
        "attempted": int(attempted),
        "failed": int(failed),
        "metrics": {
            name: {"value": float(value), "unit": units[name]}
            for name, value in metrics.items()
        },
    }), flush=True)


def span_layers(summary: dict, ops: int) -> dict:
    """Per-layer ``<span>_ms`` metrics: self time per operation.

    ``pipeline.validate_ms`` is ``run_pipeline``'s wall minus its stages
    (input validation, context set-up and output validation).
    """
    out = {}
    for span, row in summary.items():
        if span != "pipeline.run":
            out[f"{span}_ms"] = row["self_s"] * 1e3 / ops
    run = summary.get("pipeline.run")
    if run is not None:
        stages = sum(
            row["total_s"] for name, row in summary.items()
            if name.startswith("pipeline.") and name != "pipeline.run"
        )
        out["pipeline.validate_ms"] = max(0.0, run["total_s"] - stages) * 1e3 / ops
    return out


def counter_layers(counters: dict, ops: int) -> dict:
    """The program's own ``repro.util.perf`` counters, per operation, plus
    the simulator's step-cache hit ratio."""
    out = {
        name: value / ops for name, value in counters.items()
        if name.startswith(("mapper.strategy.", "map.", "sim."))
    }
    hits = counters.get("sim.step_cache_hit", 0)
    misses = counters.get("sim.step_cache_miss", 0)
    out["sim.step_cache_hit_ratio"] = hits / (hits + misses) if hits + misses else 0.0
    return out
