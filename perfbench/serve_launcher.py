"""Start ``repro.serve.serve`` for the benchmark, optionally traced.

Usage (from the checkout root)::

    python3 perfbench/serve_launcher.py --cache-dir DIR [--trace-out FILE]

With ``--trace-out`` the launcher installs the benchmark's timing
wrappers on the server's request path before serving, and after the
graceful SIGTERM drain writes the span summary and the program's own
``repro.util.perf`` counters to FILE as JSON.  The server prints its
usual ready line (with the ephemeral port) on stdout.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

from perfbench.common import require_source  # noqa: E402
from perfbench.serve_mix import CONNECTIONS  # noqa: E402


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--cache-dir", required=True)
    parser.add_argument("--trace-out", default=None)
    args = parser.parse_args(argv)

    require_source()
    from repro.pipeline.cache import ArtifactCache
    from repro.serve.server import serve

    tracer = None
    if args.trace_out:
        from perfbench.layers import install_serve
        from perfbench.tracer import Tracer

        tracer = Tracer()
        install_serve(tracer)
    try:
        code = serve(
            "127.0.0.1",
            0,
            workers=CONNECTIONS,
            executor="thread",
            cache=ArtifactCache(args.cache_dir),
            use_default_cache=False,
        )
    finally:
        if tracer is not None:
            from repro.util import perf

            tracer.uninstall()
            Path(args.trace_out).write_text(json.dumps({
                "summary": tracer.summary(),
                "spans": tracer.dump(),
                "counters": perf.counters(),
            }))
    return code


if __name__ == "__main__":
    raise SystemExit(main())
