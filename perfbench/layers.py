"""Which public functions the traced run wraps, and where.

A name is patched in every loaded ``repro`` module that holds it, so each
caller -- whether it imported the function at module level or looks it up
through its defining module at call time -- reaches the wrapper.  Span
names are the per-layer metric stems of ``BENCHMARK.json``.
"""

from __future__ import annotations

import sys


def _patch_everywhere(tracer, original, name: str) -> None:
    for modname, module in list(sys.modules.items()):
        if not modname.startswith("repro") or module is None:
            continue
        for attr, value in list(vars(module).items()):
            if value is original:
                tracer.patch(module, attr, name)


def install_pipeline(tracer) -> None:
    """LaRCS compile, graph CSR, distance matrix, run_pipeline and stages."""
    import repro.arch.topology as topology
    import repro.graph.taskgraph as taskgraph
    import repro.larcs.compiler as compiler
    import repro.pipeline.engine as engine
    from repro.pipeline import stages

    _patch_everywhere(tracer, compiler.compile_larcs, "larcs.compile")
    tracer.patch(taskgraph.TaskGraph, "csr", "graph.csr")
    tracer.patch(topology.Topology, "distance_matrix", "arch.distance_matrix")
    _patch_everywhere(tracer, engine.run_pipeline, "pipeline.run")

    originals = stages.all_stages()
    for stage in originals:
        stages.register_stage(
            stage.name,
            tracer.timed(f"pipeline.{stage.name}", stage.run),
            requires=stage.requires,
            description=stage.description,
        )

    def restore():
        for stage in originals:
            stages.register_stage(stage.name, stage.run,
                                  requires=stage.requires,
                                  description=stage.description)

    tracer.on_uninstall(restore)


def install_serve(tracer) -> None:
    """The server's request path: key, parse, fingerprint, batch, render."""
    import repro.serve.batcher as batcher
    import repro.serve.protocol as protocol
    import repro.serve.server as server

    install_pipeline(tracer)
    tracer.patch(protocol, "request_key", "serve.request_key")
    tracer.patch(protocol, "parse_map_request", "serve.parse")
    tracer.patch(protocol, "render_result", "serve.render")
    tracer.patch(server, "pipeline_key", "serve.pipeline_key")
    tracer.patch(batcher.MicroBatcher, "submit", "serve.batch_submit")
    tracer.patch(batcher.PendingRequest, "wait", "serve.batch_wait")


def install_online(tracer) -> None:
    """The session's reactions, as ``repro.online.session`` looks them up."""
    import repro.online.session as session

    install_pipeline(tracer)
    tracer.patch(session, "run_portfolio", "online.portfolio")
    tracer.patch(session, "repair_mapping", "online.repair")
    tracer.patch(session, "route_edges", "online.route")
