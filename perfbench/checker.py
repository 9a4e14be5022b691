"""Independent output checker for the benchmark.

Shares no code with the layers it checks: it imports nothing from
``repro``.  It reads the data containers a mapping run produces -- the
in-memory ``Mapping`` (through :func:`view_from_mapping`) or the JSON
document ``POST /v1/map`` returns (through :func:`view_from_doc`) -- into
a plain :class:`View` and recomputes every promise from first principles:

* every task sits on an existing processor that has not failed;
* every inter-processor message has a route that is a contiguous path of
  surviving links from the source task's processor to the destination
  task's processor;
* multi-resource capacities hold (``unit`` and ``weight`` demand rules);
* ``comm_cost`` -- the sparse-QAP objective, sum of volume x hop distance
  -- recomputed from BFS hop distances over the machine's link list
  equals the reported value;
* the simulated completion time is at least the largest per-phase,
  per-direction link volume times ``byte_time`` (messages sharing a link
  direction within one phase cross it one after another, and a
  slowed-down link only takes longer).

Each check returns a list of human-readable problems; an empty list means
the output passed.
"""

from __future__ import annotations

import math
import re
from collections import deque
from dataclasses import dataclass, field

__all__ = ["View", "view_from_mapping", "view_from_doc", "check_view",
           "bfs_comm_cost"]

#: Relative tolerance for float comparisons (sums in another order).
REL_TOL = 1e-9
#: Capacity slack: demand may exceed capacity by this much (float noise).
CAP_TOL = 1e-6


@dataclass
class View:
    """A mapping reduced to plain Python values.

    Labels are hashable (tuples for hierarchical processors).  ``edges``
    holds ``(phase, index, src_task, dst_task, volume)`` for every
    message of every communication phase; ``routes`` maps
    ``(phase, index)`` to a processor path.
    """

    tasks: dict            # task -> weight
    edges: list            # (phase, idx, src, dst, volume)
    processors: list
    links: list            # [(u, v)], undirected
    assignment: dict       # task -> processor
    routes: dict           # (phase, idx) -> [processor, ...]
    resources: list = field(default_factory=list)   # [(name, rule)]
    caps: dict = field(default_factory=dict)        # proc -> [cap, ...]
    phase_expr: str | None = None
    failed_procs: set = field(default_factory=set)
    failed_links: set = field(default_factory=set)  # {frozenset({u, v})}


def _label(obj):
    """JSON label decoding: lists become tuples, recursively."""
    if isinstance(obj, list):
        return tuple(_label(x) for x in obj)
    return obj


def view_from_mapping(mapping, *, faults=None) -> View:
    """Read an in-memory mapping's containers into a :class:`View`."""
    tg = mapping.task_graph
    topo = mapping.topology
    edges = []
    for name, phase in tg.comm_phases.items():
        for idx, e in enumerate(phase.edges):
            edges.append((name, idx, e.src, e.dst, float(e.volume)))
    resources, caps = [], {}
    if topo.capacities is not None:
        resources = list(zip(topo.capacities.names, topo.capacities.rules))
        caps = {p: list(topo.capacities.cap_for(p))
                for p in topo.capacities.procs}
    view = View(
        tasks={t: float(tg.node_weight(t)) for t in tg.nodes},
        edges=edges,
        processors=list(topo.processors),
        links=[tuple(link) for link in topo.links],
        assignment=dict(mapping.assignment),
        routes={k: list(v) for k, v in mapping.routes.items()},
        resources=resources,
        caps=caps,
        phase_expr=str(tg.phase_expr) if tg.phase_expr is not None else None,
    )
    if faults is not None:
        view.failed_procs = set(faults.failed_procs)
        view.failed_links = {frozenset(link) for link in faults.failed_links}
    return view


def view_from_doc(doc: dict) -> View:
    """Read an ``oregami-mapping-v1`` JSON document into a :class:`View`."""
    tgd = doc["task_graph"]
    topo = doc["topology"]
    edges = []
    for phase in tgd["comm_phases"]:
        for idx, (src, dst, vol) in enumerate(phase["edges"]):
            edges.append((phase["name"], idx, _label(src), _label(dst),
                          float(vol)))
    resources, caps = [], {}
    if topo.get("capacities"):
        resources = [tuple(r) for r in topo["capacities"]["resources"]]
        caps = {_label(p): list(vec) for p, vec in topo["capacities"]["caps"]}
    return View(
        tasks={_label(n["label"]): float(n["weight"]) for n in tgd["nodes"]},
        edges=edges,
        processors=[_label(p) for p in topo["processors"]],
        links=[tuple(_label(x) for x in link) for link in topo["links"]],
        assignment={_label(t): _label(p) for t, p in doc["assignment"]},
        routes={(r["phase"], r["edge"]): [_label(p) for p in r["path"]]
                for r in doc["routes"]},
        resources=resources,
        caps=caps,
        phase_expr=tgd.get("phase_expr"),
    )


def _live_adjacency(view: View) -> dict:
    adj = {p: set() for p in view.processors if p not in view.failed_procs}
    for u, v in view.links:
        if frozenset((u, v)) in view.failed_links:
            continue
        if u in adj and v in adj:
            adj[u].add(v)
            adj[v].add(u)
    return adj


def _bfs(adj: dict, source) -> dict:
    dist = {source: 0}
    queue = deque([source])
    while queue:
        u = queue.popleft()
        for v in adj[u]:
            if v not in dist:
                dist[v] = dist[u] + 1
                queue.append(v)
    return dist


def bfs_comm_cost(view: View) -> float:
    """Sum of message volume x BFS hop distance between the endpoints'
    processors, over the surviving links (the sparse-QAP objective)."""
    adj = _live_adjacency(view)
    dists: dict = {}
    total = 0.0
    for _phase, _idx, src, dst, vol in view.edges:
        p, q = view.assignment[src], view.assignment[dst]
        if p == q:
            continue
        if p not in dists:
            dists[p] = _bfs(adj, p)
        hops = dists[p].get(q)
        if hops is None:
            raise ValueError(f"processors {p!r} and {q!r} are disconnected")
        total += vol * hops
    return total


def _close(a: float, b: float) -> bool:
    return math.isclose(a, b, rel_tol=REL_TOL, abs_tol=1e-9)


def check_view(
    view: View,
    *,
    comm_cost: float | None = None,
    sim_time: float | None = None,
    byte_time: float = 1.0,
) -> list[str]:
    """Every invariant of one mapping; returns the problems found."""
    problems: list[str] = []
    live = set(view.processors) - view.failed_procs
    link_set = {frozenset(link) for link in view.links} - view.failed_links

    # Placement: every task on an existing, non-failed processor.
    for task in view.tasks:
        proc = view.assignment.get(task, None)
        if task not in view.assignment:
            problems.append(f"task {task!r} is unassigned")
        elif proc not in live:
            problems.append(f"task {task!r} sits on dead or unknown "
                            f"processor {proc!r}")
    if problems:
        return problems

    # Routes: contiguous live-link paths between the right processors.
    directed: dict = {}
    for phase, idx, src, dst, vol in view.edges:
        p, q = view.assignment[src], view.assignment[dst]
        if p == q:
            continue
        path = view.routes.get((phase, idx))
        if path is None:
            problems.append(f"message {phase}[{idx}] {p!r}->{q!r} has no route")
            continue
        if path[0] != p or path[-1] != q:
            problems.append(f"route {phase}[{idx}] runs {path[0]!r}->"
                            f"{path[-1]!r}, not {p!r}->{q!r}")
            continue
        for a, b in zip(path, path[1:]):
            if frozenset((a, b)) not in link_set:
                problems.append(f"route {phase}[{idx}] uses missing link "
                                f"{a!r}-{b!r}")
                break
            key = (phase, a, b)
            directed[key] = directed.get(key, 0.0) + vol

    # Capacities: summed task demand per processor within its vector.
    if view.resources:
        load: dict = {}
        for task, proc in view.assignment.items():
            vec = load.setdefault(proc, [0.0] * len(view.resources))
            for r, (_name, rule) in enumerate(view.resources):
                vec[r] += 1.0 if rule == "unit" else view.tasks[task]
        for proc, vec in load.items():
            caps = view.caps.get(proc)
            if caps is None:
                problems.append(f"processor {proc!r} has no capacity vector")
                continue
            for r, (name, _rule) in enumerate(view.resources):
                if vec[r] > caps[r] + CAP_TOL * max(1.0, caps[r]):
                    problems.append(f"processor {proc!r} holds {vec[r]:g} "
                                    f"{name} over its cap {caps[r]:g}")

    if comm_cost is not None:
        try:
            recomputed = bfs_comm_cost(view)
        except ValueError as exc:
            problems.append(str(exc))
        else:
            if not _close(recomputed, comm_cost):
                problems.append(f"comm_cost reported {comm_cost!r}, "
                                f"recomputed {recomputed!r}")

    if sim_time is not None and directed:
        ran = None
        if view.phase_expr:
            ran = set(re.findall(r"[A-Za-z_][A-Za-z0-9_]*", view.phase_expr))
        per_phase = [vol for (phase, _a, _b), vol in directed.items()
                     if ran is None or phase in ran]
        if per_phase:
            bound = max(per_phase) * byte_time
            if sim_time + 1e-9 * max(1.0, bound) < bound:
                problems.append(f"completion time {sim_time!r} is below the "
                                f"link-volume bound {bound!r}")
    return problems
