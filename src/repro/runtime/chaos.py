"""Deterministic fault injection for the supervised runtime.

A :class:`ChaosPlan` names, by ``(payload index, attempt number)``,
exactly which task attempts crash, hang, fail transiently -- or kill the
supervising run itself.  Injection is keyed by position, never by clock
or RNG state at injection time, so the same plan produces the same
attempt history, the same retry/backoff trace, and therefore the same
winners and rankings in every executor at every worker count.  That is
what makes the chaos suite assert *bit-identical* degraded outputs
instead of merely "it didn't crash".

Actions
-------
``crash``
    Process workers ``os._exit`` with :data:`CHAOS_EXIT_CODE` (a real
    worker death -- exercises the pipe-EOF detection path); thread and
    serial workers raise :class:`SimulatedWorkerCrash`, which the
    supervisor classifies identically.
``hang``
    The worker sleeps ``hang_s`` seconds before doing its work.  With a
    deadline shorter than ``hang_s`` every executor reports a timeout
    (processes are killed, threads abandoned, serial runs flagged
    post-hoc).
``transient``
    The worker raises :class:`TransientChaosError` -- an ordinary,
    retryable exception; with retries left the next attempt runs clean.
``kill``
    The *supervisor process* exits with :data:`KILL_EXIT_CODE` just
    before dispatching the attempt -- a deterministic stand-in for
    "the sweep died at fault 900/1000", used by the checkpoint-resume
    tests and nothing else.

The environment knob ``REPRO_CHAOS`` (JSON, same shape as
:meth:`ChaosPlan.to_dict`) injects a plan into any
:func:`~repro.runtime.run_supervised` call that was not handed one
explicitly -- the hook the CLI chaos tests and drills use.  Unset means
no chaos anywhere.
"""

from __future__ import annotations

import json
import os
import random
import time
from dataclasses import dataclass, field

__all__ = [
    "ChaosPlan",
    "SimulatedWorkerCrash",
    "TransientChaosError",
    "plan_from_env",
    "CHAOS_EXIT_CODE",
    "KILL_EXIT_CODE",
    "CHAOS_ENV",
]

#: Exit status of a chaos-crashed process worker.
CHAOS_EXIT_CODE = 113
#: Exit status of a chaos-killed supervisor run.
KILL_EXIT_CODE = 86
#: Environment variable holding a JSON chaos plan.
CHAOS_ENV = "REPRO_CHAOS"


class SimulatedWorkerCrash(BaseException):
    """An injected worker death for executors that cannot really die.

    Derives from ``BaseException`` so ordinary ``except Exception``
    recovery inside task functions cannot swallow it -- only the
    supervisor catches it, and it reports a :class:`~repro.errors.WorkerCrash`
    exactly as a dead process worker would.
    """


class TransientChaosError(RuntimeError):
    """An injected transient failure (retryable like any exception)."""


def _pairs(items) -> frozenset[tuple[int, int]]:
    return frozenset((int(i), int(a)) for i, a in items)


@dataclass(frozen=True)
class ChaosPlan:
    """A deterministic injection schedule for one supervised fan-out.

    Each schedule is a set of ``(payload index, attempt number)`` pairs
    (attempts are 1-based).  ``hang_s`` is how long an injected hang
    sleeps -- pick it larger than the run's deadline to force timeouts,
    and small in tests so abandoned thread workers drain quickly.
    """

    crashes: frozenset = field(default_factory=frozenset)
    hangs: frozenset = field(default_factory=frozenset)
    transients: frozenset = field(default_factory=frozenset)
    kills: frozenset = field(default_factory=frozenset)
    hang_s: float = 0.25

    def __post_init__(self):
        for name in ("crashes", "hangs", "transients", "kills"):
            object.__setattr__(self, name, _pairs(getattr(self, name)))

    @property
    def is_empty(self) -> bool:
        return not (self.crashes or self.hangs or self.transients or self.kills)

    def should_kill(self, index: int, attempt: int) -> bool:
        """True when the supervisor itself must die before this attempt."""
        return (index, attempt) in self.kills

    def inject(self, index: int, attempt: int, *, in_child: bool) -> None:
        """Run the injections scheduled for this attempt (worker side).

        ``in_child`` says whether this is a dedicated worker process
        (where a crash can be a real ``os._exit``) or a thread/serial
        worker sharing the supervisor's process (where it must be
        simulated).
        """
        if (index, attempt) in self.crashes:
            if in_child:
                os._exit(CHAOS_EXIT_CODE)
            raise SimulatedWorkerCrash(
                f"chaos: injected crash (task {index}, attempt {attempt})"
            )
        if (index, attempt) in self.hangs:
            time.sleep(self.hang_s)
        if (index, attempt) in self.transients:
            raise TransientChaosError(
                f"chaos: injected transient failure "
                f"(task {index}, attempt {attempt})"
            )

    # ------------------------------------------------------------------
    @classmethod
    def random(cls, seed: int, n_tasks: int, *, crash: float = 0.0,
               hang: float = 0.0, transient: float = 0.0,
               attempts: int = 1, hang_s: float = 0.25) -> "ChaosPlan":
        """A reproducible plan: each (task, attempt) draws independently.

        The draw order is fixed (task-major, attempt-minor, one action
        roll each), so equal arguments give an equal plan on every
        platform and hash seed.
        """
        rng = random.Random(seed)
        crashes, hangs, transients = set(), set(), set()
        for i in range(n_tasks):
            for a in range(1, attempts + 1):
                roll = rng.random()
                if roll < crash:
                    crashes.add((i, a))
                elif roll < crash + hang:
                    hangs.add((i, a))
                elif roll < crash + hang + transient:
                    transients.add((i, a))
        return cls(crashes=crashes, hangs=hangs, transients=transients,
                   hang_s=hang_s)

    def to_dict(self) -> dict:
        """JSON-compatible form (the ``REPRO_CHAOS`` format)."""
        return {
            "crash": sorted(map(list, self.crashes)),
            "hang": sorted(map(list, self.hangs)),
            "transient": sorted(map(list, self.transients)),
            "kill": sorted(map(list, self.kills)),
            "hang_s": self.hang_s,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "ChaosPlan":
        """Build from the :meth:`to_dict` form; unknown keys raise."""
        known = {"crash", "hang", "transient", "kill", "hang_s"}
        unknown = set(data) - known
        if unknown:
            raise ValueError(
                f"unknown chaos-plan keys {sorted(unknown)!r}; "
                f"expected a subset of {sorted(known)!r}"
            )
        return cls(
            crashes=data.get("crash", ()),
            hangs=data.get("hang", ()),
            transients=data.get("transient", ()),
            kills=data.get("kill", ()),
            hang_s=float(data.get("hang_s", 0.25)),
        )


def plan_from_env() -> ChaosPlan | None:
    """The ``REPRO_CHAOS`` plan, or ``None`` when unset/empty.

    A malformed value raises ``ValueError`` loudly -- silently ignoring a
    typoed chaos drill would report fake robustness.
    """
    raw = os.environ.get(CHAOS_ENV, "").strip()
    if not raw:
        return None
    try:
        data = json.loads(raw)
    except json.JSONDecodeError as exc:
        raise ValueError(f"{CHAOS_ENV} is not valid JSON: {exc}") from exc
    plan = ChaosPlan.from_dict(data)
    return None if plan.is_empty else plan
