"""Span recording at the public entry points of each qgame module.

`Tracer.install()` wraps the functions named in `SPANS` wherever a qgame
module holds a reference to them (the names callers look up), and
`uninstall()` puts the originals back, so untraced runs execute the
program untouched. Spans (name, start, end, parent, job) stay in memory
until the caller writes them out.

Each span name maps to one per-layer self-time metric, so the self times
of all metrics add up to the duration of each job's root `cli.main` span.
This module uses only the standard library: it is imported before the
timed `import qgame.cli`.
"""

from __future__ import annotations

import itertools
import math
import sys
import time
from dataclasses import dataclass

# span name -> self-time metric. The name is "<layer>.<attribute path in
# qgame.<layer>>"; these names are the reference for later performance work.
SPANS = {
    "cli.main": "cli.self_s",
    "cli.cmd_iso": "cli.self_s",
    "cli.cmd_lift_verify": "cli.self_s",
    "cli.cmd_ne": "cli.self_s",
    "cli.cmd_surface": "cli.self_s",
    "cli.cmd_identities": "cli.self_s",
    "gamefile.load_game_file": "gamefile.load_s",
    "games.find_strong_isomorphisms": "games.iso_s",
    "games.strategic_equivalence": "games.equivalence_s",
    "linalg.su2": "linalg.self_s",
    "linalg.tensor": "linalg.self_s",
    "linalg.entangler": "linalg.self_s",
    "linalg.permutation_operator": "linalg.self_s",
    "ewl.EwlGame.__init__": "ewl.game_build_s",
    "ewl.unrestricted_payoffs": "ewl.payoffs_s",
    "lift.lift": "lift.verify_s",
    "lift.verify_lift": "lift.verify_s",
    "lift.operator_identity_suite": "lift.identities_s",
    "search.ParamGrid.strategies": "search.strategies_s",
    "search.grid_payoff_tables": "search.tables_s",
    "search.grid_pure_ne": "search.ne_self_s",
}

SELF_METRICS = tuple(dict.fromkeys(SPANS.values()))


@dataclass(frozen=True)
class Span:
    id: int
    parent: int | None
    name: str
    job: str
    start: float
    end: float


def _counters(name: str, args, result, into: dict) -> None:
    """Counts derived from a finished call's arguments and result."""
    if name == "games.find_strong_isomorphisms":
        shape = args[0].shape
        into["games.iso_candidates"] += math.factorial(len(shape)) * math.prod(
            math.factorial(m) for m in shape
        )
        into["games.iso_found"] += len(result)
    elif name == "lift.verify_lift":
        into["lift.samples"] += result.samples
        into["lift.max_deviation"] = max(into["lift.max_deviation"], result.max_deviation)
    elif name == "lift.operator_identity_suite":
        into["lift.identity_max_error"] = max(into["lift.identity_max_error"], result.max_error)
    elif name == "search.ParamGrid.strategies":
        into["search.strategies"] += len(result)
    elif name == "search.grid_payoff_tables":
        profiles = math.prod(len(s) for s in args[1])
        into["search.profiles"] += profiles
        into["search.table_bytes"] += len(args[1]) * profiles * 8
    elif name == "search.grid_pure_ne":
        into["search.equilibria"] += len(result)


COUNTERS = (
    "games.iso_candidates",
    "games.iso_found",
    "lift.samples",
    "lift.max_deviation",
    "lift.identity_max_error",
    "search.strategies",
    "search.profiles",
    "search.table_bytes",
    "search.equilibria",
)


class Tracer:
    """Wraps the `SPANS` entry points of the loaded qgame modules."""

    def __init__(self):
        self.spans: list[Span] = []
        self.counters = dict.fromkeys(COUNTERS, 0)
        self.job = ""
        self._stack: list[int] = []
        self._ids = itertools.count()
        self._patches: list[tuple[object, str, object]] = []

    def _wrap(self, name, fn):
        spans, stack, counters, clock = self.spans, self._stack, self.counters, time.perf_counter
        ids = self._ids

        def traced(*args, **kwargs):
            span_id = next(ids)
            parent = stack[-1] if stack else None
            stack.append(span_id)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans.append(Span(span_id, parent, name, self.job, start, end))
            _counters(name, args, result, counters)
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self) -> None:
        modules = [m for k, m in sys.modules.items() if k.startswith("qgame.") and m is not None]
        for name in SPANS:
            layer, *path = name.split(".")
            owner = sys.modules[f"qgame.{layer}"]
            for attr in path[:-1]:
                owner = getattr(owner, attr)
            original = getattr(owner, path[-1])
            wrapper = self._wrap(name, original)
            if len(path) > 1:
                # a method: patch it on its class
                self._patches.append((owner, path[-1], original))
                setattr(owner, path[-1], wrapper)
                continue
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        self._patches.append((module, attr, original))
                        setattr(module, attr, wrapper)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def take(self) -> tuple[list[Span], dict]:
        """Return and reset the spans and counters recorded so far."""
        spans, counters = self.spans[:], dict(self.counters)
        self.spans.clear()
        self.counters.update(dict.fromkeys(COUNTERS, 0))
        return spans, counters


def self_times(spans: list[Span]) -> dict[int, float]:
    """Span id -> its duration minus the time its direct children cover."""
    own = {s.id: s.end - s.start for s in spans}
    for s in spans:
        if s.parent is not None:
            own[s.parent] -= s.end - s.start
    return own


def layer_metrics(spans: list[Span], counters: dict) -> dict[str, float]:
    """Per-layer metrics of one pass over the job list."""
    own = self_times(spans)
    out = dict.fromkeys(SELF_METRICS, 0.0)
    for s in spans:
        out[SPANS[s.name]] += own[s.id]
    out.update(counters)

    def count(prefix):
        return sum(1 for s in spans if s.name.startswith(prefix))

    payoff_time = sum(s.end - s.start for s in spans if s.name == "ewl.unrestricted_payoffs")
    out["cli.jobs"] = count("cli.main")
    out["gamefile.loads"] = count("gamefile.")
    out["games.iso_calls"] = count("games.find_strong_isomorphisms")
    out["linalg.calls"] = count("linalg.")
    out["ewl.payoff_calls"] = count("ewl.unrestricted_payoffs")
    out["ewl.us_per_payoff"] = 1e6 * payoff_time / max(1, out["ewl.payoff_calls"])
    out["games.iso_hit_ratio"] = out["games.iso_found"] / max(1, out["games.iso_candidates"])
    out["search.profiles_per_s"] = (
        out["search.profiles"] / out["search.tables_s"] if out["search.tables_s"] > 0 else 0.0
    )
    out["search.eq_per_profile"] = out["search.equilibria"] / max(1, out["search.profiles"])
    return out


def job_balance(spans: list[Span]) -> float:
    """Largest gap, over jobs, between the root span's duration and the
    sum of the self times of all spans of that job (0 up to rounding)."""
    own = self_times(spans)
    worst = 0.0
    for job in {s.job for s in spans}:
        roots = [s for s in spans if s.job == job and s.parent is None]
        total = sum(own[s.id] for s in spans if s.job == job)
        worst = max(worst, abs(total - sum(r.end - r.start for r in roots)))
    return worst

