"""Line-oriented text format for strategic-form games.

    # comment
    players: 2
    strategies 1: t b
    strategies 2: l r
    space 2: alpha          (optional, per player)
    payoff (t,l): 3 3
    payoff (t,r): 0 5
    ...

Every profile must appear exactly once. Player indices are 1-based in
files; `space` names are the ones `qgame.ewl.parse_space` accepts.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .ewl import StrategySpace, parse_space
from .games import ClassicalGame

_PLAYERS_RE = re.compile(r"players\s*:\s*(\d+)$")
_STRATEGIES_RE = re.compile(r"strategies\s+(\d+)\s*:\s*(.+)$")
_SPACE_RE = re.compile(r"space\s+(\d+)\s*:\s*(\S+)$")
_PAYOFF_RE = re.compile(r"payoff\s*\(([^)]*)\)\s*:\s*(.+)$")


class GameFileError(ValueError):
    """Malformed game file; carries the offending 1-based line number."""

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        where = f"line {line}: " if line is not None else ""
        super().__init__(f"{where}{message}")


@dataclass(frozen=True)
class GameFile:
    """A parsed game plus optional per-player strategy spaces."""

    game: ClassicalGame
    spaces: tuple[StrategySpace, ...] | None = None


def parse_game_file(text: str) -> GameFile:
    n = None
    labels: dict[int, tuple[str, ...]] = {}
    spaces: dict[int, StrategySpace] = {}
    cells: dict[tuple[str, ...], tuple[float, ...]] = {}

    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        m = _PLAYERS_RE.fullmatch(line)
        if m:
            if n is not None:
                raise GameFileError("duplicate players line", lineno)
            n = int(m.group(1))
            if n < 1:
                raise GameFileError("need at least one player", lineno)
            continue
        m = _STRATEGIES_RE.fullmatch(line)
        if m:
            idx = int(m.group(1))
            if n is None or not 1 <= idx <= n:
                raise GameFileError(f"bad player index {idx}", lineno)
            if idx in labels:
                raise GameFileError(f"duplicate strategies line for player {idx}", lineno)
            toks = tuple(m.group(2).split())
            if len(toks) < 2 or len(set(toks)) != len(toks):
                raise GameFileError("need at least two distinct strategy labels", lineno)
            labels[idx] = toks
            continue
        m = _SPACE_RE.fullmatch(line)
        if m:
            idx = int(m.group(1))
            if n is None or not 1 <= idx <= n:
                raise GameFileError(f"bad player index {idx}", lineno)
            try:
                spaces[idx] = parse_space(m.group(2))
            except ValueError as exc:
                raise GameFileError(str(exc), lineno)
            continue
        m = _PAYOFF_RE.fullmatch(line)
        if m:
            if n is None or len(labels) != n:
                raise GameFileError("payoff before players/strategies are declared", lineno)
            profile = tuple(t.strip() for t in m.group(1).split(","))
            if len(profile) != n:
                raise GameFileError(f"profile needs {n} labels", lineno)
            for i, lab in enumerate(profile):
                if lab not in labels[i + 1]:
                    raise GameFileError(f"unknown strategy {lab!r} for player {i + 1}", lineno)
            if profile in cells:
                raise GameFileError(f"duplicate payoff line for {profile}", lineno)
            try:
                values = tuple(float(v) for v in m.group(2).split())
            except ValueError:
                raise GameFileError("payoffs must be numbers", lineno)
            if not all(math.isfinite(v) for v in values):
                raise GameFileError("payoffs must be finite numbers", lineno)
            if len(values) != n:
                raise GameFileError(f"need {n} payoff values", lineno)
            cells[profile] = values
            continue
        raise GameFileError(f"unrecognized line {raw.strip()!r}", lineno)

    if n is None:
        raise GameFileError("missing players line")
    if len(labels) != n:
        missing = [str(i) for i in range(1, n + 1) if i not in labels]
        raise GameFileError(f"missing strategies for player(s) {', '.join(missing)}")

    dims = tuple(len(labels[i + 1]) for i in range(n))
    tensor = np.full(dims + (n,), np.nan)
    for profile, values in cells.items():
        idx = tuple(labels[i + 1].index(lab) for i, lab in enumerate(profile))
        tensor[idx] = values
    if np.isnan(tensor).any():
        total = int(np.prod(dims))
        raise GameFileError(f"payoff table incomplete: {len(cells)} of {total} profiles given")

    game = ClassicalGame(tuple(labels[i + 1] for i in range(n)), tensor)
    space_tuple = None
    if spaces:
        space_tuple = tuple(
            spaces.get(i + 1, StrategySpace.FULL_SU2) for i in range(n)
        )
    return GameFile(game, space_tuple)


def load_game_file(path) -> GameFile:
    return parse_game_file(Path(path).read_text(encoding="utf-8"))
