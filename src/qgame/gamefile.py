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
import operator
import re
from itertools import chain
from pathlib import Path
from typing import NamedTuple

import numpy as np

from .ewl import StrategySpace, parse_space
from .games import ClassicalGame

# one pattern for every keyword line; the named group that closes last
# says which kind of line matched
_LINE_RE = re.compile(
    r"payoff\s*\((?P<profile>[^)]*)\)\s*:\s*(?P<values>.+)"
    r"|players\s*:\s*(?P<players>\d+)"
    r"|strategies\s+(?P<player>\d+)\s*:\s*(?P<labels>.+)"
    r"|space\s+(?P<space_player>\d+)\s*:\s*(?P<space>\S+)"
)


class GameFileError(ValueError):
    """Malformed game file; carries the offending 1-based line number."""

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        where = f"line {line}: " if line is not None else ""
        super().__init__(f"{where}{message}")


class GameFile(NamedTuple):
    """A parsed game plus optional per-player strategy spaces."""

    game: ClassicalGame
    spaces: tuple[StrategySpace, ...] | None = None


def parse_game_file(text: str) -> GameFile:
    """The `GameFile` of a game file's text, read in one pass over its
    lines. Each payoff line goes by its row-major profile offset into
    one dict, and the payoff tensor is filled from it once at the end.
    Raises GameFileError, with the line number where there is one."""
    n = None
    labels: dict[int, tuple[str, ...]] = {}
    spaces: dict[int, StrategySpace] = {}
    cells: dict[int, list[float]] = {}
    # player i's labels -> their part of a profile's offset; set at the
    # first payoff line, after which no strategies line can be accepted
    offsets = None

    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        m = _LINE_RE.fullmatch(line)
        kind = m and m.lastgroup
        if kind == "values":
            if offsets is None:
                if n is None or len(labels) != n:
                    raise GameFileError("payoff before players/strategies are declared", lineno)
                offsets, stride = [], math.prod(len(labs) for labs in labels.values())
                for i in range(n):
                    stride //= len(labels[i + 1])
                    offsets.append({lab: k * stride for k, lab in enumerate(labels[i + 1])})
            profile = tuple(map(str.strip, m["profile"].split(",")))
            if len(profile) != n:
                raise GameFileError(f"profile needs {n} labels", lineno)
            try:
                flat = sum(map(operator.getitem, offsets, profile))
            except KeyError:
                i = next(i for i, lab in enumerate(profile) if lab not in offsets[i])
                raise GameFileError(
                    f"unknown strategy {profile[i]!r} for player {i + 1}", lineno
                ) from None
            if flat in cells:
                raise GameFileError(f"duplicate payoff line for {profile}", lineno)
            try:
                values = list(map(float, m["values"].split()))
            except ValueError:
                raise GameFileError("payoffs must be numbers", lineno)
            if not all(map(math.isfinite, values)):
                raise GameFileError("payoffs must be finite numbers", lineno)
            if len(values) != n:
                raise GameFileError(f"need {n} payoff values", lineno)
            cells[flat] = values
        elif kind == "players":
            if n is not None:
                raise GameFileError("duplicate players line", lineno)
            n = int(m["players"])
            if n < 1:
                raise GameFileError("need at least one player", lineno)
        elif kind == "labels":
            idx = int(m["player"])
            if n is None or not 1 <= idx <= n:
                raise GameFileError(f"bad player index {idx}", lineno)
            if idx in labels:
                raise GameFileError(f"duplicate strategies line for player {idx}", lineno)
            # a payoff line could not name a label holding either
            if bad := re.search(r"[,)]", m["labels"]):
                raise GameFileError(f"strategy labels cannot contain {bad[0]!r}", lineno)
            toks = tuple(m["labels"].split())
            if len(toks) < 2 or len(set(toks)) != len(toks):
                raise GameFileError("need at least two distinct strategy labels", lineno)
            labels[idx] = toks
        elif kind == "space":
            idx = int(m["space_player"])
            if n is None or not 1 <= idx <= n:
                raise GameFileError(f"bad player index {idx}", lineno)
            if idx in spaces:
                raise GameFileError(f"duplicate space line for player {idx}", lineno)
            try:
                spaces[idx] = parse_space(m["space"])
            except ValueError as exc:
                raise GameFileError(str(exc), lineno)
        else:
            raise GameFileError(f"unrecognized line {raw.strip()!r}", lineno)

    if n is None:
        raise GameFileError("missing players line")
    if len(labels) != n:
        missing = [str(i) for i in range(1, n + 1) if i not in labels]
        raise GameFileError(f"missing strategies for player(s) {', '.join(missing)}")

    dims = tuple(len(labels[i + 1]) for i in range(n))
    total = math.prod(dims)
    if len(cells) != total:
        raise GameFileError(f"payoff table incomplete: {len(cells)} of {total} profiles given")
    # the cells in row-major profile order
    rows = chain.from_iterable(map(cells.__getitem__, range(total)))
    tensor = np.fromiter(rows, float, total * n).reshape(dims + (n,))

    game = ClassicalGame(tuple(labels[i + 1] for i in range(n)), tensor)
    if not spaces:
        return GameFile(game)
    return GameFile(game, tuple(spaces.get(i + 1, StrategySpace.FULL_SU2) for i in range(n)))


def load_game_file(path) -> GameFile:
    return parse_game_file(Path(path).read_text(encoding="utf-8"))
