"""Command-line frontend.

Subcommands: iso, lift-verify, ne, surface, identities. Exit codes are
stable: 0 success/affirmative, 1 negative finding, 2 input error,
3 output I/O error.
"""

from __future__ import annotations

import argparse
import functools
import math
import os
import sys
from collections.abc import Iterator
from dataclasses import dataclass, field

import numpy as np

from .ewl import EwlGame, StrategySpace, parse_space
from .games import (
    GameMapping,
    find_strong_isomorphisms,
    strategic_equivalence,
)
from .gamefile import GameFileError, load_game_file
from .lift import LIFT_TOL, lift, operator_identity_suite, verify_lift
from .linalg import TWO_PI, SU2Params
from .search import (
    ParamGrid,
    grid_equilibria,
    grid_payoff_tables,
    grid_row_bytes,
    grid_search_bytes,
    grid_table_bytes,
)

EXIT_OK = 0
EXIT_NEGATIVE = 1
EXIT_INPUT = 2
EXIT_IO = 3

LINES_PER_WRITE = 1024


@dataclass(frozen=True)
class Rows:
    """k text rows over deduplicated fields: row r is
    `seps[0] + labels_0[where_0[r]] + seps[1] + .. + labels_m-1[where_m-1[r]] + seps[m]`
    for the (labels, where) pairs of `columns`; `seps[m]` ends the line."""

    seps: tuple[str, ...] = ("\n",)
    columns: tuple[tuple[np.ndarray, np.ndarray], ...] = ()

    def blocks(self, lead=()) -> Iterator[str]:
        """The `lead` lines, then the rows, as text of `LINES_PER_WRITE`
        lines per block; the lead lines count toward the first block.
        Each block of rows is built in one (rows, 2m+1) object array,
        separators in the even columns and labels in the odd ones, and
        joined once."""
        size = LINES_PER_WRITE
        lines = [line + "\n" for line in lead]
        k = len(self.columns[0][1]) if self.columns else 0
        table = np.empty((min(size, k), 2 * len(self.columns) + 1), dtype=object)
        table[:, 0::2] = np.array(self.seps, dtype=object)
        start = 0
        while lines or start < k:
            head, lines = lines[:size], lines[size:]
            stop = min(k, start + size - len(head))
            block = table[: stop - start]
            for j, (labels, where) in enumerate(self.columns):
                block[:, 2 * j + 1] = labels[where[start:stop]]
            yield "".join(head) + "".join(block.ravel().tolist())
            start = stop


def _distinct(values) -> tuple[np.ndarray, np.ndarray]:
    """(distinct values, inverse index) of the float64 `values`, distinct
    by bit pattern, so -0.0 and 0.0 stay apart."""
    values = np.ascontiguousarray(values, dtype=np.float64)
    bits, where = np.unique(values.view(np.int64), return_inverse=True)
    return bits.view(np.float64), where


def _rows(seps, fmts, distinct) -> Rows:
    """`Rows` over the (distinct values, where) pairs of `distinct`,
    formatting the distinct values of field j with `fmts[j]`: one value,
    or one row of a 2-d array, per `%`."""
    columns = []
    for fmt, (values, where) in zip(fmts, distinct):
        # one `%` over a newline-joined template formats a whole field;
        # no float format prints a newline
        text = "\n".join([fmt] * len(values)) % tuple(values.ravel().tolist())
        labels = np.array(text.split("\n") if len(values) else [], dtype=object)
        columns.append((labels, where))
    return Rows(tuple(seps), tuple(columns))


@dataclass
class RunReport:
    """Deterministic, printable record of one command invocation."""

    command: str
    seed: int | None = None
    tolerances: dict = field(default_factory=dict)
    lines: list[str] = field(default_factory=list)
    rows: Rows = field(default_factory=Rows)
    verdict: str = ""

    def write(self, out) -> None:
        """Write the `#` lines (command, seed, tolerances), then `lines`
        and `rows`, then the verdict to `out`, one per line. The body goes
        out `LINES_PER_WRITE` lines per write (`Rows.blocks`), so a long
        table is never held whole as text and an unbuffered stream is not
        written line by line."""
        head = [f"# command: {self.command}"]
        if self.seed is not None:
            head.append(f"# seed: {self.seed}")
        if self.tolerances:
            tols = " ".join(f"{k}={v:g}" for k, v in self.tolerances.items())
            head.append(f"# tolerances: {tols}")
        out.write("\n".join(head) + "\n")
        for text in self.rows.blocks(self.lines):
            out.write(text)
        if self.verdict:
            out.write(f"verdict: {self.verdict}\n")


def _default_seed(value) -> int:
    if value is not None:
        return int(value)
    return int(os.environ.get("QGAME_SEED", "0"))


def _load(path):
    try:
        return load_game_file(path)
    except FileNotFoundError:
        raise GameFileError(f"no such file: {path}")
    except OSError as exc:
        raise GameFileError(f"cannot read {path}: {exc}")


def _describe_mapping(f: GameMapping, ga, gb) -> str:
    players = ", ".join(f"{i + 1}->{k + 1}" for i, k in enumerate(f.eta))
    parts = [f"players ({players})"]
    for i, phi in enumerate(f.phi):
        pairs = ", ".join(
            f"{ga.labels[i][k]}->{gb.labels[f.eta[i]][phi[k]]}" for k in range(len(phi))
        )
        parts.append(f"{i + 1}: {pairs}")
    return "; ".join(parts)


def cmd_iso(args) -> int:
    report = RunReport(command=f"iso {args.game_a} {args.game_b}")
    ga, gb = _load(args.game_a).game, _load(args.game_b).game
    isos = find_strong_isomorphisms(ga, gb)
    for k, f in enumerate(isos, start=1):
        report.lines.append(f"iso {k}: {_describe_mapping(f, ga, gb)}")
    if not isos:
        report.lines.append("no strong isomorphism")
    if ga.labels == gb.labels:
        fit = strategic_equivalence(ga, gb)
        if fit is None:
            report.lines.append("strategic equivalence: none")
        else:
            pairs = "; ".join(
                f"player {i + 1}: alpha={a:g} beta={b:g}" for i, (a, b) in enumerate(fit)
            )
            report.lines.append(f"strategic equivalence: {pairs}")
    report.verdict = "isomorphic" if isos else "not isomorphic"
    report.write(sys.stdout)
    return EXIT_OK if isos else EXIT_NEGATIVE


def cmd_lift_verify(args) -> int:
    if args.samples < 1:
        raise ValueError(f"need at least one sample, got {args.samples}")
    seed = _default_seed(args.seed)
    report = RunReport(
        command=f"lift-verify {args.game_a} {args.game_b}",
        seed=seed,
        tolerances={"payoff": LIFT_TOL},
    )
    fa, fb = _load(args.game_a), _load(args.game_b)
    ga, gb = fa.game, fb.game
    isos = find_strong_isomorphisms(ga, gb)
    if not isos:
        report.verdict = "no strong isomorphism to lift"
        report.write(sys.stdout)
        return EXIT_NEGATIVE
    qa = EwlGame(ga, fa.spaces)
    qb = EwlGame(gb, fb.spaces)
    all_ok = True
    for k, f in enumerate(isos, start=1):
        lm = lift(f, ga)
        res = verify_lift(lm, qa, qb, samples=args.samples, seed=seed)
        status = "pass" if res.passed else "FAIL"
        extra = ""
        if res.space_escapes:
            pos = ", ".join(str(k + 1) for k in res.space_escapes)
            extra = f" (space-escape at position {pos})"
            status = "space-escape"
        report.lines.append(
            f"iso {k}: {_describe_mapping(f, ga, gb)} | "
            f"max deviation {res.max_deviation:.3e} over {res.samples} samples "
            f"-> {status}{extra}"
        )
        all_ok &= res.passed
    report.verdict = "all lifted mappings verified" if all_ok else "verification failed"
    report.write(sys.stdout)
    return EXIT_OK if all_ok else EXIT_NEGATIVE


def _parse_grid(spec: str, players: int) -> ParamGrid:
    parts = [p for p in spec.split(",") if p.strip()]
    if len(parts) != 3:
        raise ValueError(f"grid must be t,a,b step counts, got {spec!r}")
    t, a, b = (int(p) for p in parts)
    return ParamGrid.uniform(players, t, a, b)


def _parse_spaces(spec: str, players: int) -> tuple[StrategySpace, ...]:
    names = [s for s in spec.split(",") if s.strip()]
    if len(names) == 1:
        names = names * players
    if len(names) != players:
        raise ValueError(f"need one space per player, got {len(names)} for {players}")
    return tuple(parse_space(s) for s in names)


PROC_SELF_CGROUP = "/proc/self/cgroup"
CGROUP_ROOT = "/sys/fs/cgroup"


def _physical_memory() -> int:
    return os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")


def _cgroup_memory_limit() -> int | None:
    """Bytes of this process's cgroup memory limit: the lowest number held
    by cgroup v2 `memory.max` in its cgroup (the `0::` line of
    /proc/self/cgroup) or any ancestor up to the root, or by cgroup v1
    `memory.limit_in_bytes` in its memory cgroup (the `N:memory:` line,
    under `memory/`) or any ancestor. None when there is no such line, or
    every file is missing or holds `max` or at least physical memory (no
    limit)."""
    try:
        with open(PROC_SELF_CGROUP, encoding="utf-8") as fh:
            lines = fh.read().splitlines()
    except OSError:
        return None
    limits = []
    for line in lines:
        fields = line.split(":", 2)
        if len(fields) != 3:
            continue
        number, controllers, cgroup = fields
        if number == "0" and not controllers:
            root, name = CGROUP_ROOT, "memory.max"
        elif "memory" in controllers.split(","):
            root, name = os.path.join(CGROUP_ROOT, "memory"), "memory.limit_in_bytes"
        else:
            continue
        parts = [p for p in cgroup.split("/") if p]
        for depth in range(len(parts) + 1):
            try:
                with open(os.path.join(root, *parts[:depth], name), encoding="ascii") as fh:
                    text = fh.read().strip()
            except OSError:
                continue
            if text.isdigit():
                limits.append(int(text))
    # cgroup v1 writes "no limit" as a page-rounded 2^63 - 1
    limit = min(limits, default=None)
    return limit if limit is not None and limit < _physical_memory() else None


def _memory_left(need: int, what: str) -> int:
    """Bytes left of the memory budget after `need` bytes for `what`, before
    anything is allocated. The budget is half of physical memory or of the
    cgroup memory limit, whichever is lower; a grid that needs more is
    refused."""
    memory = _physical_memory()
    limit = _cgroup_memory_limit()
    if limit is not None:
        memory = min(memory, limit)
    budget = memory // 2
    if need > budget:
        raise ValueError(
            f"grid needs about {need / 2**30:.3g} GiB for {what}, "
            f"more than half of physical memory or the cgroup limit, whichever "
            f"is lower ({budget / 2**30:.3g} GiB)"
        )
    return budget - need


def cmd_ne(args) -> int:
    # nan and negative eps would find nothing, inf every grid profile
    if not (math.isfinite(args.eps) and args.eps >= 0):
        raise ValueError(f"eps must be a finite number >= 0, got {args.eps!r}")
    report = RunReport(
        command=f"ne {args.game}", tolerances={"eps": args.eps}
    )
    gf = _load(args.game)
    g = gf.game
    spaces = gf.spaces
    if args.spaces:
        spaces = _parse_spaces(args.spaces, g.n_players)
    game = EwlGame(g, spaces)
    grid = _parse_grid(args.grid, g.n_players)
    dims = [grid.size(i, s) for i, s in enumerate(game.spaces)]
    left = _memory_left(
        grid_search_bytes(dims), "one block of payoff tables and mask, and the best replies"
    )
    found = grid_equilibria(game, grid, eps=args.eps, max_rows=left // grid_row_bytes(len(dims)))
    count = len(found.eps)
    n = g.n_players
    # each field's distinct values, found once for both outputs: the
    # strategies by grid index, payoffs and improvements by bit pattern
    distinct = []
    for angles, col in zip(found.angles, found.index.T):
        used, where = np.unique(col, return_inverse=True)
        distinct.append((angles[used], where))
    distinct += [_distinct(v) for v in (*found.payoffs.T, found.eps)]
    space_names = ",".join(s.value for s in game.spaces)
    report.lines = [f"spaces: {space_names}; grid: {args.grid}; profiles found: {count}"]
    seps = ("  ",) + (" ",) * (n - 1) + (" payoffs [",) + (" ",) * (n - 1)
    fmts = ["(%.6g,%.6g,%.6g)"] * n + ["%.10g"] * n + ["%.3e"]
    report.rows = _rows(seps + ("] improvement ", "\n"), fmts, distinct)
    report.verdict = f"{count} equilibria" if count else "no equilibria"
    report.write(sys.stdout)
    if args.csv:
        cols = [f"theta{i},alpha{i},beta{i}" for i in range(1, n + 1)]
        cols += [f"payoff{i}" for i in range(1, n + 1)] + ["improvement"]
        fmts = ["%.15g,%.15g,%.15g"] * n + ["%.15g"] * (n + 1)
        rows = _rows(("",) + (",",) * (2 * n) + ("\n",), fmts, distinct)
        try:
            _write_text(args.csv, rows.blocks([",".join(cols)]))
        except OSError as exc:
            print(f"cannot write {args.csv}: {exc}", file=sys.stderr)
            return EXIT_IO
    return EXIT_OK if count else EXIT_NEGATIVE


def _write_text(path, blocks) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        for text in blocks:
            fh.write(text)


def _parse_params(spec: str) -> SU2Params:
    parts = [float(v) for v in spec.split(",") if v.strip()]
    if len(parts) == 2:
        parts.append(0.0)
    if len(parts) != 3:
        raise ValueError(f"opponent parameters must be theta,alpha[,beta], got {spec!r}")
    return SU2Params(*parts)


def cmd_surface(args) -> int:
    gf = _load(args.game)
    g = gf.game
    if g.n_players != 2:
        raise ValueError("surface needs a 2-player game")
    game = EwlGame(g)
    mover = args.player - 1
    if mover not in (0, 1):
        raise ValueError("player must be 1 or 2")
    opponent = _parse_params(args.opponent)
    parts = [int(v) for v in args.grid.split(",") if v.strip()]
    if len(parts) != 2:
        raise ValueError(f"surface grid must be theta_steps,alpha_steps, got {args.grid!r}")
    t_steps, a_steps = parts
    if t_steps < 1 or a_steps < 1:
        raise ValueError("grid steps must be positive")
    _memory_left(grid_table_bytes([t_steps * a_steps, 1]), "payoff tables and mask")
    # unlike ParamGrid, the alpha axis keeps its 2pi endpoint (printed as 0)
    thetas = np.linspace(0.0, math.pi, t_steps)
    alphas = np.linspace(0.0, TWO_PI, a_steps) % TWO_PI
    mine = np.stack(np.meshgrid(thetas, alphas, [0.0], indexing="ij"), axis=-1).reshape(-1, 3)
    lists = [mine, [opponent]] if mover == 0 else [[opponent], mine]
    u1, u2 = (t.reshape(-1) for t in grid_payoff_tables(game, lists))
    distinct = [_distinct(v) for v in (mine[:, 0], mine[:, 1], u1, u2)]
    rows = _rows(("", ",", ",", ",", "\n"), ["%.15g"] * 4, distinct)
    blocks = rows.blocks(["theta,alpha,payoff1,payoff2"])
    if args.csv:
        try:
            _write_text(args.csv, blocks)
        except OSError as exc:
            print(f"cannot write {args.csv}: {exc}", file=sys.stderr)
            return EXIT_IO
    else:
        for text in blocks:
            sys.stdout.write(text)
    return EXIT_OK


def cmd_identities(args) -> int:
    seed = _default_seed(args.seed)
    res = operator_identity_suite(draws=args.samples, seed=seed)
    report = RunReport(
        command="identities",
        seed=seed,
        tolerances={"entrywise": res.tolerance},
    )
    for c in res.checks:
        report.lines.append(
            f"{c.name}: max error {c.max_error:.3e} -> {'pass' if c.passed else 'FAIL'}"
        )
    report.verdict = "all identities hold" if res.passed else "identity check failed"
    report.write(sys.stdout)
    return EXIT_OK if res.passed else EXIT_NEGATIVE


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The CLI's parser, built on the first call and shared after it."""
    parser = argparse.ArgumentParser(
        prog="qgame",
        description="EWL quantum games: isomorphism search, lifted mappings, equilibria.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("iso", help="find all strong isomorphisms between two games")
    p.add_argument("game_a")
    p.add_argument("game_b")

    p = sub.add_parser(
        "lift-verify", help="lift every strong isomorphism and verify payoff equality"
    )
    p.add_argument("game_a")
    p.add_argument("game_b")
    p.add_argument("--samples", type=int, default=100)
    p.add_argument("--seed", type=int, default=None)

    p = sub.add_parser("ne", help="grid search for pure equilibria of the quantum game")
    p.add_argument("game")
    p.add_argument("--spaces", default=None, help="comma-separated per-player space names")
    p.add_argument("--grid", default="17,33,1", help="theta,alpha,beta step counts")
    p.add_argument("--eps", type=float, default=1e-9)
    p.add_argument("--csv", default=None)

    p = sub.add_parser("surface", help="payoff landscape CSV for one player's (theta, alpha)")
    p.add_argument("game")
    p.add_argument("--player", type=int, default=1)
    p.add_argument("--opponent", default="0,0", help="fixed opponent theta,alpha[,beta]")
    p.add_argument("--grid", default="17,33", help="theta,alpha step counts")
    p.add_argument("--csv", default=None)

    p = sub.add_parser("identities", help="run the operator identity checks")
    p.add_argument("--samples", type=int, default=200)
    p.add_argument("--seed", type=int, default=None)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    # the handler is looked up on every call, not stored in the cached
    # parser, so a replaced module attribute takes effect
    handler = globals()["cmd_" + args.command.replace("-", "_")]
    try:
        code = handler(args)
        # a buffered stdout fails here, not at interpreter exit
        sys.stdout.flush()
        return code
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except OSError as exc:
        # stdout failed; a closed pipe (`| head`) is the reader's choice and
        # needs no message. What is still buffered goes to devnull, so the
        # flush at interpreter exit cannot fail again.
        if not isinstance(exc, BrokenPipeError):
            print(f"error: cannot write output: {exc}", file=sys.stderr)
        try:
            fd = sys.stdout.fileno()
        except (AttributeError, ValueError):
            return EXIT_IO
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, fd)
        os.close(devnull)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
