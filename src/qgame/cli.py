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
from collections.abc import Iterable, Iterator

import numpy as np

from ._value import Record
from .ewl import BLOCK_BYTES, EwlGame, StrategySpace, checked_spaces, game_bytes, parse_space
from .games import (
    GameMapping,
    find_strong_isomorphisms,
    strategic_equivalence,
)
from .gamefile import GameFileError, load_game_file
from .lift import LIFT_TOL, lift, operator_identity_suite, verify_lifts
from .linalg import MAX_QUBITS, TWO_PI, SU2Params
from .search import ParamGrid, grid_equilibria, grid_payoff_tables

EXIT_OK = 0
EXIT_NEGATIVE = 1
EXIT_INPUT = 2
EXIT_IO = 3

LINES_PER_WRITE = 1024


def _distinct(values) -> tuple[np.ndarray, np.ndarray]:
    """(distinct values, inverse index of `values`' shape) of the float64
    `values`, distinct by bit pattern, so -0.0 and 0.0 stay apart."""
    values = np.ascontiguousarray(values, dtype=np.float64)
    bits, where = np.unique(values.view(np.int64), return_inverse=True)
    return bits.view(np.float64), where.reshape(values.shape)


def _compact(values, where) -> tuple[np.ndarray, np.ndarray]:
    """(the entries of `values` that `where` indexes, in order, and
    `where` re-indexed into them), by counting instead of sorting."""
    used = np.bincount(where, minlength=len(values)) > 0
    return values[used], (np.cumsum(used) - 1)[where]


def _table(fmts, distinct) -> Iterator[str]:
    """Text rows over deduplicated fields, `LINES_PER_WRITE` lines per
    block. Field j is a (distinct values, where) pair of `distinct`,
    formatted with `fmts[j]` (one value, or one row of a 2-d array, per
    `%`). Each format carries the text that follows its value, and the
    first one also the row's lead text, so row r is
    `label_0[where_0[r]] + .. + label_m-1[where_m-1[r]]`. Fields that
    share their values array and their format share one label array,
    formatted once. Each block is built in one (rows, m) object array
    and joined once."""
    labels, columns = {}, []
    for fmt, (values, where) in zip(fmts, distinct):
        key = (id(values), fmt)
        if key not in labels:
            # one `%` over a NUL-joined template formats a whole field; no
            # format holds a NUL and no float prints one
            text = "\0".join([fmt] * len(values)) % tuple(values.ravel().tolist())
            labels[key] = np.array(text.split("\0"), dtype=object)
        columns.append((labels[key], where))
    size = LINES_PER_WRITE
    k = len(distinct[0][1])
    table = np.empty((min(size, k), len(columns)), dtype=object)
    for start in range(0, k, size):
        block = table[: k - start]
        for j, (label, where) in enumerate(columns):
            block[:, j] = label[where[start : start + size]]
        yield "".join(block.ravel().tolist())


class RunReport(Record):
    """Deterministic, printable record of one command invocation."""

    __slots__ = ("command", "seed", "tolerances", "lines", "rows", "verdict")
    command: str
    seed: int | None
    tolerances: dict
    lines: list[str]
    rows: Iterable[str]
    verdict: str

    def __init__(
        self,
        command: str,
        seed: int | None = None,
        tolerances: dict | None = None,
        lines: list[str] | None = None,
        rows: Iterable[str] = (),
        verdict: str = "",
    ):
        self.command = command
        self.seed = seed
        self.tolerances = {} if tolerances is None else tolerances
        self.lines = [] if lines is None else lines
        self.rows = rows
        self.verdict = verdict

    def write(self, out) -> None:
        """Write the `#` lines (command, seed, tolerances) and `lines` in
        one write, then the text blocks of `rows` (from `_table`: a long
        table is never held whole as text, and an unbuffered stream is not
        written line by line), then the verdict to `out`, one per line."""
        head = [f"# command: {self.command}"]
        if self.seed is not None:
            head.append(f"# seed: {self.seed}")
        if self.tolerances:
            tols = " ".join(f"{k}={v:g}" for k, v in self.tolerances.items())
            head.append(f"# tolerances: {tols}")
        out.write("\n".join(head + self.lines) + "\n")
        for text in self.rows:
            out.write(text)
        if self.verdict:
            out.write(f"verdict: {self.verdict}\n")


def _default_seed(seed) -> int:
    if seed is None:
        text = os.environ.get("QGAME_SEED", "0")
        try:
            seed = int(text)
        except ValueError:
            raise ValueError(f"QGAME_SEED must be a non-negative integer, got {text!r}")
    if seed < 0:
        raise ValueError(f"seed must be a non-negative integer, got {seed}")
    return seed


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
    # the games are built once a mapping is found; a game of more than
    # MAX_QUBITS players is refused before its payoff core is built
    n = ga.n_players
    _memory_left(
        _need(SAMPLE_BYTES * n * args.samples, 2 * game_bytes(min(n, MAX_QUBITS))),
        f"the two games and {args.samples:,} samples of angles and payoffs",
    )
    isos = find_strong_isomorphisms(ga, gb)
    if not isos:
        report.verdict = "no strong isomorphism to lift"
        report.write(sys.stdout)
        return EXIT_NEGATIVE
    qa = EwlGame(ga, fa.spaces)
    qb = EwlGame(gb, fb.spaces)
    all_ok = True
    reports = verify_lifts([lift(f, ga) for f in isos], qa, qb, samples=args.samples, seed=seed)
    for k, (f, res) in enumerate(zip(isos, reports), start=1):
        status = "pass" if res.passed else "FAIL"
        if res.space_escapes:
            pos = ", ".join(str(k + 1) for k in res.space_escapes)
            status = f"space-escape (space-escape at position {pos})"
        report.lines.append(
            f"iso {k}: {_describe_mapping(f, ga, gb)} | "
            f"max deviation {res.max_deviation:.3e} over {res.samples} samples -> {status}"
        )
        all_ok &= res.passed
    report.verdict = "all lifted mappings verified" if all_ok else "verification failed"
    report.write(sys.stdout)
    return EXIT_OK if all_ok else EXIT_NEGATIVE


def _fields(spec: str) -> list[str]:
    """The stripped fields of a comma-separated list, none of them empty."""
    fields = [f.strip() for f in spec.split(",")]
    if not all(fields):
        raise ValueError(f"empty field in {spec!r}")
    return fields


def _numbers(spec: str, kind, counts, message: str) -> list:
    """The fields of a comma-separated list converted by `kind`; `message`
    is the error for a field that is not a number or a count of fields
    not in `counts`."""
    fields = _fields(spec)
    try:
        values = [kind(f) for f in fields]
    except ValueError:
        values = []
    if len(values) not in counts:
        raise ValueError(message)
    return values


def _parse_spaces(spec: str, players: int) -> tuple[StrategySpace, ...]:
    names = _fields(spec)
    if len(names) == 1:
        names = names * players
    if len(names) != players:
        raise ValueError(f"need one space per player, got {len(names)} for {players}")
    return tuple(parse_space(s) for s in names)


PROC_SELF_CGROUP = "/proc/self/cgroup"
CGROUP_ROOT = "/sys/fs/cgroup"


def _physical_memory() -> int:
    return os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")


@functools.cache
def _cgroup_memory_limit() -> int | None:
    """Bytes of this process's cgroup memory limit: the lowest number held
    by cgroup v2 `memory.max` in its cgroup (the `0::` line of
    /proc/self/cgroup) or any ancestor up to the root, or by cgroup v1
    `memory.limit_in_bytes` in its memory cgroup (the `N:memory:` line,
    under `memory/`) or any ancestor. None when there is no such line, or
    every file is missing or holds `max` or at least physical memory (no
    limit). Read on the first call and kept for the process."""
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
                with open(os.path.join(root, *parts[:depth], name), encoding="utf-8") as fh:
                    text = fh.read().strip()
            except OSError:
                continue
            if text.isdigit():
                limits.append(int(text))
    # cgroup v1 writes "no limit" as a page-rounded 2^63 - 1
    limit = min(limits, default=None)
    return limit if limit is not None and limit < _physical_memory() else None


# The preflight counts what a command holds as an affine function of its
# input. The fixed part is FIXED_BYTES (first-call allocations, the game
# file, the report's lines), the game or games and WORK_BLOCKS work
# blocks: the payoff tables, samples or draws formed at once, with their
# temporaries. A work block is BLOCK_BYTES, or one player-0 strategy's
# payoff tables in an `ne` search when they are larger. Each array whose
# size the input sets adds a stated number of bytes per unit.
FIXED_BYTES = 64 << 10
WORK_BLOCKS = 4
STRATEGY_BYTES = 512  # a grid strategy: its angles, features and labels
REPLY_BYTES = 8  # an entry of a player's best replies
ROW_BYTES = 192  # an `ne` row's payoff or improvement: its arrays and label
SAMPLE_BYTES = 32  # a player of a drawn `lift-verify` sample: its angles
DRAW_BYTES = 2 << 10  # an `identities` draw: its inputs and unitaries
AXIS_BYTES = 16  # a point of a `surface` axis


def _need(units: int, games: int = 0, work: int = BLOCK_BYTES) -> int:
    """Bytes the preflight counts: the fixed part, with `games` bytes of
    games and work blocks of `work` bytes or BLOCK_BYTES, whichever is
    larger, plus `units` bytes of input-sized arrays."""
    return FIXED_BYTES + games + WORK_BLOCKS * max(work, BLOCK_BYTES) + units


def _ne_need(dims) -> int:
    """What `ne` counts over `dims[i]` strategies for player i: the game,
    work blocks of at least one player-0 strategy's tables, each strategy
    and each entry of the players' best replies."""
    total = math.prod(dims)
    units = STRATEGY_BYTES * sum(dims) + REPLY_BYTES * sum(total // m for m in dims)
    return _need(units, game_bytes(len(dims)), 8 * len(dims) * (total // dims[0]))


def _memory_left(need: int, what: str) -> int:
    """Bytes left of the memory budget after `need` bytes for `what`, before
    anything is allocated. The budget is half of physical memory or of the
    cgroup memory limit, whichever is lower; an input that needs more is
    refused."""
    memory = _physical_memory()
    limit = _cgroup_memory_limit()
    if limit is not None:
        memory = min(memory, limit)
    budget = memory // 2
    if need > budget:
        raise ValueError(
            f"input needs about {need / 2**30:.3g} GiB for {what}, "
            f"more than half of physical memory or the cgroup limit, whichever "
            f"is lower ({budget / 2**30:.3g} GiB)"
        )
    return budget - need


def cmd_ne(args) -> int:
    # nan and negative eps would find nothing, inf every grid profile
    if not (math.isfinite(args.eps) and args.eps >= 0):
        raise ValueError(f"eps must be a finite number >= 0, got {args.eps!r}")
    report = RunReport(command=f"ne {args.game}", tolerances={"eps": args.eps})
    gf = _load(args.game)
    g = gf.game
    n = g.n_players
    spaces = gf.spaces
    if args.spaces:
        spaces = _parse_spaces(args.spaces, n)
    spaces = checked_spaces(g, spaces)
    message = f"grid must be t,a,b step counts, got {args.grid!r}"
    grid = ParamGrid(*_numbers(args.grid, int, (3,), message))
    dims = [grid.size(s) for s in spaces]
    # the game is built only once the check passes; what is left sets the
    # rows the search may hold
    left = _memory_left(
        _ne_need(dims),
        "the game, the strategies, their features and labels, one block of payoff "
        "tables and mask, and the best replies",
    )
    game = EwlGame(g, spaces)
    found = grid_equilibria(game, grid, eps=args.eps, max_rows=left // (ROW_BYTES * (n + 1)))
    count = len(found.eps)
    # each field's distinct values, found once for both outputs: the
    # strategies by grid index, the improvements by bit pattern, and the
    # payoffs of all n columns together, so each column's `where` indexes
    # the same values
    strategies = [_compact(angles, col) for angles, col in zip(found.angles, found.index.T)]
    values, where = _distinct(found.payoffs.T)
    improvement = _distinct(found.eps)
    space_names = ",".join(s.value for s in game.spaces)
    report.lines = [f"spaces: {space_names}; grid: {args.grid}; profiles found: {count}"]
    fmts = ["(%.6g,%.6g,%.6g) "] * (n - 1) + ["(%.6g,%.6g,%.6g) payoffs ["]
    fmts += ["%.10g "] * (n - 1) + ["%.10g] improvement ", "%.3e\n"]
    fmts[0] = "  " + fmts[0]
    # the last payoff's format differs from the others', so each column's
    # labels cover only its own values; formatted while written, these
    # columns and labels are gone before the CSV's
    report.rows = _table(fmts, [*strategies, *(_compact(values, w) for w in where), improvement])
    report.verdict = f"{count} equilibria" if count else "no equilibria"
    report.write(sys.stdout)
    if args.csv:
        cols = [f"theta{i},alpha{i},beta{i}" for i in range(1, n + 1)]
        cols += [f"payoff{i}" for i in range(1, n + 1)] + ["improvement"]
        fmts = ["%.15g,%.15g,%.15g,"] * n + ["%.15g,"] * n + ["%.15g\n"]
        # one label array for all n payoff columns
        rows = _table(fmts, [*strategies, *((values, w) for w in where), improvement])
        if _write_csv(args.csv, ",".join(cols) + "\n", rows) == EXIT_IO:
            return EXIT_IO
    return EXIT_OK if count else EXIT_NEGATIVE


def _write_csv(path, head, blocks) -> int:
    """Write `head`, then the text `blocks`, to the file `path`: EXIT_OK,
    or EXIT_IO with a message on stderr when it cannot be written."""
    try:
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(head)
            for text in blocks:
                fh.write(text)
    except OSError as exc:
        print(f"cannot write {path}: {exc}", file=sys.stderr)
        return EXIT_IO
    return EXIT_OK


def cmd_surface(args) -> int:
    gf = _load(args.game)
    g = gf.game
    if g.n_players != 2:
        raise ValueError("surface needs a 2-player game")
    mover = args.player - 1
    if mover not in (0, 1):
        raise ValueError("player must be 1 or 2")
    message = f"opponent parameters must be theta,alpha[,beta], got {args.opponent!r}"
    opponent = SU2Params(*_numbers(args.opponent, float, (2, 3), message))
    t_steps, a_steps = _numbers(
        args.grid, int, (2,), f"surface grid must be theta_steps,alpha_steps, got {args.grid!r}"
    )
    if t_steps < 1 or a_steps < 1:
        raise ValueError("grid steps must be positive")
    # only the game and the axes are held whole; the rest is one block
    _memory_left(
        _need(AXIS_BYTES * (t_steps + a_steps), game_bytes(2)), "the game and the theta and alpha axes"
    )
    game = EwlGame(g)
    # unlike ParamGrid, the alpha axis keeps its 2pi endpoint (printed as 0)
    thetas = np.linspace(0.0, math.pi, t_steps)
    alphas = np.linspace(0.0, TWO_PI, a_steps) % TWO_PI
    theirs = np.array([opponent.as_tuple()])

    def blocks():
        # point k is (thetas[k // a], alphas[k % a]), theta outermost
        points, size = t_steps * a_steps, LINES_PER_WRITE
        for start in range(0, points, size):
            k = np.arange(start, min(start + size, points))
            mine = np.zeros((len(k), 3))
            mine[:, 0] = thetas[k // a_steps]
            mine[:, 1] = alphas[k % a_steps]
            lists = [mine, theirs] if mover == 0 else [theirs, mine]
            u1, u2 = (t.reshape(-1) for t in grid_payoff_tables(game, lists))
            distinct = [_distinct(v) for v in (mine[:, 0], mine[:, 1], u1, u2)]
            yield from _table(["%.15g,"] * 3 + ["%.15g\n"], distinct)

    head = "theta,alpha,payoff1,payoff2\n"
    if args.csv:
        return _write_csv(args.csv, head, blocks())
    sys.stdout.write(head)
    for text in blocks():
        sys.stdout.write(text)
    return EXIT_OK


def cmd_identities(args) -> int:
    seed = _default_seed(args.seed)
    _memory_left(_need(DRAW_BYTES * args.samples), f"{args.samples:,} draws of the identity checks")
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
