"""Seeded inputs and fixed job lists of the three benchmark workloads.

Every game file a job reads is written into the run's work directory:
seeded games come from the generator below, and the bundled
`games/*.game` files are copied unchanged. The program under test only
ever sees those files and the argument lists built here.

The module has its own game-file reader and writer, so neither the
inputs nor the checker depend on `qgame.gamefile`.
"""

from __future__ import annotations

import itertools
import math
import shutil
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

BUNDLED = (
    "pd.game",
    "pd_swapped.game",
    "antidiag.game",
    "antidiag_swapped.game",
    "three_player.game",
    "three_player_image.game",
)

# (R, S, T, P) of games/pd_swapped.game, the column-swapped prisoner's
# dilemma that `two_param_payoff_closed_form` describes.
PD_SWAPPED_RSTP = (3.0, 0.0, 5.0, 1.0)

# Layers each workload is meant to load and to bypass (documentation for
# readers of the trace; README.md has the reasoning).
LAYERS = {
    "ne": {"loads": ["search.tables", "search.ne_self", "cli"], "bypasses": ["games", "lift"]},
    "iso-lift": {
        "loads": ["games.iso", "ewl.payoffs", "linalg", "lift"],
        "bypasses": ["search"],
    },
}
WORKLOADS = tuple(LAYERS)


@dataclass(frozen=True)
class Game:
    """Strategy labels per player and a payoff tensor of shape dims + (n,)."""

    labels: tuple[tuple[str, ...], ...]
    payoffs: np.ndarray

    @property
    def n(self) -> int:
        return len(self.labels)


@dataclass(frozen=True)
class Job:
    """One CLI invocation plus what the checker needs to judge its output.

    `argv` paths are relative to the work directory, which is the
    worker's current directory while jobs run.
    """

    id: str
    argv: tuple[str, ...]
    spec: dict = field(default_factory=dict)

    @property
    def command(self) -> str:
        return self.argv[0]


def read_game(path) -> Game:
    """Parse the line format of `games/*.game` (space lines are ignored)."""
    labels: dict[int, tuple[str, ...]] = {}
    cells: dict[tuple[str, ...], list[float]] = {}
    n = 0
    for raw in Path(path).read_text(encoding="utf-8").splitlines():
        line = raw.split("#", 1)[0].strip()
        if not line or line.startswith("space"):
            continue
        head, _, rest = line.partition(":")
        if head.strip() == "players":
            n = int(rest)
        elif head.startswith("strategies"):
            labels[int(head.split()[1])] = tuple(rest.split())
        elif head.startswith("payoff"):
            profile = head[head.index("(") + 1 : head.index(")")]
            cells[tuple(t.strip() for t in profile.split(","))] = [
                float(v) for v in rest.split()
            ]
    labs = tuple(labels[i + 1] for i in range(n))
    payoffs = np.empty(tuple(len(l) for l in labs) + (n,))
    for profile in itertools.product(*(range(len(l)) for l in labs)):
        payoffs[profile] = cells[tuple(labs[i][k] for i, k in enumerate(profile))]
    return Game(labs, payoffs)


def write_game(path, game: Game, comment: str = "") -> None:
    lines = [f"# {comment}"] if comment else []
    lines.append(f"players: {game.n}")
    for i, labs in enumerate(game.labels, start=1):
        lines.append(f"strategies {i}: {' '.join(labs)}")
    for profile in itertools.product(*(range(len(l)) for l in game.labels)):
        labs = ",".join(game.labels[i][k] for i, k in enumerate(profile))
        vals = " ".join(repr(float(v)) for v in game.payoffs[profile])
        lines.append(f"payoff ({labs}): {vals}")
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def random_game(rng: np.random.Generator, n: int, m: int) -> Game:
    """Generic game: payoffs uniform on [0, 10), so no two coincide."""
    labels = tuple(tuple(f"{chr(97 + i)}{k}" for k in range(m)) for i in range(n))
    return Game(labels, rng.uniform(0.0, 10.0, size=(m,) * n + (n,)))


def random_mapping(rng: np.random.Generator, shape) -> tuple[tuple, tuple]:
    """Player permutation eta and strategy bijections phi for a game whose
    players all have the same number of strategies."""
    n = len(shape)
    eta = tuple(int(k) for k in rng.permutation(n))
    phi = tuple(tuple(int(k) for k in rng.permutation(m)) for m in shape)
    return eta, phi


def image_game(game: Game, eta, phi) -> Game:
    """Push `game` through (eta, phi): u'_{eta(i)}(f(s)) = u_i(s)."""
    n = game.n
    labels = [None] * n
    for i in range(n):
        lab = [None] * len(phi[i])
        for k, target in enumerate(phi[i]):
            lab[target] = game.labels[i][k]
        labels[eta[i]] = tuple(lab)
    out = np.empty(tuple(len(l) for l in labels) + (n,))
    for s in itertools.product(*(range(len(l)) for l in game.labels)):
        t = [0] * n
        for i in range(n):
            t[eta[i]] = phi[i][s[i]]
        for i in range(n):
            out[tuple(t) + (eta[i],)] = game.payoffs[s + (i,)]
    return Game(tuple(labels), out)


def _grid(spec) -> str:
    return ",".join(str(v) for v in spec)


def _ne_job(job_id, game, space, grid, eps, n, csv=False, closed_form=None) -> Job:
    argv = ["ne", game, "--spaces", space, "--grid", _grid(grid), "--eps", repr(eps)]
    csv_name = f"{job_id}.csv" if csv else None
    if csv_name:
        argv += ["--csv", csv_name]
    spec = {
        "game": game,
        "spaces": [space] * n,
        "grid": list(grid),
        "eps": eps,
        "csv": csv_name,
        "closed_form": list(closed_form) if closed_form else None,
    }
    return Job(job_id, tuple(argv), spec)


def _ne_workload(work: Path, rng, smoke: bool) -> list[Job]:
    write_game(work / "rand3.game", random_game(rng, 3, 2), "seeded 3-player game")
    write_game(work / "rand4.game", random_game(rng, 4, 2), "seeded 4-player game")
    # The bundled 3-player game with its players permuted: the EWL game is
    # symmetric under player permutation, so every seed gets the same
    # number of rows in a different order.
    eta = tuple(int(k) for k in rng.permutation(3))
    write_game(
        work / "perm3.game",
        image_game(read_game(work / "three_player.game"), eta, ((0, 1),) * 3),
        f"games/three_player.game with players moved by {eta}",
    )
    grids = {
        "T1": (21, 41, 1), "T2": (21, 41, 1), "T3": (7, 17, 7), "T4": (9, 9, 1),
        "T5": (73, 1, 1), "T6": (3, 7, 1), "T7": (19, 1, 1),
        "E1": (17, 33, 1), "E2": (17, 33, 1), "E3": (17, 33, 1), "E4": (33, 1, 1),
    }
    if smoke:
        grids = {k: (3, 5, 3 if k == "T3" else 1) if k[0] == "T" else (5, 9, 1) for k in grids}
    tight = 1e-9
    cf = PD_SWAPPED_RSTP
    return [
        # tables: tight eps on large grids, few equilibria
        _ne_job("T1", "pd.game", "alpha", grids["T1"], tight, 2),
        _ne_job("T2", "pd_swapped.game", "alpha", grids["T2"], tight, 2, closed_form=cf),
        _ne_job("T3", "pd.game", "full", grids["T3"], tight, 2),
        _ne_job("T4", "rand3.game", "alpha", grids["T4"], tight, 3),
        _ne_job("T5", "rand3.game", "one", grids["T5"], tight, 3),
        _ne_job("T6", "rand4.game", "alpha", grids["T6"], tight, 4),
        _ne_job("T7", "rand4.game", "one", grids["T7"], tight, 4),
        # export: eps near the payoff gaps on small grids, thousands of rows
        _ne_job("E1", "pd.game", "alpha", grids["E1"], 1.0, 2, csv=True),
        _ne_job("E2", "antidiag.game", "alpha", grids["E2"], 0.5, 2, csv=True),
        _ne_job("E3", "pd_swapped.game", "alpha", grids["E3"], 1.5, 2, csv=True, closed_form=cf),
        _ne_job("E4", "perm3.game", "one", grids["E4"], 2.5, 3, csv=True),
    ]


def _iso_lift(work: Path, rng, seed: int, smoke: bool) -> list[Job]:
    m4 = 3 if not smoke else 2
    a43 = random_game(rng, 4, m4)
    eta, phi = random_mapping(rng, a43.payoffs.shape[:-1])
    b43 = image_game(a43, eta, phi)
    cell = tuple(int(rng.integers(0, m4)) for _ in range(4)) + (int(rng.integers(0, 4)),)
    c43 = Game(b43.labels, b43.payoffs.copy())
    c43.payoffs[cell] += 0.5
    write_game(work / "iso_a.game", a43, "seeded 4-player game")
    write_game(work / "iso_b.game", b43, f"image of iso_a.game under eta={eta} phi={phi}")
    write_game(work / "iso_c.game", c43, f"iso_b.game with payoff {cell} raised by 0.5")

    e33 = random_game(rng, 3, 3 if not smoke else 2)
    scale = rng.choice([0.5, 1.5, 2.0, 2.5], size=3)
    shift = rng.integers(-3, 4, size=3)
    write_game(work / "equiv_a.game", e33, "seeded 3-player game")
    write_game(
        work / "equiv_b.game",
        Game(e33.labels, e33.payoffs * scale + shift),
        "positive affine transform of equiv_a.game, same labels",
    )

    a42 = random_game(rng, 4, 2)
    eta2, phi2 = random_mapping(rng, (2, 2, 2, 2))
    write_game(work / "lift_a.game", a42, "seeded 4-player binary game")
    write_game(work / "lift_b.game", image_game(a42, eta2, phi2), "image of lift_a.game")

    samples = "200" if not smoke else "20"
    opponent = f"{rng.uniform(0.0, math.pi)!r},{rng.uniform(0.0, 2 * math.pi)!r}"
    player = int(rng.integers(1, 3))
    surface_grid = (33, 65) if not smoke else (5, 9)

    def lift_job(job_id, a, b):
        argv = ("lift-verify", a, b, "--samples", samples, "--seed", str(seed))
        return Job(job_id, argv, {"games": [a, b], "samples": int(samples), "seed": seed})

    return [
        Job("I1", ("iso", "iso_a.game", "iso_b.game"),
            {"games": ["iso_a.game", "iso_b.game"], "seeded": [list(eta), [list(p) for p in phi]]}),
        Job("I2", ("iso", "iso_a.game", "iso_c.game"), {"games": ["iso_a.game", "iso_c.game"]}),
        Job("I3", ("iso", "equiv_a.game", "equiv_b.game"),
            {"games": ["equiv_a.game", "equiv_b.game"]}),
        lift_job("I4", "pd.game", "pd_swapped.game"),
        lift_job("I5", "antidiag.game", "antidiag_swapped.game"),
        lift_job("I6", "three_player.game", "three_player_image.game"),
        lift_job("I7", "lift_a.game", "lift_b.game"),
        Job("I8", ("identities", "--samples", "200" if not smoke else "10", "--seed", str(seed)),
            {"seed": seed}),
        Job("I9", ("surface", "pd_swapped.game", "--player", str(player), "--opponent", opponent,
                   "--grid", _grid(surface_grid), "--csv", "I9.csv"),
            {"game": "pd_swapped.game", "player": player, "opponent": opponent,
             "grid": list(surface_grid), "csv": "I9.csv", "closed_form": list(PD_SWAPPED_RSTP)}),
    ]


def build(workload: str, seed: int, work: Path, bundled_dir: Path, smoke: bool = False) -> list[Job]:
    """Write the workload's input files into `work` and return its job list."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}; use one of {', '.join(WORKLOADS)}")
    work.mkdir(parents=True, exist_ok=True)
    for name in BUNDLED:
        shutil.copyfile(bundled_dir / name, work / name)
    # one stream per workload, so adding a workload leaves the others' inputs alone
    rng = np.random.default_rng([seed, WORKLOADS.index(workload)])
    if workload == "ne":
        return _ne_workload(work, rng, smoke)
    return _iso_lift(work, rng, seed, smoke)
