"""Output checker: independent oracles for every job the workloads run.

The expected results never come from the code paths the benchmark
times. Payoffs come from the EWL amplitude formula written out below (no
Kronecker product, entangler matrix or einsum), strong isomorphisms from
a vectorized brute force over all candidates, and grids from a separate
reading of the documented grid rules. Two library helpers are called as
second opinions on top: `two_param_payoff_closed_form` on rows of the
column-swapped prisoner's dilemma, and `is_strong_isomorphism` on each
reported mapping.

`check_job` returns a list of problems; an empty list means the output
is correct. Expected negative results ("no equilibria", "not
isomorphic") are correct when the oracle agrees that they are expected.
"""

from __future__ import annotations

import itertools
import math
import re
from pathlib import Path

import numpy as np

from workloads import Game, Job, read_game

PAYOFF_TOL = 1e-12
LIFT_TOL = 1e-10
IDENTITY_TOL = 1e-12
# Improvements within this band of eps may go either way: the program and
# the oracle sum in different orders.
EPS_BAND = 1e-9
TWO_PI = 2.0 * math.pi
_FROZEN = {"full": (False, False), "alpha": (False, True), "beta": (True, False), "one": (True, True)}


# ---------------------------------------------------------------- oracles


def _unitaries(theta, alpha, beta) -> np.ndarray:
    """SU(2) matrices U(theta, alpha, beta), stacked on the leading axes."""
    c = np.cos(np.asarray(theta) / 2.0)
    s = np.sin(np.asarray(theta) / 2.0)
    ea = np.exp(1j * np.asarray(alpha))
    eb = np.exp(1j * np.asarray(beta))
    return np.stack(
        [np.stack([ea * c, 1j * eb * s], -1), np.stack([1j * eb.conj() * s, ea.conj() * c], -1)],
        -2,
    )


def grid_axes(spaces, grid) -> list[np.ndarray]:
    """Per player an (m, 3) array of (theta, alpha, beta) in row-major order.

    theta: linspace over [0, pi]; a phase axis with k > 1 steps: linspace
    over [0, 2 pi] without the 2 pi endpoint; frozen or 1-step axes: {0}.
    """
    t, a, b = grid

    def phase(steps, frozen):
        return np.array([0.0]) if frozen or steps == 1 else np.linspace(0.0, TWO_PI, steps)[:-1]

    out = []
    for space in spaces:
        fa, fb = _FROZEN[space]
        mesh = np.meshgrid(np.linspace(0.0, math.pi, t), phase(a, fa), phase(b, fb), indexing="ij")
        out.append(np.stack([m.reshape(-1) for m in mesh], -1))
    return out


def payoff_tables(payoffs: np.ndarray, axes: list[np.ndarray], chunk: int = 1 << 20) -> np.ndarray:
    """Array of shape (n, m_1, .., m_n): every player's payoff on the grid
    spanned by the per-player (m_i, 3) angle arrays `axes`.

    With J|0..0> = (|0..0> + i|1..1>) / sqrt(2) and J^dag = (1 - i X^n) / sqrt(2),
    the final amplitude at ket j is (A_j + B_~j + i (B_j - A_~j)) / 2, where
    A_j = prod_i U_i[j_i, 0], B_j = prod_i U_i[j_i, 1] and ~j flips every bit.
    Each product over players is an outer product across the grid axes, and
    kets j and ~j share their four products. Rows of player 1 are taken in
    chunks of about `chunk` profiles.
    """
    n = len(axes)
    dims = tuple(len(x) for x in axes)
    us = [_unitaries(*x.T) for x in axes]
    flat = payoffs.reshape(-1, n)
    rows = max(1, chunk // math.prod(dims[1:]))
    tables = np.zeros((n,) + dims)
    for lo in range(0, dims[0], rows):
        part = [us[0][lo : lo + rows]] + us[1:]

        def outer(bits, col):
            out = part[0][:, bits[0], col].reshape((-1,) + (1,) * (n - 1))
            for i in range(1, n):
                out = out * part[i][:, bits[i], col].reshape((1,) * i + (-1,) + (1,) * (n - 1 - i))
            return out

        for j in range(2 ** (n - 1)):
            bits = [(j >> (n - 1 - i)) & 1 for i in range(n)]
            flip = [1 - b for b in bits]
            a, b, a_flip, b_flip = outer(bits, 0), outer(bits, 1), outer(flip, 0), outer(flip, 1)
            for ket, amp in ((j, a + b_flip + 1j * (b - a_flip)), (2**n - 1 - j, a_flip + b + 1j * (b_flip - a))):
                probs = (amp.real**2 + amp.imag**2) / 4.0
                for k in range(n):
                    tables[k, lo : lo + rows] += probs * flat[ket, k]
    return tables


def profile_payoffs(payoffs: np.ndarray, profile) -> np.ndarray:
    """Payoff vector at one profile of (theta, alpha, beta) triples."""
    return payoff_tables(payoffs, [np.array([p], dtype=float) for p in profile]).reshape(-1)


def improvements(tables: np.ndarray) -> np.ndarray:
    """Largest unilateral grid improvement available at each profile."""
    return np.max(
        [t.max(axis=i, keepdims=True) - t for i, t in enumerate(tables)], axis=0
    )


def isomorphisms(ga: Game, gb: Game, tol: float = PAYOFF_TOL) -> list[tuple[tuple, tuple]]:
    """All (eta, phi) with u'_{eta(i)}(f(s)) = u_i(s), in lexicographic order
    (eta first, then the per-player bijections)."""
    a, b = ga.payoffs, gb.payoffs
    n = ga.n
    dims_a, dims_b = a.shape[:-1], b.shape[:-1]
    if n != gb.n:
        return []
    found = []
    for eta in itertools.permutations(range(n)):
        if any(dims_b[eta[i]] != dims_a[i] for i in range(n)):
            continue
        # aligned[s'_1, .., s'_n, i] = u'_{eta(i)} at the profile with
        # strategy s'_i at position eta(i)
        aligned = b.transpose(list(eta) + [n])[..., list(eta)]
        for phi in itertools.product(*(itertools.permutations(range(m)) for m in dims_a)):
            if np.abs(aligned[np.ix_(*phi)] - a).max() <= tol:
                found.append((eta, phi))
    return found


def describe_mapping(eta, phi, ga: Game, gb: Game) -> str:
    players = ", ".join(f"{i + 1}->{k + 1}" for i, k in enumerate(eta))
    parts = [f"players ({players})"]
    for i, p in enumerate(phi):
        pairs = ", ".join(f"{ga.labels[i][k]}->{gb.labels[eta[i]][p[k]]}" for k in range(len(p)))
        parts.append(f"{i + 1}: {pairs}")
    return "; ".join(parts)


def affine_fits(ga: Game, gb: Game, tol: float = 1e-9):
    """Per-player (alpha > 0, beta) with v_i = alpha u_i + beta, or None."""
    fits = []
    for i in range(ga.n):
        u = ga.payoffs[..., i].reshape(-1)
        v = gb.payoffs[..., i].reshape(-1)
        (alpha, beta), *_ = np.linalg.lstsq(np.stack([u, np.ones_like(u)], 1), v, rcond=None)
        if alpha <= 0 or np.abs(v - (alpha * u + beta)).max() > tol:
            return None
        fits.append((float(alpha), float(beta)))
    return fits


def lifted_profile(eta, phi, params):
    """Image of a profile of (theta, alpha, beta) under the lifted mapping:
    strategy-swapping players get (pi - theta, 2 pi - beta, pi - alpha)."""
    out = [None] * len(params)
    for i, (t, a, b) in enumerate(params):
        keep = tuple(phi[i]) == (0, 1)
        out[eta[i]] = (t, a, b) if keep else (math.pi - t, TWO_PI - b, math.pi - a)
    return out


# ------------------------------------------------------------- checkers


def _close(x: float, y: float, digits: int | None = None, tol: float = PAYOFF_TOL) -> bool:
    """|x - y| within tol, widened by half a unit in the last printed digit
    when x was printed with `digits` significant digits."""
    if digits is not None and y != 0.0:
        tol += 0.5 * 10.0 ** (math.floor(math.log10(abs(y))) - digits + 1)
    return abs(x - y) <= tol


def _header(lines: list[str], command: str) -> list[str]:
    if not lines or lines[0] != f"# command: {command}":
        return [f"first line {lines[0] if lines else ''!r} is not '# command: {command}'"]
    return []


_ROW = re.compile(r"^  ((?:\(\S+?\) ?)+) payoffs \[([^\]]*)\] improvement (\S+)$")


def check_ne(job: Job, work: Path, rc: int, out: str, csv: str | None) -> list[str]:
    spec = job.spec
    game = read_game(work / spec["game"])
    n, eps = game.n, spec["eps"]
    axes = grid_axes(spec["spaces"], spec["grid"])
    tables = payoff_tables(game.payoffs, axes)
    imp = improvements(tables)
    must = set(map(tuple, np.argwhere(imp <= eps - EPS_BAND).tolist()))
    may = imp <= eps + EPS_BAND

    lines = out.splitlines()
    problems = _header(lines, f"ne {spec['game']}")
    keys = [
        {f"({t:.6g},{a:.6g},{b:.6g})": k for k, (t, a, b) in enumerate(x)} for x in axes
    ]
    rows, found_line = [], None
    for line in lines:
        if line.startswith("spaces: "):
            found_line = line
        m = _ROW.match(line)
        if not m:
            continue
        strategies = m.group(1).split()
        try:
            idx = tuple(keys[i][s] for i, s in enumerate(strategies))
        except (KeyError, IndexError):
            problems.append(f"row profile {m.group(1)!r} is not a grid profile")
            continue
        pays = [float(v) for v in m.group(2).split()]
        rows.append(idx)
        for i in range(n):
            if not _close(pays[i], tables[i][idx], digits=10):
                problems.append(f"row {idx}: payoff {i + 1} {pays[i]!r} != {tables[i][idx]!r}")
        reported = float(m.group(3))
        if reported > eps or not _close(reported, imp[idx], digits=4, tol=EPS_BAND):
            problems.append(f"row {idx}: improvement {reported!r} (oracle {imp[idx]!r}, eps {eps!r})")
        if spec["closed_form"] is not None:
            problems += _closed_form_problems(
                [tuple(axes[i][idx[i]][:2]) for i in range(2)], pays, spec["closed_form"], digits=10
            )

    expect = f"spaces: {','.join(spec['spaces'])}; grid: {','.join(map(str, spec['grid']))}; profiles found: {len(rows)}"
    if found_line != expect:
        problems.append(f"summary line {found_line!r}, expected {expect!r}")
    if rows != sorted(set(rows)):
        problems.append("rows are not in strictly increasing row-major order")
    missing = must - set(rows)
    extra = [r for r in rows if not may[r]]
    if missing:
        problems.append(f"{len(missing)} equilibria missing, e.g. {sorted(missing)[0]}")
    if extra:
        problems.append(f"{len(extra)} rows are not equilibria, e.g. {extra[0]}")
    verdict = f"verdict: {len(rows)} equilibria" if rows else "verdict: no equilibria"
    if not lines or lines[-1] != verdict:
        problems.append(f"last line {lines[-1] if lines else ''!r}, expected {verdict!r}")
    if rc != (0 if rows else 1):
        problems.append(f"exit code {rc} with {len(rows)} equilibria")
    if spec["csv"] is not None:
        problems += _check_ne_csv(csv, rows, axes, tables, imp, spec["closed_form"])
    return problems


def _check_ne_csv(csv, rows, axes, tables, imp, closed_form) -> list[str]:
    if csv is None:
        return ["csv file was not written"]
    n = len(axes)
    lines = csv.splitlines()
    cols = [f"{c}{i}" for i in range(1, n + 1) for c in ("theta", "alpha", "beta")]
    cols += [f"payoff{i}" for i in range(1, n + 1)] + ["improvement"]
    problems = []
    if not lines or lines[0] != ",".join(cols):
        return [f"csv header {lines[0] if lines else ''!r}"]
    if len(lines) - 1 != len(rows):
        return [f"csv has {len(lines) - 1} rows, report has {len(rows)}"]
    for idx, line in zip(rows, lines[1:]):
        vals = [float(v) for v in line.split(",")]
        angles = np.concatenate([axes[i][idx[i]] for i in range(n)])
        if np.abs(np.array(vals[: 3 * n]) - angles).max() > PAYOFF_TOL:
            problems.append(f"csv row {idx}: angles {vals[:3 * n]} != {angles.tolist()}")
        pays = vals[3 * n : 4 * n]
        for i in range(n):
            if not _close(pays[i], tables[i][idx]):
                problems.append(f"csv row {idx}: payoff {i + 1} {pays[i]!r} != {tables[i][idx]!r}")
        if not _close(vals[-1], imp[idx], tol=EPS_BAND):
            problems.append(f"csv row {idx}: improvement {vals[-1]!r} != {imp[idx]!r}")
        if closed_form is not None:
            problems += _closed_form_problems(
                [tuple(axes[i][idx[i]][:2]) for i in range(2)], pays, closed_form
            )
    return problems


def _closed_form_problems(profile, pays, rstp, digits=None) -> list[str]:
    from qgame.ewl import two_param_payoff_closed_form

    want = two_param_payoff_closed_form(profile[0], profile[1], rstp)
    if all(_close(pays[i], want[i], digits=digits) for i in range(2)):
        return []
    return [f"profile {profile}: payoffs {pays} != closed form {want}"]


def check_iso(job: Job, work: Path, rc: int, out: str, csv) -> list[str]:
    from qgame.games import ClassicalGame, GameMapping, is_strong_isomorphism

    name_a, name_b = job.spec["games"]
    ga, gb = read_game(work / name_a), read_game(work / name_b)
    isos = isomorphisms(ga, gb)
    if "seeded" in job.spec:
        eta, phi = job.spec["seeded"]
        if (tuple(eta), tuple(map(tuple, phi))) not in isos:
            return ["the seeded mapping is not an isomorphism of the generated pair"]
    expect = [f"# command: iso {name_a} {name_b}"]
    expect += [f"iso {k}: {describe_mapping(e, p, ga, gb)}" for k, (e, p) in enumerate(isos, 1)]
    if not isos:
        expect.append("no strong isomorphism")
    lines = out.splitlines()
    problems = []
    if ga.labels == gb.labels:
        problems += _check_equivalence(lines[len(expect) : -1], affine_fits(ga, gb))
        lines = lines[: len(expect)] + lines[-1:]
    expect.append(f"verdict: {'isomorphic' if isos else 'not isomorphic'}")
    if lines != expect:
        problems.append(f"report {lines!r} != expected {expect!r}")
    if rc != (0 if isos else 1):
        problems.append(f"exit code {rc} with {len(isos)} isomorphisms")
    ca, cb = ClassicalGame(ga.labels, ga.payoffs), ClassicalGame(gb.labels, gb.payoffs)
    for eta, phi in isos:
        if not is_strong_isomorphism(GameMapping(eta, phi), ca, cb):
            problems.append(f"is_strong_isomorphism rejects {eta} {phi}")
    return problems


def _check_equivalence(lines: list[str], fits) -> list[str]:
    if fits is None:
        return [] if lines == ["strategic equivalence: none"] else [f"equivalence {lines!r}, expected none"]
    m = re.findall(r"player (\d+): alpha=(\S+) beta=(\S+?)(?:;|$)", lines[0] if len(lines) == 1 else "")
    got = [(float(a), float(b)) for _, a, b in m]
    if len(got) != len(fits) or not all(
        _close(a, fa, digits=6) and _close(b, fb, digits=6, tol=1e-9)
        for (a, b), (fa, fb) in zip(got, fits)
    ):
        return [f"equivalence {lines!r}, expected {fits}"]
    return []


def check_lift(job: Job, work: Path, rc: int, out: str, csv) -> list[str]:
    name_a, name_b = job.spec["games"]
    ga, gb = read_game(work / name_a), read_game(work / name_b)
    isos = isomorphisms(ga, gb)
    samples, seed = job.spec["samples"], job.spec["seed"]
    lines = out.splitlines()
    problems = _header(lines, f"lift-verify {name_a} {name_b}")
    if lines[1:3] != [f"# seed: {seed}", f"# tolerances: payoff={LIFT_TOL:g}"]:
        problems.append(f"header {lines[1:3]!r}")
    rng = np.random.default_rng(seed + 1)
    body = lines[3:-1]
    if len(body) != len(isos):
        problems.append(f"{len(body)} mapping lines, oracle has {len(isos)} isomorphisms")
    for k, ((eta, phi), line) in enumerate(zip(isos, body), start=1):
        prefix = f"iso {k}: {describe_mapping(eta, phi, ga, gb)} | max deviation "
        suffix = f" over {samples} samples -> pass"
        if not (line.startswith(prefix) and line.endswith(suffix)):
            problems.append(f"line {line!r}, expected {prefix}<dev>{suffix}")
        elif float(line[len(prefix) : -len(suffix)]) > LIFT_TOL:
            problems.append(f"line {line!r}: deviation above {LIFT_TOL:g}")
        # the lift must hold in the oracle too, or "pass" is the wrong verdict
        params = [
            [(rng.uniform(0, math.pi), rng.uniform(0, TWO_PI), rng.uniform(0, TWO_PI)) for _ in range(ga.n)]
            for _ in range(16)
        ]
        ua = np.array([profile_payoffs(ga.payoffs, p) for p in params])
        ub = np.array([profile_payoffs(gb.payoffs, lifted_profile(eta, phi, p)) for p in params])
        if np.abs(ua - ub[:, list(eta)]).max() > LIFT_TOL:
            problems.append(f"lift of {eta} {phi} fails in the oracle")
    verdict = "verdict: all lifted mappings verified" if isos else "verdict: no strong isomorphism to lift"
    if lines[-1:] != [verdict]:
        problems.append(f"last line {lines[-1:]!r}, expected {verdict!r}")
    if rc != (0 if isos else 1):
        problems.append(f"exit code {rc} with {len(isos)} isomorphisms")
    return problems


_IDENTITY = re.compile(r"^\(([a-f])\) [^:]+: max error (\S+) -> pass$")


def check_identities(job: Job, work: Path, rc: int, out: str, csv) -> list[str]:
    lines = out.splitlines()
    problems = _header(lines, "identities")
    if lines[1:3] != [f"# seed: {job.spec['seed']}", f"# tolerances: entrywise={IDENTITY_TOL:g}"]:
        problems.append(f"header {lines[1:3]!r}")
    matches = [_IDENTITY.match(line) for line in lines[3:-1]]
    if [m.group(1) if m else None for m in matches] != list("abcdef"):
        problems.append(f"identity lines {lines[3:-1]!r}")
    elif any(float(m.group(2)) > IDENTITY_TOL for m in matches):
        problems.append("an identity error is above 1e-12")
    if lines[-1:] != ["verdict: all identities hold"] or rc != 0:
        problems.append(f"verdict {lines[-1:]!r} with exit code {rc}")
    return problems


def check_surface(job: Job, work: Path, rc: int, out: str, csv: str | None) -> list[str]:
    spec = job.spec
    if rc != 0 or out:
        return [f"exit code {rc}, stdout {out[:80]!r}"]
    if csv is None:
        return ["csv file was not written"]
    lines = csv.splitlines()
    t_steps, a_steps = spec["grid"]
    if lines[:1] != ["theta,alpha,payoff1,payoff2"] or len(lines) != 1 + t_steps * a_steps:
        return [f"csv has {len(lines)} lines starting {lines[:1]!r}"]
    rows = np.array([[float(v) for v in line.split(",")] for line in lines[1:]])
    theta, alpha = (a.reshape(-1) for a in np.meshgrid(
        np.linspace(0.0, math.pi, t_steps), np.linspace(0.0, TWO_PI, a_steps), indexing="ij"))
    problems = []
    if np.abs(rows[:, 0] - theta).max() > PAYOFF_TOL or np.abs(rows[:, 1] - alpha % TWO_PI).max() > PAYOFF_TOL:
        problems.append("surface angles are not the requested grid")
    opp_t, opp_a = (float(v) for v in spec["opponent"].split(","))
    mine = np.stack([theta, alpha, np.zeros_like(theta)], -1)
    other = np.array([[opp_t, opp_a, 0.0]])
    axes = [mine, other] if spec["player"] == 1 else [other, mine]
    want = payoff_tables(read_game(work / spec["game"]).payoffs, axes).reshape(2, -1).T
    if np.abs(rows[:, 2:] - want).max() > PAYOFF_TOL:
        problems.append("surface payoffs differ from the oracle")
    for k in range(0, len(rows), max(1, len(rows) // 16)):
        prof = [(theta[k], alpha[k]), (opp_t, opp_a)]
        if spec["player"] == 2:
            prof.reverse()
        problems += _closed_form_problems(prof, rows[k, 2:], spec["closed_form"])
    return problems


CHECKERS = {
    "ne": check_ne,
    "iso": check_iso,
    "lift-verify": check_lift,
    "identities": check_identities,
    "surface": check_surface,
}


def check_job(job: Job, work: Path, rc, out: str, csv: str | None) -> list[str]:
    """Problems with one job's exit code, stdout and CSV (empty: correct)."""
    if not isinstance(rc, int):
        return [f"job raised: {rc}"]
    try:
        return CHECKERS[job.command](job, work, rc, out, csv)
    except (ValueError, IndexError, KeyError) as exc:
        return [f"unparseable output: {exc!r}"]
