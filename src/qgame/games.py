"""Finite strategic-form games, Nash equilibria, and strong isomorphisms.

A game holds per-player strategy labels and a total payoff tensor of
shape (|S_1|, .., |S_n|, n). Strategy profiles are plain tuples of
0-based strategy indices; labels only matter for I/O.

Payoffs are doubles. Equality of payoffs uses absolute tolerance 1e-12
(the worked examples are small integers); fitted affine checks use 1e-9
because fitting amplifies rounding.
"""

from __future__ import annotations

from itertools import permutations, product
from typing import NamedTuple, Sequence

import numpy as np

from ._value import Frozen, set_field

PAYOFF_TOL = 1e-12
AFFINE_TOL = 1e-9

StrategyProfile = tuple[int, ...]


class ClassicalGame(Frozen):
    """n-player strategic-form game with a total payoff tensor."""

    __slots__ = ("labels", "payoffs")
    labels: tuple[tuple[str, ...], ...]
    payoffs: np.ndarray  # shape (*dims, n), read-only after construction

    def __init__(self, labels, payoffs):
        labels = tuple(tuple(str(l) for l in ls) for ls in labels)
        n = len(labels)
        if n < 1:
            raise ValueError("need at least one player")
        for i, ls in enumerate(labels):
            if len(ls) < 2:
                raise ValueError(f"player {i + 1} needs at least two strategies")
            if len(set(ls)) != len(ls):
                raise ValueError(f"player {i + 1} has duplicate strategy labels")
        arr = np.array(payoffs, dtype=float)
        dims = tuple(len(ls) for ls in labels)
        if arr.shape != dims + (n,):
            raise ValueError(f"payoff tensor must have shape {dims + (n,)}, got {arr.shape}")
        if not np.isfinite(arr).all():
            raise ValueError("payoffs must be finite")
        arr.setflags(write=False)
        set_field(self, "labels", labels)
        set_field(self, "payoffs", arr)

    @property
    def n_players(self) -> int:
        return len(self.labels)

    @property
    def shape(self) -> tuple[int, ...]:
        return self.payoffs.shape[:-1]

    def __eq__(self, other) -> bool:
        if not isinstance(other, ClassicalGame):
            return NotImplemented
        return self.labels == other.labels and np.array_equal(self.payoffs, other.payoffs)

    def __repr__(self) -> str:
        return f"ClassicalGame(players={self.n_players}, shape={self.shape})"


class GameMapping(Frozen):
    """Player permutation eta plus per-player strategy bijections phi.

    eta[i] is the image player of player i (0-based). phi[i][k] is the
    image strategy index of player i's strategy k, living in the image
    player's strategy set.
    """

    __slots__ = ("eta", "phi")
    eta: tuple[int, ...]
    phi: tuple[tuple[int, ...], ...]

    def __init__(self, eta, phi):
        eta = tuple(int(k) for k in eta)
        phi = tuple(tuple(int(k) for k in p) for p in phi)
        n = len(eta)
        if sorted(eta) != list(range(n)):
            raise ValueError(f"eta is not a permutation: {eta}")
        if len(phi) != n:
            raise ValueError("need one strategy bijection per player")
        for i, p in enumerate(phi):
            if sorted(p) != list(range(len(p))):
                raise ValueError(f"phi[{i}] is not a bijection: {p}")
        set_field(self, "eta", eta)
        set_field(self, "phi", phi)

    @property
    def n_players(self) -> int:
        return len(self.eta)

    def inverse(self) -> "GameMapping":
        eta_inv = np.argsort(self.eta)
        return GameMapping(eta_inv, [np.argsort(self.phi[i]) for i in eta_inv])


def apply_mapping(f: GameMapping, profile: Sequence[int]) -> StrategyProfile:
    """Image profile s' with s'_{eta(i)} = phi_i(s_i)."""
    s = tuple(int(k) for k in profile)
    if len(s) != f.n_players:
        raise ValueError("profile length does not match mapping")
    out = [0] * f.n_players
    for i, si in enumerate(s):
        if not 0 <= si < len(f.phi[i]):
            raise ValueError(f"strategy index {si} out of range for player {i + 1}")
        out[f.eta[i]] = f.phi[i][si]
    return tuple(out)


def _shapes_compatible(f: GameMapping, g: ClassicalGame, g2: ClassicalGame) -> bool:
    if f.n_players != g.n_players or f.n_players != g2.n_players:
        return False
    for i in range(f.n_players):
        if len(f.phi[i]) != g.shape[i] or g2.shape[f.eta[i]] != g.shape[i]:
            return False
    return True


def _pull_back(payoffs: np.ndarray, eta, phi) -> np.ndarray:
    """Payoff tensor `payoffs` of an image game read through (eta, phi):
    out[s][i] = payoffs[f(s)][eta(i)], with f(s)_{eta(i)} = phi_i(s_i).

    One transpose puts the image players in source order, one gather
    applies the strategy bijections and picks each player's image column.
    The image shape must match the mapping (see `_shapes_compatible`).
    """
    moved = np.transpose(payoffs, tuple(eta) + (len(eta),))
    return moved[np.ix_(*phi, eta)]


def is_strong_isomorphism(f: GameMapping, g: ClassicalGame, g2: ClassicalGame) -> bool:
    """True iff u_i(s) = u'_{eta(i)}(f(s)) within PAYOFF_TOL for every
    player and profile."""
    if not _shapes_compatible(f, g, g2):
        return False
    return bool(np.abs(g.payoffs - _pull_back(g2.payoffs, f.eta, f.phi)).max() <= PAYOFF_TOL)


def _strategy_signatures(g: ClassicalGame, player: int) -> np.ndarray:
    """(m, prod(shape) / m) sorted own-payoff slices, one row per strategy."""
    u = np.moveaxis(g.payoffs[..., player], player, 0)
    return np.sort(u.reshape(g.shape[player], -1), axis=1)


def find_strong_isomorphisms(g: ClassicalGame, g2: ClassicalGame) -> list[GameMapping]:
    """All strong isomorphisms g -> g2, by a signature-pruned search.

    Strategy k of player i may map to strategy k' of player j only when
    the sorted own-payoff slices u_i(s | s_i = k) and u'_j(s | s_j = k')
    agree within PAYOFF_TOL entrywise. The filter loses no isomorphism:
    if some bijection pairs two multisets of reals within tol, so does
    the sorted pairing. Each surviving candidate is checked on every
    profile at PAYOFF_TOL, exactly as `is_strong_isomorphism` does.

    Candidates come in lexicographic order (eta outer, then the
    per-player bijections), so the result order is deterministic. An
    empty list means the games are not isomorphic.
    """
    if sorted(g.shape) != sorted(g2.shape):
        return []
    n = g.n_players
    sigs = [_strategy_signatures(g, i) for i in range(n)]
    sigs2 = [_strategy_signatures(g2, j) for j in range(n)]
    # bijections[i][j]: every phi_i allowed when eta(i) = j
    bijections = [[_compatible_bijections(s, s2) for s2 in sigs2] for s in sigs]
    found = []
    for eta in permutations(range(n)):
        choices = [bijections[i][eta[i]] for i in range(n)]
        if not all(choices):
            continue
        for phis in product(*choices):
            if np.abs(g.payoffs - _pull_back(g2.payoffs, eta, phis)).max() <= PAYOFF_TOL:
                found.append(GameMapping(eta, phis))
    return found


def _compatible_bijections(sig: np.ndarray, sig2: np.ndarray) -> list[tuple[int, ...]]:
    """Bijections k -> k' with rows sig[k] and sig2[k'] within PAYOFF_TOL,
    in lexicographic order; empty when the strategy counts differ."""
    if sig.shape != sig2.shape:
        return []
    allowed = np.abs(sig[:, None, :] - sig2[None, :, :]).max(axis=2) <= PAYOFF_TOL
    out = [()]
    for row in allowed:
        out = [p + (k,) for p in out for k in np.flatnonzero(row).tolist() if k not in p]
    return out


def image_game(f: GameMapping, g: ClassicalGame) -> ClassicalGame:
    """Push a game forward through a mapping, making f an isomorphism.

    Labels travel with the strategies they name.
    """
    if f.n_players != g.n_players or any(
        len(f.phi[i]) != g.shape[i] for i in range(g.n_players)
    ):
        raise ValueError("mapping does not match game shape")
    # the image's labels and payoffs are g's read back through the
    # inverse mapping
    inv = f.inverse()
    labels = tuple(tuple(g.labels[i][k] for k in phi) for i, phi in zip(inv.eta, inv.phi))
    return ClassicalGame(labels, _pull_back(g.payoffs, inv.eta, inv.phi))


def strategic_equivalence(g: ClassicalGame, g2: ClassicalGame) -> list[tuple[float, float]] | None:
    """Per-player (alpha_i > 0, beta_i) with v_i = alpha_i u_i + beta_i
    within AFFINE_TOL, or None.

    Both games must have the same shape and the same label lists. When a
    player's payoff is constant in the first game any alpha fits; the
    convention is alpha = 1, beta = v - u.
    """
    if g.labels != g2.labels:
        raise ValueError("strategic equivalence needs identical strategy sets")
    n = g.n_players
    fits = []
    for i in range(n):
        u = g.payoffs[..., i].reshape(-1)
        v = g2.payoffs[..., i].reshape(-1)
        spread = np.argsort(u)
        lo, hi = spread[0], spread[-1]
        if abs(u[hi] - u[lo]) <= AFFINE_TOL:
            alpha, beta = 1.0, float(v[0] - u[0])
        else:
            alpha = float((v[hi] - v[lo]) / (u[hi] - u[lo]))
            beta = float(v[lo] - alpha * u[lo])
        if alpha <= 0:
            return None
        if np.abs(v - (alpha * u + beta)).max() > AFFINE_TOL:
            return None
        fits.append((alpha, beta))
    return fits


def pure_nash_equilibria(g: ClassicalGame, tol: float = PAYOFF_TOL) -> list[StrategyProfile]:
    """All profiles where no unilateral deviation strictly improves a player.

    Ties count as equilibria (weak inequality). Row-major profile order.
    """
    mask = np.ones(g.shape, dtype=bool)
    for i in range(g.n_players):
        u = g.payoffs[..., i]
        best = u.max(axis=i, keepdims=True)
        mask &= u >= best - tol
    return [tuple(int(v) for v in idx) for idx in np.argwhere(mask)]


class MixedProfile2x2(NamedTuple):
    """Mixed profile of a 2x2 bimatrix game.

    p and q are the probabilities of each player's first strategy.
    `continuum` marks extreme points of a degenerate equilibrium
    component rather than isolated equilibria.
    """

    p: float
    q: float
    continuum: bool = False


def mixed_nash_2x2(g: ClassicalGame) -> list[MixedProfile2x2]:
    """All Nash equilibria of a 2x2 bimatrix game by support enumeration.

    Pure equilibria are reported as degenerate mixed profiles, in
    profile order, followed by degenerate-component extreme points and
    the interior equilibrium when the indifference equations admit one.
    """
    if g.shape != (2, 2):
        raise ValueError("mixed_nash_2x2 needs a 2x2 bimatrix game")
    A = g.payoffs[..., 0]
    B = g.payoffs[..., 1]
    out: list[MixedProfile2x2] = []
    seen = set()

    def emit(p, q, continuum=False):
        key = (round(p, 9), round(q, 9))
        if key not in seen:
            seen.add(key)
            out.append(MixedProfile2x2(float(p), float(q), continuum))

    # pure supports
    for i, j in product(range(2), range(2)):
        if A[i, j] >= A[1 - i, j] - PAYOFF_TOL and B[i, j] >= B[i, 1 - j] - PAYOFF_TOL:
            emit(1.0 - i, 1.0 - j)

    # player 1 pure, player 2 mixed with full support (degenerate games
    # only); the interval is already expressed as q, the weight on
    # player 2's first strategy
    for i in range(2):
        if abs(B[i, 0] - B[i, 1]) <= PAYOFF_TOL:
            lo, hi = _best_reply_interval(A[i], A[1 - i])
            if lo is not None and hi - lo > PAYOFF_TOL:
                emit(1.0 - i, lo, continuum=True)
                emit(1.0 - i, hi, continuum=True)

    # player 2 pure, player 1 mixed with full support
    for j in range(2):
        if abs(A[0, j] - A[1, j]) <= PAYOFF_TOL:
            lo, hi = _best_reply_interval(B[:, j], B[:, 1 - j])
            if lo is not None and hi - lo > PAYOFF_TOL:
                emit(lo, 1.0 - j, continuum=True)
                emit(hi, 1.0 - j, continuum=True)

    # full supports: both players indifferent
    den_q = A[0, 0] - A[1, 0] - A[0, 1] + A[1, 1]
    den_p = B[0, 0] - B[0, 1] - B[1, 0] + B[1, 1]
    if abs(den_q) > PAYOFF_TOL and abs(den_p) > PAYOFF_TOL:
        q = (A[1, 1] - A[0, 1]) / den_q
        p = (B[1, 1] - B[1, 0]) / den_p
        if -PAYOFF_TOL <= p <= 1 + PAYOFF_TOL and -PAYOFF_TOL <= q <= 1 + PAYOFF_TOL:
            emit(min(max(p, 0.0), 1.0), min(max(q, 0.0), 1.0))
    return out


def _best_reply_interval(u_own, u_other):
    """Opponent mix weights w (on their first strategy) keeping `own`
    weakly best: solve w*u_own[0]+(1-w)*u_own[1] >= w*u_other[0]+(1-w)*u_other[1]."""
    a = (u_own[0] - u_other[0]) - (u_own[1] - u_other[1])
    b = u_own[1] - u_other[1]
    # condition a*w + b >= 0 on [0, 1]
    if abs(a) <= PAYOFF_TOL:
        return (0.0, 1.0) if b >= -PAYOFF_TOL else (None, None)
    root = -b / a
    if a > 0:
        lo, hi = max(0.0, root), 1.0
    else:
        lo, hi = 0.0, min(1.0, root)
    if lo > hi + PAYOFF_TOL:
        return (None, None)
    return (min(lo, 1.0), max(hi, 0.0))


def equilibrium_transport_check(
    f: GameMapping, g: ClassicalGame, g2: ClassicalGame
) -> bool:
    """True iff f maps the pure-equilibrium set of g bijectively onto g2's.

    f must already be a verified strong isomorphism.
    """
    if not is_strong_isomorphism(f, g, g2):
        raise ValueError("mapping is not a strong isomorphism of the given games")
    image = {apply_mapping(f, s) for s in pure_nash_equilibria(g)}
    return image == set(pure_nash_equilibria(g2))
