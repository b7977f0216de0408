"""Numerical laboratory for set-valued operators on R^d.

Operators are given intensionally: a batched value box, a batched resolvent and a
graph sampler.  Every value set is a coordinate box, so ``value_box(P[N, d])``
returns ``(lo, hi)``: ``lo == hi`` for a single value, faces at -inf or inf
allowed, NaN rows outside the domain.  Each value query (domain, membership
distance, selection, least-norm point, sampling, one-sided excess) is derived from
it once.  Checks are sampled falsification, reported with worst slacks.

Slack convention: each property is one array of slacks over the samples a check
draws, reported by ``CheckReport.from_slacks``.  A kept sample passes when ``slack >=
-tol``; a non-finite slack fails, and only the worst violation is formatted, as the witness.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, replace
from types import SimpleNamespace
from typing import Callable, Sequence

import numpy as np

from .errors import (
    ComonotoneStepError, DimensionMismatch, NoConvergence, NonFiniteInput, NonPositiveGamma,
)


class OutsideDomain(ValueError):
    """Point not in the relevant domain."""


class PreconditionViolated(ValueError):
    """A quantitative hypothesis of a modulus statement fails."""


_TINY = float(np.finfo(float).tiny)  # a dot below the least normal float has lost digits


def l2(v: np.ndarray) -> float:
    """``np.linalg.norm`` of a real 1-D array, bit for bit: the same dot product and root."""
    v = v.ravel()  # contiguous as in norm, where a strided view would sum in another order
    return math.sqrt(v.dot(v))


def _dots(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Inner products along the last axis, through the same dot kernel as
    ``float(a_i @ b_i)`` so each entry equals the per-vector value."""
    return (a[..., None, :] @ b[..., :, None])[..., 0, 0]


def _norms(a: np.ndarray) -> np.ndarray:
    """``l2`` along the last axis."""
    return np.sqrt(_dots(a, a))


def _scaled_norms(a: np.ndarray) -> np.ndarray:
    """``_norms``, where a finite, nonzero row whose plain dot overflows or underflows is
    first divided by its largest coordinate, as ``math.hypot`` does."""
    dots, big = _dots(a, a), np.abs(a).max(axis=-1)
    redo = ((dots == math.inf) | (dots < _TINY)) & (big > 0) & (big < math.inf)
    norms = np.sqrt(dots)
    norms[redo] = big[redo] * _norms(a[redo] / big[redo, None])
    return norms


def as_vector(x, dim: int) -> np.ndarray:
    v = np.array(x, dtype=float, ndmin=1)
    if v.shape != (dim,):
        raise DimensionMismatch(f"expected a vector of dimension {dim}, got shape {v.shape}")
    if not all(map(math.isfinite, v.tolist())):
        raise NonFiniteInput(f"expected finite coordinates, got {v}")
    return v


def _inside(box) -> np.ndarray:
    """The rows of a value box in the domain: those that are not NaN."""
    return ~np.isnan(box[0]).any(axis=-1)


def _distance(lo: np.ndarray, hi: np.ndarray, U: np.ndarray, norms=_norms) -> np.ndarray:
    """Distance from each row of ``U`` to its value box; NaN, failing every tolerance,
    on a NaN row.  ``fmax`` drops only the NaN of ``inf - inf``, so an infinite
    coordinate on an infinite face is inside.  Single values (``lo is hi``) take the
    shorter ``|U - hi|``, the same numbers: a speed path, the one reader of that identity."""
    if lo is hi:
        return norms(np.abs(U - hi))
    return norms(np.maximum(np.fmax(U - hi, lo - U), 0.0))


def _min_norm(lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """The origin clamped to each box: its point of least norm (``v`` itself for ``{v}``)."""
    return np.maximum(lo, np.minimum(hi, 0.0))


def _selection(lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """A point of each box: the lower face where finite, else the upper face, else 0."""
    return np.where(np.isinf(lo), np.where(np.isinf(hi), 0.0, hi), lo)


def one_sided_excess(source, target) -> np.ndarray:
    """Supremum over each source box row of the distance to the target box row, given
    as ``(lo, hi)`` pairs; NaN where either row is NaN."""
    (a, b), (c, d) = source, target
    with np.errstate(invalid="ignore"):  # inf - inf: the two share an infinite face
        gaps = np.fmax(np.fmax(b - d, c - a), 0.0)
    return np.where(_inside(source) & _inside(target), _norms(gaps), np.nan)


@dataclass
class SetValuedOperator:
    """An operator ``x -> subset of R^d``: its values, resolvents and graph samples."""

    name: str
    dim: int
    # P[N, d] -> (lo, hi): the value at P[i] is the box [lo[i], hi[i]], faces at -inf/inf
    # allowed, a row outside the domain NaN; lo is hi (every row single) is only a speed hint
    value_box: Callable[[np.ndarray], tuple[np.ndarray, np.ndarray]]
    # (gammas[N], X[N, d]) -> resolvents P[N, d], unverified: the kernel checks them
    resolvent_fn: Callable[[np.ndarray, np.ndarray], np.ndarray]
    # (rng, count, radius) -> (X[count, d], U[count, d]), each U[i] a value at X[i]
    graph_sampler: Callable[[np.random.Generator, int, float], tuple[np.ndarray, np.ndarray]]
    # (gammas[N], X[N, d]) -> bool[N], the rows in the resolvent domain; unset means all
    resolvent_domain_fn: Callable[[np.ndarray, np.ndarray], np.ndarray] | None = None
    rho: float | None = None
    declared_classes: tuple[str, ...] = ()
    norm_bound_on_ball: Callable[[float], float] | None = None
    zero_point: np.ndarray | None = None
    # (rng, count, gamma, radius) -> (count, dim) points of the resolvent domain at
    # gamma; unset means the cube [-radius, radius]^dim
    domain_sampler: Callable[[np.random.Generator, int, float, float], np.ndarray] | None = None

    def in_domain(self, x) -> bool:
        return bool(_inside(self.value_box(as_vector(x, self.dim)[None]))[0])

    def _box(self, x) -> tuple[np.ndarray, np.ndarray]:
        box = self.value_box(as_vector(x, self.dim)[None])
        if not _inside(box)[0]:
            raise OutsideDomain(f"{self.name}: {x} outside the domain")
        return box[0][0], box[1][0]

    def selection(self, x) -> np.ndarray:
        return _selection(*self._box(x))

    def minimal_norm(self, x) -> np.ndarray:
        return _min_norm(*self._box(x))


def minimal_norm_selection(op: SetValuedOperator, x) -> np.ndarray:
    """The value of minimal norm: metric projection of the origin onto the set."""
    return op.minimal_norm(x)


def clamp_tilde(x, bound: float) -> np.ndarray:
    """Radial clamp onto the closed ball of the given radius (identity inside)."""
    v = np.atleast_1d(np.asarray(x, dtype=float))
    if not 0 < bound < math.inf:  # also refuses NaN
        raise ValueError(f"clamp radius must be finite and positive, got {bound}")
    return bound * v / max(l2(v), bound)


def resolvent(op: SetValuedOperator, gamma: float, x, tol: float = 1e-8, with_value=False):
    """Solve ``p + gamma*u = x`` with ``u`` a value at ``p``: a batch of one.  With
    ``with_value`` the pair ``(p, u)``, ``u`` NaN where rounding left it noise."""
    x = as_vector(x, op.dim)
    p, u = resolve_rows(op, np.array([gamma]), x[None], tol)
    if math.isnan(p[0, 0]):
        raise OutsideDomain(f"{op.name}: {x} outside the resolvent domain at gamma = {gamma}")
    return (p[0], u[0]) if with_value else p[0]


def resolve_rows(op: SetValuedOperator, gammas: np.ndarray, X: np.ndarray, tol: float = 1e-8):
    """Resolvents ``P`` of the rows of ``X[N, d]`` at step sizes ``gammas[N]``, and the
    values ``U = (X - P) / gammas`` at them; both NaN outside the resolvent domain.

    Step sizes at or below ``_floor(op)`` are refused, and so is an infinite one (as
    ``NonFiniteInput``, which covers ``resolvent`` and ``yosida`` too); rows in the domain take
    ``op.resolvent_fn`` and ``_verify_rows`` checks them; runs of the proximal point and
    Moudafi schemes take the same pieces, a chunk of steps at a time.
    """
    if X.shape != (len(gammas), op.dim):
        raise DimensionMismatch(f"expected {len(gammas)} rows of dimension {op.dim}, got {X.shape}")
    if not np.isfinite(X).all():
        raise NonFiniteInput(f"expected finite coordinates, got {X[~np.isfinite(X).all(1)][0]}")
    good = (gammas > _floor(op)) & (gammas < math.inf)  # also refuses NaN
    if not good.all():
        raise _refusal(op, gammas[np.argmin(good)])
    inside = None if op.resolvent_domain_fn is None else op.resolvent_domain_fn(gammas, X)
    if inside is not None and not inside.all():
        P, U = np.full(X.shape, np.nan), np.full(X.shape, np.nan)
        P[inside], U[inside] = resolve_rows(op, gammas[inside], X[inside], tol)
        return P, U
    P = op.resolvent_fn(gammas, X)
    U, _, failed = _verify_rows(op, gammas, X, P, tol)
    if failed:
        raise failed[0][1]
    return P, U


def _floor(op: SetValuedOperator) -> float:
    """Step sizes at or below this are refused: 0, or ``-2 * rho`` for a declared negative
    comonotonicity degree ``rho``, where single-valuedness is no longer guaranteed."""
    return -2 * op.rho if op.rho is not None and op.rho < 0 else 0


def _refusal(op: SetValuedOperator, gamma) -> ValueError:
    if not gamma > 0:
        return NonPositiveGamma(f"gamma = {gamma}")
    if gamma == math.inf:
        return NonFiniteInput(f"expected a finite step size, got gamma = {gamma}")
    return ComonotoneStepError(f"{op.name}: rho = {op.rho} incompatible with gamma = {gamma}")


@np.errstate(over="ignore", invalid="ignore")  # inf and NaN rows fail closed, unannounced
def _verify_rows(op: SetValuedOperator, gammas: np.ndarray, X: np.ndarray, P: np.ndarray,
                 tol: float = 1e-8):
    """The values ``U = (X - P) / gammas``, the value box at ``P``, and the first failing
    row as ``[(row, NoConvergence)]`` (``[]`` if none; ``NonFiniteInput`` if its ``p`` passed
    the float range).  Each row is judged alone, by one rule: it passes when ``u`` is within
    ``allow = tol * max(1, |u|) + (d + 1) * |spacing(max(|x|, |p|))| / gamma`` of the value box
    at ``p``, or at ``p`` moved one or two ulps one way through single-valued boxes (``lo ==
    hi`` in that row); its ``U`` row is NaN, noise, where the distance at ``p`` exceeds ``tol *
    max(1, |u|)``.  Distances and spacings are ``_scaled_norms``.  One spacing is ``p`` rounding
    to ``x``, ``d`` the closed form's (an LU solve's backward error grows with ``d``: Higham,
    *Accuracy and Stability of Numerical Algorithms*, 2002, ch. 9); the ulp moves are tan's
    root.  A plain miss within ``tol`` settles its row where its dot cannot have underflowed."""
    U = (X - P) / gammas[:, None]
    box = op.value_box(P)
    miss = _distance(*box, U)
    floor = 0.0 if tol >= (op.dim * _TINY) ** 0.5 else _TINY**0.5  # plain squares underflow below
    if miss.max(initial=0.0) <= tol and (not floor or miss.min(initial=math.inf) >= floor):
        return U, box, []
    rows = np.flatnonzero(~((miss <= tol) & (miss >= floor)))
    x, p, u, lo, hi = X[rows], P[rows], U[rows], box[0][rows], box[1][rows]
    tols = tol * np.maximum(1.0, _norms(u))
    spacings = _scaled_norms(np.spacing(np.maximum(abs(x), abs(p))))
    allow = tols + (op.dim + 1) * spacings / gammas[rows]
    miss = _distance(lo, hi, u, _scaled_norms)
    good = miss <= allow
    for way in (-math.inf, math.inf) if not good.all() else ():
        q, single = p, (lo == hi).all(1)
        for _ in range(2):
            q = np.nextafter(q, way)
            lo_q, hi_q = op.value_box(q)
            single &= (lo_q == hi_q).all(1)
            good |= single & (_distance(lo_q, hi_q, u, _scaled_norms) <= allow)
    U[rows[~(miss <= tols)]] = np.nan
    return U, box, [(int(j), NoConvergence(f"{op.name}: defining inclusion fails at gamma = "
                                           f"{gammas[j]}, x = {X[j]}") if np.isfinite(P[j]).all()
                     else NonFiniteInput(f"{op.name}: the resolvent at gamma = {gammas[j]} passes "
                                         f"the float range, x = {X[j]}"))
                    for j in rows[~good][:1]]


def yosida(op: SetValuedOperator, gamma: float, x, tol: float = 1e-8) -> np.ndarray:
    """Single-valued approximant ``(x - resolvent(x)) / gamma``."""
    _, u = resolvent(op, gamma, x, tol=tol, with_value=True)
    if math.isnan(u[0]):
        raise _yosida_lost(op, gamma, x)
    return u


def _yosida_lost(op: SetValuedOperator, gamma, x) -> NoConvergence:
    return NoConvergence(f"{op.name}: Yosida value lost to rounding at gamma = {gamma}, x = {x}")


# ---------------------------------------------------------------- catalog

def _single_valued(image: Callable[[np.ndarray], np.ndarray], dim: int) -> dict:
    """Value box and graph sampler of ``x -> {image(x)}`` on ``R^dim``, where ``image``
    maps rows of points."""

    def graph_sampler(rng, count, radius):
        X = rng.uniform(-radius, radius, size=(count, dim))
        return X, image(X)

    return dict(value_box=lambda P: (image(P),) * 2, graph_sampler=graph_sampler)


def identity_operator(dim: int = 1) -> SetValuedOperator:
    """The identity on ``R^dim``: ``scaled_identity(1.0, dim)``'s closed forms, the resolvent
    ``X / (1 + gammas[:, None])`` and the values ``1.0 * X``, under its own name, with
    ``rho=None`` and the classes ``matrix_operator`` declares for ``I``.  Each resolvent row
    is the one ``gesv`` gives for ``(1 + gamma) I``: its LU is the matrix itself, and the back
    substitution divides.  One sign differs: ``gesv``'s substitutions subtract zero products,
    which turn an exact ``-0.0`` coordinate into ``+0.0`` ([-0.0, -1.0] at gamma 0.5 gives
    [+0.0, -2/3]), where the division keeps the true ``-0.0``."""
    return replace(scaled_identity(1.0, dim), name=f"identity_{dim}d" if dim > 1 else "identity",
                   rho=None, declared_classes=("monotone", "accretive"))


def matrix_operator(mat: np.ndarray, name: str = "matrix") -> SetValuedOperator:
    """``x -> {A x}``, resolved by ``np.linalg.solve(I + gamma A, x)``, LAPACK's ``gesv``.  A
    one-row call keeps the last ``(gamma, I + gamma A)`` and reuses the matrix while ``gamma``
    repeats (a const schedule, Moudafi's lambda and mu): the same array goes to the same
    ``gesv``, so the bits are those of a fresh solve.  ``I + gamma A`` past the float range
    holds inf, which ``gesv`` turns into NaN rows that the kernel refuses; the overflow is not
    announced."""
    mat = np.atleast_2d(np.asarray(mat, dtype=float))
    dim = mat.shape[0]
    op_norm, eye = float(np.linalg.norm(mat, 2)), np.eye(dim)
    kept = (math.nan, eye)  # the last one-row step size and its I + gamma A

    @np.errstate(over="ignore")
    def system(gammas: np.ndarray) -> np.ndarray:
        return eye + gammas * mat

    def resolvent_fn(gammas: np.ndarray, X: np.ndarray) -> np.ndarray:
        nonlocal kept
        if len(gammas) == 1:  # one proximal-point step: the same gesv as a 2-D system, cheaper
            gamma, M = kept
            if gammas[0] != gamma:
                kept = gamma, M = gammas[0], system(gammas[0])
            return np.linalg.solve(M, X[0])[None]
        return np.linalg.solve(system(gammas[:, None, None]), X[..., None])[..., 0]

    sym = (mat + mat.T) / 2
    monotone = bool(np.all(np.linalg.eigvalsh(sym) >= -1e-12))
    classes = ("monotone", "accretive") if monotone else ()
    return SetValuedOperator(
        name=name,
        dim=dim,
        # bit for bit the one-row x @ mat.T, which the plain X @ mat.T is not
        **_single_valued(lambda X: (X[:, None] @ mat.T)[:, 0], dim),
        resolvent_fn=resolvent_fn,
        rho=None,
        declared_classes=classes,
        norm_bound_on_ball=lambda r: op_norm * r,
        zero_point=np.zeros(dim),
    )


def random_monotone_matrix(rng: np.random.Generator, dim: int) -> SetValuedOperator:
    """Positive-semidefinite symmetric part plus a skew part: monotone but
    not symmetric."""
    if dim > 8:
        raise ValueError("catalog matrices stay small")
    c = rng.normal(size=(dim, dim))
    psd = c @ c.T / dim
    s = rng.normal(size=(dim, dim))
    skew = (s - s.T) / 2
    return matrix_operator(psd + skew, name=f"psd_skew_{dim}d")


def _abs_graph_loop(rng, count, radius):
    """Graph samples of the subdifferential of ``|.|``, one at a time: a quarter at the kink
    0 with a value uniform in [-1, 1], the rest uniform in [-radius, radius] but not 0."""
    X, U = np.zeros((count, 1)), np.zeros((count, 1))
    for x, u in zip(X, U):
        if rng.random() < 0.25:  # the kink, with any value in [-1, 1]
            u[0] = rng.uniform(-1.0, 1.0)
        else:
            while x[0] == 0.0:
                x[0] = rng.uniform(-radius, radius)
            u[0] = np.sign(x[0])
    return X, U


def abs_subdifferential() -> SetValuedOperator:
    """Sign at nonzero points, the full interval [-1, 1] at zero."""

    def value_box(P):
        sign, kink = np.sign(P), P == 0
        return (sign - kink, sign + kink) if kink.any() else (sign, sign)

    def sampler(rng, count, radius):
        """``_abs_graph_loop``'s samples from one draw: each row of ``rng.random((count, 2))``
        is a sample's roll and value, the doubles the loop's ``random()`` and ``uniform()``
        take, mapped as ``uniform`` maps them, so the stream goes on as after the loop.  A
        point at exactly 0.0 off the kink (chance 2**-53), which the loop draws again, or a
        span past the float range, which ``uniform`` refuses, replays the loop from the
        generator's state before the draw."""
        state = rng.bit_generator.state
        roll, v = rng.random((count, 2)).T
        kink, span = roll < 0.25, radius - -radius
        x = np.where(kink, 0.0, -radius + span * v)
        if math.isfinite(span) and ((x != 0.0) | kink).all():
            return x[:, None], np.where(kink, -1.0 + 2.0 * v, np.sign(x))[:, None]
        rng.bit_generator.state = state
        return _abs_graph_loop(rng, count, radius)

    return SetValuedOperator(
        name="abs_subdiff",
        dim=1,
        value_box=value_box,
        resolvent_fn=lambda gammas, X: np.sign(X) * np.maximum(np.abs(X) - gammas[:, None], 0.0),
        rho=None,
        declared_classes=("monotone", "accretive"),
        norm_bound_on_ball=lambda r: 1.0,
        graph_sampler=sampler,
        zero_point=np.zeros(1),
    )


def box_indicator(lower, upper) -> SetValuedOperator:
    """Normal cone of a coordinate box: zero inside, outward rays on faces (points within
    1e-9 of a face count as on it)."""
    lower = np.atleast_1d(np.asarray(lower, dtype=float))
    upper = np.atleast_1d(np.asarray(upper, dtype=float))
    dim, face_tol = len(lower), 1e-9

    out_lo, out_hi = lower - face_tol, upper + face_tol  # beyond these, outside the box
    on_lo, on_hi = lower + face_tol, upper - face_tol  # up to these, on a face

    def value_box(P):
        nan = np.where((P >= out_lo) & (P <= out_hi), 0.0, np.nan)
        return np.where(P <= on_lo, -np.inf, 0.0) + nan, np.where(P >= on_hi, np.inf, 0.0) + nan

    def sampler(rng, count, radius):
        X, U = np.empty((count, dim)), np.zeros((count, dim))
        for x, u in zip(X, U):
            x[:] = lower + (upper - lower) * rng.random(dim)
            for i in range(dim):
                roll = rng.random()
                if roll < 0.2:
                    x[i], u[i] = upper[i], rng.exponential(1.0)
                elif roll < 0.4:
                    x[i], u[i] = lower[i], -rng.exponential(1.0)
        return X, U

    center = (lower + upper) / 2
    return SetValuedOperator(
        name="box_normal_cone",
        dim=dim,
        value_box=value_box,
        resolvent_fn=lambda gammas, X: np.minimum(np.maximum(X, lower), upper),
        rho=None,
        declared_classes=("monotone", "accretive"),
        norm_bound_on_ball=lambda r: math.inf,
        graph_sampler=sampler,
        zero_point=center,
    )


def scaled_identity(c: float, dim: int = 2) -> SetValuedOperator:
    """Multiplication by ``c``; for negative ``c`` comonotone of degree ``1/c``."""
    rho = 1.0 / c if c != 0 else None
    classes = ("monotone", "accretive", "comonotone") if c >= 0 else ("comonotone",)
    return SetValuedOperator(
        name=f"scaled_identity_{c}",
        dim=dim,
        **_single_valued(lambda X: c * X, dim),
        resolvent_fn=lambda gammas, X: X / (1 + gammas[:, None] * c),
        rho=rho,
        declared_classes=classes,
        norm_bound_on_ball=lambda r: abs(c) * r,
        zero_point=np.zeros(dim),
    )


# The least batch that tan_subgradient bisects as arrays: below it numpy's cost per step
# outweighs the rows it serves, and rows are bisected one at a time (BENCH_resolvent.json).
_TAN_LOCKSTEP_ROWS = 96


def tan_subgradient() -> SetValuedOperator:
    """Derivative of the tangent on (0, pi/2): monotone, single-valued,
    unbounded near the right endpoint, with a genuinely partial resolvent."""
    lo, hi = 0.0, math.pi / 2
    top = hi - 1e-15  # the bisection's bracket is [1e-15, top]

    def deriv(P: np.ndarray) -> np.ndarray:
        """``1.0 / math.cos(p) ** 2`` on every entry, bit for bit: ``float_power(c, 2.0)``
        rounds as ``c ** 2`` does (``c * c`` does not)."""
        return 1.0 / np.float_power(np.cos(P), 2.0)

    def value_box(P):
        p = P[:, 0]
        v = deriv(np.where((lo < p) & (p < hi), p, np.nan))[:, None]
        return v, v

    def sides(gamma: float, x: float) -> tuple[float, float]:
        """Bounds ``(left, right)`` outside which ``bisect``'s midpoints lie on their side of
        the root of ``f(p) = p + gamma / cos(p)**2 - x``, whatever its predicate rounds to;
        ``(-inf, inf)`` where there is no root (``x <= gamma``, not finite) or Newton fails."""
        if not 0.0 < gamma < x < math.inf:
            return -math.inf, math.inf
        # Newton from the right, from two bounds above the root.  Soundness: f' >= 1 on
        # [0, pi/2), so f(m) has the sign of m - r and |f(m)| > d where |m - r| > |f(r)| + d.
        # The predicate's x + f(m) is within 5 eps of exact and f(r) within 5 eps (x + |f(r)|)
        # (eps = 2**-52; libm's cos and tan within an ulp, then four roundings): the margin
        # |f(r)| + 32 eps (x + |f(r)|) covers both, and r -+ margin rounding, 3 times over.
        tol, most = 2.0**-47 * x, min(x, top)  # 32 eps x
        r = min(x - gamma, math.atan(math.sqrt(x / gamma - 1.0)), top)
        for _ in range(8):
            t = math.tan(r)
            w = 1.0 + t * t  # 1 / cos(r)**2
            f = r + gamma * w - x
            step = f / (1.0 + 2.0 * gamma * t * w)
            if abs(step) <= tol:
                margin = abs(f) * (1.0 + 2.0**-47) + tol
                return r - margin, r + margin
            r -= step
            if not 0.0 <= r <= most:
                break
        return -math.inf, math.inf

    def bisect(gamma: float, target: float) -> float:
        a, b, cos = 1e-15, top, math.cos
        left, right = sides(gamma, target)
        for _ in range(200):
            mid = (a + b) * 0.5  # (a + b) / 2 to the bit, without converting the 2
            if mid == a or mid == b:  # the bracket is one ulp wide: later steps change nothing
                return mid
            if mid < left or not mid > right and mid + gamma * (1.0 / cos(mid) ** 2) <= target:
                a = mid
            else:
                b = mid
        return (a + b) / 2

    def bisect_rows(gammas: np.ndarray, targets: np.ndarray) -> np.ndarray:
        """``bisect`` on every row in lockstep, bit for bit: once a row's midpoint meets an
        end of its bracket, later steps leave that midpoint as it is.  So the test that all
        have met one waits until step 50: a bracket starts 1.57 wide and a float below pi/2
        is at most 2**-52 from the next, so no midpoint meets an end before step 52."""
        a, b = np.full(len(gammas), 1e-15), np.full(len(gammas), top)
        for step in range(200):
            mid = (a + b) / 2
            if step >= 50 and ((mid == a) | (mid == b)).all():
                return mid
            go = mid + gammas * deriv(mid) <= targets
            a, b = np.where(go, mid, a), np.where(go, b, mid)
        return (a + b) / 2

    def resolvent_fn(gammas: np.ndarray, X: np.ndarray) -> np.ndarray:
        if len(gammas) < _TAN_LOCKSTEP_ROWS:
            return np.array([*map(bisect, gammas.tolist(), X[:, 0].tolist())])[:, None]
        return bisect_rows(gammas, X[:, 0])[:, None]

    def sampler(rng, count, radius):
        X = rng.uniform(lo + 1e-3, hi - 1e-3, size=(count, 1))
        return X, deriv(X)

    return SetValuedOperator(
        name="tan_subgradient",
        dim=1,
        value_box=value_box,
        resolvent_fn=resolvent_fn,
        resolvent_domain_fn=lambda gammas, X: X[:, 0] > gammas,
        rho=None,
        declared_classes=("monotone",),
        norm_bound_on_ball=lambda r: math.inf,
        graph_sampler=sampler,
        domain_sampler=lambda rng, n, g, r: np.abs(rng.uniform(-r, r, size=(n, 1))) + g + 1e-3,
    )


@dataclass(frozen=True)
class OperatorCatalogEntry:
    build: Callable[[np.random.Generator], SetValuedOperator]
    gamma_grid: tuple[float, ...]


STANDARD_GAMMAS = (0.25, 0.5, 1.0, 2.0, 4.0)
COMONOTONE_GAMMAS = (8.0, 16.0)

CATALOG: dict[str, OperatorCatalogEntry] = {
    "identity": OperatorCatalogEntry(lambda rng: identity_operator(2), STANDARD_GAMMAS),
    "psd_skew": OperatorCatalogEntry(lambda rng: random_monotone_matrix(rng, 6), STANDARD_GAMMAS),
    "abs_subdiff": OperatorCatalogEntry(lambda rng: abs_subdifferential(), STANDARD_GAMMAS),
    "box_normal_cone": OperatorCatalogEntry(
        lambda rng: box_indicator([-1.0, -1.0, -1.0], [1.0, 1.0, 1.0]), STANDARD_GAMMAS
    ),
    "neg_half_identity": OperatorCatalogEntry(
        lambda rng: scaled_identity(-0.5, 2), COMONOTONE_GAMMAS
    ),
    "tan_subgradient": OperatorCatalogEntry(lambda rng: tan_subgradient(), STANDARD_GAMMAS),
}


def build_catalog(seed: int = 0) -> dict[str, SetValuedOperator]:
    rng = np.random.default_rng(seed)
    return {name: entry.build(rng) for name, entry in CATALOG.items()}


# ---------------------------------------------------------------- checks

@dataclass
class CheckReport:
    name: str
    checks: int = 0
    violations: int = 0
    worst_slack: float = math.inf
    witness: str = ""

    @classmethod
    def from_slacks(cls, name: str, slacks, tols, show: dict, keep=slice(None)) -> CheckReport:
        """Report over the slacks of the samples that ``keep`` selects (all by default); the
        witness is the worst violating kept row of each ``show`` column, as ``key=value, ...``."""
        slacks = np.asarray(slacks, dtype=float).ravel()
        rows = np.arange(slacks.size)[keep]
        kept, bad = slacks[rows], ~(slacks >= -np.asarray(tols, dtype=float).ravel())[rows]
        worst = float(kept[np.argmin(kept)]) if kept.size else math.inf
        report = cls(name, kept.size, int(bad.sum()), worst)
        if report.violations:
            i = rows[np.argmin(np.where(bad, kept, np.inf))]
            report.witness = ", ".join(f"{key}={column[i]}" for key, column in show.items())
        return report

    @property
    def passed(self) -> bool:
        return self.checks > 0 and self.violations == 0

    def as_dict(self) -> dict:
        worst = self.worst_slack if math.isfinite(self.worst_slack) else None
        return {**vars(self), "worst_slack": worst, "passed": self.passed}


# The scales at which accretivity and the norm form of firm nonexpansiveness test that
# a norm of a blend of differences does not drop
_BLEND_GRID = (0.25, 0.5, 1.0, 2.0, 4.0)


def _blend(a, b, norm=_norms):
    """The least over ``_BLEND_GRID`` of ``norm(r*a + (1-r)*b) - norm(b)``."""
    return np.min([norm(r * a + (1 - r) * b) for r in _BLEND_GRID], axis=0) - norm(b)


def _alpha_for(op: SetValuedOperator, gamma):
    rho = op.rho if op.rho is not None else 0.0
    return 1.0 / (2.0 * (rho / gamma + 1.0))


def _averaged(s, t):
    return s.alpha * (s.nxy**2 - s.nj**2) - (1 - s.alpha) * s.nres**2


def _conical(s, t):
    return 2 * s.alpha * _dots(s.dj, s.dres) - (1 - 2 * s.alpha) * s.nres**2


def _displacement(s, t):
    return (2 + s.gamma / s.lam) * _norms(s.x - s.jl) - _norms(s.x - s.jgx)


def _uniqueness(s, t):  # t * t, not t**2, which overflows for a tolerance past 1e154
    return np.sqrt(np.maximum(0.0, 2 * s.nsel * t + t * t)) + t - _norms(s.y - s.sel)


def _unit(s):
    return 1.0


# The instances a check runs on in the default suite: those declaring a negative degree
# rho (comonotone), the others (monotone), both, or neither (it runs only when asked for)
_ANY, _MONOTONE, _COMONOTONE = ("monotone", "comonotone"), ("monotone",), ("comonotone",)

# Every check of the property suite (Bauschke & Combettes, ch. 4 and 23), in report order:
# its group and name, the sample set it reads, its slack given that set and the
# tolerances, the factor on the tolerance, and the instances it runs on.
_CHECKS = (
    ("class", "monotone", "graph", lambda s, t: _dots(s.dx, s.du), _unit, _MONOTONE),
    ("class", "comonotone", "graph",
     lambda s, t: _dots(s.dx, s.du) - s.rho * _norms(s.du) ** 2, _unit, _COMONOTONE),
    ("class", "accretive", "graph", lambda s, t: _blend(s.dx + s.du, s.dx, s.norm), _unit, ()),
    ("resolvent", "defining_inclusion_unique", "inclusion",
     lambda s, t: t - _norms(s.p - s.z), _unit, _ANY),
    ("resolvent", "firmly_nonexpansive_norm_form", "pairs",
     lambda s, t: _blend(s.dxy, s.dj), _unit, _MONOTONE),
    ("resolvent", "firmly_nonexpansive_inner_form", "pairs",
     lambda s, t: _dots(s.dxy, s.dj) - s.nj**2, _unit, _MONOTONE),
    ("resolvent", "nonexpansive", "pairs", lambda s, t: s.nxy - s.nj, _unit, _MONOTONE),
    ("resolvent", "averaged_form", "pairs", _averaged, lambda s: np.maximum(1.0, s.nxy**2), _ANY),
    ("resolvent", "conical_form", "pairs", _conical, lambda s: np.maximum(1.0, s.nxy**2), _ANY),
    ("resolvent", "resolvent_identity", "changes",
     lambda s, t: t - _norms(s.jl - s.jg), lambda s: np.maximum(1.0, s.nx), _ANY),
    ("resolvent", "displacement_bound", "displacement",
     _displacement, lambda s: np.maximum(1.0, s.nx), _MONOTONE),
    ("resolvent", "yosida_membership", "pairs",
     lambda s, t: np.where(s.member, 1.0, -1.0), _unit, _ANY),
    ("resolvent", "yosida_lipschitz", "pairs",
     lambda s, t: 2 / s.gamma * s.nxy - s.ygap, lambda s: np.maximum(1.0, s.nxy), _MONOTONE),
    ("resolvent", "yosida_norm_minimality", "minimality",
     lambda s, t: s.nsel - s.nu, lambda s: np.maximum(1.0, s.nsel), _MONOTONE),
    ("min_selection", "min_selection_membership", "selection",
     lambda s, t: np.where(s.miss <= t, 1.0, -1.0), _unit, _ANY),
    ("min_selection", "min_selection_variational", "values",
     lambda s, t: -_dots(s.y - s.sel, -s.sel), _unit, _ANY),
    ("min_selection", "min_selection_uniqueness", "near_values", _uniqueness, _unit, _ANY),
    ("closedness", "graph_closedness", "sequences",
     lambda s, t: np.where(s.miss <= 1e-4 * np.maximum(1.0, s.nu), 1.0, -1.0), _unit, _ANY),
)

# The groups of ``oplab verify``, in report order
CHECK_GROUPS = tuple(dict.fromkeys(row[0] for row in _CHECKS))


def _rows(op: SetValuedOperator, group: str, name: str | None = None) -> list[tuple]:
    """The rows of ``group`` named ``name``, or else those that run on ``op``."""
    on = "comonotone" if op.rho is not None and op.rho < 0 else "monotone"
    return [row for row in _CHECKS
            if row[0] == group and (row[1] == name if name else on in row[5])]


def _check(op: SetValuedOperator, group: str, sets: dict, tol: float, name: str | None = None
           ) -> dict[str, CheckReport]:
    """Report ``_rows(op, group, name)``, each through ``CheckReport.from_slacks``.  ``sets``
    maps each sample set to the function that builds it (the resolvent suite's first one
    resolves them all); only the sets these rows read are built, once each, in the order
    ``sets`` lists them, before any row is reported."""
    rows = _rows(op, group, name)
    if name and not rows:
        raise ValueError(f"unknown {group} check {name!r}")
    reads = {row[2] for row in rows}
    built = {key: build() for key, build in sets.items() if key in reads}
    reports = {}
    for _, check, key, slack, scale, _ in rows:
        s = built[key]
        tols = tol * scale(s)
        keep = getattr(s, "keep", slice(None))  # the sets that skip samples say which count
        reports[check] = CheckReport.from_slacks(check, slack(s, tols), tols, s.show, keep)
    return reports


def check_group(op: SetValuedOperator, group: str, rng: np.random.Generator,
                gammas: Sequence[float] = STANDARD_GAMMAS, samples: int = 300, tol: float = 1e-8
                ) -> list[CheckReport]:
    """One group of ``oplab verify``: the reports of its rows that run on ``op``, in table
    order, through the group's entry point, named at call time so that a wrapper bound to
    the module attribute sees the call.  The class rows read the degree ``op.rho``."""
    if group == "class":
        return [check_operator_class(op, row[1], rng, samples, rho=op.rho, tol=tol)
                for row in _rows(op, group)]
    if group == "resolvent":
        return [*check_resolvent_properties(op, rng, gammas, samples, tol=tol).values()]
    if group == "min_selection":
        return [*check_minimal_norm_selection(op, rng, max(20, samples // 5), tol).values()]
    if group == "closedness":
        return [graph_closedness_check(op, rng)]
    raise ValueError(f"unknown check group {group!r}")


def check_operator_class(op: SetValuedOperator, kind: str, rng: np.random.Generator,
                         samples: int = 300, radius: float = 5.0, rho: float | None = None,
                         norm_p: float = 2.0, tol: float = 1e-8) -> CheckReport:
    """Sampled falsification of a monotonicity-style class inequality.

    ``kind`` is ``monotone`` (inner product of differences nonnegative),
    ``accretive`` (norm of difference nondecreasing along the graph
    direction at each scale of ``_BLEND_GRID``, any p-norm) or ``comonotone``
    (inner product dominates ``rho`` times the squared value gap).
    """
    x, u = op.graph_sampler(rng, samples, radius)
    if kind == "comonotone" and rho is None:
        raise ValueError("comonotone checks need a degree rho")
    graph = SimpleNamespace(dx=x[:-1] - x[1:], du=u[:-1] - u[1:], rho=rho,
                            norm=functools.partial(np.linalg.norm, ord=norm_p, axis=-1),
                            show={"x": x[:-1], "y": x[1:]})
    [report] = _check(op, "class", {"graph": lambda: graph}, tol, kind).values()
    report.name += "" if rho is None else f"(rho={rho})"
    return report


def _resolve_round(op: SetValuedOperator, requests: list, tol: float) -> list[tuple]:
    """``resolve_rows(op, gammas, X, tol)`` of each ``(gammas, X)`` in ``requests``, from one
    call over all their rows: the kernel resolves each row on its own, so a request's rows
    are those its own call gives.  A call that raises is replayed a request at a time, and
    so raises what the first request to fail raises in a call of its own."""
    gammas, X = (np.concatenate(column) for column in zip(*requests))
    try:
        P, U = resolve_rows(op, gammas, X, tol)
    except Exception:
        return [resolve_rows(op, g, Y, tol) for g, Y in requests]
    cuts = np.cumsum([len(g) for g, _ in requests[:-1]])
    return [*zip(np.split(P, cuts), np.split(U, cuts))]


def _suite_samples(op, rng, gammas, samples, radius, tol, reads) -> dict[str, Callable]:
    """The resolvent suite's sample sets, as rows tagged with their step sizes, each with
    the columns it ``show``s for a witness.  Every point is drawn here, in a fixed order.
    The first set built resolves the points of every set in ``reads`` in two
    ``_resolve_round``s, each in the order of a call per set: first the pairs (x, then y),
    the inclusion points, the minimality points and the change points at lambda; then the
    blends at gamma, which read the first round's resolvents, and the change points at
    gamma if ``displacement`` is read.  So a failing suite raises what the first failing call
    of that order, a call per set, raises."""
    draw = op.domain_sampler or (lambda rng, n, gamma, r: rng.uniform(-r, r, size=(n, op.dim)))
    points, graph = [], []
    for gamma in gammas:
        points.append(draw(rng, samples, gamma, radius)[: samples // 2 * 2])
        graph.append(op.graph_sampler(rng, max(10, samples // 4), radius))
    steps = [(gamma, lam) for gamma in gammas for lam in gammas]
    changes = [draw(rng, max(10, samples // 5), max(step), radius) for step in steps]

    # consecutive pairs of the domain points drawn at each step size, x and y in one request
    # with x first, so a failing x row is still the one reported
    pg = np.repeat(gammas, [len(p) // 2 for p in points])
    x, y = np.concatenate(points)[0::2], np.concatenate(points)[1::2]
    # graph points (z, w): z + gamma*w resolves to z, and z lies in dom A
    z, w = np.concatenate(graph, axis=1)  # each step size's (Z, W) batch, one after another
    gg = np.repeat(gammas, len(z) // len(gammas))
    show = {"gamma": gg, "z": z}
    # parameter changes: resolvents at lam and, through the identity, at gamma
    cg, lam = np.repeat(steps, [len(c) for c in changes], axis=0).T
    cx = np.concatenate(changes)
    # the requests to resolve: the sets read, where the change points at lambda and the
    # blends at gamma serve both changes and displacement
    need = {*reads, *(("changes", "blends") if {"changes", "displacement"} & {*reads} else ())}

    def resolve(requests: dict) -> dict:
        keys = [key for key in requests if key in need]
        return dict(zip(keys, _resolve_round(op, [requests[key] for key in keys], tol)))

    @functools.cache
    def resolved() -> dict:
        """Each request's ``(P, U)``, the two rounds over the sets in ``need``."""
        requests = {"pairs": (np.concatenate([pg, pg]), np.concatenate([x, y])),
                    "inclusion": (gg, z + gg[:, None] * w), "minimality": (gg, z),
                    "changes": (lam, cx)}
        out = resolve(requests)
        if "blends" in need:
            ratio = (cg / lam)[:, None]
            out |= resolve({"blends": (cg, ratio * cx + (1 - ratio) * out["changes"][0]),
                            "displacement": (cg, cx)})
        # a value lost to rounding (p finite, u NaN) is read off the box at p, as the point
        # of it nearest (x - p) / gamma; a proximal-point run reads its value residual there
        for key in ("pairs", "minimality"):
            if key in out:
                (g, X), (P, U) = requests[key], out[key]
                lost = np.isnan(U).any(axis=1) & ~np.isnan(P).any(axis=1)
                if lost.any():
                    lo, hi = op.value_box(P[lost])
                    U[lost] = np.clip((X[lost] - P[lost]) / g[lost, None], lo, hi)
        return out

    def pairs():
        jxy, uxy = resolved()["pairs"]
        (jx, jy), (u, uy) = np.split(jxy, 2), np.split(uxy, 2)
        dres = (x - jx) - (y - jy)
        return SimpleNamespace(
            gamma=pg, alpha=_alpha_for(op, pg), dxy=x - y, dj=jx - jy, dres=dres,
            nxy=_norms(x - y), nj=_norms(jx - jy), nres=_norms(dres), ygap=_norms(u - uy),
            # the kernel verified u on every row it solved; a NaN row (x outside the
            # resolvent domain) is no member
            member=~np.isnan(u).any(axis=1), show={"gamma": pg, "x": x, "y": y})

    def minimality():
        jz, uz = resolved()["minimality"]  # z outside the resolvent domain is skipped
        return SimpleNamespace(nsel=_norms(_min_norm(*op.value_box(z))), nu=_norms(uz), show=show,
                               keep=~np.isnan(jz).any(axis=1))

    @functools.cache
    def changed():
        r = resolved()
        return SimpleNamespace(gamma=cg, lam=lam, x=cx, nx=_norms(cx), jl=r["changes"][0],
                               jg=r["blends"][0], show={"gamma": cg, "lambda": lam, "x": cx})

    sets = {
        "pairs": pairs,
        "inclusion": lambda: SimpleNamespace(z=z, p=resolved()["inclusion"][0], show=show),
        "minimality": minimality,
        "changes": changed,
        # the displacement bound also reads the resolvents at gamma of the points themselves
        "displacement": lambda: SimpleNamespace(**vars(changed()),
                                                jgx=resolved()["displacement"][0]),
    }
    # at extreme step sizes a point (z + gamma * w, a blend at gamma / lambda) or a gap may
    # pass the float range: resolve_rows refuses such a point, and a gap's slack fails
    return {key: np.errstate(over="ignore", invalid="ignore")(build) for key, build in sets.items()}


def check_resolvent_properties(op: SetValuedOperator, rng: np.random.Generator,
                               gammas: Sequence[float] = STANDARD_GAMMAS, samples: int = 200,
                               radius: float = 5.0, tol: float = 1e-8) -> dict[str, CheckReport]:
    """Sampled verification of the resolvent property suite: the ``resolvent`` rows of
    ``_CHECKS`` that run on ``op``, the averaged and conical forms with the constant of
    its degree rho.  Parameter-change identities pair every two step sizes."""
    if not gammas:
        raise ValueError("empty step-size grid")
    reads = {row[2] for row in _rows(op, "resolvent")}
    return _check(op, "resolvent", _suite_samples(op, rng, gammas, samples, radius, tol, reads),
                  tol)


def resolvent_param_modulus(b: float, l_prime: int, k: int) -> int:
    """Resolution exponent making the resolvent parameter-continuous.

    Keeping the parameter within ``2**-j`` of a reference parameter that is
    at least ``2**-l_prime``, with displacement bound ``b``, moves the
    resolvent by at most ``2**-k``.  Bounds below one clamp to one.
    """
    if l_prime < 0 or k < 0:
        raise ValueError("exponents are naturals")
    b = max(float(b), 1.0)
    return math.floor(k + l_prime + math.log2(b))


_MODULUS_TOL = 1e-9  # the slack that the two modulus checks allow each comparison


@dataclass(frozen=True)
class ModulusCheck:
    j: int
    premise_holds: bool
    bound_holds: bool
    lhs: float
    rhs: float


def verify_resolvent_param_modulus(
    op: SetValuedOperator,
    x,
    gamma: float,
    gamma_prime: float,
    b: float,
    l_prime: int,
    k: int,
) -> ModulusCheck:
    """Instantiate the parameter-continuity statement at one sample."""
    x, tol = as_vector(x, op.dim), _MODULUS_TOL
    if gamma_prime < 2.0**-l_prime:
        raise PreconditionViolated(f"gamma' = {gamma_prime} below 2^-{l_prime}")
    jp = resolvent(op, gamma_prime, x)
    displacement = l2(x - jp)
    if displacement > b + tol:
        raise PreconditionViolated(f"displacement {displacement} exceeds b = {b}")
    j = resolvent_param_modulus(b, l_prime, k)
    premise = abs(gamma - gamma_prime) <= 2.0**-j + tol
    lhs = l2(resolvent(op, gamma, x) - jp)
    rhs = 2.0**-k
    return ModulusCheck(j, premise, (not premise) or lhs <= rhs + tol, lhs, rhs)


def check_minimal_norm_selection(
    op: SetValuedOperator, rng: np.random.Generator, samples: int = 100, tol: float = 1e-8
) -> dict[str, CheckReport]:
    """The minimal-norm value is a value, variationally characterised and
    unique: any value of (nearly) minimal norm is (nearly) the selection.  The first
    ``samples`` domain points among ``50 * samples`` candidates in ``[-3, 3]^d`` each get
    20 values drawn from their box, infinite faces cut at distance 10."""
    X = rng.uniform(-3.0, 3.0, size=(50 * samples, op.dim))
    box = op.value_box(X)
    first = np.flatnonzero(_inside(box))[:samples]
    x, lo, hi = X[first], box[0][first], box[1][first]
    sel = _min_norm(lo, hi)
    top = np.where(np.isinf(hi), 10.0, hi)
    bottom = np.minimum(np.where(np.isinf(lo), -10.0, lo), top)
    y = bottom[:, None] + (top - bottom)[:, None] * rng.random((len(x), 20, op.dim))
    values = SimpleNamespace(y=y, sel=sel[:, None], nsel=_norms(sel)[:, None],
                             show={"x": np.repeat(x, 20, axis=0), "y": y.reshape(-1, op.dim)})
    return _check(op, "min_selection", {
        "selection": lambda: SimpleNamespace(miss=_distance(lo, hi, sel), show={"x": x}),
        "values": lambda: values,
        # only values of near-least norm count
        "near_values": lambda: SimpleNamespace(
            **vars(values), keep=(_norms(y) <= values.nsel + tol).ravel()),
    }, tol)


def uc_modulus_check(
    op: SetValuedOperator,
    modulus: Callable[[int], int],
    rng: np.random.Generator,
    samples: int = 100,
) -> CheckReport:
    """Uniform graph-continuity: arguments in ``[-5, 5]^d`` closer than the modulus
    threshold have one-sidedly close value sets at each resolution k = 0..3."""
    k = np.repeat(np.arange(4), samples)
    delta = np.repeat([1.0 / (modulus(j) + 1) for j in range(4)], samples)
    x = rng.uniform(-5.0, 5.0, size=(len(k), op.dim))
    step = rng.normal(size=x.shape)
    y = x + step * (rng.random(len(k)) * delta * 0.999 / np.maximum(_norms(step), 1e-12))[:, None]
    excess = one_sided_excess(op.value_box(x), op.value_box(y))
    return CheckReport.from_slacks(  # pairs with an end outside the domain are skipped
        "uniform_continuity_modulus", 1.0 / (k + 1) - excess, _MODULUS_TOL,
        {"k": k, "x": x, "y": y}, ~np.isnan(excess))


def range_condition_check(
    op: SetValuedOperator,
    gamma_fn: Callable[[int], float],
    alpha_fn: Callable[[int], int],
    bound: float,
    center,
    rng: np.random.Generator,
    samples: int = 50,
    tol: float = 1e-8,
) -> dict[str, CheckReport]:
    """Bounded range condition along a parameter sequence, at n = 0, 1, 2, 3, 5 and 8.

    Every sampled domain point in the ball splits as ``x = z + gamma_n * w``
    with ``w`` a value at ``z`` and ``z`` still in the ball; when the ball
    is centred at the origin, ``w`` obeys the inverse-parameter norm bound
    ``bound * 2**(alpha_n + 1)``.
    """
    center, n_grid = as_vector(center, op.dim), (0, 1, 2, 3, 5, 8)
    gammas = [gamma_fn(n) for n in n_grid]
    for n, gamma in zip(n_grid, gammas):
        if gamma <= 0:
            raise NonPositiveGamma(f"gamma_{n} = {gamma}")
        if 2.0 ** -alpha_fn(n) >= gamma:
            raise PreconditionViolated(f"alpha_{n} fails to witness gamma_{n} > 0")
    ns = np.repeat(n_grid, samples)
    x = center + rng.uniform(-1, 1, size=(len(ns), op.dim)) * bound / math.sqrt(op.dim)
    inside = _inside(op.value_box(x))
    ns, x = ns[inside], x[inside]
    z, w = resolve_rows(op, np.repeat(gammas, samples)[inside], x, tol)
    split = ~np.isnan(z).any(axis=1)
    lost = split & np.isnan(w).any(axis=1)  # z is the resolvent, but w = (x - z) / gamma is noise
    if lost.any():
        n = ns[lost][0]
        raise NoConvergence(f"{op.name}: split lost to rounding at gamma_{n} = {gamma_fn(n)}")
    slacks = {
        "range_split_membership": (np.where(split, 1.0, -1.0), slice(None)),
        "range_split_in_ball": (bound + tol - _norms(z - center), split),
    }
    if l2(center) == 0.0:
        wmax = np.repeat([bound * 2.0 ** (alpha_fn(n) + 1) for n in n_grid], samples)[inside]
        slacks["range_split_w_bound"] = (wmax - _norms(w), split)
    show = {"n": ns, "x": x}
    return {k: CheckReport.from_slacks(k, s, tol, show, keep) for k, (s, keep) in slacks.items()}


def graph_closedness_check(op: SetValuedOperator, rng: np.random.Generator) -> CheckReport:
    """Limits of convergent graph sequences stay in the graph (sampled): 25 sequences of
    40 points, the last point's value within 1e-4 (relative) of the limit's value set."""
    limit, _ = op.graph_sampler(rng, 25, 3.0)
    start = limit + rng.normal(size=limit.shape)

    def sequences():
        # x_i = limit + (start - limit) / 2**i for i = 1..40, one sequence per row
        seq = limit[:, None] + (start - limit)[:, None] / 2.0 ** np.arange(1, 41)[:, None]
        seq_box = [b.reshape(seq.shape) for b in op.value_box(seq.reshape(-1, op.dim))]
        lo, hi = op.value_box(limit)
        u_last = _selection(seq_box[0][:, -1], seq_box[1][:, -1])
        # sequences that leave the domain, or whose limit lies outside it, are skipped
        return SimpleNamespace(miss=_distance(lo, hi, u_last), nu=_norms(u_last), show={"x": limit},
                               keep=_inside(seq_box).all(axis=1) & _inside((lo, hi)))

    return _check(op, "closedness", {"sequences": sequences}, 0.0)["graph_closedness"]
