"""Numerical laboratory for set-valued operators on R^d.

Operators are given intensionally: a batched value box, optional closed-form
resolvents, and a graph sampler.  Every value set is a coordinate box, so
``value_box(P[N, d])`` returns ``(lo, hi)``: ``lo == hi`` for a single value, faces
at -inf or inf allowed, NaN rows outside the domain.  Each value query (domain,
membership distance, selection, least-norm point, sampling, one-sided excess) is
derived from it once.  Checks are sampled falsification, reported with worst slacks.

Slack convention: each property is one array of slacks over the samples a
check draws.  A sample passes when ``slack >= -tol``, so a negative slack
beyond the tolerance is a violation and a non-finite slack fails; only the
worst violating sample is formatted, as the witness.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from types import SimpleNamespace
from typing import Callable, Sequence

import numpy as np


class NonPositiveGamma(ValueError):
    """Resolvent and Yosida parameters must be strictly positive."""


class OutsideDomain(ValueError):
    """Point not in the relevant domain."""


class NoConvergence(RuntimeError):
    """Iterative resolvent fallback failed to verify its defining inclusion."""


class NotAvailable(RuntimeError):
    """No closed form or certified iteration applies."""


class PreconditionViolated(ValueError):
    """A quantitative hypothesis of a modulus statement fails."""


class ComonotoneStepError(ValueError):
    """The step size is incompatible with the declared comonotonicity degree."""


class DimensionMismatch(ValueError):
    """A point or operator does not have the dimension the call needs."""


class NonFiniteInput(ValueError):
    """A point with an infinite or NaN coordinate."""


def l2(v: np.ndarray) -> float:
    return float(np.linalg.norm(v))


def _dots(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Inner products along the last axis, through the same dot kernel as
    ``float(a_i @ b_i)`` so each entry equals the per-vector value."""
    return (a[..., None, :] @ b[..., :, None])[..., 0, 0]


def _norms(a: np.ndarray) -> np.ndarray:
    """``l2`` along the last axis."""
    return np.sqrt(_dots(a, a))


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


def _distance(lo: np.ndarray, hi: np.ndarray, U: np.ndarray) -> np.ndarray:
    """Distance from each row of ``U`` to its value box; NaN, failing every tolerance,
    on a NaN row.  ``fmax`` drops only the NaN of ``inf - inf``, so an infinite
    coordinate on an infinite face is inside.  Single values (``lo is hi``) take the
    shorter ``|U - hi|``, the same numbers."""
    if lo is hi:
        return _norms(np.abs(U - hi))
    return _norms(np.maximum(np.fmax(U - hi, lo - U), 0.0))


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
    """An operator ``x -> subset of R^d`` with optional numerics attached."""

    name: str
    dim: int
    # P[N, d] -> (lo, hi): the value at P[i] is the box [lo[i], hi[i]], faces at -inf/inf
    # allowed, lo == hi for a single value; a row outside the domain holds NaN
    value_box: Callable[[np.ndarray], tuple[np.ndarray, np.ndarray]]
    # (gammas[N], X[N, d]) -> resolvents P[N, d], and -> bool[N] for the domain
    resolvent_fn: Callable[[np.ndarray, np.ndarray], np.ndarray] | None = None
    resolvent_domain_fn: Callable[[np.ndarray, np.ndarray], np.ndarray] | None = None
    rho: float | None = None
    declared_classes: tuple[str, ...] = ()
    lipschitz: float | None = None
    norm_bound_on_ball: Callable[[float], float] | None = None
    graph_sampler: Callable[[np.random.Generator, int, float], list] | None = None
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

    def graph_samples(self, rng: np.random.Generator, count: int, radius: float = 5.0) -> list:
        if self.graph_sampler is None:
            raise NotAvailable(f"{self.name} has no graph sampler")
        return self.graph_sampler(rng, count, radius)


def minimal_norm_selection(op: SetValuedOperator, x) -> np.ndarray:
    """The value of minimal norm: metric projection of the origin onto the set."""
    return op.minimal_norm(x)


def clamp_tilde(x, bound: float) -> np.ndarray:
    """Radial clamp onto the closed ball of the given radius (identity inside)."""
    v = np.atleast_1d(np.asarray(x, dtype=float))
    if bound <= 0:
        raise ValueError("clamp radius must be positive")
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

    Closed forms are preferred; a contraction iteration covers single-valued
    instances with ``gamma * lipschitz < 1``.  On instances declaring a
    negative comonotonicity degree ``rho`` the call refuses step sizes with
    ``rho <= -gamma/2``, where single-valuedness is no longer guaranteed.
    Every row is verified against the defining inclusion: the distance from ``u`` to the
    value box at ``p`` is at most ``tol * max(1, |u|)``.  When ``gamma`` is far below
    ``ulp(x)``, ``p`` rounds to ``x`` and ``u`` is off by about ``ulp(x) / gamma``: ``p``
    is accepted with that rounding, the L2 norm of the coordinate spacings over
    ``gamma``, added to the tolerance, and its ``U`` row, noise, is NaN.
    """
    if X.shape != (len(gammas), op.dim):
        raise DimensionMismatch(f"expected {len(gammas)} rows of dimension {op.dim}, got {X.shape}")
    floor = -2 * op.rho if op.rho is not None and op.rho < 0 else 0
    if len(gammas) and not gammas.min() > floor:  # also refuses NaN
        gamma = gammas[np.argmin(gammas > floor)]
        if not gamma > 0:
            raise NonPositiveGamma(f"gamma = {gamma}")
        raise ComonotoneStepError(f"{op.name}: rho = {op.rho} incompatible with gamma = {gamma}")
    inside = None if op.resolvent_domain_fn is None else op.resolvent_domain_fn(gammas, X)
    if inside is not None and not inside.all():
        P, U = np.full(X.shape, np.nan), np.full(X.shape, np.nan)
        P[inside], U[inside] = resolve_rows(op, gammas[inside], X[inside], tol)
        return P, U
    if op.resolvent_fn is not None:
        p = np.asarray(op.resolvent_fn(gammas, X), dtype=float)
    else:
        p = np.array([_damped_fixed_point(op, *row) for row in zip(gammas, X)]).reshape(X.shape)
    u = (X - p) / gammas[:, None]
    miss = _distance(*op.value_box(p), u)
    if not miss.max(initial=0.0) <= tol:  # tol is the least row tolerance: passing it settles all
        tols = tol * np.maximum(1.0, _norms(u))
        rounding = _norms(np.spacing(np.maximum(abs(X), abs(p)))) / gammas
        good = miss <= tols + rounding
        if not good.all():
            gamma, x = gammas[~good][0], X[~good][0]
            raise NoConvergence(f"{op.name}: defining inclusion fails at gamma = {gamma}, x = {x}")
        u[~(miss <= tols)] = np.nan
    return p, u


def _damped_fixed_point(op: SetValuedOperator, gamma, x: np.ndarray) -> np.ndarray:
    """The fixed point of ``p -> (p + x - gamma*A(p)) / 2`` for ``A`` single-valued
    along the way, certified contractive only when ``gamma * lipschitz < 1``."""
    if op.lipschitz is None or gamma * op.lipschitz >= 1:
        raise NotAvailable(f"no resolvent method for {op.name} at gamma = {gamma}")
    p = x.copy()
    for _ in range(100_000):
        lo, hi = op.value_box(p[None])
        if not (lo == hi).all():  # also a NaN row
            raise NotAvailable(f"{op.name} is not single-valued at {p}")
        nxt = (p + x - gamma * lo[0]) / 2
        if l2(nxt - p) <= 1e-10:
            return nxt
        p = nxt
    raise NoConvergence(f"{op.name}: resolvent iteration stalled")


def yosida(op: SetValuedOperator, gamma: float, x, tol: float = 1e-8) -> np.ndarray:
    """Single-valued approximant ``(x - resolvent(x)) / gamma``."""
    _, u = resolvent(op, gamma, x, tol=tol, with_value=True)
    if math.isnan(u[0]):
        raise NoConvergence(f"{op.name}: Yosida value lost to rounding at gamma = {gamma}, x = {x}")
    return u


# ---------------------------------------------------------------- catalog

def _single_valued(image: Callable[[np.ndarray], np.ndarray], dim: int) -> dict:
    """Value box and graph sampler of ``x -> {image(x)}`` on ``R^dim``, where ``image``
    maps rows of points."""

    def graph_sampler(rng, count, radius):
        X = rng.uniform(-radius, radius, size=(count, dim))
        return list(zip(X, image(X)))

    return dict(value_box=lambda P: (image(P),) * 2, graph_sampler=graph_sampler)


def identity_operator(dim: int = 1) -> SetValuedOperator:
    eye = np.eye(dim)
    return matrix_operator(eye, name=f"identity_{dim}d" if dim > 1 else "identity")


def matrix_operator(mat: np.ndarray, name: str = "matrix") -> SetValuedOperator:
    mat = np.atleast_2d(np.asarray(mat, dtype=float))
    dim = mat.shape[0]
    op_norm, eye = float(np.linalg.norm(mat, 2)), np.eye(dim)

    def resolvent_fn(gammas: np.ndarray, X: np.ndarray) -> np.ndarray:
        return np.linalg.solve(eye + gammas[:, None, None] * mat, X[..., None])[..., 0]

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
        lipschitz=op_norm,
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


def abs_subdifferential() -> SetValuedOperator:
    """Sign at nonzero points, the full interval [-1, 1] at zero."""

    def value_box(P):
        sign, kink = np.sign(P), P == 0
        return (sign - kink, sign + kink) if kink.any() else (sign, sign)

    def sampler(rng, count, radius):
        out = []
        for _ in range(count):
            roll = rng.random()
            if roll < 0.25:
                x = np.zeros(1)
                u = rng.uniform(-1.0, 1.0, size=1)
            else:
                x = rng.uniform(-radius, radius, size=1)
                while x[0] == 0.0:
                    x = rng.uniform(-radius, radius, size=1)
                u = np.sign(x)
            out.append((x, u))
        return out

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


def box_indicator(lower, upper, face_tol: float = 1e-9) -> SetValuedOperator:
    """Normal cone of a coordinate box: zero inside, outward rays on faces."""
    lower = np.atleast_1d(np.asarray(lower, dtype=float))
    upper = np.atleast_1d(np.asarray(upper, dtype=float))
    dim = len(lower)

    out_lo, out_hi = lower - face_tol, upper + face_tol  # beyond these, outside the box
    on_lo, on_hi = lower + face_tol, upper - face_tol  # up to these, on a face

    def value_box(P):
        nan = np.where((P >= out_lo) & (P <= out_hi), 0.0, np.nan)
        return np.where(P <= on_lo, -np.inf, 0.0) + nan, np.where(P >= on_hi, np.inf, 0.0) + nan

    def sampler(rng, count, radius):
        out = []
        for _ in range(count):
            x = lower + (upper - lower) * rng.random(dim)
            u = np.zeros(dim)
            for i in range(dim):
                roll = rng.random()
                if roll < 0.2:
                    x[i] = upper[i]
                    u[i] = rng.exponential(1.0)
                elif roll < 0.4:
                    x[i] = lower[i]
                    u[i] = -rng.exponential(1.0)
            out.append((x, u))
        return out

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
        lipschitz=abs(c),
        norm_bound_on_ball=lambda r: abs(c) * r,
        zero_point=np.zeros(dim),
    )


def tan_subgradient() -> SetValuedOperator:
    """Derivative of the tangent on (0, pi/2): monotone, single-valued,
    unbounded near the right endpoint, with a genuinely partial resolvent."""
    lo, hi = 0.0, math.pi / 2

    def deriv(x: float) -> float:
        return 1.0 / math.cos(x) ** 2

    def value_box(P):
        p = P[:, 0]
        v = np.where((lo < p) & (p < hi), [*map(deriv, p.tolist())], np.nan)[:, None]
        return v, v

    def bisect(gamma: float, target: float) -> float:
        a, b = 1e-15, hi - 1e-15
        for _ in range(200):
            mid = (a + b) / 2
            if mid in (a, b):  # the bracket is one ulp wide: later steps change nothing
                return mid
            if mid + gamma * deriv(mid) <= target:
                a = mid
            else:
                b = mid
        return (a + b) / 2

    def sampler(rng, count, radius):
        xs = [rng.uniform(lo + 1e-3, hi - 1e-3) for _ in range(count)]
        return [(np.array([x]), np.array([deriv(x)])) for x in xs]

    return SetValuedOperator(
        name="tan_subgradient",
        dim=1,
        value_box=value_box,
        resolvent_fn=lambda g, X: np.array([*map(bisect, g.tolist(), X[:, 0].tolist())])[:, None],
        resolvent_domain_fn=lambda gammas, X: X[:, 0] > gammas,
        rho=None,
        declared_classes=("monotone",),
        norm_bound_on_ball=lambda r: math.inf,
        graph_sampler=sampler,
        domain_sampler=lambda rng, n, g, r: np.abs(rng.uniform(-r, r, size=(n, 1))) + g + 1e-3,
    )


@dataclass(frozen=True)
class OperatorCatalogEntry:
    name: str
    description: str
    build: Callable[[np.random.Generator], SetValuedOperator]
    gamma_grid: tuple[float, ...]


STANDARD_GAMMAS = (0.25, 0.5, 1.0, 2.0, 4.0)
COMONOTONE_GAMMAS = (8.0, 16.0)

CATALOG: dict[str, OperatorCatalogEntry] = {
    "identity": OperatorCatalogEntry(
        "identity", "identity matrix on R^2", lambda rng: identity_operator(2), STANDARD_GAMMAS
    ),
    "psd_skew": OperatorCatalogEntry(
        "psd_skew",
        "random monotone matrix (PSD symmetric part plus skew part) on R^6",
        lambda rng: random_monotone_matrix(rng, 6),
        STANDARD_GAMMAS,
    ),
    "abs_subdiff": OperatorCatalogEntry(
        "abs_subdiff", "subdifferential of the absolute value", lambda rng: abs_subdifferential(),
        STANDARD_GAMMAS,
    ),
    "box_normal_cone": OperatorCatalogEntry(
        "box_normal_cone",
        "normal cone of the box [-1, 1]^3",
        lambda rng: box_indicator([-1.0, -1.0, -1.0], [1.0, 1.0, 1.0]),
        STANDARD_GAMMAS,
    ),
    "neg_half_identity": OperatorCatalogEntry(
        "neg_half_identity",
        "scaling by -1/2: comonotone of degree -2",
        lambda rng: scaled_identity(-0.5, 2),
        COMONOTONE_GAMMAS,
    ),
    "tan_subgradient": OperatorCatalogEntry(
        "tan_subgradient",
        "derivative of tan on (0, pi/2): unbounded on bounded sets",
        lambda rng: tan_subgradient(),
        STANDARD_GAMMAS,
    ),
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
    def from_slacks(cls, name: str, slacks, tols, witness: Callable[[int], str]) -> CheckReport:
        """Report over per-sample slacks; ``witness(i)`` describes sample ``i``."""
        slacks = np.asarray(slacks, dtype=float).ravel()
        bad = ~(slacks >= -np.asarray(tols, dtype=float).ravel())
        worst = float(slacks[np.argmin(slacks)]) if slacks.size else math.inf
        report = cls(name, slacks.size, int(bad.sum()), worst)
        if report.violations:
            report.witness = witness(int(np.argmin(np.where(bad, slacks, np.inf))))
        return report

    @property
    def passed(self) -> bool:
        return self.checks > 0 and self.violations == 0

    def as_dict(self) -> dict:
        return {
            "name": self.name,
            "checks": self.checks,
            "violations": self.violations,
            "worst_slack": self.worst_slack if math.isfinite(self.worst_slack) else None,
            "passed": self.passed,
            "witness": self.witness,
        }


def check_operator_class(
    op: SetValuedOperator,
    kind: str,
    rng: np.random.Generator,
    samples: int = 300,
    radius: float = 5.0,
    rho: float | None = None,
    norm_p: float = 2.0,
    lam_grid: Sequence[float] = (0.25, 0.5, 1.0, 2.0, 4.0),
    tol: float = 1e-8,
) -> CheckReport:
    """Sampled falsification of a monotonicity-style class inequality.

    ``kind`` is ``monotone`` (inner product of differences nonnegative),
    ``accretive`` (norm of difference nondecreasing along the graph
    direction, any p-norm) or ``comonotone`` (inner product dominates
    ``rho`` times the squared value gap).
    """
    graph = np.array(op.graph_samples(rng, samples, radius), dtype=float).reshape(-1, 2, op.dim)
    x, u = graph[:, 0], graph[:, 1]
    dx, du = x[:-1] - x[1:], u[:-1] - u[1:]
    if kind == "monotone":
        slacks = _dots(dx, du)
    elif kind == "comonotone":
        if rho is None:
            raise ValueError("comonotone checks need a degree rho")
        slacks = _dots(dx, du) - rho * _norms(du) ** 2
    elif kind == "accretive":
        norm = functools.partial(np.linalg.norm, ord=norm_p, axis=-1)
        slacks = np.min([norm(dx + lam * du) for lam in lam_grid], axis=0) - norm(dx)
    else:
        raise ValueError(f"unknown class {kind!r}")
    name = kind + (f"(rho={rho})" if rho is not None else "")
    return CheckReport.from_slacks(name, slacks, tol, lambda i: f"x={x[i]}, y={x[i + 1]}")


def inner_vs_norm_check(
    rng: np.random.Generator, samples: int = 500, dim: int = 4, tol: float = 1e-9
) -> CheckReport:
    """Duality bridge: a nonpositive inner product against one vector is the
    same as the vector's norm never shrinking when subtracting any scaled
    copy of the other; checked both ways on a scale grid."""
    x, y = rng.normal(size=(samples, 2, dim)).transpose(1, 0, 2)
    inner, ny = _dots(x, y), _norms(y)
    # a scale grid, and where y is not 0 the scale that projects x onto y's line
    proj = np.where(ny > 1e-12, np.maximum(0.0, inner) / np.maximum(ny, 1e-12) ** 2, 0.0)
    grid = np.column_stack([np.broadcast_to([0.0, 0.25, 1.0, 4.0], (samples, 4)), proj])
    shifted = _norms(x[:, None] - grid[..., None] * y[:, None])
    holds_norm = (_norms(x)[:, None] <= shifted + tol).all(axis=1)
    slacks = np.where(holds_norm == (inner <= 0), 1.0, -1.0)
    return CheckReport.from_slacks(
        "inner_product_vs_norm_bridge", slacks, tol, lambda i: f"x={x[i]}, y={y[i]}"
    )


def _alpha_for(op: SetValuedOperator, gamma):
    rho = op.rho if op.rho is not None else 0.0
    return 1.0 / (2.0 * (rho / gamma + 1.0))


def _suite_samples(op, rng, gammas, samples, radius, tol, kinds) -> dict[str, SimpleNamespace]:
    """The resolvent suite's sample sets named in ``kinds``, as rows tagged
    with their step sizes.  Every point is drawn first, in a fixed order."""
    draw = op.domain_sampler or (lambda rng, n, gamma, r: rng.uniform(-r, r, size=(n, op.dim)))
    points, graph = [], []
    for gamma in gammas:
        points.append(draw(rng, samples, gamma, radius)[: samples // 2 * 2])
        graph.append(op.graph_samples(rng, max(10, samples // 4), radius))
    steps = [(gamma, lam) for gamma in gammas for lam in gammas]
    changes = [draw(rng, max(10, samples // 5), max(step), radius) for step in steps]
    def resolve(g, X):
        return resolve_rows(op, g, X, tol)[0]

    sets = {}

    # consecutive pairs of the domain points drawn at each step size
    pg = np.repeat(gammas, [len(p) // 2 for p in points])
    x, y = np.concatenate(points)[0::2], np.concatenate(points)[1::2]
    (jx, u), jy = resolve_rows(op, pg, x, tol), resolve(pg, y)
    dres = (x - jx) - (y - jy)
    sets["pairs"] = SimpleNamespace(
        gamma=pg,
        alpha=_alpha_for(op, pg),
        dxy=x - y,
        dj=jx - jy,
        dres=dres,
        nxy=_norms(x - y),
        nj=_norms(jx - jy),
        nres=_norms(dres),
        ygap=_norms(u - (y - jy) / pg[:, None]),
        # the kernel verified u on every row it solved; a NaN row (x outside the resolvent
        # domain, or u lost to rounding) is no member
        member=~np.isnan(u).any(axis=1),
        where=lambda i: f"gamma={pg[i]}, x={x[i]}, y={y[i]}",
    )

    # graph points (z, w): z + gamma*w resolves to z, and z lies in dom A
    gg = np.repeat(gammas, [len(g) for g in graph])
    zw = np.array([pair for g in graph for pair in g], dtype=float).reshape(-1, 2, op.dim)
    z, w = zw[:, 0], zw[:, 1]
    jzw = resolve(gg, z + gg[:, None] * w)
    sets["inclusion"] = SimpleNamespace(z=z, p=jzw, where=lambda i: f"gamma={gg[i]}, z={z[i]}")
    if "minimality" in kinds:
        jz, uz = resolve_rows(op, gg, z, tol)
        keep = ~np.isnan(jz).any(axis=1)  # z outside the resolvent domain is skipped
        mg, mz = gg[keep], z[keep]
        sets["minimality"] = SimpleNamespace(
            nsel=_norms(_min_norm(*op.value_box(mz))),
            nu=_norms(uz[keep]),
            where=lambda i: f"gamma={mg[i]}, z={mz[i]}",
        )

    # parameter changes: resolvents at lam and, through the identity, at gamma
    cg, lam = np.repeat(steps, [len(c) for c in changes], axis=0).T
    cx = np.concatenate(changes)
    jl = resolve(lam, cx)
    ratio = (cg / lam)[:, None]
    sets["changes"] = SimpleNamespace(
        gamma=cg,
        lam=lam,
        x=cx,
        nx=_norms(cx),
        jl=jl,
        jg=resolve(cg, ratio * cx + (1 - ratio) * jl),
        where=lambda i: f"gamma={cg[i]}, lambda={lam[i]}, x={cx[i]}",
    )
    if "displacements" in kinds:
        sets["displacements"] = SimpleNamespace(**vars(sets["changes"]), jgx=resolve(cg, cx))
    return sets


def _norm_blend(s, t):
    blends = [_norms(r * s.dxy + (1 - r) * s.dj) for r in (0.25, 0.5, 1.0, 2.0, 4.0)]
    return np.min(blends, axis=0) - s.nj


def _averaged(s, t):
    return s.alpha * (s.nxy**2 - s.nj**2) - (1 - s.alpha) * s.nres**2


def _conical(s, t):
    return 2 * s.alpha * _dots(s.dj, s.dres) - (1 - 2 * s.alpha) * s.nres**2


def _displacement(s, t):
    return (2 + s.gamma / s.lam) * _norms(s.x - s.jl) - _norms(s.x - s.jgx)


def _unit(s):
    return 1.0


# The resolvent suite (Bauschke & Combettes, ch. 4 and 23) in report order: the sample
# set each property runs on, its slack given that set and the tolerances, the factor on
# the tolerance, and whether it also runs on instances with a negative degree rho.
_RESOLVENT_PROPERTIES = {
    "defining_inclusion_unique": ("inclusion", lambda s, t: t - _norms(s.p - s.z), _unit, True),
    "firmly_nonexpansive_norm_form": ("pairs", _norm_blend, _unit, False),
    "firmly_nonexpansive_inner_form": (
        "pairs", lambda s, t: _dots(s.dxy, s.dj) - s.nj**2, _unit, False
    ),
    "nonexpansive": ("pairs", lambda s, t: s.nxy - s.nj, _unit, False),
    "averaged_form": ("pairs", _averaged, lambda s: np.maximum(1.0, s.nxy**2), True),
    "conical_form": ("pairs", _conical, lambda s: np.maximum(1.0, s.nxy**2), True),
    "resolvent_identity": (
        "changes", lambda s, t: t - _norms(s.jl - s.jg), lambda s: np.maximum(1.0, s.nx), True
    ),
    "displacement_bound": ("displacements", _displacement, lambda s: np.maximum(1.0, s.nx), False),
    "yosida_membership": ("pairs", lambda s, t: np.where(s.member, 1.0, -1.0), _unit, True),
    "yosida_lipschitz": (
        "pairs", lambda s, t: 2 / s.gamma * s.nxy - s.ygap, lambda s: np.maximum(1.0, s.nxy), False
    ),
    "yosida_norm_minimality": (
        "minimality", lambda s, t: s.nsel - s.nu, lambda s: np.maximum(1.0, s.nsel), False
    ),
}


def check_resolvent_properties(
    op: SetValuedOperator,
    rng: np.random.Generator,
    gammas: Sequence[float] = STANDARD_GAMMAS,
    samples: int = 200,
    radius: float = 5.0,
    tol: float = 1e-8,
) -> dict[str, CheckReport]:
    """Sampled verification of the resolvent property suite.

    Nonexpansiveness-style checks run on monotone/accretive instances with
    the halved averaging constant; instances declaring a negative
    comonotonicity degree run the conical and averaged forms with their own
    constant instead.  Parameter-change identities pair every two step sizes.
    """
    if not gammas:
        raise ValueError("empty step-size grid")
    comonotone_only = op.rho is not None and op.rho < 0
    props = {n: p for n, p in _RESOLVENT_PROPERTIES.items() if p[3] or not comonotone_only}
    sets = _suite_samples(op, rng, gammas, samples, radius, tol, {p[0] for p in props.values()})
    reports = {}
    for name, (kind, slack, scale, _) in props.items():
        rows = sets[kind]
        tols = tol * scale(rows)
        reports[name] = CheckReport.from_slacks(name, slack(rows, tols), tols, rows.where)
    return reports


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
    tol: float = 1e-9,
) -> ModulusCheck:
    """Instantiate the parameter-continuity statement at one sample."""
    x = as_vector(x, op.dim)
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
    op: SetValuedOperator,
    rng: np.random.Generator,
    samples: int = 100,
    per_point: int = 20,
    radius: float = 3.0,
    tol: float = 1e-8,
) -> dict[str, CheckReport]:
    """The minimal-norm value is a value, variationally characterised and
    unique: any value of (nearly) minimal norm is (nearly) the selection.  The first
    ``samples`` domain points among ``50 * samples`` candidates each get ``per_point``
    values drawn from their box, infinite faces cut at distance 10."""
    X = rng.uniform(-radius, radius, size=(50 * samples, op.dim))
    box = op.value_box(X)
    keep = np.flatnonzero(_inside(box))[:samples]
    x, lo, hi = X[keep], box[0][keep], box[1][keep]
    sel = _min_norm(lo, hi)
    member = np.where(_distance(lo, hi, sel) <= tol, 1.0, -1.0)
    top = np.where(np.isinf(hi), 10.0, hi)
    bottom = np.minimum(np.where(np.isinf(lo), -10.0, lo), top)
    y = bottom[:, None] + (top - bottom)[:, None] * rng.random((len(x), per_point, op.dim))
    nsel = _norms(sel)
    variational = -_dots(y - sel[:, None], -sel[:, None])
    # tol * tol, not tol**2, which overflows for a tolerance past 1e154
    gap = np.sqrt(np.maximum(0.0, 2 * nsel * tol + tol * tol))
    near = (_norms(y) <= nsel[:, None] + tol).ravel()
    unique = (gap[:, None] + tol - _norms(y - sel[:, None])).ravel()[near]
    xs, ys = np.repeat(x, per_point, axis=0), y.reshape(-1, op.dim)
    slacks = {
        "min_selection_membership": (member, lambda i: f"x={x[i]}"),
        "min_selection_variational": (variational, lambda i: f"x={xs[i]}, y={ys[i]}"),
        "min_selection_uniqueness": (unique, lambda i: f"x={xs[near][i]}, y={ys[near][i]}"),
    }
    return {name: CheckReport.from_slacks(name, s, tol, w) for name, (s, w) in slacks.items()}


def uc_modulus_check(
    op: SetValuedOperator,
    modulus: Callable[[int], int],
    rng: np.random.Generator,
    k_grid: Sequence[int] = (0, 1, 2, 3),
    samples: int = 100,
    radius: float = 5.0,
    tol: float = 1e-9,
) -> CheckReport:
    """Uniform graph-continuity: arguments closer than the modulus threshold
    have one-sidedly close value sets at the requested resolution."""
    k = np.repeat(k_grid, samples)
    delta = np.repeat([1.0 / (modulus(j) + 1) for j in k_grid], samples)
    x = rng.uniform(-radius, radius, size=(len(k), op.dim))
    step = rng.normal(size=x.shape)
    y = x + step * (rng.random(len(k)) * delta * 0.999 / np.maximum(_norms(step), 1e-12))[:, None]
    excess = one_sided_excess(op.value_box(x), op.value_box(y))
    keep = ~np.isnan(excess)  # pairs with an end outside the domain are skipped
    k, x, y = k[keep], x[keep], y[keep]
    return CheckReport.from_slacks(
        "uniform_continuity_modulus", 1.0 / (k + 1) - excess[keep], tol,
        lambda i: f"k={k[i]}, x={x[i]}, y={y[i]}",
    )


def range_condition_check(
    op: SetValuedOperator,
    gamma_fn: Callable[[int], float],
    alpha_fn: Callable[[int], int],
    bound: float,
    center,
    rng: np.random.Generator,
    n_grid: Sequence[int] = (0, 1, 2, 3, 5, 8),
    samples: int = 50,
    tol: float = 1e-8,
) -> dict[str, CheckReport]:
    """Bounded range condition along a parameter sequence.

    Every sampled domain point in the ball splits as ``x = z + gamma_n * w``
    with ``w`` a value at ``z`` and ``z`` still in the ball; when the ball
    is centred at the origin, ``w`` obeys the inverse-parameter norm bound
    ``bound * 2**(alpha_n + 1)``.
    """
    center = as_vector(center, op.dim)
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
    try:
        z, w = resolve_rows(op, np.repeat(gammas, samples)[inside], x, tol)
    except NotAvailable:
        z = w = np.full(x.shape, np.nan)
    split = ~np.isnan(z).any(axis=1)
    lost = split & np.isnan(w).any(axis=1)  # z is the resolvent, but w = (x - z) / gamma is noise
    if lost.any():
        n = ns[lost][0]
        raise NoConvergence(f"{op.name}: split lost to rounding at gamma_{n} = {gamma_fn(n)}")
    tag = np.where(split, "", ": no split")

    def where(rows):
        return lambda i: f"n={ns[rows][i]}, x={x[rows][i]}{tag[rows][i]}"

    slacks = {
        "range_split_membership": (np.where(split, 1.0, -1.0), slice(None)),
        "range_split_in_ball": (bound + tol - _norms(z[split] - center), split),
    }
    if l2(center) == 0.0:
        wmax = np.repeat([bound * 2.0 ** (alpha_fn(n) + 1) for n in n_grid], samples)[inside]
        slacks["range_split_w_bound"] = (wmax[split] - _norms(w[split]), split)
    return {k: CheckReport.from_slacks(k, s, tol, where(r)) for k, (s, r) in slacks.items()}


def graph_closedness_check(
    op: SetValuedOperator,
    rng: np.random.Generator,
    sequences: int = 25,
    length: int = 40,
    tol: float = 1e-6,
) -> CheckReport:
    """Limits of convergent graph sequences stay in the graph (sampled)."""
    pairs = op.graph_samples(rng, sequences, 3.0)
    limit = np.array([x for x, _ in pairs], dtype=float).reshape(-1, op.dim)
    start = limit + rng.normal(size=limit.shape)
    # x_i = limit + (start - limit) / 2**i for i = 1..length, one sequence per row
    seq = limit[:, None] + (start - limit)[:, None] / 2.0 ** np.arange(1, length + 1)[:, None]
    seq_box = [b.reshape(seq.shape) for b in op.value_box(seq.reshape(-1, op.dim))]
    lo, hi = op.value_box(limit)
    # sequences that leave the domain, or whose limit lies outside it, are skipped
    keep = _inside(seq_box).all(axis=1) & _inside((lo, hi))
    u_last = _selection(seq_box[0][:, -1], seq_box[1][:, -1])
    ok = _distance(lo, hi, u_last) <= max(tol, 1e-4) * np.maximum(1.0, _norms(u_last))
    x = limit[keep]
    return CheckReport.from_slacks(
        "graph_closedness", np.where(ok, 1.0, -1.0)[keep], tol, lambda i: f"x={x[i]}"
    )
