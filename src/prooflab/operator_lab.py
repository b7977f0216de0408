"""Numerical laboratory for set-valued operators on R^d.

Operators are given intensionally: a value map returning a set description
(finite points or an interval box, possibly with infinite faces), optional
closed-form resolvents, and a graph sampler.  Checks are sampled
falsification, reported with worst slacks.

Slack convention: each property is one array of slacks over the samples a
check draws.  A sample passes when ``slack >= -tol``, so a negative slack
beyond the tolerance is a violation and a non-finite slack fails; only the
worst violating sample is formatted, as the witness.
"""

from __future__ import annotations

import contextlib
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


def l2(v: np.ndarray) -> float:
    return float(np.linalg.norm(v))


def as_vector(x, dim: int) -> np.ndarray:
    v = np.atleast_1d(np.asarray(x, dtype=float))
    if v.shape != (dim,):
        raise DimensionMismatch(f"expected a vector of dimension {dim}, got shape {v.shape}")
    return v


class SetValue:
    """Description of one operator value; queries are exact per subclass."""

    def contains(self, u: np.ndarray, tol: float) -> bool:
        raise NotImplementedError

    def min_norm_point(self) -> np.ndarray:
        raise NotImplementedError

    def some_point(self) -> np.ndarray:
        raise NotImplementedError

    def sample(self, rng: np.random.Generator, count: int, span: float = 10.0) -> list[np.ndarray]:
        raise NotImplementedError


@dataclass
class FinitePoints(SetValue):
    points: np.ndarray  # shape (k, d)

    def __post_init__(self) -> None:
        self.points = np.atleast_2d(np.asarray(self.points, dtype=float))

    def contains(self, u: np.ndarray, tol: float) -> bool:
        return bool(np.min(np.linalg.norm(self.points - u, axis=1)) <= tol)

    def min_norm_point(self) -> np.ndarray:
        norms = np.linalg.norm(self.points, axis=1)
        return self.points[int(np.argmin(norms))].copy()

    def some_point(self) -> np.ndarray:
        return self.points[0].copy()

    def sample(self, rng, count, span=10.0):
        idx = rng.integers(0, len(self.points), size=count)
        return [self.points[i].copy() for i in idx]

    def distance_to(self, u: np.ndarray) -> float:
        return float(np.min(np.linalg.norm(self.points - u, axis=1)))


@dataclass
class IntervalBox(SetValue):
    """Componentwise interval, faces at ``-inf``/``inf`` allowed."""

    lower: np.ndarray
    upper: np.ndarray

    def __post_init__(self) -> None:
        self.lower = np.atleast_1d(np.asarray(self.lower, dtype=float))
        self.upper = np.atleast_1d(np.asarray(self.upper, dtype=float))
        if np.any(self.lower > self.upper):
            raise ValueError("empty box")

    def contains(self, u: np.ndarray, tol: float) -> bool:
        return bool(np.all(u >= self.lower - tol) and np.all(u <= self.upper + tol))

    def clamp(self, u: np.ndarray) -> np.ndarray:
        return np.minimum(np.maximum(u, self.lower), self.upper)

    def min_norm_point(self) -> np.ndarray:
        return self.clamp(np.zeros_like(self.lower))

    def some_point(self) -> np.ndarray:
        finite_low = np.where(np.isfinite(self.lower), self.lower, self.upper)
        out = np.where(np.isfinite(finite_low), finite_low, 0.0)
        return self.clamp(out)

    def sample(self, rng, count, span=10.0):
        lo = np.where(np.isfinite(self.lower), self.lower, -span)
        hi = np.where(np.isfinite(self.upper), self.upper, span)
        lo = np.minimum(lo, hi)
        return [lo + (hi - lo) * rng.random(len(lo)) for _ in range(count)]

    def distance_to(self, u: np.ndarray) -> float:
        return l2(u - self.clamp(u))


def one_sided_excess(source: SetValue, target: SetValue) -> float:
    """Supremum over the source of the distance to the target set."""
    if isinstance(source, FinitePoints):
        if isinstance(target, (FinitePoints, IntervalBox)):
            return max(target.distance_to(p) for p in source.points)
        raise NotAvailable(f"unsupported target {type(target).__name__}")
    if isinstance(source, IntervalBox):
        if isinstance(target, IntervalBox):
            total = 0.0
            for a, b, c, d in zip(source.lower, source.upper, target.lower, target.upper):
                worst = 0.0
                if b > d:
                    worst = math.inf if math.isinf(b) else b - d
                if a < c:
                    gap = math.inf if math.isinf(a) else c - a
                    worst = max(worst, gap)
                total += worst**2
                if math.isinf(total):
                    return math.inf
            return math.sqrt(total)
        if isinstance(target, FinitePoints) and source.lower.shape == (1,):
            # one-dimensional interval against points: extrema lie at the
            # interval ends or between consecutive points
            if math.isinf(source.lower[0]) or math.isinf(source.upper[0]):
                return math.inf
            pts = np.sort(target.points[:, 0])
            candidates = [source.lower[0], source.upper[0]]
            mids = (pts[:-1] + pts[1:]) / 2
            candidates.extend(m for m in mids if source.lower[0] <= m <= source.upper[0])
            return max(target.distance_to(np.array([c])) for c in candidates)
        raise NotAvailable(f"unsupported pair {type(source).__name__}/{type(target).__name__}")
    raise NotAvailable(f"unsupported source {type(source).__name__}")


def hstar_check(source: SetValue, target: SetValue, eps: float, tol: float = 1e-9) -> bool:
    """Every source point has a target point within ``eps`` (one-sided)."""
    return one_sided_excess(source, target) <= eps + tol


@dataclass
class SetValuedOperator:
    """An operator ``x -> subset of R^d`` with optional numerics attached."""

    name: str
    dim: int
    value_fn: Callable[[np.ndarray], SetValue | None]
    resolvent_fn: Callable[[float, np.ndarray], np.ndarray] | None = None
    resolvent_domain_fn: Callable[[float, np.ndarray], bool] | None = None
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
        return self.value_fn(as_vector(x, self.dim)) is not None

    def values(self, x) -> SetValue:
        v = self.value_fn(as_vector(x, self.dim))
        if v is None:
            raise OutsideDomain(f"{self.name}: {x} outside the domain")
        return v

    def membership(self, x, u, tol: float = 1e-8) -> bool:
        return self.values(x).contains(as_vector(u, self.dim), tol)

    def selection(self, x) -> np.ndarray:
        return self.values(x).some_point()

    def minimal_norm(self, x) -> np.ndarray:
        return self.values(x).min_norm_point()

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


def resolvent(
    op: SetValuedOperator,
    gamma: float,
    x,
    tol: float = 1e-8,
) -> np.ndarray:
    """Solve ``p + gamma*u = x`` with ``u`` a value at ``p``.

    Closed forms are preferred; a contraction iteration covers single-valued
    instances with ``gamma * lipschitz < 1``.  On instances declaring a
    negative comonotonicity degree ``rho`` the call refuses step sizes with
    ``rho <= -gamma/2``, where single-valuedness is no longer guaranteed.
    """
    if not gamma > 0:  # also refuses NaN
        raise NonPositiveGamma(f"gamma = {gamma}")
    if op.rho is not None and op.rho < 0 and op.rho <= -gamma / 2:
        raise ComonotoneStepError(
            f"{op.name}: rho = {op.rho} incompatible with gamma = {gamma}"
        )
    x = as_vector(x, op.dim)
    if op.resolvent_domain_fn is not None and not op.resolvent_domain_fn(gamma, x):
        raise OutsideDomain(f"{op.name}: {x} outside the resolvent domain at gamma = {gamma}")
    if op.resolvent_fn is not None:
        p = np.asarray(op.resolvent_fn(gamma, x), dtype=float)
    else:
        # damped fixed point, certified contractive only when gamma*L < 1
        single = _single_value_fn(op)
        if single is None or op.lipschitz is None or gamma * op.lipschitz >= 1:
            raise NotAvailable(f"no resolvent method for {op.name} at gamma = {gamma}")
        p = x.copy()
        for _ in range(100_000):
            nxt = (p + x - gamma * single(p)) / 2
            if l2(nxt - p) <= 1e-10:
                p = nxt
                break
            p = nxt
        else:
            raise NoConvergence(f"{op.name}: resolvent iteration stalled")
    u = (x - p) / gamma
    if not op.membership(p, u, tol * max(1.0, l2(u))):
        raise NoConvergence(f"{op.name}: defining inclusion fails at gamma = {gamma}, x = {x}")
    return p


def _single_value_fn(op: SetValuedOperator):
    def single(p: np.ndarray) -> np.ndarray:
        v = op.values(p)
        if isinstance(v, FinitePoints) and len(v.points) == 1:
            return v.points[0]
        raise NotAvailable(f"{op.name} is not single-valued at {p}")

    try:
        single(np.zeros(op.dim))
    except (NotAvailable, OutsideDomain):
        return None
    return single


def yosida(op: SetValuedOperator, gamma: float, x, tol: float = 1e-8) -> np.ndarray:
    """Single-valued approximant ``(x - resolvent(x)) / gamma``."""
    x = as_vector(x, op.dim)
    return (x - resolvent(op, gamma, x, tol=tol)) / gamma


# ---------------------------------------------------------------- catalog

def identity_operator(dim: int = 1) -> SetValuedOperator:
    eye = np.eye(dim)
    return matrix_operator(eye, name=f"identity_{dim}d" if dim > 1 else "identity")


def matrix_operator(mat: np.ndarray, name: str = "matrix") -> SetValuedOperator:
    mat = np.atleast_2d(np.asarray(mat, dtype=float))
    dim = mat.shape[0]
    op_norm = float(np.linalg.norm(mat, 2))

    def value_fn(x: np.ndarray) -> SetValue:
        return FinitePoints(np.array([mat @ x]))

    def resolvent_fn(gamma: float, x: np.ndarray) -> np.ndarray:
        return np.linalg.solve(np.eye(dim) + gamma * mat, x)

    def sampler(rng, count, radius):
        out = []
        for _ in range(count):
            x = rng.uniform(-radius, radius, size=dim)
            out.append((x, mat @ x))
        return out

    sym = (mat + mat.T) / 2
    monotone = bool(np.all(np.linalg.eigvalsh(sym) >= -1e-12))
    classes = ("monotone", "accretive") if monotone else ()
    return SetValuedOperator(
        name=name,
        dim=dim,
        value_fn=value_fn,
        resolvent_fn=resolvent_fn,
        rho=None,
        declared_classes=classes,
        lipschitz=op_norm,
        norm_bound_on_ball=lambda r: op_norm * r,
        graph_sampler=sampler,
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

    def value_fn(x: np.ndarray) -> SetValue:
        if x[0] > 0:
            return FinitePoints(np.array([[1.0]]))
        if x[0] < 0:
            return FinitePoints(np.array([[-1.0]]))
        return IntervalBox(np.array([-1.0]), np.array([1.0]))

    def resolvent_fn(gamma: float, x: np.ndarray) -> np.ndarray:
        return np.sign(x) * np.maximum(np.abs(x) - gamma, 0.0)

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
        value_fn=value_fn,
        resolvent_fn=resolvent_fn,
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

    def value_fn(x: np.ndarray) -> SetValue | None:
        if np.any(x < lower - face_tol) or np.any(x > upper + face_tol):
            return None
        lo = np.where(np.abs(x - lower) <= face_tol, -np.inf, 0.0)
        hi = np.where(np.abs(x - upper) <= face_tol, np.inf, 0.0)
        return IntervalBox(lo, hi)

    def resolvent_fn(gamma: float, x: np.ndarray) -> np.ndarray:
        return np.minimum(np.maximum(x, lower), upper)

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
        value_fn=value_fn,
        resolvent_fn=resolvent_fn,
        rho=None,
        declared_classes=("monotone", "accretive"),
        norm_bound_on_ball=lambda r: math.inf,
        graph_sampler=sampler,
        zero_point=center,
    )


def scaled_identity(c: float, dim: int = 2) -> SetValuedOperator:
    """Multiplication by ``c``; for negative ``c`` comonotone of degree ``1/c``."""

    def value_fn(x: np.ndarray) -> SetValue:
        return FinitePoints(np.array([c * x]))

    def resolvent_fn(gamma: float, x: np.ndarray) -> np.ndarray:
        return x / (1 + gamma * c)

    def sampler(rng, count, radius):
        out = []
        for _ in range(count):
            x = rng.uniform(-radius, radius, size=dim)
            out.append((x, c * x))
        return out

    rho = 1.0 / c if c != 0 else None
    classes = ("monotone", "accretive", "comonotone") if c >= 0 else ("comonotone",)
    return SetValuedOperator(
        name=f"scaled_identity_{c}",
        dim=dim,
        value_fn=value_fn,
        resolvent_fn=resolvent_fn,
        rho=rho,
        declared_classes=classes,
        lipschitz=abs(c),
        norm_bound_on_ball=lambda r: abs(c) * r,
        graph_sampler=sampler,
        zero_point=np.zeros(dim),
    )


def tan_subgradient() -> SetValuedOperator:
    """Derivative of the tangent on (0, pi/2): monotone, single-valued,
    unbounded near the right endpoint, with a genuinely partial resolvent."""
    lo, hi = 0.0, math.pi / 2

    def deriv(x: float) -> float:
        return 1.0 / math.cos(x) ** 2

    def value_fn(x: np.ndarray) -> SetValue | None:
        if not lo < x[0] < hi:
            return None
        return FinitePoints(np.array([[deriv(x[0])]]))

    def resolvent_domain_fn(gamma: float, x: np.ndarray) -> bool:
        return x[0] > gamma

    def resolvent_fn(gamma: float, x: np.ndarray) -> np.ndarray:
        target = x[0]
        a, b = 1e-15, hi - 1e-15
        for _ in range(200):
            mid = (a + b) / 2
            if mid in (a, b):  # the bracket is one ulp wide: later steps change nothing
                return np.array([mid])
            if mid + gamma * deriv(mid) <= target:
                a = mid
            else:
                b = mid
        return np.array([(a + b) / 2])

    def sampler(rng, count, radius):
        out = []
        for _ in range(count):
            x = rng.uniform(lo + 1e-3, hi - 1e-3)
            out.append((np.array([x]), np.array([deriv(x)])))
        return out

    return SetValuedOperator(
        name="tan_subgradient",
        dim=1,
        value_fn=value_fn,
        resolvent_fn=resolvent_fn,
        resolvent_domain_fn=resolvent_domain_fn,
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


def _report_rows(name: str, rows: list[tuple], tol: float, context: str) -> CheckReport:
    """Report over ``(slack, *values)`` rows; ``context`` formats the values."""
    slacks = [row[0] for row in rows]
    return CheckReport.from_slacks(name, slacks, tol, lambda i: context.format(*rows[i][1:]))


def _dots(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Inner products along the last axis, through the same dot kernel as
    ``float(a_i @ b_i)`` so each entry equals the per-vector value."""
    return (a[..., None, :] @ b[..., :, None])[..., 0, 0]


def _norms(a: np.ndarray) -> np.ndarray:
    """``l2`` along the last axis."""
    return np.sqrt(_dots(a, a))


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
    rows = []
    for _ in range(samples):
        x = rng.normal(size=dim)
        y = rng.normal(size=dim)
        inner = float(x @ y)
        grid = [0.0, 0.25, 1.0, 4.0]
        if l2(y) > 1e-12:
            grid.append(max(0.0, inner) / l2(y) ** 2)
        holds_norm = all(l2(x) <= l2(x - abs(a) * y) + tol for a in grid)
        rows.append((1.0 if holds_norm == (inner <= 0) else -1.0, x, y))
    return _report_rows("inner_product_vs_norm_bridge", rows, tol, "x={}, y={}")


def _alpha_for(op: SetValuedOperator, gamma):
    rho = op.rho if op.rho is not None else 0.0
    return 1.0 / (2.0 * (rho / gamma + 1.0))


def _resolve_rows(op: SetValuedOperator, gammas, points: np.ndarray, tol: float) -> np.ndarray:
    """Resolvent of each row at its step size; NaN outside the domain, so it fails."""
    out = np.full(points.shape, np.nan)
    for i, (gamma, x) in enumerate(zip(gammas, points)):
        with contextlib.suppress(OutsideDomain):
            out[i] = resolvent(op, gamma, x, tol=tol)
    return out


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
    resolve = functools.partial(_resolve_rows, op, tol=tol)
    sets = {}

    # consecutive pairs of the domain points drawn at each step size
    pg = np.repeat(gammas, [len(p) // 2 for p in points])
    x, y = np.concatenate(points)[0::2], np.concatenate(points)[1::2]
    jx, jy = resolve(pg, x), resolve(pg, y)
    u, dres = (x - jx) / pg[:, None], (x - jx) - (y - jy)
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
        # resolvent verified the inclusion on every row it solved; a NaN row (x outside
        # the resolvent domain) is no member
        member=~np.isnan(jx).any(axis=1),
        where=lambda i: f"gamma={pg[i]}, x={x[i]}, y={y[i]}",
    )

    # graph points (z, w): z + gamma*w resolves to z, and z lies in dom A
    gg = np.repeat(gammas, [len(g) for g in graph])
    zw = np.array([pair for g in graph for pair in g], dtype=float).reshape(-1, 2, op.dim)
    z, w = zw[:, 0], zw[:, 1]
    jzw = resolve(gg, z + gg[:, None] * w)
    sets["inclusion"] = SimpleNamespace(z=z, p=jzw, where=lambda i: f"gamma={gg[i]}, z={z[i]}")
    if "minimality" in kinds:
        jz = resolve(gg, z)
        keep = ~np.isnan(jz).any(axis=1)  # z outside the resolvent domain is skipped
        mg, mz = gg[keep], z[keep]
        sets["minimality"] = SimpleNamespace(
            nsel=_norms(np.array([op.minimal_norm(p) for p in mz]).reshape(mz.shape)),
            nu=_norms((mz - jz[keep]) / mg[:, None]),
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
    unique: any value of (nearly) minimal norm is (nearly) the selection."""
    member, variational, unique = [], [], []
    found = 0
    tries = 0
    while found < samples and tries < 50 * samples:
        tries += 1
        x = rng.uniform(-radius, radius, size=op.dim)
        if not op.in_domain(x):
            continue
        found += 1
        sel = op.minimal_norm(x)
        vals = op.values(x)
        member.append((1.0 if vals.contains(sel, tol) else -1.0, x))
        for y in vals.sample(rng, per_point):
            variational.append((-float((y - sel) @ (-sel)), x, y))
            if l2(y) <= l2(sel) + tol:
                # tol * tol, not tol**2, which raises OverflowError for a tolerance past 1e154
                gap = math.sqrt(max(0.0, 2 * l2(sel) * tol + tol * tol))
                unique.append((gap + tol - l2(y - sel), x, y))
    reports = (
        _report_rows("min_selection_membership", member, tol, "x={}"),
        _report_rows("min_selection_variational", variational, tol, "x={}, y={}"),
        _report_rows("min_selection_uniqueness", unique, tol, "x={}, y={}"),
    )
    return {r.name: r for r in reports}


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
    rows = []
    for k in k_grid:
        eps = 1.0 / (k + 1)
        delta = 1.0 / (modulus(k) + 1)
        for _ in range(samples):
            x = rng.uniform(-radius, radius, size=op.dim)
            step = rng.normal(size=op.dim)
            step = step / max(l2(step), 1e-12) * rng.random() * delta * 0.999
            y = x + step
            if not (op.in_domain(x) and op.in_domain(y)):
                continue
            excess = one_sided_excess(op.values(x), op.values(y))
            rows.append((eps - excess, k, x, y))
    return _report_rows("uniform_continuity_modulus", rows, tol, "k={}, x={}, y={}")


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
    split, ball, wbound = [], [], []
    at_origin = l2(center) == 0.0
    for n in n_grid:
        gamma = gamma_fn(n)
        if gamma <= 0:
            raise NonPositiveGamma(f"gamma_{n} = {gamma}")
        if 2.0 ** -alpha_fn(n) >= gamma:
            raise PreconditionViolated(f"alpha_{n} fails to witness gamma_{n} > 0")
        for _ in range(samples):
            x = center + rng.uniform(-1, 1, size=op.dim) * bound / math.sqrt(op.dim)
            if not op.in_domain(x):
                continue
            try:
                z = resolvent(op, gamma, x, tol=tol)
            except (OutsideDomain, NotAvailable):
                split.append((-1.0, n, x, ": no split"))
                continue
            w = (x - z) / gamma  # resolvent verified that w is a value at z
            split.append((1.0, n, x, ""))
            ball.append((bound + tol - l2(z - center), n, x, ""))
            if at_origin:
                wbound.append((bound * 2.0 ** (alpha_fn(n) + 1) - l2(w), n, x, ""))
    named = {"range_split_membership": split, "range_split_in_ball": ball}
    if at_origin:
        named["range_split_w_bound"] = wbound
    return {name: _report_rows(name, rows, tol, "n={}, x={}{}") for name, rows in named.items()}


def graph_closedness_check(
    op: SetValuedOperator,
    rng: np.random.Generator,
    sequences: int = 25,
    length: int = 40,
    tol: float = 1e-6,
) -> CheckReport:
    """Limits of convergent graph sequences stay in the graph (sampled)."""
    rows = []
    pairs = op.graph_samples(rng, sequences, 3.0)
    for x_limit, _ in pairs:
        x_start = x_limit + rng.normal(size=op.dim)
        u_last = None
        for i in range(1, length + 1):
            x_i = x_limit + (x_start - x_limit) / 2.0**i
            if not op.in_domain(x_i):
                u_last = None
                break
            u_last = op.selection(x_i)
        if u_last is None or not op.in_domain(x_limit):
            continue
        ok = op.membership(x_limit, u_last, max(tol, 1e-4) * max(1.0, l2(u_last)))
        rows.append((1.0 if ok else -1.0, x_limit))
    return _report_rows("graph_closedness", rows, tol, "x={}")
