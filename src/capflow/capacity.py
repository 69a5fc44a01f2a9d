"""Certified set capacities, equilibrium potentials, and capacitary integrals.

The capacity of a set E under a nonnegative symmetric kernel K is

    cap(E) = inf{ sum_i w_i f_i^s : f >= 0, (K f)_j >= 1 for j in E }.

The solver maximizes the Lagrangian dual

    g(mu) = mu(E) - (s-1) s^(-s') || K mu ||_{s'}^{s'},   mu >= 0 on E,

by an accelerated projected gradient scheme with backtracking and adaptive
restart.  Certificates come for free: any dual point yields the weak-duality
lower bound (mu(E) / ||K mu||_{s'})^s after optimal ray rescaling, and the
induced primal candidate f = (K mu / s)^(s'-1), scaled to feasibility, yields
the upper bound.  A solve is accepted when the relative gap between the two
is below the requested tolerance; the certificate, not the iteration, is the
contract.

Layer-cake functionals over capacities (the L1-capacity norm and the
capacitary Lorentz norms) are evaluated exactly over the finitely many
superlevel sets, with optional certified level quantization for fields with
very many distinct values.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from .grid import Grid, KernelSpec, bessel_kernel, _convolve_values
from .measure import DiscreteMeasureSpace, Field, LorentzExponents

__all__ = [
    "CapacityParams",
    "SetMask",
    "CapacityProblem",
    "finite_problem",
    "identity_problem",
    "grid_problem",
    "CapacityResult",
    "capacity",
    "CapacityOracle",
    "NonlinearPotential",
    "nonlinear_potential",
    "equilibrium_checks",
    "NormEstimate",
    "l1c_norm",
    "capacitary_lorentz_norm",
    "unit_cover",
    "strichartz_check",
    "lebesgue_lower_bound_check",
]


# ---------------------------------------------------------------------------
# Parameters, masks, problems
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CapacityParams:
    """Exponent pair and solver budget for a capacity computation.

    The admissibility window 1 < s <= n/alpha is enforced whenever the
    ambient dimension is known (grid problems); finite models carry no
    geometry, so only s > 1 is checked there.
    """

    alpha: float
    s: float
    tol: float = 1e-6
    max_iter: int = 20000

    def __post_init__(self):
        if not (self.s > 1.0 and math.isfinite(self.s)):
            raise ValueError(f"s must lie in (1, inf), got {self.s}")
        if not (self.alpha > 0.0):
            raise ValueError(f"alpha must be positive, got {self.alpha}")
        if not (0.0 < self.tol < 1.0):
            raise ValueError(f"tolerance must lie in (0, 1), got {self.tol}")

    @property
    def s_conj(self) -> float:
        return self.s / (self.s - 1.0)

    def validate_for_dimension(self, n: int) -> None:
        if self.s > n / self.alpha + 1e-12:
            raise ValueError(
                f"exponent window violated: s={self.s} > n/alpha={n / self.alpha:.6g}")


class SetMask:
    """Immutable boolean mask over the atoms/cells of a space."""

    def __init__(self, space, bools):
        b = np.asarray(bools, dtype=bool)
        if b.shape != (space.size,):
            raise ValueError(f"mask has shape {b.shape}, space has {space.size} atoms")
        self.space = space
        self.bools = b.copy()
        self.bools.setflags(write=False)
        self._key = self.bools.tobytes()

    @staticmethod
    def from_indices(space, indices) -> "SetMask":
        b = np.zeros(space.size, dtype=bool)
        b[np.asarray(indices, dtype=int)] = True
        return SetMask(space, b)

    @staticmethod
    def empty(space) -> "SetMask":
        return SetMask(space, np.zeros(space.size, dtype=bool))

    @staticmethod
    def full(space) -> "SetMask":
        return SetMask(space, np.ones(space.size, dtype=bool))

    @property
    def cardinality(self) -> int:
        return int(self.bools.sum())

    @property
    def measure(self) -> float:
        """Reference measure of the set (count * cell measure on grids)."""
        return float(self.space.weights[self.bools].sum())

    @property
    def is_empty(self) -> bool:
        return not self.bools.any()

    @property
    def key(self) -> bytes:
        return self._key

    def union(self, other: "SetMask") -> "SetMask":
        return SetMask(self.space, self.bools | other.bools)

    def intersect(self, other: "SetMask") -> "SetMask":
        return SetMask(self.space, self.bools & other.bools)

    def issubset(self, other: "SetMask") -> bool:
        return bool(np.all(~self.bools | other.bools))

    def diameter(self) -> float:
        """Largest pairwise distance of member cell centers (grids only)."""
        if not isinstance(self.space, Grid):
            raise ValueError("diameter needs grid geometry")
        if self.is_empty:
            return 0.0
        pts = self.space.coords()[self.bools]
        if self.space.n == 1 or len(pts) <= 2:
            span = pts.max(axis=0) - pts.min(axis=0)
            return float(np.sqrt((span ** 2).sum()))
        try:
            from scipy.spatial import ConvexHull
            pts = pts[ConvexHull(pts).vertices]
        except Exception:
            # degenerate (collinear) sets: extremes along a few directions
            # are enough to realize the maximal pair
            cand = []
            for d in ((1, 0), (0, 1), (1, 1), (1, -1)):
                proj = pts @ np.array(d, dtype=float)
                cand.extend([pts[proj.argmin()], pts[proj.argmax()]])
            pts = np.array(cand)
        diff = pts[:, None, :] - pts[None, :, :]
        return float(np.sqrt((diff ** 2).sum(axis=2)).max())

    def __repr__(self) -> str:
        return f"SetMask(|E|={self.cardinality} of {self.space.size})"


class CapacityProblem:
    """A space together with a nonnegative symmetric kernel operator.

    apply(values) maps a density field to its potential K f; because the
    kernel is symmetric the same map serves as the adjoint, and measures
    given by masses are handled by dividing out the atom weights.  `reach`
    is K 1, applied once on first use and kept for later solves.
    """

    def __init__(self, space, apply_fn: Callable[[np.ndarray], np.ndarray],
                 is_identity: bool = False, kernel: Optional[KernelSpec] = None,
                 label: str = ""):
        self.space = space
        self._apply = apply_fn
        self.is_identity = is_identity
        self.kernel = kernel
        self.label = label
        self._reach: Optional[np.ndarray] = None

    def apply(self, values: np.ndarray) -> np.ndarray:
        return self._apply(values)

    def potential_of_measure(self, masses: np.ndarray) -> np.ndarray:
        return self._apply(masses / self.space.weights)

    @property
    def reach(self) -> np.ndarray:
        """K 1, the potential of the unit density (read-only, cached)."""
        if self._reach is None:
            reach = self.apply(np.ones(self.space.size))
            reach.setflags(write=False)
            self._reach = reach
        return self._reach

    @property
    def dimension(self) -> Optional[int]:
        return self.space.n if isinstance(self.space, Grid) else None


def finite_problem(space: DiscreteMeasureSpace, matrix) -> CapacityProblem:
    """Kernel problem on a finite model from an explicit symmetric matrix.

    The operator is (K f)_j = sum_i M_ji f_i w_i.  The matrix must be
    nonnegative and symmetric (even kernels are; the dual certificates
    assume it).
    """
    M = np.asarray(matrix, dtype=float)
    m = space.size
    if M.shape != (m, m):
        raise ValueError(f"kernel matrix must be {m}x{m}, got {M.shape}")
    if np.any(M < 0.0) or not np.all(np.isfinite(M)):
        raise ValueError("kernel matrix must be nonnegative and finite")
    scale = float(np.abs(M).max()) or 1.0
    if np.abs(M - M.T).max() > 1e-12 * scale:
        raise ValueError("kernel matrix must be symmetric")
    w = space.weights
    Mw = M * w[None, :]
    ident = bool(np.allclose(Mw, np.eye(m), rtol=0.0, atol=1e-14))
    return CapacityProblem(space, lambda f: Mw @ f, is_identity=ident,
                           label="finite")


def identity_problem(space: DiscreteMeasureSpace) -> CapacityProblem:
    """The kernel whose application is the identity map (counting capacity:
    cap(E) equals the measure of E, exactly)."""
    return CapacityProblem(space, lambda f: f.copy(), is_identity=True,
                           label="identity")


def grid_problem(grid: Grid, params: CapacityParams) -> CapacityProblem:
    """Spectral kernel problem on a periodic grid."""
    params.validate_for_dimension(grid.n)
    spec = bessel_kernel(grid, params.alpha)
    return CapacityProblem(
        grid, lambda v: _convolve_values(grid, spec, v), kernel=spec,
        label=f"grid(alpha={params.alpha})")


# ---------------------------------------------------------------------------
# Results and the solver
# ---------------------------------------------------------------------------

@dataclass
class CapacityResult:
    """Certified capacity value with optimizers on both sides.

    Invariants on success: lower <= value <= upper (value is the primal
    objective of the reported feasible optimizer, so value == upper), the
    dual measure vanishes off E, and gap <= params.tol.
    """

    value: float
    lower: float
    upper: float
    gap: float
    converged: bool
    iterations: int
    mask: SetMask
    params: CapacityParams
    optimizer: Optional[np.ndarray] = field(default=None, repr=False)
    potential: Optional[np.ndarray] = field(default=None, repr=False)
    dual_measure: Optional[np.ndarray] = field(default=None, repr=False)
    infeasible: bool = False

    @property
    def is_zero(self) -> bool:
        return self.mask.is_empty


_FEAS_MARGIN = 1e-9  # constraints enforced as (Kf) >= 1 - margin, then rescaled


def capacity(problem: CapacityProblem, mask: SetMask,
             params: CapacityParams) -> CapacityResult:
    """Solve the capacity program for E = mask with certificates.

    The empty set has capacity zero by convention (no solve).  Identity
    kernels short-circuit to the exact counting answer.  Infeasibility (a
    kernel row vanishing identically on E) is detected up front from the
    problem's cached `reach` = K 1 and reported.  Non-convergence within the
    iteration budget returns the best certified bounds with converged=False
    rather than raising.

    Each iteration applies the kernel once for the gradient at the momentum
    point y, once per backtracking trial for the candidate's potential, and
    every fifth iteration once more for the primal upper bound.  The
    potential of the next momentum point comes from linearity when it can
    (see `_momentum_point`): potentials are linear in the measure, so
    K(mu + beta (mu - mu_prev)) = a + beta (a - a_prev) from the two fresh
    potentials already at hand.  That holds only while the extrapolated
    measure is nonnegative; when the projection onto mu >= 0 clips an entry,
    the projected point's potential is applied instead.  The certified
    bounds are computed only from freshly applied potentials, never from
    the combination, so the certificate does not depend on the shortcut.
    """
    if mask.space is not problem.space:
        raise ValueError("mask lives on a different space than the problem")
    if mask.is_empty:
        return CapacityResult(0.0, 0.0, 0.0, 0.0, True, 0, mask, params,
                              optimizer=np.zeros(problem.space.size),
                              potential=np.zeros(problem.space.size),
                              dual_measure=np.zeros(problem.space.size))
    w = problem.space.weights
    E = mask.bools

    if problem.is_identity:
        val = mask.measure
        f = E.astype(float)
        mu = np.where(E, w, 0.0)
        return CapacityResult(val, val, val, 0.0, True, 0, mask, params,
                              optimizer=f, potential=f.copy(), dual_measure=mu)

    if np.any(problem.reach[E] <= 0.0):
        return CapacityResult(math.inf, math.inf, math.inf, math.inf, False, 0,
                              mask, params, infeasible=True)

    s = params.s
    sp = params.s_conj

    def norm_sp(a: np.ndarray) -> float:
        return float((w * np.maximum(a, 0.0) ** sp).sum()) ** (1.0 / sp)

    def neg_dual(mu: np.ndarray, a: np.ndarray) -> float:
        return (s - 1.0) * s ** (-sp) * float(
            (w * np.maximum(a, 0.0) ** sp).sum()) - float(mu.sum())

    def ray_rescale(mu: np.ndarray, a: np.ndarray):
        total = float(mu.sum())
        na = norm_sp(a)
        if total <= 0.0 or na <= 0.0:
            return mu, a, 0.0
        t = s * (total / na ** sp) ** (s - 1.0)
        return mu * t, a * t, (total / na) ** s

    def primal_upper(a: np.ndarray):
        f = (np.maximum(a, 0.0) / s) ** (sp - 1.0)
        u = problem.apply(f)
        floor = float(u[E].min())
        if floor <= 0.0:
            return math.inf, None, None
        f = f / (floor * (1.0 - _FEAS_MARGIN))
        u = u / (floor * (1.0 - _FEAS_MARGIN))
        ub = float((w * f ** s).sum())
        return ub, f, u

    mu = np.where(E, w, 0.0)
    a = problem.potential_of_measure(mu)
    mu, a, best_lower = ray_rescale(mu, a)
    best_upper, best_f, best_u = primal_upper(a)
    best_mu = mu.copy()

    y, ay = mu.copy(), a.copy()
    Fy = neg_dual(y, ay)
    mu_prev, a_prev = mu.copy(), a
    momentum = 1.0
    step = 1.0
    iterations = 0

    for iterations in range(1, params.max_iter + 1):
        u = problem.apply((np.maximum(ay, 0.0) / s) ** (sp - 1.0))
        grad = np.where(E, u - 1.0, 0.0)
        while True:
            candidate = np.where(E, np.maximum(y - step * grad, 0.0), 0.0)
            a_cand = problem.potential_of_measure(candidate)
            F_cand = neg_dual(candidate, a_cand)
            d = candidate - y
            bound = Fy + float((grad * d).sum()) + float((d * d).sum()) / (2 * step)
            if F_cand <= bound + 1e-18 or step < 1e-18:
                break
            step *= 0.5
        mu_new, a_new = candidate, a_cand
        momentum_next = 0.5 * (1.0 + math.sqrt(1.0 + 4.0 * momentum ** 2))
        beta = (momentum - 1.0) / momentum_next
        y, ay = _momentum_point(problem, E, mu_new, a_new, mu_prev, a_prev, beta)
        F_next = neg_dual(y, ay)
        if F_next > Fy:  # adaptive restart: drop momentum on ascent failure
            y, ay = mu_new.copy(), a_new.copy()
            momentum_next = 1.0
            F_next = neg_dual(y, ay)
        Fy = F_next
        momentum = momentum_next
        mu_prev, a_prev = mu_new, a_new
        step *= 1.5

        if iterations % 5 == 0 or iterations == params.max_iter:
            mu_r, a_r, lo = ray_rescale(mu_new, a_new)
            up, f_up, u_up = primal_upper(a_r)
            if lo > best_lower:
                best_lower, best_mu = lo, mu_r
            if up < best_upper:
                best_upper, best_f, best_u = up, f_up, u_up
            gap = (best_upper - best_lower) / max(best_upper, 1e-300)
            if gap <= params.tol:
                return CapacityResult(
                    best_upper, best_lower, best_upper, gap, True, iterations,
                    mask, params, optimizer=best_f, potential=best_u,
                    dual_measure=best_mu / s)

    gap = (best_upper - best_lower) / max(best_upper, 1e-300)
    return CapacityResult(best_upper, best_lower, best_upper, gap, False,
                          iterations, mask, params, optimizer=best_f,
                          potential=best_u, dual_measure=best_mu / s)


def _momentum_point(problem: CapacityProblem, E: np.ndarray,
                    mu_new: np.ndarray, a_new: np.ndarray,
                    mu_prev: np.ndarray, a_prev: np.ndarray, beta: float):
    """Extrapolated dual point y = P(mu_new + beta (mu_new - mu_prev)) and K y.

    P projects onto the measures that are nonnegative and vanish off E.  Both
    iterates vanish off E, so P is inactive exactly when the extrapolation
    has no negative entry; then y is the extrapolation itself and, by
    linearity, K y = a_new + beta (a_new - a_prev) with no kernel apply.
    Otherwise y is projected and its potential applied.
    """
    z = mu_new + beta * (mu_new - mu_prev)
    if z.min() >= 0.0:
        return z, a_new + beta * (a_new - a_prev)
    y = np.where(E, np.maximum(z, 0.0), 0.0)
    return y, problem.potential_of_measure(y)


class CapacityOracle:
    """Caching front end for repeated capacity queries on one problem.

    Results are memoized by the mask bit pattern, so identical sets seen by
    different estimators share one certified value exactly (several
    inequality chains rely on that cancellation).
    """

    def __init__(self, problem: CapacityProblem, params: CapacityParams):
        if problem.dimension is not None:
            params.validate_for_dimension(problem.dimension)
        self.problem = problem
        self.params = params
        self._cache: dict = {}

    def result(self, mask: SetMask) -> CapacityResult:
        hit = self._cache.get(mask.key)
        if hit is None:
            hit = capacity(self.problem, mask, self.params)
            self._cache[mask.key] = hit
        return hit

    def value(self, mask: SetMask) -> float:
        return self.result(mask).value

    @property
    def space(self):
        return self.problem.space

    @property
    def cache_size(self) -> int:
        return len(self._cache)


# ---------------------------------------------------------------------------
# Nonlinear potential and equilibrium identities
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class NonlinearPotential:
    """V = K (K mu)^(s'-1): nonnegative and finite on the whole space."""

    field: Field
    source_masses: np.ndarray = field(repr=False)


def nonlinear_potential(problem: CapacityProblem, params: CapacityParams,
                        masses: np.ndarray) -> NonlinearPotential:
    mu = np.asarray(masses, dtype=float)
    if np.any(mu < 0.0):
        raise ValueError("potential source measure must be nonnegative")
    a = problem.potential_of_measure(mu)
    V = problem.apply(np.maximum(a, 0.0) ** (params.s_conj - 1.0))
    return NonlinearPotential(Field(problem.space, np.maximum(V, 0.0)), mu)


def equilibrium_checks(problem: CapacityProblem, result: CapacityResult) -> dict:
    """Relative residuals of the three equilibrium identities.

    For the extracted dual measure: total mass, s'-energy of its potential,
    and the self-pairing against the nonlinear potential all equal the
    capacity at the optimum; each residual is reported relative to the
    certified value.
    """
    if not result.converged or result.dual_measure is None:
        raise ValueError("equilibrium checks need a converged result")
    if result.is_zero:
        return {"mass": 0.0, "energy": 0.0, "self_pairing": 0.0}
    params = result.params
    w = problem.space.weights
    mu = result.dual_measure
    a = np.maximum(problem.potential_of_measure(mu), 0.0)
    sp = params.s_conj
    value = result.value
    mass = float(mu.sum())
    energy = float((w * a ** sp).sum())
    V = problem.apply(a ** (sp - 1.0))
    self_pair = float((V * mu).sum())
    return {
        "mass": abs(mass - value) / value,
        "energy": abs(energy - value) / value,
        "self_pairing": abs(self_pair - value) / value,
    }


# ---------------------------------------------------------------------------
# Norm estimates and capacitary layer cakes
# ---------------------------------------------------------------------------

@dataclass
class NormEstimate:
    """A norm value tagged with its certification mode and witness.

    mode is 'exact' only when the computation provably exhausts the defining
    supremum/integral (all-subsets families on finite models, layer cakes
    over every distinct level); otherwise 'lower-bound' or 'upper-bound'.
    lo/hi bracket the target using the constituent capacity certificates;
    max_gap records the worst constituent relative duality gap.
    """

    value: float
    mode: str
    witness: object = None
    lo: float = 0.0
    hi: float = math.inf
    max_gap: float = 0.0

    def __post_init__(self):
        if self.mode not in ("exact", "lower-bound", "upper-bound"):
            raise ValueError(f"unknown estimate mode {self.mode!r}")


def _superlevel(values: np.ndarray, space, threshold: float,
                strict: bool = True) -> SetMask:
    if strict:
        return SetMask(space, values > threshold)
    return SetMask(space, values >= threshold)


def _distinct_desc(values: np.ndarray) -> np.ndarray:
    pos = values[values > 0.0]
    if pos.size == 0:
        return np.empty(0)
    return np.unique(pos)[::-1]


def l1c_norm(omega: Field, oracle: CapacityOracle,
             max_levels: Optional[int] = None) -> NormEstimate:
    """Layer-cake capacity integral int_0^inf cap({omega > t}) dt.

    Exact over the distinct positive levels of omega.  When max_levels caps
    the level count, the knots are thinned to a subsample and the integral
    is bracketed rigorously (capacity is monotone between adjacent knots);
    the returned value is then the upper end, mode 'upper-bound', with the
    lower end in `lo`.
    """
    vals = omega.values
    if np.any(vals < 0.0):
        raise ValueError("l1c norm requires a nonnegative field")
    levels = _distinct_desc(vals)
    if levels.size == 0:
        return NormEstimate(0.0, "exact", witness=None, lo=0.0, hi=0.0)
    exact = max_levels is None or levels.size <= max_levels
    if not exact:
        idx = np.unique(np.linspace(0, levels.size - 1, max_levels).round().astype(int))
        levels = levels[idx]

    knots = np.concatenate([levels, [0.0]])
    up_sum = lo_sum = 0.0
    val_sum = 0.0
    worst = 0.0
    for i in range(levels.size):
        width = knots[i] - knots[i + 1]
        r_lo = oracle.result(_superlevel(vals, omega.space, knots[i], strict=False))
        r_hi = oracle.result(_superlevel(vals, omega.space, knots[i + 1], strict=True))
        lo_sum += r_lo.lower * width
        up_sum += r_hi.upper * width
        val_sum += r_hi.value * width
        worst = max(worst, r_lo.gap, r_hi.gap)
    if exact:
        return NormEstimate(val_sum, "exact", witness=None,
                            lo=lo_sum, hi=up_sum, max_gap=worst)
    return NormEstimate(up_sum, "upper-bound", witness=None,
                        lo=lo_sum, hi=up_sum, max_gap=worst)


def capacitary_lorentz_norm(f: Field, e: LorentzExponents,
                            oracle: CapacityOracle) -> NormEstimate:
    """Lorentz layer cake with the capacity replacing the measure.

    Same closed form as the measure-based norm, evaluated over the distinct
    levels u_i with cap({|f| >= u_i}); the q = inf case is the breakpoint
    supremum sup_i u_i cap({|f| >= u_i})^(1/p).
    """
    vals = np.abs(f.values)
    levels = _distinct_desc(vals)
    if levels.size == 0:
        return NormEstimate(0.0, "exact", lo=0.0, hi=0.0)
    p = e.p
    results = [oracle.result(_superlevel(vals, f.space, u, strict=False))
               for u in levels]
    worst = max(r.gap for r in results)
    caps = np.array([r.value for r in results])
    caps_lo = np.array([r.lower for r in results])
    caps_hi = np.array([r.upper for r in results])

    if e.q == math.inf:
        vals_mid = levels * caps ** (1.0 / p)
        i = int(np.argmax(vals_mid))
        return NormEstimate(float(vals_mid[i]), "exact", witness=levels[i],
                            lo=float(np.max(levels * caps_lo ** (1.0 / p))),
                            hi=float(np.max(levels * caps_hi ** (1.0 / p))),
                            max_gap=worst)

    q = e.q
    uq = levels ** q
    drops = uq - np.concatenate([uq[1:], [0.0]])
    pref = (p / q) ** (1.0 / q)

    def closed_form(c):
        return pref * float(np.sum(c ** (q / p) * drops)) ** (1.0 / q)

    return NormEstimate(closed_form(caps), "exact",
                        lo=closed_form(caps_lo), hi=closed_form(caps_hi),
                        max_gap=worst)


# ---------------------------------------------------------------------------
# Localization and lower-bound diagnostics
# ---------------------------------------------------------------------------

def unit_cover(grid: Grid) -> list:
    """Partition of the box into axis-aligned cubes of unit diameter.

    Cube side is 1/sqrt(n) so the diagonal is exactly 1; cells are assigned
    by center, so the cover is a partition (multiplicity one).
    """
    side = 1.0 / math.sqrt(grid.n)
    coords = grid.coords() + grid.L / 2.0  # shift to [0, L)
    idx = np.floor(coords / side).astype(int)
    if grid.n == 1:
        labels = idx[:, 0]
    else:
        per_axis = int(math.ceil(grid.L / side))
        labels = idx[:, 0] * per_axis + idx[:, 1]
    masks = []
    for lab in np.unique(labels):
        masks.append(SetMask(grid, labels == lab))
    return masks


@dataclass
class StrichartzReport:
    capacity_value: float
    localized_sum: float
    ratio: float
    pieces: int
    subadditive_ok: bool
    max_gap: float


def strichartz_check(oracle: CapacityOracle, mask: SetMask) -> StrichartzReport:
    """Compare cap(E) with the sum over a unit-diameter cover of cap(E n B).

    Subadditivity cap(E) <= sum is exact for the discrete model (the cover
    is a partition and pointwise maxima of feasible potentials are
    feasible); it is asserted through the certificates: the lower bound of
    the whole set must not exceed the summed upper bounds.  The reverse
    ratio sum/cap(E) is recorded, not bounded.
    """
    grid = oracle.space
    if not isinstance(grid, Grid):
        raise ValueError("localization check needs a grid model")
    whole = oracle.result(mask)
    pieces = []
    for box in unit_cover(grid):
        piece = mask.intersect(box)
        if not piece.is_empty:
            pieces.append(oracle.result(piece))
    total = sum(r.value for r in pieces)
    total_upper = sum(r.upper for r in pieces)
    worst = max([whole.gap] + [r.gap for r in pieces])
    ok = whole.lower <= total_upper * (1.0 + 1e-12) + 1e-300
    ratio = total / whole.value if whole.value > 0 else math.inf
    return StrichartzReport(whole.value, total, ratio, len(pieces), ok, worst)


@dataclass
class LowerBoundReport:
    measure: float
    capacity_value: float
    ratio: float
    epsilon: float
    skipped: bool = False


def lebesgue_lower_bound_check(oracle: CapacityOracle, mask: SetMask,
                               epsilon: float) -> LowerBoundReport:
    """Ratio |E|^eps / cap(E) inside the admissible epsilon window.

    Window: 0 < eps <= 1 when alpha*s = n, and (n - alpha*s)/n <= eps <= 1
    when alpha*s < n.  The ratio is a recorded diagnostic; finiteness and
    refinement stability are asserted by the verification suites.
    """
    grid = oracle.space
    if not isinstance(grid, Grid):
        raise ValueError("lower-bound check needs a grid model")
    p = oracle.params
    n = grid.n
    prod = p.alpha * p.s
    if abs(prod - n) <= 1e-12:
        lo_eps = 0.0
    elif prod < n:
        lo_eps = (n - prod) / n
    else:
        raise ValueError(f"alpha*s={prod:.6g} exceeds the dimension n={n}")
    if not (lo_eps - 1e-12 <= epsilon <= 1.0 + 1e-12) or epsilon <= 0.0:
        raise ValueError(
            f"epsilon={epsilon} outside the admissible window "
            f"[{lo_eps:.6g}, 1]")
    if mask.is_empty:
        return LowerBoundReport(0.0, 0.0, 0.0, epsilon, skipped=True)
    res = oracle.result(mask)
    ratio = mask.measure ** epsilon / res.value
    return LowerBoundReport(mask.measure, res.value, ratio, epsilon)
