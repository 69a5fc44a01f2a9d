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

At each certificate check the dual is also polished, by Newton with an
active set on (K f(mu))_S = 1 for its support S (`_polish`), and certified
as the iterate is; on the campaigns' sets that closes the gap at once.  At
s = 2 every interval of a line grid polishes from one inverse Cholesky
factor per problem (`CapacityProblem.interval_factor`), and each interval
length once.  LAPACK sees blocks of at most 64 unknowns and `_mul` runs
the matrix products as BLAS calls on 64 x 64 x 64 tiles, added in a fixed
order, so the polish gives the same bits at any BLAS thread count.

There is one solver, `_solve_sets`, which takes the sets as a (B, size)
boolean matrix and writes every field of a `CapacityResult` as a column,
one row per set.  `capacity_batch` builds its results from the columns and
`capacity` is its batch of one; `CapacityOracle.gather` answers a family
of sets from one batch and builds no object per row.

The capacitary Lorentz norms and the L1-capacity norm (their p = q = 1
case) are one body, `_capacitary_layer_cake`: the measure module's closed
form with cap for the measure over the superlevel sets, from one gather;
its value is the upper end of a bracket, certified also for thinned levels.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import partial
from itertools import product
from typing import Callable, Optional, Sequence

import numpy as np

from .grid import Grid, KernelSpec, bessel_kernel, _convolve_values
from .measure import (MAX_CELLS, DiscreteMeasureSpace, Field, LorentzExponents,
                      _layer_cake, _levels, _same_space, _thinned, _unique)

__all__ = [
    "CapacityParams",
    "SetMask",
    "CapacityProblem",
    "finite_problem",
    "identity_problem",
    "grid_problem",
    "CapacityResult",
    "capacity",
    "capacity_batch",
    "audit_certificate",
    "CapacityOracle",
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
        # the primal candidate is rescaled by 1/(1 - _FEAS_MARGIN), so no
        # certificate closes a relative gap below this floor
        floor = 1.0 - (1.0 - _FEAS_MARGIN) ** self.s
        if self.tol <= floor:
            raise ValueError(
                f"tolerance {self.tol} is not above the gap floor {floor:.3g} "
                f"of the feasibility margin at s={self.s}")
        if self.max_iter < 1:
            raise ValueError(f"max_iter must be at least 1, got {self.max_iter}")

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

    @staticmethod
    def from_indices(space, indices) -> "SetMask":
        idx = np.asarray(indices)
        if idx.size and (idx.dtype.kind not in "iu" or idx.min() < 0
                         or idx.max() >= space.size):
            raise ValueError(f"mask indices must be integers in [0, {space.size})")
        b = np.zeros(space.size, dtype=bool)
        b[idx.astype(int)] = True
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
        """Reference measure of the set: its weights summed in atom order
        (`_measures`, of which this is the batch of one)."""
        return float(_measures(self.space.weights, self.bools[None])[0])

    @property
    def is_empty(self) -> bool:
        return not self.bools.any()

    @property
    def key(self) -> bytes:
        return self.bools.tobytes()

    def union(self, other: "SetMask") -> "SetMask":
        _same_space(self.space, other)
        return SetMask(self.space, self.bools | other.bools)

    def issubset(self, other: "SetMask") -> bool:
        _same_space(self.space, other)
        return bool(np.all(~self.bools | other.bools))

    def diameter(self) -> float:
        """Largest pairwise distance of member cell centers (grids only)."""
        return _diameter(self.space, self.bools)

    def __repr__(self) -> str:
        return f"SetMask(|E|={self.cardinality} of {self.space.size})"


def _diameter(space, bools: np.ndarray) -> float:
    """Largest pairwise distance of the centers of the cells in `bools`.

    On the plane a farthest pair are convex-hull vertices, and each hull
    vertex is the first or last member of its grid row, so the distances
    among those at most 2N row ends are exact."""
    if not isinstance(space, Grid):
        raise ValueError("diameter needs grid geometry")
    cells = np.flatnonzero(bools)
    if cells.size == 0:
        return 0.0
    pts = space.coords()[cells]
    if space.n == 1:
        span = pts.max(axis=0) - pts.min(axis=0)
        return float(np.sqrt((span ** 2).sum()))
    new_row = np.diff(cells // space.N) != 0
    pts = pts[np.r_[True, new_row] | np.r_[new_row, True]]
    # squared distances from 256 points at a time bound the temporaries
    far = max(((pts[i:i + 256, None] - pts[None]) ** 2).sum(axis=2).max()
              for i in range(0, len(pts), 256))
    return float(np.sqrt(far))


def _measures(weights: np.ndarray, bits: np.ndarray) -> np.ndarray:
    """The measure of every row of a bool matrix, under one weight vector or
    a stack of one per row: the member weights summed in atom order, as a
    cumulative sum along the masked row (adding 0.0 changes no bit)."""
    return np.add.accumulate(np.where(bits, weights, 0.0), axis=1)[:, -1]


def _row_keys(bits: np.ndarray) -> np.ndarray:
    """One opaque item per row of a bool matrix: its packed bits."""
    packed = np.packbits(bits, axis=1)
    return packed.view(f"V{packed.shape[1]}").ravel()


def _stack_rows(mats: Sequence[np.ndarray], size: int) -> tuple:
    """(rows, owner, ends): the (n_k, size) matrices stacked in order, the
    matrix each row comes from, and matrix k's rows as ends[k]:ends[k + 1]."""
    ends = np.cumsum([0] + [len(m) for m in mats])
    rows = np.concatenate([np.zeros((0, size), dtype=bool), *mats])
    return rows, np.repeat(np.arange(len(mats)), np.diff(ends)), ends


class CapacityProblem:
    """A space together with a nonnegative symmetric kernel operator.

    apply(values) maps a density field to its potential K f, or each row of
    a (B, size) stack of fields to its own, in a new array the solver may
    update in place; the kernel is symmetric, so the same map serves as the
    adjoint, and measures given by masses are handled by dividing out the
    atom weights.  `reach` is K 1 and `square` is K^2 of unit masses, each
    applied once on first use and kept.  On a line grid, `interval_factor`
    keeps the s = 2 polish matrix of the longest interval asked for and
    its inverse Cholesky factor, which serve every shorter interval, and
    beside it `_interval_nu` maps an interval length k to the polished
    masses of the interval [0, k) (`_polish`): at most N entries of k floats.
    """

    def __init__(self, space, apply_fn: Callable[[np.ndarray], np.ndarray],
                 is_identity: bool = False, kernel: Optional[KernelSpec] = None):
        self.space = space
        self._apply = apply_fn
        self.is_identity = is_identity
        self.kernel = kernel
        self._reach: Optional[np.ndarray] = None
        self._square: Optional[np.ndarray] = None
        self._factor = (np.zeros((0, 0)), np.zeros((0, 0)))
        self._interval_nu: dict = {}

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
    def square(self) -> np.ndarray:
        """K^2 of unit masses (read-only, cached): (K^2)_jk is M W M on
        finite models and, on grids, the (1, size) row K K e_0 / w at the
        periodic difference of cells j and k."""
        if self._square is None:
            n = 1 if isinstance(self.space, Grid) else self.space.size
            self._square = self.apply(self.potential_of_measure(
                np.eye(n, self.space.size)))
            self._square.setflags(write=False)
        return self._square

    def interval_factor(self, k: int) -> tuple:
        """(T, W) on the first m >= k cells of a line grid, m the least
        multiple of 64 capped at N: T_ij = (K^2)_{0,(i-j) mod N} / 2, so
        the s = 2 polish matrix of any interval of k cells is T[:k, :k] by
        translation invariance, and W = L^-1 for T = L L^T, whose leading
        k x k block inverts the factor of T[:k, :k].

        A longer interval replaces the kept pair: T is read anew from
        `square` and W grows by block rows of 64, each computed from the
        earlier ones alone (`_grow_inverse_factor`), so growing never
        changes a bit already computed.  W stops short of T if a block's
        Cholesky factorization fails, and then the intervals longer than W
        neither read nor write the memo of polished lengths.
        """
        T, W = self._factor
        m = min(-(-k // 64) * 64, self.space.N)
        if len(T) < m:
            N, t = self.space.N, self.square[0] / 2.0
            # T_ij = u[i - j + m - 1] with u[d + m - 1] = t[d mod N]
            u = t[np.arange(1 - m, m) % N]
            T = np.lib.stride_tricks.sliding_window_view(u, m)[:, ::-1].copy()
            # a whole pair is swapped in, so concurrent solves see no mix
            self._factor = T, W = T, _grow_inverse_factor(T, W)
        return T, W

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
    # f @ Mw.T maps a (size,) field and each row of a (B, size) stack alike
    MwT = Mw.T
    return CapacityProblem(space, lambda f: f @ MwT, is_identity=ident)


def identity_problem(space: DiscreteMeasureSpace) -> CapacityProblem:
    """The kernel whose application is the identity map (counting capacity:
    cap(E) equals the measure of E, exactly)."""
    return CapacityProblem(space, lambda f: f.copy(), is_identity=True)


def grid_problem(grid: Grid, params: CapacityParams) -> CapacityProblem:
    """Spectral kernel problem on a periodic grid."""
    params.validate_for_dimension(grid.n)
    spec = bessel_kernel(grid, params.alpha)
    return CapacityProblem(grid, partial(_convolve_values, grid, spec),
                           kernel=spec)


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
    dual_measure: Optional[np.ndarray] = field(default=None, repr=False)
    infeasible: bool = False

    @property
    def is_zero(self) -> bool:
        return self.mask.is_empty


_FEAS_MARGIN = 1e-9  # constraints enforced as (Kf) >= 1 - margin, then rescaled
_TILE = 64  # `_mul`'s tile side

_BETAS = np.zeros(1)  # FISTA extrapolation weights, grown on demand


def _betas(count: int) -> np.ndarray:
    """At least `count` extrapolation weights beta_k = (t_k - 1) / t_{k+1},
    with t_0 = 1 and t_{k+1} = (1 + sqrt(1 + 4 t_k^2)) / 2.

    The momentum depends only on the iterations since the row's last
    restart, so one table serves every row.  The recurrence runs in Python
    floats (libm, not numpy's vector kernels, whose last bits can differ);
    a larger table is built whole and swapped in, so concurrent solves
    never see a partial one.
    """
    global _BETAS
    if _BETAS.size < count:
        t = [1.0]
        for _ in range(count):
            t.append(0.5 * (1.0 + math.sqrt(1.0 + 4.0 * t[-1] ** 2)))
        tt = np.array(t)
        _BETAS = (tt[:-1] - 1.0) / tt[1:]
    return _BETAS


def capacity(problem: CapacityProblem, mask: SetMask,
             params: CapacityParams) -> CapacityResult:
    """Solve the capacity program for E = mask with certificates: the batch
    of one of `capacity_batch`, which documents the solver."""
    return capacity_batch(problem, [mask], params)[0]


def capacity_batch(problem: CapacityProblem, masks: Sequence[SetMask],
                   params: CapacityParams) -> list:
    """Solve the capacity program for every mask, one result per mask,
    each built from the columns of the one solver, `_solve_sets`.

    The empty set has capacity zero by convention and identity kernels give
    the exact counting answer, with no solve.  Infeasibility (a kernel row
    vanishing identically on E) is detected up front from the problem's
    cached `reach` = K 1 and reported.  These rows are sorted out by array
    operations.  The other rows run one accelerated projected dual ascent
    vectorized over rows (`_solve_rows`), in chunks of at most
    MAX_CELLS / size rows; non-convergence within the iteration budget
    returns the best certified bounds with converged=False.  Each row keeps
    its own step, momentum, best bounds and optimizers, and on grids the
    apply and every reduction act row by row, so a row's iterates are those
    of its batch of one, bit for bit.  A finite-model apply is a matrix
    product whose BLAS path depends on the number of rows, so there a row's
    certified digits depend on its batch, within the certified gap.

    Each iteration applies the kernel once for the gradients at the
    momentum points, once for the candidates, and once more for each round
    of backtracking on the rows that failed the sufficient-decrease test.
    The potential of a momentum point y = mu + beta (mu - mu_prev) comes
    from linearity, K y = a + beta (a - a_prev), for every row whose
    extrapolation has no negative entry; rows the projection onto mu >= 0
    clips are applied afresh.  A row whose dual objective rises drops its
    momentum (adaptive restart).  At iteration 0 and every fifth iteration
    the certificates are computed from the current measures and from their
    polish (`_polish`), each from freshly applied potentials, never from
    the combination, and the rows with gap <= tol retire: they are written
    to the columns and leave the state arrays, which are compacted.
    """
    _same_space(problem.space, *masks)
    cols = _solve_sets(problem, np.array([m.bools for m in masks], dtype=bool)
                       .reshape(-1, problem.space.size), params)
    return [cols.result(i, mask) for i, mask in enumerate(masks)]


class _Columns:
    """The solves of the rows of a (B, size) bool matrix E, one array per
    `CapacityResult` field: `bounds` is value, lower, upper and gap as a
    (4, B) array, converged, iterations and infeasible are (B,), and
    `vectors` the (B, size) optimizer and dual measure.
    `result(i)` builds row i's `CapacityResult` on views of these."""

    def __init__(self, space, E: np.ndarray, params: CapacityParams):
        self.space, self.E, self.params = space, E, params
        self.bounds = np.zeros((4, len(E)))
        self.converged = np.ones(len(E), dtype=bool)
        self.infeasible = ~self.converged
        self.iterations = np.zeros(len(E), dtype=int)
        self._vectors: Optional[np.ndarray] = None

    @property
    def vectors(self) -> np.ndarray:
        """Allocated on first use: a solve's first retirement comes after
        its first polish, so these never add to that polish's peak."""
        if self._vectors is None:
            self._vectors = np.zeros((2,) + self.E.shape)
        return self._vectors

    def result(self, i: int, mask: Optional[SetMask] = None) -> CapacityResult:
        value, lower, upper, gap = self.bounds[:, i].tolist()
        f, mu = self.vectors[:, i]
        # only a row not converged can keep an infinite upper bound, and such
        # a row (infeasible, or solved without a finite candidate) has no optimizer
        none = upper == math.inf and not self.converged[i]
        return CapacityResult(
            value, lower, upper, gap, bool(self.converged[i]), int(self.iterations[i]),
            SetMask(self.space, self.E[i]) if mask is None else mask, self.params,
            optimizer=None if none else f,
            dual_measure=None if self.infeasible[i] else mu,
            infeasible=bool(self.infeasible[i]))


def _solve_sets(problem: CapacityProblem, E: np.ndarray,
                params: CapacityParams) -> _Columns:
    """`capacity_batch` on the rows of a (B, size) bool matrix, into columns."""
    cols = _Columns(problem.space, E, params)
    w = problem.space.weights
    if problem.is_identity:
        cols.bounds[:3] = _measures(w, E)
        cols.vectors[0], cols.vectors[1] = E, np.where(E, w, 0.0)
        return cols
    live = np.flatnonzero(E.any(axis=1))
    if live.size:   # reach is applied on first use only
        bad = (E[live] & (problem.reach <= 0.0)).any(axis=1)
        cols.bounds[:, live[bad]] = math.inf
        cols.converged[live[bad]], cols.infeasible[live[bad]] = False, True
        live = live[~bad]
    chunk = max(1, MAX_CELLS // E.shape[1])
    # np.where evaluates both branches; degenerate rows take the guarded
    # one.  Near s = 1 the power s' - 1 is large: an overflowing candidate
    # gets F = inf, fails the sufficient-decrease test and is backtracked,
    # and an overflowed bound is inf or nan, never better than the best one
    # kept.
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        for start in range(0, live.size, chunk):
            _solve_rows(problem, live[start:start + chunk], params, cols)
    return cols


def _solve_rows(problem: CapacityProblem, live: np.ndarray,
                params: CapacityParams, cols: _Columns) -> None:
    """The dual ascent of `capacity_batch` on the feasible rows `live` of
    the columns, retired into them.  Row-wise reductions go through
    `np.add.reduce` and friends, whose per-call overhead is the cost on
    small models.  Whole-grid temporaries are updated in place on the array
    their step just made, never on one another name holds.
    """
    w, s, sp = problem.space.weights, params.s, params.s_conj
    energy_coef = (s - 1.0) * s ** (-sp)
    rowsum, rowmin = np.add.reduce, np.minimum.reduce
    E = cols.E[live]   # live[r]: the column row of state row r
    on = E.astype(float)   # 1 on E, 0 off E

    def energy(a):   # row sums of w max(a, 0)^s'
        t = np.maximum(a, 0.0)
        t **= sp
        t *= w
        return rowsum(t, 1)

    def density(a):   # (max(a, 0) / s)^(s' - 1), the primal density of a
        f = np.maximum(a, 0.0)
        f /= s
        f **= sp - 1.0
        return f

    def neg_dual(mu, a):
        return energy_coef * energy(a) - rowsum(mu, 1)

    def ray_rescale(mu, a):
        total = rowsum(mu, 1)
        na = energy(a) ** (1.0 / sp)
        ok = (total > 0.0) & (na > 0.0)
        t = np.where(ok, s * (total / na ** sp) ** (s - 1.0), 1.0)
        lower = np.where(ok, (total / na) ** s, 0.0)
        return mu * t[:, None], a * t[:, None], lower

    def primal_upper(a):
        f = density(a)
        floor = rowmin(np.where(E, problem.apply(f), np.inf), 1)
        f /= (floor * (1.0 - _FEAS_MARGIN))[:, None]
        upper = np.where(floor > 0.0, rowsum(w * f ** s, 1), np.inf)
        return upper, f

    def descend(y, grad, step, Fy):
        """Projected gradient step from y: the candidate, its potential and
        dual value, and the rows that failed the sufficient decrease test.
        y and grad vanish off E, so the candidate does too."""
        mu = np.maximum(y - step[:, None] * grad, 0.0)
        a = problem.potential_of_measure(mu)
        F = neg_dual(mu, a)
        d = mu - y
        bound = Fy + rowsum(grad * d, 1) + rowsum(d * d, 1) / (2 * step)
        failed = (F > bound + 1e-18).nonzero()[0]
        if failed.size:   # a step below 1e-18 is taken as it is
            failed = failed[step[failed] >= 1e-18]
        return mu, a, F, failed

    mu_new = w * on   # the start, certified at iteration 0
    a_new = problem.potential_of_measure(mu_new)
    y, ay, _ = ray_rescale(mu_new, a_new)
    Fy = neg_dual(y, ay)
    mu_prev, a_prev = y, ay
    best_lower, best_upper, best_mu, best_f = 0.0, np.inf, 0.0, 0.0
    since = np.zeros((len(live), 1), dtype=int)   # iterations since restart
    step = np.ones(len(live))
    betas = _betas(64)

    for iterations in range(params.max_iter + 1):
        last = iterations == params.max_iter
        if iterations % 5 == 0 or last:
            cands = [ray_rescale(mu_new, a_new)]
            nu = _polish(problem, params, E, cands[0][0])
            if nu is not None:   # certified from fresh applies, as the iterate
                cands.append(ray_rescale(nu, problem.potential_of_measure(nu)))
            for mu_r, a_r, lower in cands:
                upper, f_up = primal_upper(a_r)
                better = lower > best_lower
                best_lower = np.where(better, lower, best_lower)
                best_mu = np.where(better[:, None], mu_r, best_mu)
                better = upper < best_upper
                best_upper = np.where(better, upper, best_upper)
                best_f = np.where(better[:, None], f_up, best_f)
            gap = (best_upper - best_lower) / np.maximum(best_upper, 1e-300)
            done = gap <= params.tol
            retire = done | last
            at = retire.nonzero()[0]
            i, r = live[at], (slice(None) if at.size == retire.size else at)
            cols.bounds[:, i] = best_upper[r], best_lower[r], best_upper[r], gap[r]
            cols.converged[i], cols.iterations[i] = done[r], iterations
            dual = best_mu[r]   # a view only when every row retires and the solve ends
            dual /= s
            f, mu = cols.vectors
            f[i], mu[i] = best_f[r], dual
            keep = (~retire).nonzero()[0]
            if not keep.size:
                return
            if keep.size < retire.size:
                live, E, on, since, step, Fy = (live[keep], E[keep], on[keep],
                                                since[keep], step[keep], Fy[keep])
                y, ay = y[keep], ay[keep]
                mu_prev, a_prev = mu_prev[keep], a_prev[keep]
                best_lower, best_upper = best_lower[keep], best_upper[keep]
                best_mu, best_f = best_mu[keep], best_f[keep]

        grad = problem.apply(density(ay))
        grad -= 1.0
        grad *= on
        mu_new, a_new, F_new, retry = descend(y, grad, step, Fy)
        while retry.size:   # backtrack the rows that failed the test
            rows = retry if retry.size < step.size else slice(None)  # no gather
            step[rows] *= 0.5
            mu_r, a_r, F_r, failed = descend(y[rows], grad[rows], step[rows],
                                             Fy[rows])
            mu_new[rows], a_new[rows], F_new[rows] = mu_r, a_r, F_r
            retry = retry[failed]

        if iterations >= betas.size:
            betas = _betas(2 * iterations + 2)
        beta = betas[since]
        y = mu_new + beta * (mu_new - mu_prev)
        ay = a_new - a_prev   # a_new + beta (a_new - a_prev), in place
        ay *= beta
        ay += a_new
        clipped = (rowmin(y, 1) < 0.0).nonzero()[0]
        if clipped.size:   # projection active: apply the projected point
            y[clipped] = np.maximum(y[clipped], 0.0)
            ay[clipped] = problem.potential_of_measure(y[clipped])
        F_next = neg_dual(y, ay)
        since += 1
        restart = (F_next > Fy).nonzero()[0]
        if restart.size:   # adaptive restart: drop momentum on ascent failure
            y[restart], ay[restart] = mu_new[restart], a_new[restart]
            F_next[restart] = F_new[restart]
            since[restart] = 0
        Fy = F_next
        mu_prev, a_prev = mu_new, a_new
        step *= 1.5


def _polish(problem: CapacityProblem, params: CapacityParams, E: np.ndarray,
            mu: np.ndarray) -> Optional[np.ndarray]:
    """Active-set polish of the duals `mu` of the sets E, both (B, size).

    On the support S of a row's dual, solve (K f(nu))_S = 1 for masses nu
    by Newton, f(nu) = (K nu / s)^(s'-1), with Jacobian P diag(w f'(K nu))
    P^T (P: the potentials of unit masses on S); drop the atoms where
    nu < 0, add back those of E where K f < 1, and repeat while S changes,
    up to 10 rounds (a primal-dual active set: Hintermueller, Ito & Kunisch,
    SIAM J. Optim. 13, 2003).  At s = 2 the Jacobian is (K^2)_SS / 2 from
    `problem.square`; on an interval of a line grid it is the leading
    block of `problem.interval_factor`'s T, and a round on all of the
    interval's cells takes x = W^T (W 1) from its inverse factor W, two
    matrix-vector products, where other rounds and sets solve.  An
    interval row whose start is positive on all of its k cells and fails
    round 0's test takes that step in round 0, so its later rounds depend
    on k alone: the first such row of each length stores its final masses
    in `problem._interval_nu` and later ones read them back, bit for bit.
    A grid row solves its own block on S alone, zero off S; finite rows
    share their sets' atoms, with identity rows off S.  Rows over the
    MAX_CELLS budget are skipped.
    Returns the masses clipped at zero (zero where skipped or not finite),
    or None if all are zero.
    """
    space, s, sp, w = problem.space, params.s, params.s_conj, problem.space.weights
    grid = isinstance(space, Grid)
    out = np.zeros_like(mu)
    for rows in [[r] for r in range(len(E))] if grid else [np.arange(len(E))]:
        cells = np.flatnonzero(E[rows].any(axis=0))
        k = cells.size
        # per row: k^2 block entries, or P (k x size) and the Newton rounds'
        # k^2 size work, which past 4 MAX_CELLS costs more than it saves
        chunk = MAX_CELLS // (k * (k if s == 2.0 else
                                   space.size * max(1, k // 4)))
        if not chunk:
            continue
        W = None   # L^-1 of G = L L^T, for the steps on all of the cells
        interval = cells[-1] - cells[0] + 1 == k
        if s == 2.0 and grid and space.n == 1 and interval:
            T, W = problem.interval_factor(k)   # leading blocks
            G, W = T[:k, :k], (W[:k, :k] if len(W) >= k else None)
        elif s == 2.0 and grid:   # (K^2)_jk sits at the difference of j and k
            G = 0   # first the int32 flat index of each difference
            for i in np.array(np.unravel_index(cells, space.shape), np.int32):
                G = G * space.N + (i[:, None] - i) % space.N
            G = np.take(problem.square / 2.0, G)
        elif s == 2.0:
            G = problem.square[np.ix_(cells, cells)] / 2.0
        else:
            P = problem.potential_of_measure(
                (np.arange(space.size) == cells[:, None]) * 1.0)

        def system(x):   # K f(x) on the cells and its Jacobian
            if s == 2.0:
                return np.einsum("ij,...j->...i", G, x), G
            a = np.maximum(np.einsum("bk,kn->bn", x, P), 0.0) / s
            d = w * (sp - 1.0) / s * np.where(a > 0.0, a ** (sp - 2.0), 0.0)
            return (np.einsum("bn,kn->bk", w * a ** (sp - 1.0), P),
                    _mul(P * d[:, None], P.T))
        for start in range(0, len(rows), chunk):
            part = np.ix_(rows[start:start + chunk], cells)
            x, inE = mu[part], E[part]
            S = x > 0.0
            # from all of an interval's cells, round 0 steps to W^T (W 1)
            # unless it stops, so the rounds after it depend on k alone
            keyed = W is not None and S.all()
            memo = problem._interval_nu if keyed else {}
            for i in range(10):
                kf, J = system(x)
                new = inE & np.where(S, x > 0.0, kf < 1.0)
                if (new == S).all() and \
                        np.abs(kf - 1.0)[S].max(initial=0.0) <= 1e-10:
                    break
                if k in memo:   # round 0 of a length polished before
                    x = memo[k]
                    break
                S = new   # a Newton step on S from x, with x set to 0 off S
                if W is not None and S.all():   # x = G^-1 1 = W^T (W 1)
                    x = np.einsum("ji,...j->...i", W,
                                  np.einsum("ij,...j->...i", W, S * 1.0))
                    continue
                r = kf - 1.0 - np.einsum("...ij,...j->...i", J,
                                         np.where(S, 0.0, x))
                if grid:   # the row's own block: solve on S alone
                    on = S[0].nonzero()[0]
                    x_on = x[:, on]
                    if on.size:
                        x_on -= _solve(J[..., on[:, None], on].reshape(
                            1, on.size, on.size), r[:, on, None])[..., 0]
                    x = np.zeros_like(x)
                    x[:, on] = x_on
                    continue
                x = np.where(S, x - _solve(np.where(
                    S[:, :, None] & S[:, None, :], J, np.eye(k)),
                    (r * S)[..., None])[..., 0], 0.0)
            if keyed and i and k not in memo:
                x.setflags(write=False)
                # a whole dict is swapped in, so concurrent solves see no mix
                problem._interval_nu = {**memo, k: x}
            out[part] = np.where(np.isfinite(x).all(axis=1)[:, None],
                                 np.maximum(x, 0.0), 0.0)
    return out if out.any() else None


def _solve(A: np.ndarray, B: np.ndarray) -> np.ndarray:
    """X with A X = B for stacks of positive semidefinite A and of B.  LAPACK
    solves blocks of at most 64 unknowns, on one thread, and `_mul` forms
    the Schur complements, so the bits do not depend on the BLAS thread
    count.  A singular block (twin atoms) is solved with a ridge of 1e-14
    of its largest entry, else gives nan."""
    k = A.shape[-1]
    if k <= 64:
        for ridge in (0.0, 1e-14 * np.abs(A).max()):
            try:
                return np.linalg.solve(A + ridge * np.eye(k), B)
            except np.linalg.LinAlgError:
                pass
        return B * np.nan
    X = _solve(A[..., :64, :64],
               np.concatenate([A[..., :64, 64:], B[..., :64, :]], -1))
    low = A[..., 64:, :64]
    Y = _solve(A[..., 64:, 64:] - _mul(low, X[..., :k - 64]),
               B[..., 64:, :] - _mul(low, X[..., k - 64:]))
    return np.concatenate([X[..., k - 64:] - _mul(X[..., :k - 64], Y), Y], -2)


def _mul(A: np.ndarray, B: np.ndarray) -> np.ndarray:
    """A @ B for stacks, as BLAS products of tiles of at most 64 x 64 x 64,
    each partial product over the inner dimension added into the result in
    order.  OpenBLAS runs a product of m n k <= 64^3 on one thread, and the
    tiles, which follow from the shapes alone, fix the order of every sum,
    so the bits do not depend on the BLAS thread count."""
    (m, k), n, t = A.shape[-2:], B.shape[-1], _TILE
    out = np.zeros(np.broadcast_shapes(A.shape[:-2], B.shape[:-2]) + (m, n))
    for i, j, h in product(range(0, m, t), range(0, n, t), range(0, k, t)):
        out[..., i:i + t, j:j + t] += (A[..., i:i + t, h:h + t]
                                       @ B[..., h:h + t, j:j + t])
    return out


def _grow_inverse_factor(T: np.ndarray, W: np.ndarray) -> np.ndarray:
    """L^-1 for the Cholesky factor T = L L^T, grown from its leading block
    W by block rows of 64, with the blocking of `_solve`.  Block row I is
    L_I< = T_I< W^T and L_II = chol(T_II - L_I< L_I<^T), then W_II = L_II^-1
    and W_I< = -W_II L_I< W; LAPACK sees only the 64 x 64 diagonal blocks and
    `_mul` does the rest, so the bits depend neither on the BLAS thread
    count nor on the sizes W was grown through.  Stops at a block that is
    not positive definite, returning the rows before."""
    m, done = len(T), len(W)
    out = np.zeros((m, m))
    out[:done, :done] = W
    for i in range(done, m, 64):
        j = min(i + 64, m)
        low = _mul(T[i:j, :i], out[:i, :i].T)
        try:
            diag = np.linalg.inv(np.linalg.cholesky(
                T[i:j, i:j] - _mul(low, low.T)))
        except np.linalg.LinAlgError:
            return out[:i, :i].copy()
        out[i:j, i:j] = diag
        out[i:j, :i] = -_mul(diag, _mul(low, out[:i, :i]))
    return out


def audit_certificate(problem: CapacityProblem, result: CapacityResult) -> float:
    """Recheck a converged certificate from its reported optimizers alone.

    The weak-duality lower bound (mu(E) / ||K mu||_{s'})^s (Adams &
    Hedberg, ch. 2), scale invariant in mu, is recomputed from
    `dual_measure` and must match the reported one; the optimizer must be
    feasible and its objective the reported upper bound.  Returns the
    recomputed lower bound; raises ValueError naming the failed condition.
    """
    def need(ok, what):
        if not ok:
            raise ValueError(f"certificate audit failed: {what} ({result.mask!r})")

    _same_space(problem.space, result.mask)
    params = result.params
    s, sp = params.s, params.s_conj
    w = problem.space.weights
    E = result.mask.bools
    need(result.converged and not result.infeasible and result.gap <= params.tol,
         "not a converged certificate")
    need(result.lower <= result.value <= result.upper, "value outside its bounds")
    mu = result.dual_measure
    need(np.all(mu >= 0.0) and np.all(mu[~E] == 0.0),
         "dual measure negative or charging cells off the set")
    a = np.maximum(problem.potential_of_measure(mu), 0.0)
    lower = float((mu.sum() / float((w * a ** sp).sum()) ** (1.0 / sp)) ** s)
    need(math.isclose(lower, result.lower, rel_tol=1e-9, abs_tol=1e-12),
         f"recomputed lower bound {lower!r} against {result.lower!r}")
    need(lower <= result.value * (1.0 + 1e-9), "lower bound above the value")
    f = result.optimizer
    need(np.all(f >= 0.0), "negative optimizer")
    need(problem.apply(f)[E].min() >= 1.0 - 1e-9, "optimizer infeasible")
    need(math.isclose(float((w * f ** s).sum()), result.upper,
                      rel_tol=1e-12, abs_tol=1e-12),
         "optimizer objective is not the upper bound")
    need((result.upper - lower) / result.upper <= params.tol * (1.0 + 1e-6),
         "recomputed gap above tolerance")
    return lower


class CapacityOracle:
    """Caching front end for repeated capacity queries on one problem.

    Results are memoized by the mask bit pattern, so identical sets seen by
    different estimators share one certified value exactly (several
    inequality chains rely on that cancellation).  The memo maps each key
    to a row of a (4, rows) table of value, lower, upper and gap, and
    `gather` reads a family's rows from it with one fancy index.  A set
    first asked of `result` is solved by `capacity`, whose result is kept;
    the sets `gather` solves keep their other fields in the columns of
    their batch (`_solve_sets`), and a row's `CapacityResult` is built when
    `result` or `results` first asks for it, then kept, so two requests get
    one object.  The memo is not bounded; counters report `queries` (rows
    asked), `hits` (answered from the memo) and `solved` rows, in
    `batches` solver calls.
    """

    def __init__(self, problem: CapacityProblem, params: CapacityParams):
        if problem.dimension is not None:
            params.validate_for_dimension(problem.dimension)
        if problem.kernel is not None and params.alpha != problem.kernel.alpha:
            raise ValueError(f"params alpha={params.alpha!r} is not the "
                             f"kernel's alpha={problem.kernel.alpha!r}")
        self.problem = problem
        self.params = params
        self._memo: dict = {}         # key -> row of the table
        self._table = np.zeros((4, 0))
        self._batches: list = []      # (first row, columns) of each gather batch
        self._made: dict = {}         # row -> its CapacityResult, once built
        self.queries = self.hits = self.solved = self.batches = 0

    def _add(self, keys: list, table: np.ndarray) -> int:
        """Memoize the keys at new table rows; returns the first."""
        row = len(self._memo)
        self._memo.update(zip(keys, range(row, row + len(keys))))
        self._table = np.concatenate([self._table, table], axis=1)
        self.solved, self.batches = self.solved + len(keys), self.batches + 1
        return row

    def _result(self, row: int) -> CapacityResult:
        res = self._made.get(row)
        if res is None:   # a gathered row: the latest batch at or before it
            start, cols = next(b for b in reversed(self._batches) if b[0] <= row)
            res = self._made[row] = cols.result(row - start)
        return res

    def result(self, mask: SetMask) -> CapacityResult:
        # the memo key is the bit pattern alone, which another space of the
        # same size shares
        _same_space(self.space, mask)
        key = _row_keys(mask.bools[None]).tolist()[0]
        row = self._memo.get(key)
        self.queries, self.hits = self.queries + 1, self.hits + (row is not None)
        if row is None:
            res = capacity(self.problem, mask, self.params)
            row = self._add([key], np.c_[[res.value, res.lower, res.upper, res.gap]])
            self._made[row] = res
        return self._result(row)

    def results(self) -> list:
        """The `CapacityResult` of every memoized set, in memo order."""
        return [self._result(row) for row in range(len(self._memo))]

    def gather(self, bits) -> np.ndarray:
        """Certified (value, lower, upper, gap) of every row of a (B, size)
        bool matrix, as a (4, B) array.  Identity kernels are answered in
        closed form; otherwise the uncached non-empty rows are solved in one
        batch, each distinct set once, in row order, and no `SetMask` or
        `CapacityResult` is built."""
        bits = np.asarray(bits, dtype=bool)
        if bits.ndim != 2 or bits.shape[1] != self.space.size:
            raise ValueError(f"set matrix has shape {bits.shape}, "
                             f"space has {self.space.size} atoms")
        out = np.zeros((4, len(bits)))
        self.queries += len(bits)
        if self.problem.is_identity:
            out[:3] = _measures(self.space.weights, bits)
            return out
        live = np.flatnonzero(bits.any(axis=1))
        keys, memo, todo = _row_keys(bits[live]).tolist(), self._memo, {}
        for key, i in zip(keys, live.tolist()):
            if key not in memo:
                todo.setdefault(key, i)
        self.hits += len(live) - len(todo)
        if todo:
            cols = _solve_sets(self.problem, bits[list(todo.values())], self.params)
            self._batches.append((self._add(list(todo), cols.bounds), cols))
        out[:, live] = self._table[:, np.fromiter(map(memo.__getitem__, keys),
                                                  int, len(keys))]
        return out

    def value(self, mask: SetMask) -> float:
        return self.result(mask).value

    @property
    def space(self):
        return self.problem.space

    @property
    def cache_size(self) -> int:
        return len(self._memo)


# ---------------------------------------------------------------------------
# Nonlinear potential and equilibrium identities
# ---------------------------------------------------------------------------

def nonlinear_potential(problem: CapacityProblem, params: CapacityParams,
                        masses: np.ndarray) -> Field:
    """The field V = K (K mu)^(s'-1) of the measure mu = masses:
    nonnegative and finite on the whole space."""
    mu = np.asarray(masses, dtype=float)
    if np.any(mu < 0.0):
        raise ValueError("potential source measure must be nonnegative")
    a = problem.potential_of_measure(mu)
    V = problem.apply(np.maximum(a, 0.0) ** (params.s_conj - 1.0))
    return Field(problem.space, np.maximum(V, 0.0))


def equilibrium_checks(problem: CapacityProblem, result: CapacityResult) -> dict:
    """Relative residuals of the three equilibrium identities.

    For the extracted dual measure: total mass, s'-energy of its potential,
    and the self-pairing against the nonlinear potential all equal the
    capacity at the optimum; each residual is reported relative to the
    certified value.
    """
    _same_space(problem.space, result.mask)
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


def _capacitary_layer_cake(f: Field, e: LorentzExponents, oracle: CapacityOracle,
                           max_levels: Optional[int]) -> NormEstimate:
    """The one capacitary layer cake: `measure._layer_cake` over the distinct
    levels u_1 > ... > u_k of |f|, thinned to max_levels when given, with
    capacities for the masses.  One gather answers {|f| >= u_i} at the upper
    knots and {|f| > u_(i+1)} (u_(k+1) = 0) at the lower ones, the same sets
    unthinned.  Capacity is monotone, so `lo` over the lower capacity bounds
    of the first and `hi` over the upper bounds of the second bracket the
    integral.  A gathered row's value is its upper bound, so the value is
    `hi`, mode 'exact' unless thinned.  At q = inf the witness is the level
    whose term u_i cap^(1/p) attains the supremum.
    """
    _same_space(oracle.space, f)
    if max_levels is not None and max_levels < 1:
        raise ValueError(f"max_levels must be None or at least 1, got {max_levels}")
    vals = np.abs(f.values)
    levels = _levels(f)[0]
    if levels.size == 0:
        return NormEstimate(0.0, "exact", lo=0.0, hi=0.0)
    exact = max_levels is None or levels.size <= max_levels
    levels = _thinned(levels, max_levels)
    k, knots = levels.size, np.concatenate([levels, [0.0]])
    _, lower, upper, gap = oracle.gather(np.concatenate(
        [vals >= knots[:-1, None], vals > knots[1:, None]]))
    hi = float(_layer_cake(levels, upper[k:], e))
    witness = None
    if e.q == math.inf:
        # one single-level layer cake per level: the terms of the supremum
        terms = _layer_cake(levels[:, None], upper[k:, None], e)
        witness = levels[int(np.argmax(terms))]
    return NormEstimate(hi, "exact" if exact else "upper-bound", witness=witness,
                        lo=float(_layer_cake(levels, lower[:k], e)), hi=hi,
                        max_gap=float(gap.max()))


def l1c_norm(omega: Field, oracle: CapacityOracle,
             max_levels: Optional[int] = None) -> NormEstimate:
    """Layer-cake capacity integral int_0^inf cap({omega > t}) dt of a
    nonnegative field: the capacitary layer cake at p = q = 1, whose powers
    and root are exact.  With max_levels the knots are thinned and the value
    is the bracket's upper end, mode 'upper-bound'."""
    if np.any(omega.values < 0.0):
        raise ValueError("l1c norm requires a nonnegative field")
    return _capacitary_layer_cake(omega, LorentzExponents(1.0, 1.0), oracle,
                                  max_levels)


def capacitary_lorentz_norm(f: Field, e: LorentzExponents,
                            oracle: CapacityOracle) -> NormEstimate:
    """Lorentz layer cake with the capacity replacing the measure, over
    every distinct level of |f|: the capacitary layer cake unthinned; at
    q = inf the breakpoint supremum sup_i u_i cap({|f| >= u_i})^(1/p)."""
    return _capacitary_layer_cake(f, e, oracle, None)


# ---------------------------------------------------------------------------
# Localization and lower-bound diagnostics
# ---------------------------------------------------------------------------

def unit_cover(grid: Grid) -> np.ndarray:
    """Partition of the box into axis-aligned cubes of unit diameter, one
    tile per row of a read-only (tiles, size) bool matrix.

    Cube side is 1/sqrt(n) so the diagonal is exactly 1; cells are assigned
    by center, so the cover is a partition (multiplicity one).
    """
    side = 1.0 / math.sqrt(grid.n)
    coords = grid.coords() + grid.L / 2.0  # shift to [0, L)
    idx = np.floor(coords / side).astype(int)
    tiles = (_unique(idx, axis=0)[:, None] == idx).all(axis=2)
    tiles.setflags(write=False)
    return tiles


@dataclass
class StrichartzReport:
    ratio: float
    pieces: int
    subadditive_ok: bool


def strichartz_check(oracle: CapacityOracle, mask: SetMask) -> StrichartzReport:
    """Compare cap(E) with the sum over a unit-diameter cover of cap(E n B).

    Subadditivity cap(E) <= sum is exact for the discrete model (the cover
    is a partition and pointwise maxima of feasible potentials are
    feasible); it is asserted through the certificates: the lower bound of
    the whole set must not exceed the summed upper bounds.  The reverse
    ratio sum/cap(E) is recorded, not bounded.
    """
    grid = oracle.space
    _same_space(grid, mask)
    if not isinstance(grid, Grid):
        raise ValueError("localization check needs a grid model")
    value, lower, upper, _ = oracle.gather(_cover_rows(grid, mask.bools))
    total, total_upper = sum(value[1:]), sum(upper[1:])
    ok = lower[0] <= total_upper * (1.0 + 1e-12) + 1e-300
    ratio = total / value[0] if value[0] > 0 else math.inf
    return StrichartzReport(float(ratio), len(value) - 1, bool(ok))


def _cover_rows(grid: Grid, bools: np.ndarray) -> np.ndarray:
    """The set, then its non-empty pieces E n B over the unit cover: the
    rows `strichartz_check` gathers, which a caller can gather ahead."""
    parts = bools & unit_cover(grid)
    return np.vstack([bools, parts[parts.any(axis=1)]])


@dataclass
class LowerBoundReport:
    ratio: float
    skipped: bool = False


def lebesgue_lower_bound_check(oracle: CapacityOracle, mask: SetMask,
                               epsilon: float) -> LowerBoundReport:
    """Ratio |E|^eps / cap(E) inside the admissible epsilon window.

    Window: 0 < eps <= 1 when alpha*s = n, and (n - alpha*s)/n <= eps <= 1
    when alpha*s < n.  The ratio is a recorded diagnostic; finiteness and
    refinement stability are asserted by the verification suites.
    """
    grid = oracle.space
    _same_space(grid, mask)
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
        return LowerBoundReport(0.0, skipped=True)
    res = oracle.result(mask)
    return LowerBoundReport(mask.measure ** epsilon / res.value)
