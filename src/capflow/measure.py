"""Finite measure spaces, distribution functions, and Lorentz quasi-norms.

Everything downstream (capacities, multiplier norms, block decompositions)
consumes the metrology defined here:

  * DiscreteMeasureSpace -- a finite set of weighted atoms.
  * Field               -- one finite real value per atom/cell of a space.
  * StepFunction        -- right-continuous step representation of the
                           distribution function t -> mu({|f| > t}).
  * lorentz_norms       -- exact closed-form evaluation of the layer-cake
                           quasi-norm  p^(1/q) (int mu({|f|>t})^(q/p) t^q dt/t)^(1/q)
                           (the weak norm at q = inf) of every field of a
                           (B, size) stack, zero-padded into one _layer_cake
                           call; lorentz_norm is its batch of one.
  * _stack_levels       -- the one extraction of levels and tie masses.
  * _layer_cake         -- the closed form over given levels and masses, summed
                           in level order; shared with the capacitary norms
                           and the L1-capacity integral (capacity for mu).
  * gamma_norm          -- the maximal-average renorming that sandwiches the
                           Lorentz quasi-norm between explicit constants.

All operations are pure functions over immutable inputs; there is no shared
mutable state, so unrestricted concurrent invocation is safe.  Importing the
module loads numpy only: gamma_norm imports scipy's quadrature on its first
call.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

__all__ = [
    "DiscreteMeasureSpace",
    "Field",
    "LorentzExponents",
    "StepFunction",
    "distribution_function",
    "decreasing_rearrangement",
    "lorentz_norm",
    "lorentz_norms",
    "gamma_norm",
    "power_identity_check",
    "pairing",
]

# most cells of a grid, and of a chunk of lorentz_norms/capacity_batch rows
MAX_CELLS = 2 ** 20


# ---------------------------------------------------------------------------
# Spaces and fields
# ---------------------------------------------------------------------------

class DiscreteMeasureSpace:
    """A finite weighted atom set; atom identities are positional and stable.

    Parameters
    ----------
    weights : sequence of float
        Atom masses; every weight must be strictly positive and finite.
    """

    def __init__(self, weights: Sequence[float]):
        w = np.asarray(weights, dtype=float)
        if w.ndim != 1 or w.size == 0:
            raise ValueError("weights must be a nonempty 1-d sequence")
        if not np.all(np.isfinite(w)) or np.any(w <= 0.0):
            raise ValueError("every atom weight must be finite and > 0")
        self._weights = w.copy()
        self._weights.setflags(write=False)

    @property
    def size(self) -> int:
        return int(self._weights.size)

    @property
    def weights(self) -> np.ndarray:
        return self._weights

    @property
    def total_mass(self) -> float:
        return float(self._weights.sum())

    def __repr__(self) -> str:
        return f"DiscreteMeasureSpace(atoms={self.size}, mass={self.total_mass:.6g})"


@dataclass(frozen=True)
class Field:
    """Real-valued function sampled on a space (one value per atom/cell)."""

    space: object
    values: np.ndarray = field(repr=False)

    def __post_init__(self):
        v = np.asarray(self.values, dtype=float)
        if v.shape != (self.space.size,):
            raise ValueError(
                f"field has {v.shape} values, space has {self.space.size} atoms")
        if not np.all(np.isfinite(v)):
            raise ValueError("field values must all be finite")
        v = v.copy()
        v.setflags(write=False)
        object.__setattr__(self, "values", v)

    @staticmethod
    def of(space, values) -> "Field":
        return Field(space, np.asarray(values, dtype=float))

    def restrict(self, mask) -> "Field":
        """Pointwise product with an indicator: a mask on this field's space,
        or a bool array broadcastable to the values."""
        if hasattr(mask, "bools"):
            _same_space(self.space, mask)
            mask = mask.bools
        return Field(self.space, np.where(mask, self.values, 0.0))

    def __repr__(self) -> str:
        return f"Field(n={self.space.size}, max|.|={np.abs(self.values).max():.6g})"


# ---------------------------------------------------------------------------
# Exponents
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class LorentzExponents:
    """Primary exponents (p, q) with guarded Hoelder conjugates.

    q may be math.inf (weak space); conjugate accessors reject p <= 1
    (resp. q <= 1), where the conjugate p/(p-1) is undefined or infinite.
    """

    p: float
    q: float

    def __post_init__(self):
        if not (0.0 < self.p < math.inf):
            raise ValueError(f"p must lie in (0, inf), got {self.p}")
        if not (0.0 < self.q):
            raise ValueError(f"q must lie in (0, inf], got {self.q}")

    @property
    def p_conj(self) -> float:
        if self.p <= 1.0:
            raise ValueError(f"conjugate exponent requires p > 1, got p={self.p}")
        return self.p / (self.p - 1.0)

    @property
    def q_conj(self) -> float:
        if self.q == math.inf or self.q <= 1.0:
            raise ValueError(f"conjugate exponent requires 1 < q < inf, got q={self.q}")
        return self.q / (self.q - 1.0)


# ---------------------------------------------------------------------------
# Distribution function and rearrangement
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class StepFunction:
    """Right-continuous step function with finitely many pieces.

    ``plateaus[i]`` is the value on [breakpoints[i-1], breakpoints[i]), with
    the conventions breakpoints[-1] = 0 and breakpoints[len] = +inf, so there
    is exactly one more plateau than breakpoints.
    """

    breakpoints: np.ndarray  # ascending, nonnegative
    plateaus: np.ndarray     # one more entry than breakpoints

    def __post_init__(self):
        b = np.asarray(self.breakpoints, dtype=float)
        v = np.asarray(self.plateaus, dtype=float)
        if v.size != b.size + 1:
            raise ValueError("need exactly one more plateau than breakpoints")
        if b.size and (np.any(np.diff(b) <= 0) or b[0] < 0):
            raise ValueError("breakpoints must be ascending and nonnegative")
        object.__setattr__(self, "breakpoints", b)
        object.__setattr__(self, "plateaus", v)

    def __call__(self, t):
        idx = np.searchsorted(self.breakpoints, t, side="right")
        return self.plateaus[idx]


def _stack_levels(a: np.ndarray, w: np.ndarray):
    """Distinct positive levels of each row of a (B, size) stack of |f|,
    strictly descending, with g[i] = mu({|f| = u[i]}) and counts[b] levels
    in row b; u and g run row after row.  The row sort is stable, so tied
    weights are summed in atom order."""
    neg = -a
    order = np.argsort(neg, axis=1, kind="stable")
    neg.sort(axis=1)
    live = neg < 0.0
    new = live.copy()   # a new level where a positive value changes...
    new.ravel()[1:] &= neg.ravel()[1:] != neg.ravel()[:-1]
    new[:, 0] = live[:, 0]   # ...and at the first positive value of a row
    starts = new[live].nonzero()[0]
    g = np.add.reduceat(w[order][live], starts) if starts.size else np.empty(0)
    return -neg[new], g, new.sum(axis=1)


def _levels(f: Field):
    """Distinct positive levels of |f| (descending) with cumulative masses:
    the one-row case of `_stack_levels`.

    Returns (u, m): u[0] > u[1] > ... > u[k-1] > 0 and
    m[i] = mu({|f| >= u[i]}).
    """
    u, g, _ = _stack_levels(np.abs(f.values)[None], f.space.weights)
    return u, np.cumsum(g)


def _thinned(levels: np.ndarray, cap: Optional[int]) -> np.ndarray:
    """At most `cap` of the levels, evenly spread from first to last."""
    if cap is None or levels.size <= cap:
        return levels
    idx = np.linspace(0, levels.size - 1, cap).round().astype(int)
    return levels[_unique(idx)]


def _unique(a: np.ndarray, axis: Optional[int] = None) -> np.ndarray:
    """`np.unique(a, axis=axis)`, sorted.  Asking for the first indices
    skips numpy's masked-array test, which imports numpy.ma (numpy >= 2.3)."""
    return np.unique(a, return_index=True, axis=axis)[0]


def decreasing_rearrangement(f: Field) -> StepFunction:
    """The nonincreasing rearrangement f* on (0, infinity).

    f*(t) = u_i for t in [m_{i-1}, m_i) and 0 beyond the support mass.
    """
    u, m = _levels(f)
    if u.size == 0:
        return StepFunction(np.empty(0), np.zeros(1))
    return StepFunction(m, np.concatenate([u, [0.0]]))


def distribution_function(f: Field) -> StepFunction:
    """Exact step representation of t -> mu({|f| > t})."""
    u, m = _levels(f)
    if u.size == 0:
        return StepFunction(np.empty(0), np.zeros(1))
    # value m[i] holds on [u[i+1], u[i]); zero at and beyond the top level
    breaks = u[::-1].copy()
    plateaus = np.concatenate([m[::-1], [0.0]])
    return StepFunction(breaks, plateaus)


# ---------------------------------------------------------------------------
# Lorentz quasi-norms
# ---------------------------------------------------------------------------

def _layer_cake(levels: np.ndarray, masses: np.ndarray,
                e: LorentzExponents) -> np.ndarray:
    """The layer-cake closed form along the last axis.

    With levels u_1 >= ... >= u_k >= 0, masses m_i of {|f| >= u_i} and
    u_{k+1} = 0, the integral evaluates piece by piece to

        (p/q)^(1/q) * ( sum_i m_i^(q/p) (u_i^q - u_{i+1}^q) )^(1/q)

    for q < inf, and to max_i u_i m_i^(1/p) for q = inf.  The terms are
    added in level order, so a row's bits do not depend on the rows beside
    it; repeated levels and zero padding add exact zeros.  The roots are
    taken by np.float_power, which has no vector kernel: each is libm's
    pow, as a scalar root is, not numpy's vector `**`, which differs in the
    last bit.  A row whose top level to the power q is not a normal, finite
    float would lose its norm to underflow or overflow, and raises
    ValueError.
    """
    p, q = e.p, e.q
    if q == math.inf:
        return np.max(levels * masses ** (1.0 / p), axis=-1)
    with np.errstate(over="ignore"):
        uq = levels ** q
    top = uq[..., 0]
    bad = ~((top >= np.finfo(float).tiny) & (top < math.inf))
    if bad.any():
        raise ValueError(f"Lorentz norm at q={q:g}: the top level "
                         f"{levels[..., 0][bad].flat[0]:.6g} to the power q "
                         f"is not a normal float")
    drops = uq.copy()   # u_i^q - u_{i+1}^q, with u_{k+1} = 0 in the last column
    drops[..., :-1] -= uq[..., 1:]
    total = np.add.accumulate(masses ** (q / p) * drops, axis=-1)[..., -1]
    return (p / q) ** (1.0 / q) * np.float_power(total, 1.0 / q)


def lorentz_norms(values: np.ndarray, weights: np.ndarray,
                  e: LorentzExponents) -> np.ndarray:
    """||f||_{p,q} (weak when q = inf) of every row f of a (B, size) stack
    of fields on atoms of the given weights: one `_layer_cake` call on the
    rows with a positive value, their levels and masses padded with zeros
    to the longest row, so each row gets the bits of its batch of one."""
    values = np.asarray(values, dtype=float)
    if values.ndim != 2 or values.shape[1] != weights.size:
        raise ValueError(f"need a (B, {weights.size}) stack of fields, "
                         f"got shape {values.shape}")
    step = max(1, MAX_CELLS // weights.size)    # rows per chunk of temporaries
    if len(values) > step:
        return np.concatenate([lorentz_norms(values[i:i + step], weights, e)
                               for i in range(0, len(values), step)])
    u, g, counts = _stack_levels(np.abs(values), weights)
    out = np.zeros(len(values))
    if (live := counts > 0).any():
        mine = np.arange(counts.max()) < counts[live, None]
        levels, masses = np.zeros(mine.shape), np.zeros(mine.shape)
        levels[mine], masses[mine] = u, g
        masses.cumsum(1, out=masses)[~mine] = 0.0
        out[live] = _layer_cake(levels, masses, e)
    return out


def lorentz_norm(f: Field, e: LorentzExponents) -> float:
    """Exact closed-form Lorentz quasi-norm, weak when q = inf:
    `lorentz_norms` of the one field."""
    return float(lorentz_norms(f.values[None], f.space.weights, e)[0])


def _same_space(space, *items) -> None:
    """The one space rule: every item (a field, mask, measure or oracle)
    must live on `space` itself, not on an equal copy of it."""
    bad = next((x for x in items if x.space is not space), None)
    if bad is not None:
        raise ValueError(f"{type(bad).__name__} and {type(space).__name__} "
                         "live on different spaces")


def pairing(f: Field, g: Field, absolute: bool = False) -> float:
    """Integral pairing sum_i f_i g_i w_i (absolute variant on request)."""
    _same_space(f.space, g)
    prod = f.values * g.values
    if absolute:
        prod = np.abs(prod)
    return float(np.sum(prod * f.space.weights))


# ---------------------------------------------------------------------------
# Maximal-average renorming
# ---------------------------------------------------------------------------

def gamma_norm(f: Field, e: LorentzExponents, r: float) -> float:
    """Norm built from the running r-th power average of the rearrangement.

    With A(t) = int_0^t (f*)^r ds (piecewise linear, exact), evaluates

        ( int_0^inf t^(q/p - q/r - 1) A(t)^(q/r) dt )^(1/q)

    by an exact first piece, adaptive quadrature on the interior pieces, and
    the exact analytic tail beyond the support mass.  Relative error <= 1e-7.
    scipy's `quad` is imported here, on the first call, so that importing
    capflow does not load scipy.
    """
    p, q = e.p, e.q
    if not (1.0 < p < math.inf):
        raise ValueError(f"gamma norm requires 1 < p < inf, got p={p}")
    if not (1.0 <= q < math.inf):
        raise ValueError(f"gamma norm requires 1 <= q < inf, got q={q}")
    if not (0.0 < r <= 1.0):
        raise ValueError(f"gamma norm requires 0 < r <= 1, got r={r}")
    if not (r < p):
        raise ValueError(f"gamma norm requires r < p (divergent otherwise)")

    from scipy.integrate import quad

    u, m = _levels(f)
    if u.size == 0:
        return 0.0

    beta = q / p - q / r  # < 0 since r < p
    ur = u ** r
    seg = ur * np.diff(np.concatenate([[0.0], m]))
    A_at = np.cumsum(seg)                    # A(m_i)
    A_left = np.concatenate([[0.0], A_at[:-1]])

    # first piece [0, m_1]: A(t) = u_1^r t exactly
    total_q = u[0] ** q * m[0] ** (q / p) * (p / q)

    # interior pieces [m_{i-1}, m_i], i >= 2: A affine, integrand smooth
    for i in range(1, u.size):
        c, b = A_left[i], ur[i]
        lo, hi = m[i - 1], m[i]
        val, _err = quad(
            lambda t: t ** (beta - 1.0) * (c + b * (t - lo)) ** (q / r),
            lo, hi, epsabs=0.0, epsrel=1e-10, limit=200)
        total_q += val

    # tail beyond the support mass: A constant = ||f|^r||_L1
    A_end = A_at[-1]
    T = m[-1]
    total_q += A_end ** (q / r) * T ** beta / (-beta)
    return total_q ** (1.0 / q)


def gamma_sandwich_bound(e: LorentzExponents, r: float) -> float:
    """Upper constant (p/(p-r))^(1/r) in the two-sided comparison with the
    Lorentz quasi-norm."""
    return (e.p / (e.p - r)) ** (1.0 / r)


def power_identity_check(f: Field, e: LorentzExponents, r: float) -> float:
    """Residual of |||f|^r||_{p,q} = ||f||_{pr,qr}^r (exact in closed form)."""
    if e.q == math.inf:
        raise ValueError("power identity check requires q < inf")
    if not (0.0 < r < math.inf):
        raise ValueError(f"r must lie in (0, inf), got {r}")
    lhs = lorentz_norm(Field(f.space, np.abs(f.values) ** r), e)
    rhs = lorentz_norm(f, LorentzExponents(e.p * r, e.q * r)) ** r
    return abs(lhs - rhs)
