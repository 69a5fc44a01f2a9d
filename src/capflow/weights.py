"""Local maximal operator, A1-type weight constants, and weighted norms.

The local maximal operator averages |f| over discrete balls of radius at
most 1 (radius set {h, 2h, ..., floor(1/h) h}); discrete balls collect cells
by center distance and their measure is the cell count times the cell
measure, which makes averages of constants exact.  Finite models carry no
geometry: there the balls degenerate to singletons, the maximal operator is
|f|, and every floored weight has local-A1 constant 1.

Weights enter the N-norm search only after certification: a local-A1
constant and an L1-capacity norm estimate must both be attached.  The
admissible class is calibrated empirically (the corpus maximum of the
potential-weight constants, times a configured slack), and every report
carries the calibration used.
"""
from __future__ import annotations

import math
import threading
from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from .capacity import (CapacityOracle, NormEstimate, SetMask, l1c_norm,
                       nonlinear_potential)
from .grid import Grid, _cache_get, _cache_put
from .measure import Field, LorentzExponents, lorentz_norm

__all__ = [
    "WEIGHT_FLOOR",
    "Weight",
    "WeightConfig",
    "local_maximal",
    "a1loc_constant",
    "potential_weight",
    "average_weights",
    "n_norm_upper",
    "level_sum_check",
    "maximal_boundedness_probe",
]

WEIGHT_FLOOR = 1e-12


# ---------------------------------------------------------------------------
# Local maximal operator
# ---------------------------------------------------------------------------

_ball_cache: OrderedDict = OrderedDict()
_ball_lock = threading.Lock()


def _ball_transfers(grid: Grid) -> list:
    """FFT transfer functions of the normalized ball indicators, one per
    radius in {h, 2h, ..., floor(1/h) h}; cached per grid geometry, for the
    grid.CACHE_GEOMETRIES most recently used geometries."""
    key = (grid.n, grid.L, grid.N)
    with _ball_lock:
        hit = _cache_get(_ball_cache, key)
        if hit is not None:
            return hit
        h = grid.h
        radii = [k * h for k in range(1, int(math.floor(1.0 / h)) + 1)]
        # displacement distances j*h, FFT-indexed with periodic wrap
        d = np.abs(np.fft.fftfreq(grid.N) * grid.N) * h
        if grid.n == 1:
            dist = d
        else:
            dist = np.sqrt(d[:, None] ** 2 + d[None, :] ** 2)
        transfers = []
        for r in radii:
            ball = (dist <= r + 1e-12).astype(float)
            count = ball.sum()
            transfers.append((np.fft.fftn(ball / count), r, int(count)))
        _cache_put(_ball_cache, key, transfers)
        return transfers


def local_maximal(space, f: Field) -> Field:
    """Largest ball average of |f| over the radius set (radii <= 1).

    Sublinear and positively homogeneous; fixes constants exactly.  On
    finite models the balls are singletons, so the result is |f|.
    """
    if f.space is not space:
        raise ValueError("field lives on a different space")
    a = np.abs(f.values)
    if not isinstance(space, Grid):
        return Field(space, a)
    v = a.reshape(space.shape)
    vhat = np.fft.fftn(v)
    out = np.zeros(space.size)
    for transfer, _r, _c in _ball_transfers(space):
        avg = np.fft.ifftn(vhat * transfer).real.ravel()
        np.maximum(out, avg, out=out)
    return Field(space, np.maximum(out, 0.0))


def a1loc_constant(space, omega: Field, floor: float = WEIGHT_FLOOR) -> float:
    """Exact discrete local-A1 constant: max over cells of M_loc(w)/w.

    The weight is floored at `floor` first (stand-in for positivity almost
    everywhere); the result is always >= 1 up to transform roundoff because
    the radius-h ball contains its center.
    """
    w = np.maximum(omega.values, floor)
    m = local_maximal(space, Field(space, w)).values
    return float(np.max(m / w))


# ---------------------------------------------------------------------------
# Weights
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Weight:
    """Positive weight with its certificates attached.

    Both certificates (the local-A1 constant and the L1-capacity norm
    estimate) must be present before the weight may enter an N-norm search.
    """

    field: Field
    a1_constant: float
    l1c_estimate: NormEstimate
    provenance: str = "user"

    def __post_init__(self):
        if np.any(self.field.values <= 0.0):
            raise ValueError("weight must be strictly positive after flooring")
        if self.provenance not in ("potential", "average", "user"):
            raise ValueError(f"unknown weight provenance {self.provenance!r}")

    @property
    def values(self) -> np.ndarray:
        return self.field.values


@dataclass(frozen=True)
class WeightConfig:
    """Knobs for potential-weight construction and admissibility screening."""

    delta: float = 0.5
    slack: float = 1.25
    l1c_levels: Optional[int] = 32

    def __post_init__(self):
        if not (0.0 < self.delta <= 1.0):
            raise ValueError(f"delta must lie in (0, 1], got {self.delta}")
        if self.slack < 1.0:
            raise ValueError(f"slack multiplier must be >= 1, got {self.slack}")
        if self.l1c_levels is not None and self.l1c_levels < 1:
            raise ValueError(
                f"l1c_levels must be None or at least 1, got {self.l1c_levels}")


def _certified_weight(oracle: CapacityOracle, values: np.ndarray,
                      cfg: WeightConfig, provenance: str = "user") -> Weight:
    """The weight max(values, WEIGHT_FLOOR) with both certificates."""
    f = Field(oracle.space, np.maximum(values, WEIGHT_FLOOR))
    return Weight(f, a1loc_constant(oracle.space, f),
                  l1c_norm(f, oracle, max_levels=cfg.l1c_levels), provenance)


def potential_weight(oracle: CapacityOracle, mask: SetMask,
                     cfg: WeightConfig = WeightConfig()) -> Weight:
    """Weight (V^E)^delta / cap(E) from the equilibrium potential of E.

    The potential is ~1 on E and on the support of the extracted measure, so
    the weight dominates (1 - band)^delta / cap(E) on E; its certificates
    are computed here and the two-sided ratio of the L1-capacity norm of
    (V^E)^delta to cap(E) is recorded via the estimate.
    """
    res = oracle.result(mask)
    if not res.converged:
        raise ValueError("potential weight needs a converged capacity result")
    if res.is_zero:
        raise ValueError("potential weight of the empty set is undefined")
    pot = nonlinear_potential(oracle.problem, oracle.params, res.dual_measure)
    powered = np.maximum(pot.field.values, 0.0) ** cfg.delta
    return _certified_weight(oracle, powered / res.value, cfg, "potential")


def average_weights(terms: Sequence, oracle: CapacityOracle,
                    cfg: WeightConfig = WeightConfig()) -> Weight:
    """Convex combination of weights with re-verified certificates.

    By sublinearity of the maximal operator the combined local-A1 constant
    is at most the largest constituent constant; the exact constant is
    recomputed (and may only be smaller).  The L1-capacity estimate is
    recomputed outright.
    """
    terms = list(terms)
    if not terms:
        raise ValueError("average_weights needs at least one term")
    lam = np.array([t[0] for t in terms], dtype=float)
    if np.any(lam < 0.0) or lam.sum() <= 0.0:
        raise ValueError("coefficients must be nonnegative with positive sum")
    space = terms[0][1].field.space
    acc = np.zeros(space.size)
    for coeff, wgt in terms:
        if wgt.field.space is not space:
            raise ValueError("weights live on different spaces")
        acc += coeff * wgt.values
    return _certified_weight(oracle, acc / lam.sum(), cfg, "average")


# ---------------------------------------------------------------------------
# Weighted-infimum upper bounds
# ---------------------------------------------------------------------------

def n_norm_upper(f: Field, e: LorentzExponents, candidates: Sequence[Weight],
                 a1_cap: Optional[float] = None,
                 cfg: WeightConfig = WeightConfig(),
                 oracle: Optional[CapacityOracle] = None) -> NormEstimate:
    """Upper bound of the weighted infimum norm over admissible candidates.

    Each candidate is rescaled by (the upper end of) its L1-capacity
    estimate, which makes the rescaled norm at most one, then screened
    against the local-A1 cap (calibrated corpus maximum times slack; by
    default the corpus is the candidate list itself).  The estimate is the
    minimum of ||f w^(-1/q')|| over survivors.  When an oracle is given
    (the mixtures' certificates need it), the two best candidates are then
    convexly re-averaged until the improvement falls below 1e-4 relative.
    Strictly an upper bound: no lower certificate for the infimum exists at
    this level.
    """
    if not (1.0 < e.p < math.inf) or not (1.0 < e.q < math.inf):
        raise ValueError("weighted-infimum norm needs 1 < p, q < inf")
    cands = list(candidates)
    if not cands:
        raise ValueError("no weight candidates supplied")
    if float(np.abs(f.values).max(initial=0.0)) == 0.0:
        return NormEstimate(0.0, "upper-bound", witness=None, lo=0.0, hi=0.0)
    if a1_cap is None:
        a1_cap = cfg.slack * max(w.a1_constant for w in cands)

    qc = e.q_conj

    def score(w: Weight) -> float:
        scale = max(w.l1c_estimate.hi if math.isfinite(w.l1c_estimate.hi)
                    else w.l1c_estimate.value, WEIGHT_FLOOR)
        weighted = f.values * (w.values / scale) ** (-1.0 / qc)
        return lorentz_norm(Field(f.space, weighted), e)

    admissible = [w for w in cands if w.a1_constant <= a1_cap * (1.0 + 1e-12)]
    if not admissible:
        raise ValueError("no candidate passed the local-A1 screening")
    scored = sorted(((score(w), i, w) for i, w in enumerate(admissible)),
                    key=lambda t: (t[0], t[1]))
    best_val, _i, best_w = scored[0]

    if oracle is not None and len(scored) >= 2:
        second_w = scored[1][2]
        current = best_val
        for _round in range(8):
            improved = False
            for lam in (0.25, 0.5, 0.75):
                mixed = average_weights([(lam, best_w), (1.0 - lam, second_w)],
                                        oracle, cfg)
                if mixed.a1_constant > a1_cap * (1.0 + 1e-12):
                    continue
                v = score(mixed)
                if v < current * (1.0 - 1e-4):
                    second_w, best_w = best_w, mixed
                    current = v
                    improved = True
            if not improved:
                break
        best_val = min(best_val, current)

    return NormEstimate(best_val, "upper-bound", witness=best_w,
                        lo=0.0, hi=best_val)


# ---------------------------------------------------------------------------
# Dyadic level sums
# ---------------------------------------------------------------------------

@dataclass
class LevelSumReport:
    level_sum: float
    l1c_value: float
    ratio: float
    levels: int
    truncated_bound: float


def level_sum_check(omega: Field, oracle: CapacityOracle,
                    l1c_levels: Optional[int] = None) -> LevelSumReport:
    """Compare sum_k 2^k cap({2^(k-1) < w <= 2^k}) with the L1-capacity norm.

    Contract checked by the suites: the dyadic sum is at most 4 times the
    norm (each band E_k sits inside {w > t} for t <= 2^(k-1), and
    2^k = 4 * |(2^(k-2), 2^(k-1)]|).  Dyadic levels below 2^-20 times the
    maximum are dropped; their sum is at most `truncated_bound`,
    2^k_lo cap({0 < w <= 2^(k_lo-1)}), which is 0 with no solve when no
    cell is dropped.  `ratio` is the level sum plus that bound over `lo`,
    the lower end of the norm's certified bracket, which `l1c_levels` may
    thin.
    """
    vals = omega.values
    if np.any(vals < 0.0):
        raise ValueError("level sum requires a nonnegative field")
    top = float(vals.max(initial=0.0))
    if top == 0.0:
        return LevelSumReport(0.0, 0.0, 0.0, 0, 0.0)
    k_hi = int(math.ceil(math.log2(top)))
    k_lo = int(math.floor(math.log2(top * 2.0 ** -20)))
    bands = {k: (vals > 2.0 ** (k - 1)) & (vals <= 2.0 ** k)
             for k in range(k_hi, k_lo - 1, -1)}
    bands = {k: band for k, band in bands.items() if band.any()}
    dropped = (vals > 0.0) & (vals <= 2.0 ** (k_lo - 1))
    sets = list(bands.values()) + ([dropped] if dropped.any() else [])
    caps = oracle.gather(sets)[0].tolist()
    total = 0.0
    for k, cap in zip(bands, caps):
        total += 2.0 ** k * cap
    tail = 2.0 ** k_lo * caps[-1] if dropped.any() else 0.0
    est = l1c_norm(omega, oracle, max_levels=l1c_levels)
    ratio = (total + tail) / est.lo if est.lo > 0 else math.inf
    return LevelSumReport(total, est.value, ratio, len(bands), tail)


# ---------------------------------------------------------------------------
# Boundedness probes
# ---------------------------------------------------------------------------

@dataclass
class ProbeReport:
    m_ratios: list
    n_ratios: list
    m_max: float
    n_max: float


def maximal_boundedness_probe(space, corpus: Sequence[Field],
                              m_estimator, n_estimator=None) -> ProbeReport:
    """Ratios of multiplier/weighted estimates under the maximal operator.

    For each corpus field the probe records est(M_loc f)/est(f) for the
    supplied estimator callables (field -> NormEstimate).  No numeric bound
    is asserted here: the probe only measures; the suites check finiteness
    and seed stability.
    """
    m_ratios, n_ratios = [], []
    for f in corpus:
        mf = local_maximal(space, f)
        base = m_estimator(f).value
        if base > 0.0:
            m_ratios.append(m_estimator(mf).value / base)
        if n_estimator is not None:
            nbase = n_estimator(f).value
            if nbase > 0.0:
                n_ratios.append(n_estimator(mf).value / nbase)
    return ProbeReport(
        m_ratios, n_ratios,
        max(m_ratios) if m_ratios else 0.0,
        max(n_ratios) if n_ratios else 0.0)
