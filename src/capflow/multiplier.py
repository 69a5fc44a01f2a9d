"""Capacity-normalized multiplier norms as certified supremum estimates.

The defining suprema range over all compact sets, which is not computable
on a discretized model; estimates here are mode-tagged.  A family of test
sets yields a certified lower bound with the best set as witness, and the
tag 'exact' is reserved for all-subsets families on finite models, where
the enumeration provably exhausts the supremum (discretely, every set is
compact and measurable-set and compact suprema coincide).

Families are generated deterministically from a fixed seed; enlarging a
family never decreases an estimate, and the all-subsets family dominates
every other family on the same finite model.

A family's sets for a space are one read-only (B, size) boolean matrix,
one set per row, built directly for every family kind: rows in generation
order, the first of any duplicate kept, empty rows dropped.  All-subsets
rows are distinct and non-empty as generated, so only the other kinds and
unions pay for that screening.

Every supremum over a family here and in `blocks` (the multiplier norms,
both forms of the weak norm, the trace class) runs through one engine,
`_sup_over_sets`: the caller supplies the set matrix and one numerator per
row, the engine reads all capacities from one `CapacityOracle.gather` and
returns the certified estimate, with a `SetMask` built for the witness
only.  The numerators ||f chi_K|| of a family are one `lorentz_norms` call
on the stack of restricted fields, strong and weak alike.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .capacity import CapacityOracle, NormEstimate, SetMask, _diameter, unit_cover
from .grid import Grid
from .measure import (DiscreteMeasureSpace, Field, LorentzExponents, _levels,
                      _thinned, lorentz_norm, lorentz_norms)
from .weights import Weight, WeightConfig, potential_weight

__all__ = [
    "DEFAULT_SEED",
    "TestSetFamily",
    "default_grid_family",
    "m_norm",
    "script_m_norm",
    "weak_script_m_norm",
    "m_norm_local",
    "char_m_via_weights",
]

DEFAULT_SEED = 0x5EED
_ALL_SUBSETS_LIMIT = 20


# ---------------------------------------------------------------------------
# Test-set families
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class TestSetFamily:
    """Deterministic generator of test sets for supremum estimates.

    kind in {'all-subsets', 'dyadic-cubes', 'superlevels', 'random-unions',
    'explicit', 'union'}; generation is reproducible given the seed.
    """

    kind: str
    seed: int = DEFAULT_SEED
    size_cap: Optional[int] = None
    generations: tuple = (0, 1, 2, 3, 4)
    count: int = 32
    members: tuple = ()

    __test__ = False  # not a pytest collection target

    # -- constructors --------------------------------------------------------
    @staticmethod
    def all_subsets() -> "TestSetFamily":
        return TestSetFamily("all-subsets")

    @staticmethod
    def dyadic(generations=(0, 1, 2, 3, 4)) -> "TestSetFamily":
        return TestSetFamily("dyadic-cubes", generations=tuple(generations))

    @staticmethod
    def superlevels(size_cap: Optional[int] = None) -> "TestSetFamily":
        return TestSetFamily("superlevels", size_cap=size_cap)

    @staticmethod
    def random_unions(count: int, seed: int = DEFAULT_SEED) -> "TestSetFamily":
        return TestSetFamily("random-unions", count=count, seed=seed)

    @staticmethod
    def explicit(masks: Sequence[SetMask]) -> "TestSetFamily":
        return TestSetFamily("explicit", members=tuple(masks))

    def __add__(self, other: "TestSetFamily") -> "TestSetFamily":
        return TestSetFamily("union", members=(self, other))

    # -- generation ----------------------------------------------------------
    def sets(self, space, f: Optional[Field] = None) -> np.ndarray:
        """The family's sets as a read-only (B, space.size) bool matrix: rows
        in generation order, the first of any duplicate kept, none empty.
        All-subsets rows are distinct and non-empty as generated."""
        if self.kind == "all-subsets":
            rows = self._rows(space, f)
            rows.setflags(write=False)
            return rows
        return _distinct_rows(self._rows(space, f))

    def _rows(self, space, f) -> np.ndarray:
        if self.kind == "union":
            return np.concatenate([fam._rows(space, f) for fam in self.members])
        if self.kind == "explicit":
            if any(m.space is not space for m in self.members):
                raise ValueError("explicit member lives on a different space")
            return np.array([m.bools for m in self.members],
                            dtype=bool).reshape(-1, space.size)
        if self.kind == "all-subsets":
            m = space.size
            if m > _ALL_SUBSETS_LIMIT:
                raise ValueError(
                    f"all-subsets family limited to {_ALL_SUBSETS_LIMIT} atoms, "
                    f"space has {m}")
            # row b - 1 holds the bits of b, atom i being bit i
            return ((np.arange(1, 1 << m)[:, None] >> np.arange(m)) & 1).astype(bool)
        if self.kind == "dyadic-cubes":
            if not isinstance(space, Grid):
                raise ValueError("dyadic cubes need a grid model")
            return self._dyadic(space)
        if self.kind == "superlevels":
            if f is None:
                raise ValueError("superlevel family needs the base field")
            levels = _thinned(_levels(f)[0], self.size_cap)
            return np.abs(f.values) >= levels[:, None]
        if self.kind == "random-unions":
            return self._random_unions(space)
        raise ValueError(f"unknown family kind {self.kind!r}")

    def _dyadic(self, grid: Grid) -> np.ndarray:
        """The cubes of each generation, generation by generation and in
        row-major block order within one."""
        cell = np.indices(grid.shape).reshape(grid.n, -1)   # axis indices
        out = [np.zeros((0, grid.size), dtype=bool)]
        for g in self.generations:
            if 2 ** g > grid.N:
                continue
            cube = np.ravel_multi_index(cell // (grid.N >> g), (2 ** g,) * grid.n)
            out.append(np.arange(2 ** (g * grid.n))[:, None] == cube)
        return np.concatenate(out)

    def _random_unions(self, space) -> np.ndarray:
        rng = np.random.default_rng(self.seed)
        out = np.zeros((self.count, space.size), dtype=bool)
        if isinstance(space, Grid):
            pool = TestSetFamily.dyadic((1, 2, 3, 4))._dyadic(space)
            for row in out:
                k = int(rng.integers(1, 5))
                row[:] = pool[rng.integers(0, len(pool), size=k)].any(axis=0)
        else:
            for row in out:
                density = rng.uniform(0.1, 0.6)
                row[:] = rng.random(space.size) < density
                if not row.any():
                    row[int(rng.integers(0, space.size))] = True
        return out


def _distinct_rows(bits: np.ndarray) -> np.ndarray:
    """The non-empty rows of a bool matrix in order, the first of any
    duplicate kept, as a read-only matrix."""
    bits = bits[bits.any(axis=1)]
    packed = np.packbits(bits, axis=1)
    rows = packed.view(f"V{packed.shape[1]}").ravel()   # one opaque item per row
    out = bits[np.sort(np.unique(rows, return_index=True)[1])]
    out.setflags(write=False)
    return out


def default_grid_family(f: Optional[Field] = None) -> TestSetFamily:
    """Dyadic cubes of generations 0..4 plus the superlevel sets of |f|."""
    fam = TestSetFamily.dyadic((0, 1, 2, 3, 4))
    if f is not None:
        fam = fam + TestSetFamily.superlevels(size_cap=16)
    return fam


# ---------------------------------------------------------------------------
# Supremum estimates
# ---------------------------------------------------------------------------

def _sup_over_sets(family: TestSetFamily, bits: np.ndarray, numerators,
                   oracle: CapacityOracle, cap_exponent: float) -> NormEstimate:
    """sup over the rows K of the set matrix `bits` (the family's sets) of
    numerators[K] / cap(K)^cap_exponent.

    The one supremum engine.  Zero-capacity sets are skipped, the witness is
    the first set attaining the maximum, lo and hi put the certified upper
    and lower capacity bounds in place of cap(K), and max_gap is the worst
    gap among the counted sets.
    """
    if not len(bits):
        raise ValueError("empty effective test-set family")
    value, lower, upper, gap = oracle.gather(bits)
    keep = np.flatnonzero(value > 0.0)
    if keep.size == 0:
        raise ValueError("every set in the family has zero capacity")
    num = np.asarray(numerators, dtype=float)[keep]

    def ratios(caps):
        # libm's pow, as a scalar power; numpy's vector ** differs in the last bit
        return num / np.float_power(caps[keep], cap_exponent)

    ratio = ratios(value)
    i = int(np.argmax(ratio))
    exact = (family.kind == "all-subsets"
             and isinstance(oracle.space, DiscreteMeasureSpace))
    return NormEstimate(float(ratio[i]), "exact" if exact else "lower-bound",
                        witness=SetMask(oracle.space, bits[keep[i]]),
                        lo=float(ratios(upper).max()),
                        hi=float(ratios(np.maximum(lower, 1e-300)).max()),
                        max_gap=max(0.0, float(gap[keep].max())))


def _restricted_sup(f: Field, e: LorentzExponents, family: TestSetFamily,
                    oracle: CapacityOracle, cap_exponent: float,
                    sets: Optional[np.ndarray] = None) -> NormEstimate:
    """The engine with numerators ||f chi_K||_{p,q} (weak when q = inf),
    over the set matrix `sets` when given, else over the family's sets
    for f."""
    if sets is None:
        sets = family.sets(oracle.space, f)
    nums = lorentz_norms(np.where(sets, f.values, 0.0), f.space.weights, e)
    return _sup_over_sets(family, sets, nums, oracle, cap_exponent)


def _check_strong(e: LorentzExponents) -> None:
    if not (1.0 < e.p < math.inf) or not (1.0 < e.q < math.inf):
        raise ValueError("multiplier norm needs 1 < p, q < inf")


def m_norm(f: Field, e: LorentzExponents, family: TestSetFamily,
           oracle: CapacityOracle) -> NormEstimate:
    """sup over test sets of ||f chi_K||_{p,q} / cap(K)^(1/q)."""
    _check_strong(e)
    return _restricted_sup(f, e, family, oracle, 1.0 / e.q)


def script_m_norm(f: Field, e: LorentzExponents, family: TestSetFamily,
                  oracle: CapacityOracle) -> NormEstimate:
    """sup over test sets of ||f chi_K||_{p,q} / cap(K)^(1/p) (coincides
    with m_norm when p = q)."""
    _check_strong(e)
    return _restricted_sup(f, e, family, oracle, 1.0 / e.p)


def weak_script_m_norm(f: Field, p: float, family: TestSetFamily,
                       oracle: CapacityOracle) -> NormEstimate:
    """Weak multiplier norm, evaluated in both equivalent forms.

    Form A takes the weak Lorentz norm per test set; form B sweeps the
    breakpoints t and takes t times the (p, p)-estimate of the indicator of
    {|f| > t}.  Both reduce to the same double supremum over (set, level)
    pairs, so they must agree to roundoff given identical cached
    capacities; disagreement raises.  Both forms range over the family's
    sets for f, generated once: a family built from f (superlevels) would
    give the indicators of form B other sets.
    """
    if not (1.0 < p < math.inf):
        raise ValueError("weak multiplier norm needs 1 < p < inf")
    e = LorentzExponents(p, p)
    sets = family.sets(oracle.space, f)
    form_a = _restricted_sup(f, LorentzExponents(p, math.inf), family, oracle,
                             1.0 / p, sets)

    vals = np.abs(f.values)
    form_b = 0.0
    for u in _levels(f)[0]:
        ind = Field(f.space, (vals >= u).astype(float))
        est = _restricted_sup(ind, e, family, oracle, 1.0 / p, sets)
        form_b = max(form_b, u * est.value)
    scale = max(form_a.value, form_b, 1e-300)
    if abs(form_a.value - form_b) > 1e-9 * scale:
        raise AssertionError(
            f"weak-norm forms disagree: {form_a.value} vs {form_b}")
    return form_a


@dataclass
class LocalizationReport:
    local: NormEstimate
    global_: NormEstimate
    ratio: float


def m_norm_local(f: Field, e: LorentzExponents,
                 oracle: CapacityOracle) -> LocalizationReport:
    """Unit-diameter-localized estimate against the unrestricted one.

    The unrestricted family is `default_grid_family(f)`.  The local family
    is that family screened to diameter <= 1, enlarged with the unit-cover
    tiles and the tile pieces of each test set; the global family contains
    the local one, so local <= global holds exactly.  The reverse ratio is
    recorded (finite over the suites' corpora, no constant asserted).
    """
    _check_strong(e)
    grid = oracle.space
    if not isinstance(grid, Grid):
        raise ValueError("localization needs a grid model")
    family = default_grid_family(f)
    base = family.sets(grid, f)
    tiles = unit_cover(grid)
    diam = np.array([_diameter(grid, row) for row in base])
    pieces = base[diam > 1.0, None, :] & tiles
    local = _distinct_rows(np.concatenate(
        [base[diam <= 1.0 + 1e-12], tiles, pieces.reshape(-1, grid.size)]))
    glob = _distinct_rows(np.concatenate([base, local]))
    oracle.gather(glob)   # one batch for both estimates
    loc = _restricted_sup(f, e, family, oracle, 1.0 / e.q, local)
    glo = _restricted_sup(f, e, family, oracle, 1.0 / e.q, glob)
    ratio = glo.value / loc.value if loc.value > 0 else math.inf
    return LocalizationReport(loc, glo, ratio)


# ---------------------------------------------------------------------------
# Weight characterization
# ---------------------------------------------------------------------------

@dataclass
class WeightCharReport:
    weights_form: float
    sets_form: float
    per_set_margin: float   # min over sets of banded slack (>= 0 on pass)
    ratio_ws: float
    ratio_sw: float
    band: float


def char_m_via_weights(f: Field, e: LorentzExponents, masks: Sequence[SetMask],
                       oracle: CapacityOracle,
                       cfg: WeightConfig = WeightConfig(),
                       weight_for=None) -> WeightCharReport:
    """Two-sided comparison of the weight form with the set form.

    For each test set K the potential weight w_K = (V^K)^delta / cap(K)
    dominates b^delta / cap(K) on K, where b is the measured minimum of the
    potential on K; hence

        ||f (chi_K / cap(K))^(1/q)|| <= b^(-delta/q) ||f w_K^(1/q)||

    holds exactly with the measured constant.  The report carries the worst
    banded margin together with the two supremum forms and their mutual
    ratios.
    """
    if not (1.0 < e.q <= e.p < math.inf):
        raise ValueError("weight characterization needs 1 < q <= p < inf")
    if not masks:
        raise ValueError("need at least one test set")
    if weight_for is None:
        weight_for = lambda mask: potential_weight(oracle, mask, cfg)
    weights_form = 0.0
    sets_form = 0.0
    margin = math.inf
    worst_band = 0.0
    for mask in masks:
        res = oracle.result(mask)
        if res.value <= 0.0:
            continue
        wgt = weight_for(mask)
        # measured potential floor on K, recovered from the weight
        b = float((wgt.values[mask.bools] * res.value).min()) ** (1.0 / cfg.delta)
        lhs = lorentz_norm(f.restrict(mask), e) / res.value ** (1.0 / e.q)
        rhs = lorentz_norm(Field(f.space, f.values * wgt.values ** (1.0 / e.q)), e)
        weights_form = max(weights_form, rhs)
        sets_form = max(sets_form, lhs)
        margin = min(margin, b ** (-cfg.delta / e.q) * rhs - lhs)
        worst_band = max(worst_band, abs(1.0 - b))
    ratio_ws = weights_form / sets_form if sets_form > 0 else math.inf
    ratio_sw = sets_form / weights_form if weights_form > 0 else math.inf
    return WeightCharReport(weights_form, sets_form, margin,
                            ratio_ws, ratio_sw, worst_band)
