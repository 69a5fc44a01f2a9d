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
`_sup_over_sets`, which takes segments: the caller passes the set matrices
of many (field, family) pairs with one numerator per row and the
capacities of their rows in turn, and gets one certified estimate per
segment, each with the bits of its batch of one and a `SetMask` built for
its witness only.  A field-independent family that several fields share
is built once and its matrix gathered once.  The numerators ||f chi_K|| of the
stack are one `lorentz_norms` call, strong and weak alike, so `m_norms`
estimates a group of fields on one oracle for the price of one call;
`m_norm` is its batch of one.  The application checks run whole corpora
through it: `maximal_boundedness_probe` estimates a corpus and its images
under the local maximal operator in one `m_norms` call.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .capacity import (CapacityOracle, NormEstimate, SetMask, _diameter,
                       _row_keys, _stack_rows, unit_cover)
from .grid import Grid
from .measure import (DiscreteMeasureSpace, Field, LorentzExponents, _levels,
                      _same_space, _thinned, lorentz_norm, lorentz_norms)
from .weights import Weight, WeightConfig, local_maximal, n_norm_upper

__all__ = [
    "DEFAULT_SEED",
    "TestSetFamily",
    "default_grid_family",
    "m_norm",
    "m_norms",
    "script_m_norm",
    "weak_script_m_norm",
    "weak_script_m_norms",
    "m_norm_local",
    "maximal_boundedness_probe",
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
            _same_space(space, *self.members)
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
    out = bits[np.sort(np.unique(_row_keys(bits), return_index=True)[1])]
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

def _sup_over_sets(families: Sequence[TestSetFamily], sets: Sequence[np.ndarray],
                   gathered: np.ndarray, numerators, space,
                   cap_exponent: float) -> list:
    """The one supremum engine: sup over the rows K of each family's set
    matrix in `sets` of numerators[K] / cap(K)^cap_exponent, one estimate
    per family, `numerators` and `gathered` (capacities from the oracle's
    gather) holding the rows of every matrix in turn.  Each estimate has
    the bits of its batch of one.  Zero-capacity sets are skipped, the
    witness is the first set attaining the maximum, lo and hi put the
    certified upper and lower capacity bounds in place of cap(K), and
    max_gap is the worst gap among the counted sets.  A family with no
    sets, or zero-capacity ones only, raises."""
    value, lower, upper, gap = gathered
    keep = value > 0.0
    with np.errstate(divide="ignore", invalid="ignore"):
        # libm's pow, as a scalar power; numpy's vector ** differs in the last bit
        ratio, lo, hi = (
            np.where(keep, numerators / np.float_power(caps, cap_exponent), -np.inf)
            for caps in (value, upper, np.maximum(lower, 1e-300)))
    gap = np.where(keep, gap, 0.0)
    out, b = [], 0
    for family, bits in zip(families, sets):
        a, b = b, b + len(bits)
        if a == b:
            raise ValueError("empty effective test-set family")
        if not keep[a:b].any():
            raise ValueError("every set in the family has zero capacity")
        i = int(np.argmax(ratio[a:b]))
        exact = (family.kind == "all-subsets"
                 and isinstance(space, DiscreteMeasureSpace))
        out.append(NormEstimate(float(ratio[a + i]),
                                "exact" if exact else "lower-bound",
                                witness=SetMask(space, bits[i]),
                                lo=float(lo[a:b].max()), hi=float(hi[a:b].max()),
                                max_gap=max(0.0, float(gap[a:b].max()))))
    return out


def _family_sets(families: Sequence[TestSetFamily], fields: Sequence[Field],
                 space) -> list:
    """Each family's set matrix for its field.  One that reads no field
    (neither superlevels nor a union, which may hold them) is built once,
    however many fields share it."""
    built = {fam: fam.sets(space) for fam in dict.fromkeys(families)
             if fam.kind not in ("superlevels", "union")}
    return [built[fam] if fam in built else fam.sets(space, f)
            for f, fam in zip(fields, families)]


def _restricted_sups(fields: Sequence[Field], e: LorentzExponents,
                     families: Sequence[TestSetFamily], oracle: CapacityOracle,
                     cap_exponent: float, sets: Optional[list] = None) -> list:
    """The engine with numerators ||f chi_K||_{p,q} (weak when q = inf), one
    segment per field over sets[k] when given, else over its family's sets
    for it, from one `lorentz_norms` stack and one gather, in which a set
    matrix that several segments share appears once."""
    space = oracle.space
    _same_space(space, *fields)
    if sets is None:
        sets = _family_sets(families, fields, space)
    ends = np.cumsum([0] + [len(bits) for bits in sets]).tolist()
    stack = np.zeros((ends[-1], space.size))
    for f, bits, a in zip(fields, sets, ends):
        np.copyto(stack[a:a + len(bits)], f.values, where=bits)
    nums = lorentz_norms(stack, space.weights, e)
    distinct = list({id(bits): bits for bits in sets}.values())
    rows, _owner, starts = _stack_rows(distinct, space.size)
    at = dict(zip(map(id, distinct), starts.tolist()))
    cols = np.concatenate([np.zeros(0, dtype=int)] +
                          [at[id(bits)] + np.arange(len(bits)) for bits in sets])
    return _sup_over_sets(families, sets, oracle.gather(rows)[:, cols], nums,
                          space, cap_exponent)


def _check_strong(e: LorentzExponents) -> None:
    if not (1.0 < e.p < math.inf) or not (1.0 < e.q < math.inf):
        raise ValueError("multiplier norm needs 1 < p, q < inf")


def m_norms(fields: Sequence[Field], e: LorentzExponents,
            families: Sequence[TestSetFamily], oracle: CapacityOracle) -> list:
    """`m_norm` of each (field, family) pair, from one gather and one
    `lorentz_norms` stack; each estimate has the bits of its batch of one."""
    _check_strong(e)
    return _restricted_sups(fields, e, families, oracle, 1.0 / e.q)


def m_norm(f: Field, e: LorentzExponents, family: TestSetFamily,
           oracle: CapacityOracle) -> NormEstimate:
    """sup over test sets of ||f chi_K||_{p,q} / cap(K)^(1/q): the batch of
    one of `m_norms`."""
    return m_norms([f], e, [family], oracle)[0]


def script_m_norm(f: Field, e: LorentzExponents, family: TestSetFamily,
                  oracle: CapacityOracle) -> NormEstimate:
    """sup over test sets of ||f chi_K||_{p,q} / cap(K)^(1/p) (coincides
    with m_norm when p = q)."""
    _check_strong(e)
    return _restricted_sups([f], e, [family], oracle, 1.0 / e.p)[0]


def weak_script_m_norms(fields: Sequence[Field], p: float,
                        families: Sequence[TestSetFamily],
                        oracle: CapacityOracle) -> list:
    """Weak multiplier norm of each (field, family) pair, evaluated in both
    equivalent forms; `weak_script_m_norm` is its batch of one.

    Form A takes the weak Lorentz norm per test set; form B sweeps the
    breakpoints t and takes t times the (p, p)-estimate of the indicator of
    {|f| > t}.  Both reduce to the same double supremum over (set, level)
    pairs, so they must agree to roundoff given identical cached
    capacities; disagreement raises.  Both forms range over the family's
    sets for f, generated once: a family built from f (superlevels) would
    give the indicators of form B other sets.  Form A is one segmented
    call, and form B one per level rank, over the j-th level indicator of
    every field, so no call holds more rows than form A's.
    """
    if not (1.0 < p < math.inf):
        raise ValueError("weak multiplier norm needs 1 < p < inf")
    sets = _family_sets(families, fields, oracle.space)
    form_a = _restricted_sups(fields, LorentzExponents(p, math.inf), families,
                              oracle, 1.0 / p, sets)
    levels = [_levels(f)[0] for f in fields]
    form_b = [0.0] * len(fields)
    for j in range(max(map(len, levels), default=0)):
        ks = [k for k, u in enumerate(levels) if j < len(u)]
        inds = [Field(oracle.space, (np.abs(fields[k].values) >= levels[k][j])
                      .astype(float)) for k in ks]
        ests = _restricted_sups(inds, LorentzExponents(p, p), [families[k] for k in ks],
                                oracle, 1.0 / p, [sets[k] for k in ks])
        for k, est in zip(ks, ests):
            form_b[k] = max(form_b[k], levels[k][j] * est.value)
    for a, b in zip(form_a, form_b):
        if abs(a.value - b) > 1e-9 * max(a.value, b, 1e-300):
            raise AssertionError(f"weak-norm forms disagree: {a.value} vs {b}")
    return form_a


def weak_script_m_norm(f: Field, p: float, family: TestSetFamily,
                       oracle: CapacityOracle) -> NormEstimate:
    """The batch of one of `weak_script_m_norms`."""
    return weak_script_m_norms([f], p, [family], oracle)[0]


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
    loc, glo = _restricted_sups([f, f], e, [family, family], oracle, 1.0 / e.q,
                                [local, glob])
    ratio = glo.value / loc.value if loc.value > 0 else math.inf
    return LocalizationReport(loc, glo, ratio)


@dataclass
class ProbeReport:
    m_ratios: list
    n_ratios: list
    m_max: float
    n_max: float


def maximal_boundedness_probe(corpus: Sequence[Field], e: LorentzExponents,
                              oracle: CapacityOracle,
                              candidates: Sequence[Weight] = (),
                              cfg: WeightConfig = WeightConfig()) -> ProbeReport:
    """Ratios est(M_loc f)/est(f) over the corpus fields with est(f) > 0,
    M_loc the local maximal operator: the multiplier estimates of every
    field and image are one `m_norms` call, each over `default_grid_family`
    of its own field, and with weight candidates the weighted-infimum upper
    bounds are one `n_norm_upper` call per field and per image.  The probe
    only measures; the suites check finiteness and seed stability."""
    images = [local_maximal(oracle.space, f) for f in corpus]
    fields = list(corpus) + images
    ests = [est.value for est in m_norms(
        fields, e, [default_grid_family(f) for f in fields], oracle)]
    m_ratios = [mf / base for base, mf in zip(ests, ests[len(images):])
                if base > 0.0]
    n_ratios = []
    for f, mf in zip(corpus, images) if candidates else ():
        base = n_norm_upper(f, e, candidates, cfg).value
        if base > 0.0:
            n_ratios.append(n_norm_upper(mf, e, candidates, cfg).value / base)
    return ProbeReport(m_ratios, n_ratios, max(m_ratios, default=0.0),
                       max(n_ratios, default=0.0))


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


def char_m_via_weights(f: Field, e: LorentzExponents, masks: Sequence[SetMask],
                       weights: Sequence[Weight], oracle: CapacityOracle,
                       cfg: WeightConfig = WeightConfig()) -> WeightCharReport:
    """Two-sided comparison of the weight form with the set form.

    `weights` holds one potential weight per test set, built with `cfg`.
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
    if len(weights) != len(masks):
        raise ValueError(f"need one weight per test set, got {len(weights)} "
                         f"for {len(masks)}")
    _same_space(oracle.space, f, *masks, *(w.field for w in weights))
    weights_form = 0.0
    sets_form = 0.0
    margin = math.inf
    for mask, wgt in zip(masks, weights):
        res = oracle.result(mask)
        if res.value <= 0.0:
            continue
        # measured potential floor on K, recovered from the weight
        b = float((wgt.values[mask.bools] * res.value).min()) ** (1.0 / cfg.delta)
        lhs = lorentz_norm(f.restrict(mask), e) / res.value ** (1.0 / e.q)
        rhs = lorentz_norm(Field(f.space, f.values * wgt.values ** (1.0 / e.q)), e)
        weights_form = max(weights_form, rhs)
        sets_form = max(sets_form, lhs)
        margin = min(margin, b ** (-cfg.delta / e.q) * rhs - lhs)
    ratio_ws = weights_form / sets_form if sets_form > 0 else math.inf
    ratio_sw = sets_form / weights_form if weights_form > 0 else math.inf
    return WeightCharReport(weights_form, sets_form, margin, ratio_ws, ratio_sw)
