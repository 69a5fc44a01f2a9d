"""Multiplier-norm estimates: exactness on finite models, families, localization."""
import math

import numpy as np
import pytest

from capflow.blocks import AtomicMeasure, trace_norm
from capflow.capacity import (CapacityOracle, CapacityParams, NormEstimate,
                              SetMask, finite_problem, grid_problem,
                              identity_problem)
from capflow.grid import Grid, make_grid
from capflow.measure import (DiscreteMeasureSpace, Field, LorentzExponents,
                             lorentz_norm, weak_lorentz_norm)
from capflow.multiplier import (TestSetFamily, _distinct_rows,
                                char_m_via_weights, default_grid_family,
                                m_norm, m_norm_local, script_m_norm,
                                weak_script_m_norm)

PARAMS = CapacityParams(alpha=1.0, s=2.0, tol=1e-6)


@pytest.fixture()
def counting():
    sp = DiscreteMeasureSpace(np.ones(4))
    return sp, CapacityOracle(identity_problem(sp), PARAMS)


def test_family_determinism_and_cap(counting):
    sp, _ = counting
    fam = TestSetFamily.random_unions(8, seed=123)
    a = fam.sets(sp)
    b = fam.sets(sp)
    assert np.array_equal(a, b)
    assert len(TestSetFamily.all_subsets().sets(sp)) == 15
    # row b - 1 is the bit pattern of b = 1, 2, ..., 15, atom i being bit i
    rows = TestSetFamily.all_subsets().sets(sp)
    for b, row in enumerate(rows, start=1):
        assert [bool(x) for x in row] == [bool(b & (1 << i)) for i in range(4)]
    with pytest.raises(ValueError):
        TestSetFamily.all_subsets().sets(DiscreteMeasureSpace(np.ones(21)))


def test_all_subsets_rows_are_built_distinct():
    # the generated matrix skips the dedupe, which would keep every row in
    # place: it must equal its own screening bit for bit, and stay read-only
    for m in range(1, 15):
        rows = TestSetFamily.all_subsets().sets(DiscreteMeasureSpace(np.ones(m)))
        ref = _distinct_rows(rows)
        assert rows.shape == ref.shape == ((1 << m) - 1, m)
        assert rows.dtype == ref.dtype == bool
        assert rows.tobytes() == ref.tobytes()
        assert not rows.flags.writeable
        with pytest.raises(ValueError):
            rows[0, 0] = False
    with pytest.raises(ValueError, match="limited to 20 atoms"):
        TestSetFamily.all_subsets().sets(DiscreteMeasureSpace(np.ones(21)))
    # a union with all subsets still drops its duplicates
    sp = DiscreteMeasureSpace(np.ones(4))
    both = (TestSetFamily.all_subsets() + TestSetFamily.all_subsets()).sets(sp)
    assert both.tobytes() == TestSetFamily.all_subsets().sets(sp).tobytes()


def test_indicator_norm_is_one_on_counting_model(counting):
    sp, oracle = counting
    A = SetMask.from_indices(sp, [0, 2])
    chi = Field.of(sp, A.bools.astype(float))
    for p in (1.5, 2.0, 3.0):
        est = m_norm(chi, LorentzExponents(p, p), TestSetFamily.all_subsets(),
                     oracle)
        assert est.value == pytest.approx(1.0, rel=1e-12)
        assert est.mode == "exact"
        assert est.witness.issubset(A)


def test_zero_field_and_single_set_family(counting):
    sp, oracle = counting
    e = LorentzExponents(2.0, 1.5)
    zero = Field.of(sp, np.zeros(4))
    assert m_norm(zero, e, TestSetFamily.all_subsets(), oracle).value == 0.0
    A = SetMask.from_indices(sp, [1, 2])
    chi = Field.of(sp, A.bools.astype(float))
    est = m_norm(chi, e, TestSetFamily.explicit([A]), oracle)
    want = (e.p / e.q) ** (1 / e.q) * 2 ** (1 / e.p) / 2 ** (1 / e.q)
    assert est.value == pytest.approx(want, rel=1e-12)
    assert est.mode == "lower-bound"


def test_script_norm_coincides_at_p_equal_q(counting):
    sp, oracle = counting
    rng = np.random.default_rng(0)
    f = Field.of(sp, rng.standard_normal(4))
    fam = TestSetFamily.all_subsets()
    e = LorentzExponents(2.0, 2.0)
    assert m_norm(f, e, fam, oracle).value == \
        script_m_norm(f, e, fam, oracle).value


def test_script_embedding_direction(counting):
    # raising the secondary exponent shrinks norms by at most the constant
    # (r/p)^(1/r - 1/q): the weak bound t^(1/p) f*(t) <= (r/p)^(1/r) ||f||_{p,r}
    # interpolated into the q-integral; per set, hence for the suprema
    sp, oracle = counting
    rng = np.random.default_rng(1)
    fam = TestSetFamily.all_subsets()
    p, r, q = 2.0, 1.2, 2.5
    c = (r / p) ** (1.0 / r - 1.0 / q)
    for _ in range(10):
        f = Field.of(sp, rng.standard_normal(4))
        lo = script_m_norm(f, LorentzExponents(p, r), fam, oracle).value
        hi = script_m_norm(f, LorentzExponents(p, q), fam, oracle).value
        assert hi <= c * lo * (1 + 1e-12)


def test_weak_norm_two_forms_agree(counting):
    sp, oracle = counting
    f = Field.of(sp, [2.0, 1.0, 0.0, 1.0])
    est = weak_script_m_norm(f, 2.0, TestSetFamily.all_subsets(), oracle)
    assert est.value > 0
    c = Field.of(sp, [0.0, 3.0, 3.0, 0.0])
    single = weak_script_m_norm(c, 2.0, TestSetFamily.all_subsets(), oracle)
    A = SetMask(sp, c.values > 0)
    want = 3.0 * m_norm(Field.of(sp, A.bools.astype(float)),
                        LorentzExponents(2.0, 2.0),
                        TestSetFamily.all_subsets(), oracle).value
    assert single.value == pytest.approx(want, rel=1e-12)


def test_exactness_requires_finite_model():
    grid = make_grid(1, 16.0, 256)
    params = CapacityParams(alpha=0.5, s=2.0, tol=1e-6)
    oracle = CapacityOracle(grid_problem(grid, params), params)
    f = Field.of(grid, np.exp(-grid.coords()[:, 0] ** 2))
    est = m_norm(f, LorentzExponents(2, 2), TestSetFamily.dyadic((2, 3)), oracle)
    assert est.mode == "lower-bound"
    assert est.lo <= est.value <= est.hi


def test_family_monotone_and_diam_cap(counting):
    sp, oracle = counting
    rng = np.random.default_rng(2)
    f = Field.of(sp, rng.standard_normal(4))
    e = LorentzExponents(2.0, 2.0)
    small = TestSetFamily.explicit([SetMask.from_indices(sp, [0])])
    grown = small + TestSetFamily.all_subsets()
    assert m_norm(f, e, small, oracle).value <= \
        m_norm(f, e, grown, oracle).value * (1 + 1e-15)


def test_local_vs_global_on_grid():
    grid = make_grid(1, 16.0, 256)
    params = CapacityParams(alpha=0.5, s=2.0, tol=1e-6)
    oracle = CapacityOracle(grid_problem(grid, params), params)
    x = grid.coords()[:, 0]
    f = Field.of(grid, np.where(np.abs(x - 0.5) <= 0.35,
                                np.exp(-(x - 0.5) ** 2), 0.0))
    rep = m_norm_local(f, LorentzExponents(2, 2), oracle)
    assert rep.local.value <= rep.global_.value * (1 + 1e-12)
    assert rep.ratio == pytest.approx(1.0, abs=1e-3)
    # two far-separated bumps: localization is lossy, ratio at least one
    g = Field.of(grid, np.exp(-(x + 3) ** 2 / 0.1) + np.exp(-(x - 3) ** 2 / 0.1))
    rep2 = m_norm_local(g, LorentzExponents(2, 2), oracle)
    assert rep2.ratio >= 1.0 - 1e-12 and math.isfinite(rep2.ratio)


def test_char_via_weights_banded_lower_bound():
    grid = make_grid(1, 16.0, 256)
    params = CapacityParams(alpha=0.5, s=2.0, tol=1e-6)
    oracle = CapacityOracle(grid_problem(grid, params), params)
    x = grid.coords()[:, 0]
    masks = [SetMask(grid, np.abs(x) <= 0.8),
             SetMask(grid, np.abs(x - 2.0) <= 0.5)]
    f = Field.of(grid, np.exp(-x ** 2 / 2))
    rep = char_m_via_weights(f, LorentzExponents(2.0, 2.0), masks, oracle)
    assert rep.per_set_margin >= -1e-9 * max(rep.sets_form, 1.0)
    assert rep.weights_form > 0 and rep.sets_form > 0
    with pytest.raises(ValueError):
        char_m_via_weights(f, LorentzExponents(2.0, 3.0), masks, oracle)


def test_default_grid_family_contents():
    grid = make_grid(1, 16.0, 256)
    f = Field.of(grid, np.exp(-grid.coords()[:, 0] ** 2))
    sets = default_grid_family(f).sets(grid, f)
    assert len(sets) > 31  # dyadic generations 0..4 plus superlevel sets


def _reference_dyadic(generations, grid):
    idx = np.arange(grid.size)
    rows, cols = (idx, np.zeros_like(idx)) if grid.n == 1 else divmod(idx, grid.N)
    out = []
    for g in generations:
        blocks = 2 ** g
        if blocks > grid.N:
            continue
        width = grid.N // blocks
        bi, bj = rows // width, cols // width
        for a in range(blocks):
            for b in range(blocks if grid.n == 2 else 1):
                out.append(SetMask(grid, (bi == a) & (bj == b)))
    return out


def _reference_raw(fam, space, f):
    if fam.kind == "union":
        return [m for member in fam.members
                for m in _reference_raw(member, space, f)]
    if fam.kind == "explicit":
        return list(fam.members)
    if fam.kind == "all-subsets":
        bits = (np.arange(1, 1 << space.size)[:, None] >> np.arange(space.size)) & 1
        return [SetMask(space, row) for row in bits.astype(bool)]
    if fam.kind == "dyadic-cubes":
        return _reference_dyadic(fam.generations, space)
    if fam.kind == "superlevels":
        vals = np.abs(f.values)
        levels = np.unique(vals[vals > 0.0])[::-1]
        if fam.size_cap is not None and levels.size > fam.size_cap:
            idx = np.unique(np.linspace(0, levels.size - 1,
                                        fam.size_cap).round().astype(int))
            levels = levels[idx]
        return [SetMask(space, vals >= u) for u in levels]
    assert fam.kind == "random-unions"
    rng = np.random.default_rng(fam.seed)
    out = []
    if isinstance(space, Grid):
        pool = _reference_dyadic((1, 2, 3, 4), space)
        for _ in range(fam.count):
            k = int(rng.integers(1, 5))
            acc = np.zeros(space.size, dtype=bool)
            for p in rng.integers(0, len(pool), size=k):
                acc |= pool[p].bools
            out.append(SetMask(space, acc))
    else:
        for _ in range(fam.count):
            density = rng.uniform(0.1, 0.6)
            b = rng.random(space.size) < density
            if not b.any():
                b[int(rng.integers(0, space.size))] = True
            out.append(SetMask(space, b))
    return out


def _reference_sets(fam, space, f=None):
    """The per-set generator the matrix families replaced, kept as the
    reference: SetMask objects in generation order, empty sets dropped and
    the first of any duplicate kept."""
    seen, unique = set(), []
    for m in _reference_raw(fam, space, f):
        if not m.is_empty and m.key not in seen:
            seen.add(m.key)
            unique.append(m)
    return unique


def _family_cases():
    sp = DiscreteMeasureSpace(np.ones(5))
    rng = np.random.default_rng(11)
    A = SetMask.from_indices(sp, [0, 3])
    # ties and zeros: 9 distinct positive levels among 12 values
    ties = Field.of(sp, [2.0, -2.0, 0.0, 1.0, 0.5])
    many = Field.of(DiscreteMeasureSpace(np.ones(12)),
                    np.round(rng.standard_normal(12), 1))
    line, plane = make_grid(1, 16.0, 256), make_grid(2, 8.0, 32)
    bump = Field.of(line, np.round(np.exp(-line.coords()[:, 0] ** 2) * 40) / 40)
    hill = Field.of(plane, np.exp(-(plane.coords() ** 2).sum(axis=1)))
    every = TestSetFamily.all_subsets()
    return [
        (sp, None, every),
        (sp, None, TestSetFamily.random_unions(40, seed=3)),
        (sp, None, every + TestSetFamily.random_unions(12)),   # duplicates
        (sp, None, TestSetFamily.explicit([A, SetMask.empty(sp), A,
                                           SetMask.full(sp)])),
        (sp, ties, TestSetFamily.superlevels()),
        (sp, ties, TestSetFamily.superlevels(size_cap=2)),
        (many.space, many, TestSetFamily.superlevels(size_cap=5)),
        (many.space, many, every + TestSetFamily.superlevels(size_cap=4)),
        (line, bump, default_grid_family(bump)),
        (line, None, default_grid_family()),
        (line, None, TestSetFamily.random_unions(10, seed=9)),
        (plane, hill, TestSetFamily.dyadic((0, 1, 2, 6))
         + TestSetFamily.superlevels(size_cap=6)),
        (plane, None, TestSetFamily.random_unions(6)),
    ]


@pytest.mark.parametrize("case", range(13))
def test_family_matrix_matches_per_set_reference(case):
    space, f, fam = _family_cases()[case]
    bits = fam.sets(space, f)
    ref = _reference_sets(fam, space, f)
    assert bits.dtype == bool and bits.shape == (len(ref), space.size)
    assert [row.tobytes() for row in bits] == [m.key for m in ref]
    assert not bits.flags.writeable


def test_explicit_members_of_another_space_raise():
    small, other = DiscreteMeasureSpace(np.ones(3)), DiscreteMeasureSpace(np.ones(3))
    fam = TestSetFamily.explicit([SetMask.full(small), SetMask.full(other)])
    with pytest.raises(ValueError, match="different space"):
        fam.sets(small)
    with pytest.raises(ValueError, match="different space"):
        (TestSetFamily.all_subsets() + fam).sets(other)


def _per_set_reference(sets, numerator, oracle, cap_exponent, exact):
    """The one-set-at-a-time supremum loop, kept as the reference for the
    engine: a strict `>` keeps the first set attaining the maximum."""
    oracle.gather(sets)
    best, lo, hi, worst, witness, ratios = -1.0, 0.0, 0.0, 0.0, None, []
    for k, row in enumerate(sets):
        mask = SetMask(oracle.space, row)
        res = oracle.result(mask)
        if res.value <= 0.0:
            continue
        num = numerator(k, mask)
        ratio = num / res.value ** cap_exponent
        ratios.append(ratio)
        if ratio > best:
            best, witness = ratio, mask
        lo = max(lo, num / res.upper ** cap_exponent)
        hi = max(hi, num / max(res.lower, 1e-300) ** cap_exponent)
        worst = max(worst, res.gap)
    assert witness is not None
    est = NormEstimate(max(best, 0.0), "exact" if exact else "lower-bound",
                       witness=witness, lo=lo, hi=hi, max_gap=worst)
    return est, ratios.count(best)


def _assert_same(est, ref):
    assert (est.value, est.lo, est.hi, est.max_gap, est.mode) == \
        (ref.value, ref.lo, ref.hi, ref.max_gap, ref.mode)
    assert est.witness.key == ref.witness.key


def _engine_case(case):
    """(oracle, f, mu, family, fixed family, exhaustive) for one case.  The
    fixed family does not depend on the field: the trace class needs one.
    On the grid the family holds the superlevel sets of f, so the weak
    norm's breakpoint form must range over the sets built for f, not for
    its indicators."""
    if case == "grid":
        grid = make_grid(1, 16.0, 256)
        params = CapacityParams(alpha=0.5, s=2.0, tol=1e-6)
        oracle = CapacityOracle(grid_problem(grid, params), params)
        x = grid.coords()[:, 0]
        f = Field.of(grid, np.exp(-x ** 2) - 0.5 * np.exp(-(x - 2.0) ** 2 / 0.3))
        mu = AtomicMeasure(grid, np.exp(-(x + 1.0) ** 2) * grid.cell_measure)
        return oracle, f, mu, default_grid_family(f), default_grid_family(), False
    every = TestSetFamily.all_subsets()
    if case == "tie":
        # f = chi_{0,1} gives ratio 1 on each nonempty subset of {0, 1}, and
        # |mu|(K) / |K| = 2 on them too: three sets attain each maximum
        sp = DiscreteMeasureSpace(np.ones(4))
        return (CapacityOracle(identity_problem(sp), PARAMS),
                Field.of(sp, [1.0, 1.0, 0.0, 0.0]),
                AtomicMeasure(sp, [2.0, -2.0, 1.0, 0.5]), every, every, True)
    rng = np.random.default_rng(7)
    B = rng.random((6, 6))
    sp = DiscreteMeasureSpace(rng.random(6) + 0.3)
    oracle = CapacityOracle(finite_problem(sp, (B + B.T) / 2 + np.eye(6)), PARAMS)
    return (oracle, Field.of(sp, rng.standard_normal(6)),
            AtomicMeasure(sp, rng.standard_normal(6) * 3.0), every, every, True)


@pytest.mark.parametrize("case", ["finite", "tie", "grid"])
def test_sup_engine_matches_per_set_reference(case):
    oracle, f, mu, family, fixed_family, exact = _engine_case(case)
    space = oracle.space
    first = SetMask.from_indices(space, [0]).key
    for p, q in ((2.0, 2.0), (3.0, 1.5)):
        e = LorentzExponents(p, q)
        sets = family.sets(space, f)
        for fn, expo in ((m_norm, 1.0 / q), (script_m_norm, 1.0 / p)):
            ref, n_top = _per_set_reference(
                sets, lambda k, mask: lorentz_norm(f.restrict(mask), e),
                oracle, expo, exact)
            _assert_same(fn(f, e, family, oracle), ref)
            if case == "tie" and p == q:
                assert n_top == 3 and ref.witness.key == first
        ref, _ = _per_set_reference(
            sets, lambda k, mask: weak_lorentz_norm(f.restrict(mask), p),
            oracle, 1.0 / p, exact)
        _assert_same(weak_script_m_norm(f, p, family, oracle), ref)

    sets = fixed_family.sets(space)
    # |mu|(K) over the whole family is one matrix product; its sum order
    # differs from a per-set sum, which bounds the difference by size * eps
    variations = sets.astype(float) @ np.abs(mu.masses)
    for k, row in enumerate(sets):
        assert variations[k] == pytest.approx(
            np.abs(mu.masses)[row].sum(),
            rel=space.size * np.finfo(float).eps, abs=0.0)
    ref, n_top = _per_set_reference(sets, lambda k, mask: variations[k],
                                    oracle, 1.0, exact)
    _assert_same(trace_norm(mu, fixed_family, oracle), ref)
    if case == "tie":
        assert n_top == 3 and ref.witness.key == first
