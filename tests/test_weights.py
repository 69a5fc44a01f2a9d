"""Local maximal operator, A1 constants, weight constructors, N-norm bounds."""
import math
from collections import OrderedDict

import numpy as np
import pytest

from capflow.capacity import (CapacityOracle, CapacityParams, SetMask,
                              grid_problem, identity_problem, l1c_norm)
from capflow import grid as grid_mod
from capflow.grid import CACHE_GEOMETRIES, bessel_kernel, make_grid
from capflow.measure import DiscreteMeasureSpace, Field, LorentzExponents
from capflow.multiplier import maximal_boundedness_probe
from capflow.weights import (WEIGHT_FLOOR, WeightConfig,
                             a1loc_constant, average_weights, level_sum_check,
                             local_maximal, n_norm_upper, potential_weight)

PARAMS = CapacityParams(alpha=1.0, s=2.0, tol=1e-6)


@pytest.fixture(scope="module")
def grid():
    return make_grid(1, 4.0, 16)  # h = 1/4: radius set {1/4, 1/2, 3/4, 1}


@pytest.fixture(scope="module")
def fine_oracle():
    g = make_grid(1, 16.0, 256)
    params = CapacityParams(alpha=0.5, s=2.0, tol=1e-6)
    return CapacityOracle(grid_problem(g, params), params)


def test_constants_fixed_exactly(grid):
    for c in (0.3, 1.0, 7.5):
        out = local_maximal(grid, Field.of(grid, np.full(grid.size, c)))
        assert np.abs(out.values - c).max() <= 1e-12


def test_single_cell_average(grid):
    # one lit cell, h = 1/4: best ball is radius h with 3 cells
    f = np.zeros(grid.size)
    f[7] = 1.0
    out = local_maximal(grid, Field.of(grid, f))
    assert out.values[7] == pytest.approx(1.0 / 3.0, rel=1e-12)


def test_ball_cache_is_bounded_lru(monkeypatch):
    # ball transfers share the kernel cache: with more geometries than the
    # bound, kernels and balls together stay at the bound, a repeated
    # geometry returns the same transfers, and an evicted one is rebuilt
    # equal to its first build
    monkeypatch.setattr(grid_mod, "_kernel_cache", OrderedDict())
    g = make_grid(1, 4.0, 16)
    first = grid_mod._ball_transfers(g)
    assert grid_mod._ball_transfers(make_grid(1, 4.0, 16)) is first
    for k in range(CACHE_GEOMETRIES + 2):
        geometry = make_grid(1, 4.0 + 0.25 * k, 64)
        grid_mod._ball_transfers(geometry)
        bessel_kernel(geometry, 0.5)
        assert len(grid_mod._kernel_cache) <= CACHE_GEOMETRIES
    assert len(grid_mod._kernel_cache) == CACHE_GEOMETRIES
    assert {key[0] for key in grid_mod._kernel_cache} == {"balls", 1}
    again = grid_mod._ball_transfers(g)
    assert again is not first and len(again) == len(first)
    for (t1, r1, c1), (t2, r2, c2) in zip(first, again):
        assert np.array_equal(t1, t2) and (r1, c1) == (r2, c2)


def test_sup_bound_and_sublinearity(grid):
    rng = np.random.default_rng(4)
    for _ in range(20):
        f = rng.standard_normal(grid.size)
        g = rng.standard_normal(grid.size)
        mf = local_maximal(grid, Field.of(grid, f)).values
        assert mf.max() <= np.abs(f).max() * (1 + 1e-12)
        msum = local_maximal(grid, Field.of(grid, f + g)).values
        mg = local_maximal(grid, Field.of(grid, g)).values
        assert np.all(msum <= mf + mg + 1e-12)
        # positive homogeneity is exact
        m2 = local_maximal(grid, Field.of(grid, 2.5 * f)).values
        assert np.abs(m2 - 2.5 * mf).max() <= 1e-12 * max(1.0, mf.max())


def test_plane_maximal_constants_and_average():
    g2 = make_grid(2, 4.0, 16)
    out = local_maximal(g2, Field.of(g2, np.full(g2.size, 1.7)))
    assert np.abs(out.values - 1.7).max() <= 1e-12
    # one lit cell, h = 1/4: the radius-h ball holds the 5-cell plus pattern
    f = np.zeros(g2.size)
    j = 8 * 16 + 8
    f[j] = 1.0
    got = local_maximal(g2, Field.of(g2, f))
    assert got.values[j] == pytest.approx(1.0 / 5.0, rel=1e-12)


def test_finite_model_degenerates_to_abs():
    sp = DiscreteMeasureSpace([1.0, 2.0])
    f = Field.of(sp, [-3.0, 1.0])
    assert np.array_equal(local_maximal(sp, f).values, [3.0, 1.0])
    assert a1loc_constant(sp, Field.of(sp, [1.0, 5.0])) == 1.0


def test_a1_constant_basics(grid):
    ones = Field.of(grid, np.ones(grid.size))
    assert a1loc_constant(grid, ones) == pytest.approx(1.0, abs=1e-12)
    rng = np.random.default_rng(8)
    for _ in range(10):
        w = Field.of(grid, rng.lognormal(0, 1, grid.size))
        assert a1loc_constant(grid, w) >= 1.0 - 1e-12
    # a floored indicator has a huge constant (mass leaks into the floor)
    chi = np.zeros(grid.size)
    chi[3] = 1.0
    assert a1loc_constant(grid, Field.of(grid, chi)) > 1e6


def test_potential_weight_identity_model():
    sp = DiscreteMeasureSpace(np.ones(3))
    oracle = CapacityOracle(identity_problem(sp), PARAMS)
    mask = SetMask.from_indices(sp, [1])
    w = potential_weight(oracle, mask, WeightConfig(delta=1.0))
    # the potential is the indicator, so the weight is it, floored
    assert w.values[1] == pytest.approx(1.0)   # 1/cap({atom}) with cap = 1
    assert w.values[0] == WEIGHT_FLOOR
    # recorded two-sided ratio: the layer cake of V^delta equals the capacity
    est = l1c_norm(Field.of(sp, np.array([0.0, 1.0, 0.0])), oracle)
    assert est.value / oracle.value(mask) == pytest.approx(1.0)


def test_potential_weight_on_grid(fine_oracle):
    g = fine_oracle.space
    x = g.coords()[:, 0]
    mask = SetMask(g, np.abs(x) <= 1.0)
    cfg = WeightConfig(delta=0.5, l1c_levels=12)
    w = potential_weight(fine_oracle, mask, cfg)
    cap = fine_oracle.value(mask)
    band = 10 * fine_oracle.params.tol
    # on E the potential is within band of one, so the weight clears 1/cap
    assert w.values[mask.bools].min() >= (1 - band) ** cfg.delta / cap * (1 - 1e-12)
    assert w.a1_constant >= 1.0
    assert w.l1c_estimate.mode in ("exact", "upper-bound")


def test_average_weights(fine_oracle):
    g = fine_oracle.space
    x = g.coords()[:, 0]
    cfg = WeightConfig(delta=0.5, l1c_levels=10)
    w1 = potential_weight(fine_oracle, SetMask(g, np.abs(x) <= 0.7), cfg)
    w2 = potential_weight(fine_oracle, SetMask(g, np.abs(x - 2) <= 0.7), cfg)
    same = average_weights([(2.0, w1)], fine_oracle, cfg)
    assert np.abs(same.values - w1.values).max() <= 1e-15
    dup = average_weights([(1.0, w1), (1.0, w1)], fine_oracle, cfg)
    assert np.abs(dup.values - w1.values).max() <= 1e-15
    mixed = average_weights([(0.3, w1), (0.7, w2)], fine_oracle, cfg)
    assert mixed.a1_constant <= max(w1.a1_constant, w2.a1_constant) + 1e-10
    with pytest.raises(ValueError):
        average_weights([], fine_oracle, cfg)
    with pytest.raises(ValueError):
        average_weights([(0.0, w1)], fine_oracle, cfg)


def test_weights_from_another_space_fail_loudly():
    # two 4-atom spaces: a weight of b neither scores nor averages on a
    a, b = DiscreteMeasureSpace(np.ones(4)), DiscreteMeasureSpace(np.ones(4))
    oracle_a, oracle_b = (CapacityOracle(identity_problem(sp), PARAMS)
                          for sp in (a, b))
    w_a = potential_weight(oracle_a, SetMask.from_indices(a, [0, 1]))
    w_b = potential_weight(oracle_b, SetMask.from_indices(b, [0, 1]))
    f_a = Field.of(a, [1.0, 2.0, 0.5, 3.0])
    e = LorentzExponents(2.0, 2.0)
    with pytest.raises(ValueError, match="live on different spaces"):
        n_norm_upper(f_a, e, [w_b])
    with pytest.raises(ValueError, match="live on different spaces"):
        n_norm_upper(f_a, e, [w_a], oracle=oracle_b)
    with pytest.raises(ValueError, match="live on different spaces"):
        average_weights([(1.0, w_b)], oracle_a)
    assert n_norm_upper(f_a, e, [w_a]).value > 0.0


@pytest.mark.parametrize("levels", [0, -1])
def test_weight_config_rejects_level_caps_below_one(levels):
    assert WeightConfig(l1c_levels=None).l1c_levels is None
    with pytest.raises(ValueError, match="l1c_levels"):
        WeightConfig(l1c_levels=levels)


def test_n_norm_upper_properties(fine_oracle):
    g = fine_oracle.space
    x = g.coords()[:, 0]
    cfg = WeightConfig(delta=0.5, l1c_levels=10)
    cands = [potential_weight(fine_oracle, SetMask(g, np.abs(x - c) <= 0.8), cfg)
             for c in (0.0, 1.5)]
    e = LorentzExponents(2.0, 2.0)
    zero = Field.of(g, np.zeros(g.size))
    assert n_norm_upper(zero, e, cands).value == 0.0
    f = Field.of(g, np.exp(-x ** 2))
    est = n_norm_upper(f, e, cands)
    assert est.mode == "upper-bound"
    # the estimate is a minimum: adding candidates never increases it
    more = cands + [potential_weight(
        fine_oracle, SetMask(g, np.abs(x + 2) <= 0.6), cfg)]
    est2 = n_norm_upper(f, e, more)
    assert est2.value <= est.value * (1 + 1e-15)
    # every individually admissible candidate dominates the minimum
    for w in cands:
        scale = max(w.l1c_estimate.hi, WEIGHT_FLOOR)
        normalized = w.values / scale
        from capflow.measure import lorentz_norm
        single = lorentz_norm(Field.of(g, f.values * normalized ** (-0.5)), e)
        assert est.value <= single * (1 + 1e-12)
    with pytest.raises(ValueError):
        n_norm_upper(f, e, [])
    with pytest.raises(ValueError):
        n_norm_upper(f, LorentzExponents(2.0, math.inf), cands)


def test_n_norm_refinement_never_worse():
    # convex re-averaging of the two best candidates is accepted only on
    # strict improvement, so refinement cannot raise the estimate
    sp = DiscreteMeasureSpace(np.ones(8))
    rng = np.random.default_rng(5)
    B = rng.random((8, 8))
    from capflow.capacity import finite_problem
    prob = finite_problem(sp, (B + B.T) / 2 + np.eye(8))
    oracle = CapacityOracle(prob, PARAMS)
    cfg = WeightConfig(delta=0.5)
    cands = [potential_weight(oracle, SetMask.from_indices(sp, idx), cfg)
             for idx in ([0, 1, 2], [4, 5], [2, 3, 6])]
    f = Field.of(sp, np.abs(rng.standard_normal(8)) + 0.1)
    e = LorentzExponents(2.0, 2.0)
    plain = n_norm_upper(f, e, cands)
    refined = n_norm_upper(f, e, cands, oracle=oracle)
    assert refined.value <= plain.value * (1 + 1e-12)


def test_n_norm_bound_for_supported_field(fine_oracle):
    # f supported in E against the potential weight of E: the weighted norm
    # is at most [cap(E) * scale / (1-band)^delta]^(1/q') times ||f||_{p,q}
    g = fine_oracle.space
    x = g.coords()[:, 0]
    E = SetMask(g, np.abs(x) <= 1.0)
    cfg = WeightConfig(delta=0.5, l1c_levels=10)
    wgt = potential_weight(fine_oracle, E, cfg)
    f = Field.of(g, np.where(E.bools, np.exp(-x ** 2), 0.0))
    e = LorentzExponents(2.0, 2.0)
    est = n_norm_upper(f, e, [wgt])
    from capflow.measure import lorentz_norm
    cap = fine_oracle.value(E)
    scale = wgt.l1c_estimate.hi
    band = 10 * fine_oracle.params.tol
    bound = (cap * scale / (1 - band) ** cfg.delta) ** (1 / e.q_conj) * \
        lorentz_norm(f, e)
    assert est.value <= bound * (1 + 1e-12)


def test_level_sum_examples():
    sp = DiscreteMeasureSpace(np.ones(4))
    oracle = CapacityOracle(identity_problem(sp), PARAMS)
    chi = Field.of(sp, [0.0, 1.0, 1.0, 0.0])
    rep = level_sum_check(chi, oracle)
    assert rep.ratio == pytest.approx(1.0, rel=1e-12)
    zero = level_sum_check(Field.of(sp, np.zeros(4)), oracle)
    assert zero.level_sum == 0.0 and zero.l1c_value == 0.0
    rng = np.random.default_rng(3)
    for _ in range(10):
        w = Field.of(sp, rng.lognormal(0, 1.5, 4))
        rep = level_sum_check(w, oracle)
        assert rep.ratio <= 4.0 * (1 + 1e-12)


def test_level_sum_divides_by_the_lower_end():
    # a thinned L1-capacity norm is a bracket: the ratio divides by its lower
    # end, and adds the bound on the dropped bands only when a cell drops
    sp = DiscreteMeasureSpace(np.ones(40))
    oracle = CapacityOracle(identity_problem(sp), PARAMS)
    w = Field.of(sp, np.random.default_rng(5).lognormal(0, 1.0, 40))
    est = l1c_norm(w, oracle, max_levels=4)
    assert est.lo < est.value
    rep = level_sum_check(w, oracle, l1c_levels=4)
    assert rep.truncated_bound == 0.0
    assert rep.ratio == rep.level_sum / est.lo
    tiny = Field.of(sp, np.where(np.arange(40) < 3, 1e-9, w.values))
    rep = level_sum_check(tiny, oracle)
    k_lo = math.floor(math.log2(tiny.values.max() * 2.0 ** -20))
    assert rep.truncated_bound == 2.0 ** k_lo * 3.0
    assert rep.ratio == pytest.approx(
        (rep.level_sum + rep.truncated_bound) / l1c_norm(tiny, oracle).lo,
        rel=1e-15)


def test_probe_constant_field(fine_oracle):
    # M 1 = 1 exactly on the line, so the constant's multiplier ratio is one
    g = fine_oracle.space
    ones = Field.of(g, np.ones(g.size))
    rep = maximal_boundedness_probe([ones], LorentzExponents(2.0, 2.0),
                                    fine_oracle)
    assert rep.m_ratios == [1.0] and rep.m_max == 1.0
    assert rep.n_ratios == [] and rep.n_max == 0.0
