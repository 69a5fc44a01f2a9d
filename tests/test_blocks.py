"""Blocks, decompositions, trace class, pairing chains, and the dual oracle."""
import importlib

import numpy as np
import pytest

from capflow import blocks as bl
from capflow.blocks import (AtomicMeasure,
                            block_norm_upper_constructive,
                            block_norm_upper_greedy,
                            block_norms_upper_greedy,
                            kothe_dual_norm_bruteforce,
                            m_norm_batch, trace_norm,
                            trace_norm_inf_form, transport_decomposition,
                            validate_block)
from capflow.capacity import (CapacityOracle, CapacityParams, SetMask,
                              finite_problem, identity_problem)
from capflow.measure import (DiscreteMeasureSpace, Field, LorentzExponents,
                             lorentz_norm, lorentz_norms, pairing)
from capflow.multiplier import TestSetFamily, m_norm
from capflow.suites import (CapflowConfig, RunContext, _draw_pairs,
                            _random_finite_problem, _random_space,
                            check_pairing)
from capflow.weights import WeightConfig, potential_weight

PARAMS = CapacityParams(alpha=1.0, s=2.0, tol=1e-6)


@pytest.fixture()
def model():
    sp = DiscreteMeasureSpace(np.ones(6))
    return sp, CapacityOracle(identity_problem(sp), PARAMS)


# ---------------------------------------------------------------------------
# Block validity
# ---------------------------------------------------------------------------

def test_validate_block_tight_zero_and_rejections(model):
    sp, oracle = model
    E = SetMask.from_indices(sp, [1, 2])
    e = LorentzExponents(2.0, 2.0)
    chi = Field.of(sp, E.bools.astype(float))
    tight_vals = chi.values / (oracle.value(E) ** (1 / e.q_conj)
                               * lorentz_norm(chi, e))
    blk = validate_block(Field.of(sp, tight_vals), E, e, "B", oracle)
    assert blk.normalization == pytest.approx(1.0, abs=1e-12)

    zero = validate_block(Field.of(sp, np.zeros(6)), E, e, "B", oracle)
    assert zero.normalization == 0.0

    with pytest.raises(ValueError, match="exceeds 1"):
        validate_block(Field.of(sp, 2 * tight_vals), E, e, "B", oracle)
    off = np.zeros(6)
    off[0] = 1.0
    with pytest.raises(ValueError, match="support"):
        validate_block(Field.of(sp, off), E, e, "B", oracle)
    # the capacity is read from the oracle, so its space must be the block's
    twin = DiscreteMeasureSpace(np.ones(6))
    other = CapacityOracle(identity_problem(twin), PARAMS)
    with pytest.raises(ValueError, match="different space"):
        validate_block(Field.of(sp, tight_vals), E, e, "B", other)

    # script variant uses the other conjugate exponent
    sblk = validate_block(Field.of(sp, tight_vals), E, e, "scriptB", oracle)
    assert sblk.normalization == pytest.approx(
        oracle.value(E) ** (1 / e.p_conj - 1 / e.q_conj), rel=1e-12)


# ---------------------------------------------------------------------------
# Constructive decomposition
# ---------------------------------------------------------------------------

def weight_of(oracle, sp, idx, delta=1.0):
    return potential_weight(oracle, SetMask.from_indices(sp, idx),
                            WeightConfig(delta=delta))


def test_constructive_reconstruction_and_tightness(model):
    sp, oracle = model
    rng = np.random.default_rng(0)
    w = weight_of(oracle, sp, [0, 1, 2])
    e = LorentzExponents(1.5, 2.5)
    f = Field.of(sp, rng.standard_normal(6))
    decomp = block_norm_upper_constructive(f, e, w, oracle)
    for lam, blk in decomp.terms:
        assert lam >= 0.0
        assert abs(blk.normalization - 1.0) <= 1e-12
    assert decomp.residual <= 1e-9 * np.abs(f.values).max()
    zero = block_norm_upper_constructive(
        Field.of(sp, np.zeros(6)), e, w, oracle)
    assert zero.terms == [] and zero.sum_lambda == 0.0


def test_single_tight_block_roundtrip(model):
    sp, oracle = model
    e = LorentzExponents(1.5, 2.5)
    E = SetMask.from_indices(sp, [2, 3])
    chi = Field.of(sp, E.bools.astype(float))
    w = weight_of(oracle, sp, [2, 3])
    tight = Field.of(sp, chi.values / (oracle.value(E) ** (1 / e.q_conj)
                                       * lorentz_norm(chi, e)))
    decomp = block_norm_upper_constructive(tight, e, w, oracle)
    assert decomp.sum_lambda == pytest.approx(1.0, rel=1e-12)
    assert len(decomp.terms) == 1


# ---------------------------------------------------------------------------
# Greedy decomposition and solidity
# ---------------------------------------------------------------------------

def test_constructive_on_plane_annuli():
    # unit annuli around the origin partition the plane pieces
    from capflow.capacity import CapacityOracle, CapacityParams, grid_problem
    from capflow.grid import make_grid
    from capflow.weights import WEIGHT_FLOOR, Weight
    from capflow.capacity import l1c_norm
    from capflow.weights import a1loc_constant

    grid = make_grid(2, 8.0, 64)
    params = CapacityParams(alpha=1.0, s=2.0, tol=1e-6)
    oracle = CapacityOracle(grid_problem(grid, params), params)
    c = grid.coords()
    r = np.sqrt((c ** 2).sum(axis=1))
    omega_vals = np.maximum(np.exp(-r), WEIGHT_FLOOR)
    wfield = Field.of(grid, omega_vals)
    omega = Weight(wfield, a1loc_constant(grid, wfield),
                   l1c_norm(wfield, oracle, max_levels=6))
    f_vals = np.where(r <= 1.6, 1.0, 0.0)
    f = Field.of(grid, f_vals)
    e = LorentzExponents(1.5, 2.5)
    decomp = block_norm_upper_constructive(f, e, omega, oracle)
    assert decomp.residual <= 1e-9
    assert len(decomp.terms) >= 2   # at least two annular bands
    for _lam, blk in decomp.terms:
        assert abs(blk.normalization - 1.0) <= 1e-12
        assert blk.support.diameter() <= 2 * 1.6 + 2 * grid.h


def test_greedy_tight_block_and_coverage_error(model):
    sp, oracle = model
    e = LorentzExponents(2.0, 2.0)
    E = SetMask.from_indices(sp, [1, 2, 3])
    chi = Field.of(sp, E.bools.astype(float))
    tight = Field.of(sp, chi.values / (oracle.value(E) ** 0.5
                                       * lorentz_norm(chi, e)))
    fam = TestSetFamily.explicit([E, SetMask.full(sp)])
    decomp = block_norm_upper_greedy(tight, e, fam, oracle)
    assert decomp.sum_lambda <= 1.0 + 1e-9

    bad_fam = TestSetFamily.explicit([SetMask.from_indices(sp, [0])])
    with pytest.raises(ValueError, match="cover"):
        block_norm_upper_greedy(tight, e, bad_fam, oracle)


def test_solidity_transport(model):
    sp, oracle = model
    rng = np.random.default_rng(1)
    e = LorentzExponents(2.0, 2.0)
    f = Field.of(sp, rng.standard_normal(6) + 2.0)
    decomp = block_norm_upper_greedy(f, e, TestSetFamily.all_subsets(), oracle)
    g = Field.of(sp, f.values * rng.uniform(0, 1, 6))
    moved = transport_decomposition(decomp, g, oracle)
    assert moved.sum_lambda == decomp.sum_lambda
    assert moved.residual <= 1e-9 * np.abs(g.values).max()
    for (_l, blk) in moved.terms:
        assert blk.normalization <= 1.0 + 1e-12
    with pytest.raises(ValueError):
        transport_decomposition(decomp, Field.of(sp, f.values * 3.0), oracle)


def test_decompositions_on_identity_oracles_solve_nothing(model, monkeypatch):
    # identity capacities are closed forms: neither the coefficients nor the
    # validation of a block may reach the solver
    # the package's `capacity` is the function, so fetch the module by name
    cap = importlib.import_module("capflow.capacity")
    sp, oracle = model
    rng = np.random.default_rng(3)
    e = LorentzExponents(1.5, 2.5)
    w = weight_of(oracle, sp, [0, 1, 2])
    calls = []
    solve = cap.capacity_batch
    monkeypatch.setattr(cap, "capacity_batch",
                        lambda *a, **k: calls.append(a) or solve(*a, **k))
    f = Field.of(sp, rng.standard_normal(6))
    constructive = block_norm_upper_constructive(f, e, w, oracle)
    greedy = block_norm_upper_greedy(f, e, TestSetFamily.all_subsets(), oracle)
    assert constructive.terms and greedy.terms
    assert calls == []


def _bits(decomp):
    return ([blk.support.key for _lam, blk in decomp.terms],
            [lam for lam, _blk in decomp.terms], decomp.sum_lambda, decomp.residual)


@pytest.mark.parametrize("kind", ["identity", "finite"])
def test_greedy_batch_is_the_singles(kind):
    rng = np.random.default_rng(7)
    problem = (identity_problem(_random_space(rng, 4, 17)) if kind == "identity"
               else _random_finite_problem(rng, 12))
    _fs, gs, dicts = _draw_pairs(rng, problem.space, 10)
    e = LorentzExponents(2.0, 2.0)
    oracle = CapacityOracle(problem, PARAMS)
    batch = block_norms_upper_greedy(gs, e, dicts, oracle)
    assert oracle.batches == (kind == "finite")   # every support in one batch
    # on the batch's oracle the singles solve nothing and repeat its bits
    again = [block_norm_upper_greedy(g, e, d, oracle) for g, d in zip(gs, dicts)]
    assert oracle.batches == (kind == "finite")
    fresh = CapacityOracle(problem, PARAMS)
    singles = [block_norm_upper_greedy(g, e, d, fresh) for g, d in zip(gs, dicts)]
    for b, a, one in zip(batch, again, singles):
        assert _bits(a) == _bits(b)
        if kind == "identity":
            assert _bits(one) == _bits(b)
            continue
        # a finite-model apply of one row takes another BLAS path than a
        # batch, so a fresh solve of a support lands elsewhere in its
        # certified bracket: same supports, coefficients within the gap
        assert _bits(one)[0] == _bits(b)[0]
        for (lam, _), (lam1, _) in zip(b.terms, one.terms):
            assert abs(lam - lam1) <= PARAMS.tol * lam1
    # the peels come before any solve: an uncovered field fails unsolved
    bad = CapacityOracle(problem, PARAMS)
    hole = TestSetFamily.explicit([SetMask.from_indices(problem.space, [0])])
    with pytest.raises(ValueError, match="cover"):
        block_norms_upper_greedy(gs, e, dicts[:-1] + [hole], bad)
    assert bad.queries == bad.batches == 0


def test_c09_finite_groups_make_one_solve_batch_each(monkeypatch):
    # default scale: 9 finite-model groups of 10 pairs across the corpora,
    # each decomposed by one batch call and estimated from the memo
    seen = []
    batch = bl.block_norms_upper_greedy

    def counted(fields, e, dictionaries, oracle, norm_type="B"):
        seen.append((oracle, len(fields)))
        return batch(fields, e, dictionaries, oracle, norm_type)

    monkeypatch.setattr(bl, "block_norms_upper_greedy", counted)
    check_pairing(RunContext(CapflowConfig()))
    finite = [(o, n) for o, n in seen if not o.problem.is_identity]
    assert len(finite) == 9 and all(n == 10 for _o, n in finite)
    assert all(o.batches == 1 and o.solved == o.cache_size for o, _n in finite)


# ---------------------------------------------------------------------------
# Pairing chain at p = q = 2
# ---------------------------------------------------------------------------

def test_pairing_ratio_below_one(model):
    sp, oracle = model
    rng = np.random.default_rng(2)
    e = LorentzExponents(2.0, 2.0)
    pairs = []
    for _ in range(10):
        f = Field.of(sp, rng.standard_normal(6))
        g = Field.of(sp, rng.standard_normal(6))
        decomp = block_norm_upper_greedy(g, e, TestSetFamily.all_subsets(),
                                         oracle)
        pairs.append((f, decomp))
    ratios = []
    for f, decomp in pairs:
        denom = m_norm(f, e, decomp.supports(), oracle).value * decomp.sum_lambda
        assert denom > 0.0
        ratios.append(pairing(f, decomp.reconstruction(), absolute=True) / denom)
    assert max(ratios) <= 1.0 + 1e-10


def test_decomposition_supports_and_reconstruction(model):
    sp, oracle = model
    rng = np.random.default_rng(3)
    g = Field.of(sp, rng.standard_normal(6))
    decomp = block_norm_upper_greedy(g, LorentzExponents(2.0, 2.0),
                                     TestSetFamily.all_subsets(), oracle)
    rows = decomp.supports().sets(sp)
    assert np.array_equal(rows, [blk.support.bools for _lam, blk in decomp.terms])
    back = decomp.reconstruction()
    assert back.space is sp
    assert np.max(np.abs(back.values - g.values)) == decomp.residual


# ---------------------------------------------------------------------------
# Trace class
# ---------------------------------------------------------------------------

def test_trace_norm_examples():
    sp = DiscreteMeasureSpace(np.ones(2))
    oracle = CapacityOracle(identity_problem(sp), PARAMS)
    mu = AtomicMeasure(sp, np.array([3.0, -1.0]))
    est = trace_norm(mu, TestSetFamily.all_subsets(), oracle)
    assert est.value == pytest.approx(3.0)
    assert est.witness.cardinality == 1 and est.witness.bools[0]
    assert est.mode == "exact"
    assert trace_norm(AtomicMeasure(sp, np.zeros(2)),
                      TestSetFamily.all_subsets(), oracle).value == 0.0
    delta = AtomicMeasure(sp, np.array([0.0, 4.5]))
    assert trace_norm(delta, TestSetFamily.all_subsets(), oracle).value == \
        pytest.approx(4.5)


def test_trace_threshold_equality():
    rng = np.random.default_rng(4)
    for trial in range(20):
        m = int(rng.integers(2, 11))
        if trial % 4 == 0:
            B = rng.random((m, m))
            sp = DiscreteMeasureSpace(rng.random(m) + 0.3)
            prob = finite_problem(sp, (B + B.T) / 2 + np.eye(m))
        else:
            sp = DiscreteMeasureSpace(rng.random(m) + 0.3)
            prob = identity_problem(sp)
        oracle = CapacityOracle(prob, PARAMS)
        mu = AtomicMeasure(sp, rng.standard_normal(m) * 2.0)
        sup_form = trace_norm(mu, TestSetFamily.all_subsets(), oracle)
        inf_form = trace_norm_inf_form(mu, oracle)
        assert inf_form == pytest.approx(
            sup_form.value, rel=1e-9, abs=10 * sup_form.max_gap + 1e-12)


# ---------------------------------------------------------------------------
# Brute-force integral dual
# ---------------------------------------------------------------------------

def test_kothe_holder_sharpness():
    rng = np.random.default_rng(6)
    for m in (2, 4, 6):
        sp = DiscreteMeasureSpace(rng.random(m) + 0.3)
        f = Field.of(sp, rng.standard_normal(m))
        for p in (2.0, 3.0):
            e = LorentzExponents(p, p)
            dual = kothe_dual_norm_bruteforce(
                f, lambda G: lorentz_norms(
                    G, sp.weights, LorentzExponents(e.p_conj, e.p_conj)))
            assert dual.value == pytest.approx(lorentz_norm(f, e), rel=1e-6)
            assert dual.mode == "lower-bound"


def test_kothe_zero_and_size_guard():
    sp = DiscreteMeasureSpace(np.ones(2))
    z = kothe_dual_norm_bruteforce(
        Field.of(sp, np.zeros(2)),
        lambda G: lorentz_norms(G, sp.weights, LorentzExponents(2, 2)))
    assert z.value == 0.0
    big = DiscreteMeasureSpace(np.ones(7))
    with pytest.raises(ValueError):
        kothe_dual_norm_bruteforce(
            Field.of(big, np.ones(7)),
            lambda G: lorentz_norms(G, big.weights, LorentzExponents(2, 2)))


def test_kothe_against_multiplier_ball(model):
    sp, oracle = model
    rng = np.random.default_rng(7)
    f = Field.of(sp, rng.standard_normal(6))
    e = LorentzExponents(2.0, 2.0)
    batch = m_norm_batch(sp, e, oracle)
    dual = kothe_dual_norm_bruteforce(f, batch, n_starts=64, n_steps=40)
    # the witness respects the unit ball, so the value certifies a pairing
    witness = Field.of(sp, dual.witness)
    assert m_norm(witness, e, TestSetFamily.all_subsets(), oracle).value \
        <= 1.0 + 1e-9
    assert pairing(Field.of(sp, np.abs(f.values)), witness) == \
        pytest.approx(dual.value, rel=1e-12)


def test_m_norm_batch_rows_equal_m_norm_bit_for_bit():
    # both paths take the capacity roots through libm's pow; numpy's vector
    # ** in either one shows as a last-bit mismatch
    rng = np.random.default_rng(11)
    for trial in range(6):
        m = int(rng.integers(3, 7))
        sp = DiscreteMeasureSpace(rng.random(m) + 0.3)
        B = rng.random((m, m))
        prob = (finite_problem(sp, (B + B.T) / 2 + np.eye(m)) if trial % 2
                else identity_problem(sp))
        oracle = CapacityOracle(prob, PARAMS)
        for e in (LorentzExponents(2.0, 2.0), LorentzExponents(3.0, 1.5),
                  LorentzExponents(1.5, 2.5)):
            G = rng.standard_normal((40, m))
            want = [m_norm(Field.of(sp, row), e, TestSetFamily.all_subsets(),
                           oracle).value for row in G]
            assert m_norm_batch(sp, e, oracle)(G).tolist() == want


def test_batch_norms_match_scalar_path(model):
    sp, _ = model
    rng = np.random.default_rng(8)
    e = LorentzExponents(2.5, 1.5)
    G = rng.standard_normal((5, 6))
    got = lorentz_norms(G, sp.weights, e)
    for row, val in zip(G, got):
        assert val == lorentz_norm(Field.of(sp, row), e)
