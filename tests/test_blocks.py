"""Blocks, decompositions, trace class, pairing chains, and the exact
Lorentz dual."""
import functools
import importlib
import re

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from capflow import blocks as bl
from capflow import measure
from capflow import multiplier as mn
from capflow import suites
from capflow.blocks import (AtomicMeasure,
                            block_norm_upper_constructive,
                            block_norm_upper_greedy,
                            block_norms_upper_greedy,
                            lorentz_kothe_dual_norm, trace_norm,
                            transport_decomposition)
from capflow.capacity import (CapacityOracle, CapacityParams, NormEstimate,
                              SetMask, finite_problem, identity_problem)
from capflow.measure import (DiscreteMeasureSpace, Field, LorentzExponents,
                             _levels, lorentz_norm, lorentz_norms, pairing)
from capflow.multiplier import TestSetFamily, m_norm
from capflow.suites import (CapflowConfig, RunContext, _draw_pairs,
                            _random_finite_problem, _random_space,
                            check_kothe_oracle, check_pairing)
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
    tight = chi.values / (oracle.value(E) ** (1 / e.q_conj) * lorentz_norm(chi, e))
    bits = E.bools[None]

    def norms(rows, norm_type="B"):
        return bl._validate_blocks(np.reshape(rows, (-1, 6)), bits, e,
                                   norm_type, oracle)

    assert norms(tight)[0] == pytest.approx(1.0, abs=1e-12)
    assert norms(np.zeros(6)).tolist() == [0.0]
    with pytest.raises(ValueError, match="exceeds 1"):
        norms(2 * tight)
    off = np.zeros(6)
    off[0] = 1.0
    with pytest.raises(ValueError, match="support"):
        norms(off)
    # script variant uses the other conjugate exponent
    assert norms(tight, "scriptB")[0] == pytest.approx(
        oracle.value(E) ** (1 / e.p_conj - 1 / e.q_conj), rel=1e-12)


def _block_stack(rng, sp, oracle, e, count):
    """A (count, size) block matrix on a bool support matrix of random
    supports, some rows zero, each row with normalization at most 1 under
    both block types."""
    blocks, supports = np.zeros((count, sp.size)), np.zeros((count, sp.size), bool)
    for k in range(count):
        bools = rng.random(sp.size) < 0.5
        bools[rng.integers(sp.size)] = True
        vals = np.where(bools, rng.standard_normal(sp.size), 0.0)
        if k % 4 == 3:
            vals = np.zeros(sp.size)
        else:
            cap = oracle.value(SetMask(sp, bools))
            vals /= (max(cap ** (1 / e.q_conj), cap ** (1 / e.p_conj))
                     * lorentz_norm(Field.of(sp, vals), e) * rng.uniform(1, 3))
        blocks[k], supports[k] = vals, bools
    return blocks, supports


def test_stacked_normalizations_are_each_blocks_own_bits():
    rng = np.random.default_rng(20)
    for trial in range(6):
        m = int(rng.integers(3, 9))
        sp = DiscreteMeasureSpace(rng.random(m) + 0.3)
        B = rng.random((m, m))
        prob = (finite_problem(sp, (B + B.T) / 2 + np.eye(m)) if trial % 2
                else identity_problem(sp))
        oracle = CapacityOracle(prob, PARAMS)
        for e in (LorentzExponents(2.0, 2.0), LorentzExponents(3.0, 1.5)):
            blocks, supports = _block_stack(rng, sp, oracle, e, 9)
            for norm_type in ("B", "scriptB"):
                stack = bl._validate_blocks(blocks, supports, e, norm_type, oracle)
                power = bl._capacity_exponent(e, norm_type)
                for i, (row, bools) in enumerate(zip(blocks, supports)):
                    one = bl._validate_blocks(blocks[i:i + 1], supports[i:i + 1],
                                              e, norm_type, oracle)
                    assert stack[i] == one[0]
                    # the scalar formula: libm's pow of the capacity
                    want = (0.0 if not row.any() else
                            oracle.value(SetMask(sp, bools)) ** power
                            * lorentz_norm(Field.of(sp, row), e))
                    assert stack[i] == want
    empty = np.zeros((0, sp.size))
    assert bl._validate_blocks(empty, empty.astype(bool), e, "B", oracle).shape == (0,)


def test_one_bad_row_fails_the_stack(model):
    sp, oracle = model
    rng = np.random.default_rng(21)
    e = LorentzExponents(2.0, 2.0)
    blocks, supports = _block_stack(rng, sp, oracle, e, 8)
    live = np.flatnonzero(blocks.any(axis=1))
    big = blocks.copy()
    big[live[-1]] *= 4.0
    with pytest.raises(ValueError, match="exceeds 1"):
        bl._validate_blocks(big, supports, e, "B", oracle)
    spill = blocks.copy()
    spill[2, np.flatnonzero(~supports[2])[0]] = 1e-30
    with pytest.raises(ValueError, match="does not vanish"):
        bl._validate_blocks(spill, supports, e, "B", oracle)


def test_an_all_zero_stack_asks_the_oracle_nothing():
    rng = np.random.default_rng(22)
    sp = DiscreteMeasureSpace(rng.random(5) + 0.3)
    B = rng.random((5, 5))
    oracle = CapacityOracle(finite_problem(sp, (B + B.T) / 2 + np.eye(5)),
                            PARAMS)
    supports = np.array([SetMask.from_indices(sp, idx).bools
                         for idx in ([0], [1, 2], [0, 4])])
    zeros = np.zeros((3, 5))
    e = LorentzExponents(2.0, 2.0)
    assert bl._validate_blocks(zeros, supports, e, "B", oracle).tolist() == \
        [0.0, 0.0, 0.0]
    assert oracle.queries == 0 and oracle.cache_size == 0
    # one live block: one gather of that one row
    zeros[1] = np.where(supports[1], 0.1, 0.0)
    bl._validate_blocks(zeros, supports, e, "B", oracle)
    assert oracle.queries == 1 and oracle.batches == 1


def test_decomposition_records_its_residual_and_coefficient_sum(model):
    sp, _oracle = model
    e = LorentzExponents(2.0, 2.0)
    rng = np.random.default_rng(23)
    lams = rng.uniform(0.1, 1.0, 3) * [1.0, -1.0, 1.0]
    blocks = rng.standard_normal((3, 6))
    target = Field.of(sp, blocks.T @ lams + 1e-12)
    decomp = bl.BlockDecomposition(lams, blocks, np.ones((3, 6), bool),
                                   np.ones(3), e, "B", target)
    # term by term in order, not numpy's pairwise sums
    acc = np.zeros(6)
    for lam, row in zip(lams.tolist(), blocks):
        acc += lam * row
    assert decomp.reconstruction().values.tobytes() == acc.tobytes()
    assert decomp.residual == np.abs(target.values - acc).max()
    assert decomp.sum_lambda == sum(abs(lam) for lam in lams.tolist())
    with pytest.raises(ValueError, match="residual"):
        bl.BlockDecomposition(lams, blocks, np.ones((3, 6), bool), np.ones(3),
                              e, "B", Field.of(sp, target.values + 1e-6))
    family = decomp.support_family()
    assert family.sets(sp).tolist() == [[True] * 6]   # one distinct set


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
    assert np.all(decomp.lambdas >= 0.0)
    assert np.all(np.abs(decomp.normalization - 1.0) <= 1e-12)
    assert (decomp.exponents, decomp.norm_type) == (e, "B")
    assert decomp.residual <= 1e-9 * np.abs(f.values).max()
    zero = block_norm_upper_constructive(
        Field.of(sp, np.zeros(6)), e, w, oracle)
    assert zero.blocks.shape == (0, 6) and zero.sum_lambda == 0.0


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
    assert len(decomp.lambdas) == 1


# ---------------------------------------------------------------------------
# Greedy decomposition and solidity
# ---------------------------------------------------------------------------

def test_constructive_on_plane_annuli():
    # unit annuli around the origin partition the plane pieces
    from capflow.capacity import CapacityOracle, CapacityParams, grid_problem
    from capflow.grid import make_grid
    from capflow.weights import Weight, WeightConfig

    grid = make_grid(2, 8.0, 64)
    params = CapacityParams(alpha=1.0, s=2.0, tol=1e-6)
    oracle = CapacityOracle(grid_problem(grid, params), params)
    c = grid.coords()
    r = np.sqrt((c ** 2).sum(axis=1))
    omega = Weight(oracle, np.exp(-r), WeightConfig(l1c_levels=6))
    f_vals = np.where(r <= 1.6, 1.0, 0.0)
    f = Field.of(grid, f_vals)
    e = LorentzExponents(1.5, 2.5)
    decomp = block_norm_upper_constructive(f, e, omega, oracle)
    assert decomp.residual <= 1e-9
    assert len(decomp.lambdas) >= 2   # at least two annular bands
    assert np.all(np.abs(decomp.normalization - 1.0) <= 1e-12)
    for row in decomp.supports:
        assert SetMask(grid, row).diameter() <= 2 * 1.6 + 2 * grid.h


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
    assert moved.lambdas.tobytes() == decomp.lambdas.tobytes()
    assert moved.blocks.tobytes() == (decomp.blocks * (g.values / f.values)).tobytes()
    assert np.all(moved.normalization <= 1.0 + 1e-12)
    assert (moved.exponents, moved.norm_type) == (e, "B")
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
    solve = cap._solve_sets   # the one solver, behind every query path
    monkeypatch.setattr(cap, "_solve_sets",
                        lambda *a, **k: calls.append(a) or solve(*a, **k))
    f = Field.of(sp, rng.standard_normal(6))
    constructive = block_norm_upper_constructive(f, e, w, oracle)
    greedy = block_norm_upper_greedy(f, e, TestSetFamily.all_subsets(), oracle)
    assert constructive.lambdas.size and greedy.lambdas.size
    assert calls == []


def test_greedy_with_a_weight_returns_the_smaller_route(model):
    # with a weight, the constructive route replaces the greedy one only
    # when its coefficient sum is strictly smaller; a tie keeps the greedy
    sp, oracle = model
    e = LorentzExponents(2.0, 2.0)
    w = weight_of(oracle, sp, [0, 1, 2])
    f = Field.of(sp, np.random.default_rng(2).standard_normal(6))
    family = TestSetFamily.all_subsets()
    greedy = block_norm_upper_greedy(f, e, family, oracle)
    constructive = block_norm_upper_constructive(f, e, w, oracle)
    assert constructive.sum_lambda < 0.9 * greedy.sum_lambda
    assert _bits(block_norm_upper_greedy(f, e, family, oracle, w)) == _bits(constructive)
    E = SetMask.from_indices(sp, [1, 2, 3])
    tight = Field.of(sp, E.bools / (oracle.value(E) ** 0.5
                                    * lorentz_norm(Field.of(sp, E.bools), e)))
    single = TestSetFamily.explicit([E])
    greedy = block_norm_upper_greedy(tight, e, single, oracle)
    assert block_norm_upper_constructive(tight, e, w, oracle).sum_lambda == \
        greedy.sum_lambda
    assert _bits(block_norm_upper_greedy(tight, e, single, oracle, w)) == _bits(greedy)


def _bits(decomp):
    return (decomp.supports.tobytes(), decomp.lambdas.tolist(),
            decomp.sum_lambda, decomp.residual)


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
        assert np.all(np.abs(b.lambdas - one.lambdas) <= PARAMS.tol * one.lambdas)
    # the peels come before any solve: an uncovered field fails unsolved
    bad = CapacityOracle(problem, PARAMS)
    hole = TestSetFamily.explicit([SetMask.from_indices(problem.space, [0])])
    with pytest.raises(ValueError, match="cover"):
        block_norms_upper_greedy(gs, e, dicts[:-1] + [hole], bad)
    assert bad.queries == bad.batches == 0


def _terms_bits(decomp):
    """Every column of a decomposition, bit for bit."""
    return ([a.tobytes() for a in (decomp.lambdas, decomp.blocks,
                                   decomp.supports, decomp.normalization)],
            decomp.blocks.shape, decomp.exponents, decomp.norm_type,
            decomp.sum_lambda.hex(), decomp.residual.hex())


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(["identity", "finite"]), st.integers(2, 12),
       st.integers(0, 10), st.integers(0, 2**31 - 1),
       st.sampled_from([(LorentzExponents(2.0, 2.0), "B"),
                        (LorentzExponents(1.5, 3.0), "B"),
                        (LorentzExponents(2.0, 1.0), "scriptB")]))
def test_greedy_group_is_its_fields_term_for_term(kind, m, count, seed, blocks):
    e, norm_type = blocks
    rng = np.random.default_rng(seed)
    problem = (identity_problem(_random_space(rng, m, m + 1)) if kind == "identity"
               else _random_finite_problem(rng, m))
    _fs, gs, dicts = (draws[:count] for draws in
                      _draw_pairs(rng, problem.space, max(count, 1)))
    # an empty group, zero fields and tied values; a dictionary of all
    # subsets ties energies
    if count:
        gs[0] = Field.of(problem.space, np.zeros(m))
        gs[-1] = Field.of(problem.space, np.round(gs[-1].values))
        if m <= 8:
            dicts[count // 2] = TestSetFamily.all_subsets()
    oracle = CapacityOracle(problem, PARAMS)
    group = block_norms_upper_greedy(gs, e, dicts, oracle, norm_type)
    # on identity models the singles agree from a fresh memo; a finite
    # model's memo is primed by the group's one gather of its supports
    again = oracle if kind == "finite" else CapacityOracle(problem, PARAMS)
    solved = oracle.solved
    singles = [block_norm_upper_greedy(g, e, d, again, norm_type=norm_type)
               for g, d in zip(gs, dicts)]
    assert oracle.solved == solved
    assert [_terms_bits(d) for d in group] == [_terms_bits(d) for d in singles]
    assert len(group) == count and all(d.lambdas.size == 0 for d in group[:1])
    # an uncovered field raises as the first of the singles to fail does
    hole = TestSetFamily.explicit([SetMask.from_indices(problem.space, [0])])
    bad = (dicts[:-1] + [hole])[:count]
    if count > 1:
        bad[0] = hole
    for g, d in zip(gs, bad):
        try:
            block_norm_upper_greedy(g, e, d, again, norm_type=norm_type)
        except ValueError as err:
            with pytest.raises(ValueError, match=f"^{re.escape(str(err))}$"):
                block_norms_upper_greedy(gs, e, bad, again, norm_type)
            break
    else:
        block_norms_upper_greedy(gs, e, bad, again, norm_type)


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


def test_c09_group_calls_do_not_depend_on_its_pair_count(monkeypatch):
    # every group of C09's pairing loop is one stack: it makes as many
    # gathers and lorentz_norms calls for 3, 5 or 10 pairs; the weak route
    # adds one of each per level rank of its fields (weak form B)
    groups, tags = [], []   # per group [tag, pairs, gathers, lorentz_norms, ranks]

    def counted(fn, slot):
        def call(*args, **kwargs):
            if groups and groups[-1]:
                groups[-1][slot] += 1
            return fn(*args, **kwargs)
        return call

    def before(fn, hook):
        def call(*args, **kwargs):
            hook(*args)
            return fn(*args, **kwargs)
        return call

    def drawn(rng, space, count):
        fs, gs, dicts = _draw_pairs(rng, space, count)
        ranks = max(len(_levels(f)[0]) for f in fs)
        groups.append([tags[-1], count, 0, 0, ranks])
        return fs, gs, dicts

    monkeypatch.setattr(CapacityOracle, "gather", counted(CapacityOracle.gather, 2))
    for mod in (bl, mn, measure):
        monkeypatch.setattr(mod, "lorentz_norms", counted(measure.lorentz_norms, 3))
    monkeypatch.setattr(RunContext, "rng", before(
        RunContext.rng, lambda _ctx, tag: tags.append(tag)))
    # a group opens with its draws; the next oracle, a group's or the
    # n-route's, closes it
    monkeypatch.setattr(RunContext, "finite_oracle", before(
        RunContext.finite_oracle, lambda *_: groups.append(None)))
    monkeypatch.setattr(suites, "_draw_pairs", drawn)
    check_pairing(RunContext(CapflowConfig(scale_pairs=13)))
    routes = {}   # weak or not -> {(pairs, gathers, lorentz_norms calls)}
    for tag, n, gathers, norms, ranks in filter(None, groups):
        per_rank = ranks if tag == "c09-weak" else 0
        routes.setdefault(tag == "c09-weak", set()).add(
            (n, gathers - per_rank, norms - per_rank))
    assert {n for n, _g, _l in routes[False]} == {3, 5, 10}
    assert {n for n, _g, _l in routes[True]} == {5}
    for seen in routes.values():
        assert len({(g, l) for _n, g, l in seen}) == 1, seen


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
        denom = m_norm(f, e, decomp.support_family(), oracle).value * decomp.sum_lambda
        assert denom > 0.0
        ratios.append(pairing(f, decomp.reconstruction(), absolute=True) / denom)
    assert max(ratios) <= 1.0 + 1e-10


def test_decomposition_supports_and_reconstruction(model):
    sp, oracle = model
    rng = np.random.default_rng(3)
    g = Field.of(sp, rng.standard_normal(6))
    decomp = block_norm_upper_greedy(g, LorentzExponents(2.0, 2.0),
                                     TestSetFamily.all_subsets(), oracle)
    assert np.array_equal(decomp.support_family().sets(sp), decomp.supports)
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
    est, threshold = trace_norm(mu, TestSetFamily.all_subsets(), oracle)
    assert est.value == pytest.approx(3.0)
    assert est.witness.cardinality == 1 and est.witness.bools[0]
    assert est.mode == "exact" and threshold == pytest.approx(3.0)
    zero, zero_threshold = trace_norm(AtomicMeasure(sp, np.zeros(2)),
                                      TestSetFamily.all_subsets(), oracle)
    assert zero.value == zero_threshold == 0.0
    delta = AtomicMeasure(sp, np.array([0.0, 4.5]))
    assert trace_norm(delta, TestSetFamily.all_subsets(), oracle)[0].value == \
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
        sup_form, inf_form = trace_norm(mu, TestSetFamily.all_subsets(), oracle)
        assert inf_form == pytest.approx(
            sup_form.value, rel=1e-9, abs=10 * sup_form.max_gap + 1e-12)


def threshold_bisection(mu, oracle):
    """The threshold form as a vector bisection: 120 halvings, each testing
    every nonempty subset for a violated comparison |mu|(E) <= a cap(E)."""
    sets = TestSetFamily.all_subsets().sets(oracle.space)
    caps = oracle.gather(sets)[0]
    variations = sets.astype(float) @ mu.total_variation
    keep = caps > 0.0
    caps, variations = caps[keep], variations[keep]
    if variations.max(initial=0.0) <= 0.0:
        return 0.0
    lo, hi = 0.0, 2.0 * float(variations.max()) / float(caps.min())
    for _ in range(120):
        mid = 0.5 * (lo + hi)
        if np.all(variations <= mid * caps):
            hi = mid
        else:
            lo = mid
    return hi


@functools.lru_cache(maxsize=None)
def _threshold_oracle(kind, m, seed):
    """Identity (seed 0: unit weights, so ratios tie) or finite model of m
    atoms, one memoized oracle per draw."""
    rng = np.random.default_rng([m, seed])
    sp = DiscreteMeasureSpace(np.ones(m) if seed == 0 else rng.random(m) + 0.3)
    if kind == "identity":
        return CapacityOracle(identity_problem(sp), PARAMS)
    B = rng.random((m, m))
    return CapacityOracle(finite_problem(sp, (B + B.T) / 2 + np.eye(m)), PARAMS)


@settings(max_examples=120, deadline=None)
@given(st.sampled_from(["identity", "finite"]), st.integers(1, 12),
       st.integers(0, 2), st.data(), st.integers(-150, 150))
def test_threshold_form_replays_the_bisection_bit_for_bit(kind, m, seed, data,
                                                          exponent):
    oracle = _threshold_oracle(kind, m, seed)
    # a small pool of masses gives zero atoms and ties in the largest ratio
    pool = st.sampled_from([0.0, 1.0, -1.0, 2.0, 0.5, 3.0])
    masses = np.array(data.draw(st.lists(
        pool | st.floats(-10.0, 10.0, allow_nan=False, allow_infinity=False),
        min_size=m, max_size=m))) * 10.0 ** exponent
    mu = AtomicMeasure(oracle.space, masses)
    got = trace_norm(mu, TestSetFamily.all_subsets(), oracle)[1]
    assert got.hex() == threshold_bisection(mu, oracle).hex()


@pytest.mark.parametrize("weights, masses", [
    ([2.0, 3.0], [1e308, 1e308]),                    # a variation overflows
    ([1e-13, 1e-13], [1e-320, 3e-321]),              # products go subnormal
    ([1e-13, 3e-13, 2e-13], [1e-315, 3e-316, 0.0]),
    ([1e300, 1.0], [1e-300, 1e-300]),                # a ratio underflows
], ids=["overflow", "subnormal", "subnormal-zero-atom", "underflow"])
def test_threshold_form_outside_the_normal_range(weights, masses):
    # the ulp walk from max |mu|(E)/cap(E) would take up to 2^52 steps
    # here; the bisection over bit patterns keeps the reference's bits
    sp = DiscreteMeasureSpace(np.array(weights))
    oracle = CapacityOracle(identity_problem(sp), PARAMS)
    mu = AtomicMeasure(sp, np.array(masses))
    with np.errstate(over="ignore"):
        got = trace_norm(mu, TestSetFamily.all_subsets(), oracle)[1]
        assert got.hex() == threshold_bisection(mu, oracle).hex()


# ---------------------------------------------------------------------------
# Koethe duals: the exact Lorentz dual and a brute-force cross-check
# ---------------------------------------------------------------------------

def kothe_dual_norm_bruteforce(f, norm_rows, n_starts=256, n_steps=60,
                               seed=0x5EED):
    """Maximize int |f g| over the unit ball of the quasi-norm `norm_rows`
    (a map from a stack of rows to their norms), on at most 6 atoms.

    Multi-start projected local search over the atom values (homogeneity
    lets every candidate be normalized onto the unit sphere), refreshed
    with analytic candidates: powers of |f|, unit vectors and the
    indicators of its superlevel sets.  Only a lower bound of the dual
    norm, with the best witness recorded; it needs no order structure, so
    it also serves quasi-norms such as the all-subsets multiplier norm.
    """
    m = f.space.size
    if m > 6:
        raise ValueError("brute-force dual limited to 6 atoms")
    a, w = np.abs(f.values), f.space.weights
    if a.max(initial=0.0) == 0.0:
        return NormEstimate(0.0, "lower-bound", witness=np.zeros(m),
                            lo=0.0, hi=0.0)
    rng = np.random.default_rng(seed)

    def normalize(G):
        # at unit sup norm first, so that no norm is asked of a row whose
        # powers underflow
        top = G.max(axis=1)
        G = G / np.where(top > 0.0, top, 1.0)[:, None]
        norms = norm_rows(G)
        return G / np.where(norms > 0.0, norms, 1.0)[:, None]

    seeds = [np.abs(rng.standard_normal((n_starts, m))),
             np.array([a ** t for t in (0.5, 1.0, 2.0, 3.0)]), np.eye(m),
             (a >= _levels(f)[0][::-1, None]).astype(float)]
    G = normalize(np.concatenate(seeds))
    best_vals = G @ (a * w)
    step = 0.5
    for _ in range(n_steps):
        noise = rng.standard_normal(G.shape) * step
        cand = normalize(np.abs(G * (1.0 + noise) + step * 0.1 *
                                np.abs(rng.standard_normal(G.shape))))
        vals = cand @ (a * w)
        better = vals > best_vals
        G[better] = cand[better]
        best_vals[better] = vals[better]
        step *= 0.93
    i = int(np.argmax(best_vals))
    return NormEstimate(float(best_vals[i]), "lower-bound", witness=G[i],
                        lo=float(best_vals[i]), hi=np.inf)


def m_norm_batch(space, e, oracle):
    """Vectorized all-subsets multiplier norm over rows (small models): the
    norms of every row restricted to every set, in one stack; the unit ball
    `kothe_dual_norm_bruteforce` searches for the Koethe dual of M."""
    sets = TestSetFamily.all_subsets().sets(space)
    caps = oracle.gather(sets)[0]
    keep = caps > 0.0
    masks = sets[keep]
    roots = np.float_power(caps[keep], 1.0 / e.q)

    def norm_rows(G):
        restricted = np.where(masks[:, None, :], G, 0.0).reshape(-1, space.size)
        norms = lorentz_norms(restricted, space.weights, e).reshape(len(masks), -1)
        return np.max(norms / roots[:, None], axis=0, initial=0.0)

    return norm_rows


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


def _lorentz_rows(sp, e):
    return lambda G: lorentz_norms(G, sp.weights, e)


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 6).flatmap(lambda m: st.tuples(
           st.lists(st.floats(0.2, 1.2), min_size=m, max_size=m),
           st.lists(st.floats(-3.0, 3.0), min_size=m, max_size=m))),
       st.sampled_from([(2.0, 2.0), (3.0, 3.0), (2.5, 1.5)]))
# outside the normal floats: a subnormal max |f| and an overflowing norm
@example(case=([1.2, 1.2], [5e-324, 5e-324]), pq=(2.0, 2.0))
@example(case=([1.2, 1.2], [1.7e308, 1.7e308]), pq=(2.0, 2.0))
def test_exact_lorentz_dual_bounds_the_search_and_certifies(case, pq):
    weights, values = case
    sp = DiscreteMeasureSpace(np.array(weights))
    f = Field.of(sp, np.array(values))
    e = LorentzExponents(*pq)
    dual_e = LorentzExponents(e.p_conj, e.q_conj)
    scale, tiny = float(np.abs(f.values).max()), np.finfo(float).tiny
    if scale > 0.0:
        # by homogeneity the norm is scale times that of f / scale, bit for bit
        norm = scale * lorentz_kothe_dual_norm(Field.of(sp, f.values / scale),
                                               dual_e).hi
        if not (scale >= tiny and tiny <= norm < np.inf):
            with pytest.raises(ValueError, match="not a normal float"):
                lorentz_kothe_dual_norm(f, dual_e)
            return
    exact = lorentz_kothe_dual_norm(f, dual_e)
    assert exact.mode == "exact" and exact.value == exact.hi
    assert np.all(exact.witness >= 0.0)
    assert exact.hi - exact.lo <= 1e-12 * exact.hi
    search = kothe_dual_norm_bruteforce(f, _lorentz_rows(sp, dual_e),
                                        n_starts=64, n_steps=40)
    assert search.value <= exact.value * (1.0 + 1e-12)
    if e.p == e.q:   # Hoelder: L^{p'} is the Koethe dual of L^p
        # both sides are homogeneous; the reference is taken at unit sup
        # norm, since lorentz_norm's powers underflow on fields near 1e-280
        scale = np.abs(f.values).max()
        target = scale * lorentz_norm(Field.of(sp, f.values / scale), e) \
            if scale > 0.0 else 0.0
        assert abs(exact.value - target) <= 1e-13 * target


def _level_value_along(f, order, e):
    """sup of int |f| g over g decreasing along `order` with ||g||_e <= 1,
    by pooling adjacent atoms until the ratios c/v decrease."""
    w = f.space.weights[order]
    V = (e.p / e.q) * np.cumsum(w) ** (e.q / e.p)
    pools = []                                  # [C_I, V_I]
    for c, v in zip(np.abs(f.values[order]) * w, np.diff(V, prepend=0.0)):
        pools.append([c, v])
        while len(pools) > 1 and \
                pools[-2][0] * pools[-1][1] <= pools[-1][0] * pools[-2][1]:
            c2, v2 = pools.pop()
            pools[-1][0] += c2
            pools[-1][1] += v2
    qc = e.q_conj
    return sum(v * (c / v) ** qc for c, v in pools) ** (1.0 / qc)


def test_exact_lorentz_dual_takes_the_best_order_not_that_of_f():
    # |f| is 1.4 on the light atom 0, just below 1.5 on the heavy atom 1:
    # the order of |f| puts the heavy atom first, the best g the light one
    sp = DiscreteMeasureSpace(np.array([0.2, 1.2, 0.6]))
    f = Field.of(sp, np.array([1.4, 1.5, 0.2]))
    e = LorentzExponents(2.5, 1.5)
    dual_e = LorentzExponents(e.p_conj, e.q_conj)
    exact = lorentz_kothe_dual_norm(f, dual_e)
    by_f = _level_value_along(f, np.array([1, 0, 2]), dual_e)
    assert by_f == pytest.approx(2.1221286503904975, rel=1e-12)
    assert exact.value == pytest.approx(2.225456032655381, rel=1e-12)
    assert exact.value == pytest.approx(
        _level_value_along(f, np.array([0, 1, 2]), dual_e), rel=1e-14)
    assert exact.witness[0] > exact.witness[1] > exact.witness[2]
    search = kothe_dual_norm_bruteforce(f, _lorentz_rows(sp, dual_e))
    assert by_f * 1.04 < search.value <= exact.value


def test_kothe_zero_and_size_guard():
    sp = DiscreteMeasureSpace(np.ones(2))
    z = lorentz_kothe_dual_norm(Field.of(sp, np.zeros(2)),
                                LorentzExponents(2.0, 2.0))
    assert (z.value, z.lo, z.hi, z.mode) == (0.0, 0.0, 0.0, "exact")
    assert z.witness.tolist() == [0.0, 0.0]
    f = Field.of(sp, np.array([1.0, -2.0]))
    for q in (1.0, 0.5, np.inf):
        with pytest.raises(ValueError, match="1 < q < inf"):
            lorentz_kothe_dual_norm(f, LorentzExponents(2.0, q))
    big = DiscreteMeasureSpace(np.ones(7))
    with pytest.raises(ValueError, match="6 atoms"):
        lorentz_kothe_dual_norm(Field.of(big, np.ones(7)),
                                LorentzExponents(2.0, 2.0))
    with pytest.raises(ValueError, match="6 atoms"):
        kothe_dual_norm_bruteforce(Field.of(big, np.ones(7)),
                                   _lorentz_rows(big, LorentzExponents(2, 2)))


def test_c13_duals_are_exact_and_an_open_certificate_fails(monkeypatch):
    exact = bl.lorentz_kothe_dual_norm
    seen = []

    def recorded(f, e):
        seen.append(exact(f, e))
        return seen[-1]

    monkeypatch.setattr(bl, "lorentz_kothe_dual_norm", recorded)
    ctx = RunContext(CapflowConfig().quick())
    assert {v.status for v in check_kothe_oracle(ctx)} <= {"pass", "recorded"}
    assert len(seen) == 8 and all(
        d.mode == "exact" and d.hi - d.lo <= 1e-12 * d.hi for d in seen)

    def loose(f, e):
        d = exact(f, e)
        return NormEstimate(d.value, d.mode, d.witness, d.lo * (1 - 1e-9), d.hi)

    monkeypatch.setattr(bl, "lorentz_kothe_dual_norm", loose)
    rows = check_kothe_oracle(RunContext(CapflowConfig().quick()))
    assert rows[0].status == "fail" and "dual certificate gap" in rows[0].details


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


def test_batch_norms_match_scalar_path(model):
    sp, _ = model
    rng = np.random.default_rng(8)
    e = LorentzExponents(2.5, 1.5)
    G = rng.standard_normal((5, 6))
    got = lorentz_norms(G, sp.weights, e)
    for row, val in zip(G, got):
        assert val == lorentz_norm(Field.of(sp, row), e)
