"""Capacity solver certificates, analytic instances, and capacitary integrals."""
import math
import os
import subprocess
import sys
import tracemalloc
import warnings
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from capflow.blocks import (AtomicMeasure, block_norm_upper_constructive,
                            block_norm_upper_greedy, block_norms_upper_greedy,
                            trace_norm, transport_decomposition)
from capflow.capacity import (CapacityOracle, CapacityParams,
                              CapacityProblem, SetMask,
                              _capacitary_layer_cake, _diameter, _measures,
                              _grow_inverse_factor, _mul, _polish, _solve,
                              audit_certificate,
                              capacitary_lorentz_norm,
                              capacity, capacity_batch,
                              equilibrium_checks, finite_problem,
                              grid_problem, identity_problem, l1c_norm,
                              lebesgue_lower_bound_check, nonlinear_potential,
                              strichartz_check, unit_cover)
from capflow.grid import make_grid
from capflow.measure import DiscreteMeasureSpace, Field, LorentzExponents
from capflow.multiplier import TestSetFamily
from capflow.weights import (Weight, WeightConfig, a1loc_constant,
                             level_sum_check)

PARAMS = CapacityParams(alpha=1.0, s=2.0, tol=1e-6)


def uspace(m):
    return DiscreteMeasureSpace(np.ones(m))


def test_params_guards():
    with pytest.raises(ValueError):
        CapacityParams(alpha=1.0, s=1.0)
    with pytest.raises(ValueError):
        CapacityParams(alpha=0.0, s=2.0)
    with pytest.raises(ValueError, match="max_iter"):
        CapacityParams(alpha=1.0, s=2.0, max_iter=0)
    # the primal rescaling by 1/(1 - 1e-9) keeps every relative gap above
    # 1 - (1 - 1e-9)^s, so a tolerance at or below it is unreachable
    for s, tol in ((2.0, 1.0 - (1.0 - 1e-9) ** 2), (2.0, 1e-9), (3.0, 2.9e-9),
                   (1.5, 1e-12)):
        with pytest.raises(ValueError, match="gap floor"):
            CapacityParams(alpha=1.0, s=s, tol=tol)
    assert CapacityParams(alpha=1.0, s=3.0, tol=1e-8).tol == 1e-8
    p = CapacityParams(alpha=0.5, s=2.0)
    assert p.s_conj == 2.0
    p.validate_for_dimension(1)
    with pytest.raises(ValueError):
        CapacityParams(alpha=1.0, s=3.0).validate_for_dimension(2)


def test_mask_basics():
    sp = uspace(4)
    m = SetMask.from_indices(sp, [1, 3])
    assert m.cardinality == 2 and m.measure == 2.0 and not m.is_empty
    assert m.issubset(SetMask.full(sp))
    assert m.union(SetMask.from_indices(sp, [0])).cardinality == 3
    assert SetMask.empty(sp).is_empty


def test_mask_indices_are_integers_in_range():
    sp = uspace(4)
    assert SetMask.from_indices(sp, []).is_empty
    assert SetMask.from_indices(sp, np.array([3, 0], dtype=np.uint8)).bools.tolist() \
        == [True, False, False, True]
    # -1 would mark the last atom and 1.7 atom 1
    for bad in ([-1], [4], [1.7], [2.0], [True]):
        with pytest.raises(ValueError, match=r"integers in \[0, 4\)"):
            SetMask.from_indices(sp, bad)


def test_identity_kernel_is_counting():
    sp = DiscreteMeasureSpace([0.5, 1.5, 2.0])
    prob = identity_problem(sp)
    res = capacity(prob, SetMask.from_indices(sp, [0, 2]), PARAMS)
    assert res.value == 2.5 and res.gap == 0.0 and res.converged
    assert np.array_equal(res.optimizer, [1.0, 0.0, 1.0])


def test_finite_problem_detects_identity():
    sp = DiscreteMeasureSpace([0.5, 2.0])
    prob = finite_problem(sp, np.diag(1.0 / sp.weights))
    assert prob.is_identity


def test_finite_problem_guards():
    sp = uspace(2)
    with pytest.raises(ValueError):
        finite_problem(sp, [[1.0, 0.2], [0.3, 1.0]])   # asymmetric
    with pytest.raises(ValueError):
        finite_problem(sp, [[1.0, -0.1], [-0.1, 1.0]])  # negative entry
    with pytest.raises(ValueError):
        finite_problem(sp, np.ones((3, 3)))             # wrong shape


def test_all_ones_kernel_uniform_optimum():
    for m, s in ((4, 2.0), (4, 3.0), (6, 1.5)):
        sp = uspace(m)
        prob = finite_problem(sp, np.ones((m, m)))
        res = capacity(prob, SetMask.from_indices(sp, [0]),
                       CapacityParams(1.0, s, tol=1e-8))
        assert res.value == pytest.approx(m ** (1.0 - s), rel=1e-7)


def brute_force_two_by_two(s=2.0, n_grid=40001):
    """Independent oracle: sweep f1, take the least feasible f2."""
    best = (math.inf, None)
    for f1 in np.linspace(0.0, 1.5, n_grid):
        # constraints f1 + f2/2 >= 1 and f1/2 + f2 >= 1
        f2 = max(2 * (1 - f1), 1 - f1 / 2, 0.0)
        val = f1 ** s + f2 ** s
        if val < best[0]:
            best = (val, (f1, f2))
    return best


def test_two_by_two_instance_against_bruteforce():
    val, opt = brute_force_two_by_two()
    assert val == pytest.approx(8.0 / 9.0, abs=1e-5)
    sp = uspace(2)
    prob = finite_problem(sp, [[1.0, 0.5], [0.5, 1.0]])
    res = capacity(prob, SetMask.full(sp), CapacityParams(1.0, 2.0, tol=1e-8))
    assert res.value == pytest.approx(8.0 / 9.0, rel=1e-7)
    assert np.abs(res.optimizer - 2.0 / 3.0).max() < 1e-4
    # KKT: the potential meets the constraint exactly on the active set
    assert np.abs(prob.apply(res.optimizer) - 1.0).max() < 1e-6


def test_empty_set_and_infeasibility():
    sp = uspace(3)
    prob = finite_problem(sp, np.ones((3, 3)))
    assert capacity(prob, SetMask.empty(sp), PARAMS).value == 0.0
    # a decoupled zero block makes constraints on atom 2 unreachable
    M = np.zeros((3, 3))
    M[:2, :2] = 1.0
    prob0 = finite_problem(sp, M)
    res = capacity(prob0, SetMask.from_indices(sp, [2]), PARAMS)
    assert res.infeasible and not res.converged


def test_certificates_on_random_models():
    rng = np.random.default_rng(5)
    for s in (1.5, 2.0, 3.0):
        for _ in range(6):
            m = int(rng.integers(4, 33))
            B = rng.random((m, m))
            sp = DiscreteMeasureSpace(rng.random(m) + 0.25)
            prob = finite_problem(sp, (B + B.T) / 2 + np.diag(rng.random(m) + 0.5))
            mask = SetMask(sp, rng.random(m) < 0.4)
            if mask.is_empty:
                mask = SetMask.from_indices(sp, [0])
            res = capacity(prob, mask, CapacityParams(1.0, s, tol=1e-6))
            assert res.converged and res.gap <= 1e-6
            assert res.lower <= res.value <= res.upper * (1 + 1e-15)
            # independently recompute both certificate sides
            f = res.optimizer
            up = float((sp.weights * f ** s).sum())
            assert up == pytest.approx(res.upper, rel=1e-12)
            assert np.all(prob.apply(f)[mask.bools] >= 1.0 - 1e-9)
            mu = res.dual_measure
            a = prob.potential_of_measure(mu)
            sp_ = s / (s - 1.0)
            # scale-invariant weak-duality bound from the reported measure
            lower = (mu.sum() / float((sp.weights * a ** sp_).sum())
                     ** (1 / sp_)) ** s
            assert lower <= res.value * (1 + 1e-9)
            assert np.all(mu[~mask.bools] == 0.0)


def test_equilibrium_identities_and_potential():
    sp = uspace(4)
    prob = finite_problem(sp, np.ones((4, 4)))
    res = capacity(prob, SetMask.full(sp), CapacityParams(1.0, 2.0, tol=1e-6))
    resid = equilibrium_checks(prob, res)
    assert max(resid.values()) <= 5e-5
    pot = nonlinear_potential(prob, res.params, res.dual_measure)
    assert pot.values.min() >= 1.0 - 1e-5

    # identity kernel: a point mass pushes through both stages unchanged
    spi = uspace(3)
    probi = identity_problem(spi)
    mass = np.array([0.0, 1.0, 0.0])
    pot = nonlinear_potential(probi, PARAMS, mass)
    assert np.array_equal(pot.values, mass)
    assert np.array_equal(
        nonlinear_potential(probi, PARAMS, np.zeros(3)).values, np.zeros(3))


@settings(max_examples=40, deadline=None)
@given(st.lists(st.floats(min_value=0.05, max_value=5.0), min_size=2, max_size=8),
       st.integers(min_value=0, max_value=255),
       st.integers(min_value=0, max_value=255))
def test_counting_capacity_is_modular(weights, bits_a, bits_b):
    # the identity-kernel capacity is the measure, hence exactly modular
    sp = DiscreteMeasureSpace(weights)
    prob = identity_problem(sp)
    m = sp.size
    a = SetMask(sp, np.array([(bits_a >> i) & 1 for i in range(m)], dtype=bool))
    b = SetMask(sp, np.array([(bits_b >> i) & 1 for i in range(m)], dtype=bool))
    val = lambda mask: capacity(prob, mask, PARAMS).value
    union_plus_meet = val(a.union(b)) + val(SetMask(sp, a.bools & b.bools))
    assert union_plus_meet == pytest.approx(val(a) + val(b), rel=1e-15, abs=1e-15)
    assert val(a) <= val(a.union(b)) + 1e-15


def test_weak_duality_for_arbitrary_measures():
    # ANY nonnegative measure on E yields a valid lower bound: for feasible f,
    # mu(E) <= int (Kf) dmu = int f (K mu) <= ||f||_s ||K mu||_{s'}
    rng = np.random.default_rng(17)
    for _ in range(20):
        m = int(rng.integers(3, 17))
        B = rng.random((m, m))
        sp = DiscreteMeasureSpace(rng.random(m) + 0.25)
        prob = finite_problem(sp, (B + B.T) / 2 + np.diag(rng.random(m) + 0.5))
        mask = SetMask(sp, rng.random(m) < 0.5)
        if mask.is_empty:
            mask = SetMask.from_indices(sp, [0])
        s = float(rng.choice([1.5, 2.0, 3.0]))
        res = capacity(prob, mask, CapacityParams(1.0, s, tol=1e-8))
        sp_ = s / (s - 1.0)
        for _ in range(10):
            mu = np.where(mask.bools, rng.random(m), 0.0)
            a = prob.potential_of_measure(mu)
            norm_a = float((sp.weights * a ** sp_).sum()) ** (1.0 / sp_)
            lower = (mu.sum() / norm_a) ** s
            assert lower <= res.upper * (1 + 1e-9)


def test_against_external_constrained_solver():
    # fully independent route: SLSQP on the primal program
    from scipy.optimize import minimize
    rng = np.random.default_rng(21)
    for _ in range(5):
        m = int(rng.integers(3, 9))
        B = rng.random((m, m))
        M = (B + B.T) / 2 + np.diag(rng.random(m) + 0.5)
        w = rng.random(m) + 0.25
        sp = DiscreteMeasureSpace(w)
        prob = finite_problem(sp, M)
        mask = SetMask(sp, rng.random(m) < 0.5)
        if mask.is_empty:
            mask = SetMask.from_indices(sp, [0])
        s = float(rng.choice([1.5, 2.0, 3.0]))
        res = capacity(prob, mask, CapacityParams(1.0, s, tol=1e-8))
        # the polished dual closes the gap: no tolerance stall at 1e-8
        assert res.converged and res.iterations <= 50
        Mw = M * w[None, :]
        rows = Mw[mask.bools]
        ext = minimize(
            lambda f: float((w * np.abs(f) ** s).sum()),
            x0=np.full(m, 0.5),
            jac=lambda f: s * w * np.abs(f) ** (s - 1) * np.sign(f),
            bounds=[(0.0, None)] * m,
            constraints=[{"type": "ineq",
                          "fun": lambda f: rows @ f - 1.0,
                          "jac": lambda f: rows}],
            method="SLSQP", options={"maxiter": 400, "ftol": 1e-12})
        assert ext.success
        assert res.value == pytest.approx(ext.fun, rel=1e-5)


def test_plane_capacity_and_cover():
    grid = make_grid(2, 12.0, 128)
    params = CapacityParams(alpha=1.0, s=2.0, tol=1e-6)
    oracle = CapacityOracle(grid_problem(grid, params), params)
    c = grid.coords()
    disc = SetMask(grid, np.sqrt((c ** 2).sum(axis=1)) <= 0.8)
    res = oracle.result(disc)
    assert res.converged and res.gap <= 1e-6
    # a disc of diameter 1.6 cannot sit inside one unit-diameter tile
    rep = strichartz_check(oracle, disc)
    assert rep.pieces >= 2 and rep.subadditive_ok


def test_budget_exhaustion_keeps_certificates():
    # the unit square on the plane at s = 1.5: too many cells for the
    # polish to form their potentials, so only the loop can certify
    grid = make_grid(2, 12.0, 128)
    params = CapacityParams(alpha=1.0, s=1.5, tol=1e-8, max_iter=3)
    prob = grid_problem(grid, params)
    mask = SetMask(grid, np.all(np.abs(grid.coords()) <= 0.5, axis=1))
    starved = capacity(prob, mask, params)
    assert not starved.converged and not starved.infeasible
    assert starved.iterations == 3 and starved.gap > params.tol
    assert 0.0 < starved.lower <= starved.value <= starved.upper * (1 + 1e-15)
    with pytest.raises(ValueError):
        equilibrium_checks(prob, starved)


def _twin_model():
    """A 6-atom model whose atoms 1 and 4 are identical (equal rows and
    columns of M, equal weights): the Gram block of a set holding both is
    singular."""
    rng = np.random.default_rng(8)
    B = rng.random((6, 6))
    M = (B + B.T) / 2 + np.eye(6)
    M[4], M[:, 4] = M[1], M[:, 1]
    M[4, 4] = M[1, 4] = M[4, 1] = M[1, 1]
    w = rng.random(6) + 0.25
    w[4] = w[1]
    return finite_problem(DiscreteMeasureSpace(w), M)


def test_singular_polish_blocks_certify_quietly():
    # the Gram block of a set holding both twins is singular: it is solved
    # with a ridge, raises nothing, and its row and the regular row batched
    # with it certify at iteration 0 with finite bounds
    prob = _twin_model()
    sp = prob.space
    masks = [SetMask.from_indices(sp, [0, 1, 4]),     # holds both twins
             SetMask.from_indices(sp, [0, 2, 3])]     # a regular block
    for s in (2.0, 3.0):
        params = CapacityParams(1.0, s, tol=1e-8)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            twins, regular = capacity_batch(prob, masks, params)
            alone = capacity(prob, masks[0], params)
        for res in (twins, regular, alone):
            assert res.converged and res.gap <= params.tol
            assert res.iterations == 0
            assert np.isfinite([res.lower, res.upper]).all()
            audit_certificate(prob, res)
        # the twins share the dual mass
        assert twins.dual_measure[1] == pytest.approx(twins.dual_measure[4],
                                                      rel=1e-6)


def test_solve_near_s_one_warns_nothing_and_certifies():
    # s' = 10001: candidates whose power overflows are backtracked, so the
    # overflow is expected and must not reach the caller as a warning
    grid = make_grid(1, 16.0, 256)
    params = CapacityParams(alpha=0.5, s=1.0001, tol=1e-6)
    prob = grid_problem(grid, params)
    mask = SetMask(grid, np.abs(grid.coords()[:, 0]) <= 1.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        res = capacity(prob, mask, params)
        assert res.converged and res.gap <= params.tol
        audit_certificate(prob, res)


def _counted(problem):
    """The same kernel problem with every kernel apply counted."""
    calls = [0]

    def apply_fn(values):
        calls[0] += 1
        return problem.apply(values)

    return CapacityProblem(problem.space, apply_fn, kernel=problem.kernel), calls


def _scalar_reference(problem, mask, params, on_momentum=None):
    """The one-set solver loop `capacity_batch` vectorizes, kept as the
    reference: the same arithmetic on 1-D arrays and Python floats, with
    the same polished dual as a second candidate at each certificate.
    `on_momentum(y, ay, applied)` sees every momentum point."""
    w = problem.space.weights
    E = mask.bools
    s, sp = params.s, params.s_conj
    best_lower, best_upper = 0.0, math.inf

    def neg_dual(mu, a):
        return (s - 1.0) * s ** (-sp) * float(
            (w * np.maximum(a, 0.0) ** sp).sum()) - float(mu.sum())

    def ray_rescale(mu, a):
        total = float(mu.sum())
        na = float((w * np.maximum(a, 0.0) ** sp).sum()) ** (1.0 / sp)
        if total <= 0.0 or na <= 0.0:
            return mu, a, 0.0
        t = s * (total / na ** sp) ** (s - 1.0)
        return mu * t, a * t, (total / na) ** s

    def primal_upper(a):
        f = (np.maximum(a, 0.0) / s) ** (sp - 1.0)
        u = problem.apply(f)
        floor = float(u[E].min())
        if floor <= 0.0:
            return math.inf
        f = f / (floor * (1.0 - 1e-9))
        return float((w * f ** s).sum())

    def certified(mu, a):
        nonlocal best_lower, best_upper
        cands = [ray_rescale(mu, a)]
        nu = _polish(problem, params, E[None], cands[0][0][None])
        if nu is not None:
            cands.append(ray_rescale(nu[0], problem.potential_of_measure(nu[0])))
        for _, a_r, lo in cands:
            best_lower = max(best_lower, lo)
            best_upper = min(best_upper, primal_upper(a_r))
        return (best_upper - best_lower) / best_upper <= params.tol

    mu = np.where(E, w, 0.0)
    a = problem.potential_of_measure(mu)
    if certified(mu, a):
        return best_upper, best_lower, 0
    mu, a, _ = ray_rescale(mu, a)
    y, ay = mu.copy(), a.copy()
    Fy = neg_dual(y, ay)
    mu_prev, a_prev = mu.copy(), a
    momentum, step = 1.0, 1.0
    for iterations in range(1, params.max_iter + 1):
        u = problem.apply((np.maximum(ay, 0.0) / s) ** (sp - 1.0))
        grad = np.where(E, u - 1.0, 0.0)
        while True:
            cand = np.where(E, np.maximum(y - step * grad, 0.0), 0.0)
            a_cand = problem.potential_of_measure(cand)
            F_cand = neg_dual(cand, a_cand)
            d = cand - y
            bound = Fy + float((grad * d).sum()) + float((d * d).sum()) / (2 * step)
            if F_cand <= bound + 1e-18 or step < 1e-18:
                break
            step *= 0.5
        momentum_next = 0.5 * (1.0 + math.sqrt(1.0 + 4.0 * momentum ** 2))
        beta = (momentum - 1.0) / momentum_next
        z = cand + beta * (cand - mu_prev)
        applied = z.min() < 0.0
        if applied:
            y = np.where(E, np.maximum(z, 0.0), 0.0)
            ay = problem.potential_of_measure(y)
        else:
            y, ay = z, a_cand + beta * (a_cand - a_prev)
        if on_momentum is not None:
            on_momentum(y, ay, applied)
        F_next = neg_dual(y, ay)
        if F_next > Fy:
            y, ay = cand.copy(), a_cand.copy()
            momentum_next = 1.0
            F_next = neg_dual(y, ay)
        Fy, momentum = F_next, momentum_next
        mu_prev, a_prev = cand, a_cand
        step *= 1.5
        if iterations % 5 == 0 or iterations == params.max_iter:
            if certified(cand, a_cand):
                break
    return best_upper, best_lower, iterations


@pytest.mark.parametrize("n, N, L, alpha, parent_applies, fallbacks", [
    # two intervals on the line: the extrapolated measure never goes
    # negative, so every momentum potential comes from linearity
    (1, 256, 16.0, 0.5, 250, False),
    # unit square on the plane: the projection clips some momentum points
    (2, 128, 12.0, 1.0, 440, True),
])
def test_momentum_potentials_by_linearity(n, N, L, alpha, parent_applies,
                                          fallbacks):
    # `parent_applies` is the apply count at s = 2 of the solver that
    # applied the kernel at every momentum point and computed K 1 in every
    # solve: 250 applies in 65 iterations on the line and 440 in 115 on the
    # plane.  Momentum potentials by linearity made it 185 and 336; the
    # polished dual now certifies at iteration 0 in 7 applies each.
    c = make_grid(n, L, N).coords()
    if n == 1:
        E = (np.abs(c[:, 0] + 3.0) <= 1.0) | (np.abs(c[:, 0] - 2.0) <= 0.5)
    else:
        E = np.all(np.abs(c) <= 0.5, axis=1)
    # the momentum points are seen at s = 1.5, where the polish forms no
    # potentials for sets of these sizes (on the line: on a grid 16 times
    # finer), so the loop certifies
    for s, grid in ((2.0, make_grid(n, L, N)),
                    (1.5, make_grid(n, L, N if n == 2 else 16 * N))):
        params = CapacityParams(alpha=alpha, s=s, tol=1e-6)
        base = grid_problem(grid, params)
        prob, calls = _counted(base)
        mask = SetMask(grid, E if grid.N == N else np.repeat(E, 16))

        res = capacity(prob, mask, params)
        first = calls[0]
        assert res.converged and not res.infeasible
        assert (res.iterations == 0) == (s == 2.0)
        # a total-apply bound at s = 2, fewer than 3 applies per iteration
        # (two plus the projected momentum points) in the loop
        assert first <= parent_applies if s == 2.0 else \
            first < 3.0 * res.iterations
        audit_certificate(base, res)

        # the reference loop: every combined potential is the potential of
        # its momentum point up to roundoff, and the solver repeats it bit
        # for bit
        projected = []

        def check(y, ay, applied):
            projected.append(applied)
            fresh = base.potential_of_measure(y)
            assert np.abs(ay - fresh).max() <= 1e-12 * np.abs(fresh).max()

        ref = _scalar_reference(base, mask, params, on_momentum=check)
        assert ref == (res.value, res.lower, res.iterations)
        assert len(projected) == res.iterations
        assert any(projected) == (fallbacks and s != 2.0)

        # K 1, and K^2 e_0 at s = 2, are applied in the first solve only
        again = capacity(prob, mask, params)
        assert again.iterations == res.iterations
        assert calls[0] - first == first - (3 if s == 2.0 else 1)


def _interval_pairs(grid, count, seed):
    x = grid.coords()[:, 0]
    rng = np.random.default_rng(seed)
    out = []
    for _ in range(count):
        c = rng.uniform(-5.0, 5.0, size=2)
        h = rng.uniform(0.1, 1.5, size=2)
        out.append(SetMask(grid, (np.abs(x - c[0]) <= h[0])
                           | (np.abs(x - c[1]) <= h[1])))
    return out


def _line_batch_matches_singles(N, s, count):
    """Solve `count` interval pairs on the N-point line as one batch: the
    apply, the polish and every reduction act row by row, so each row
    repeats its batch of one bit for bit.  Returns the batch."""
    grid = make_grid(1, 16.0, N)
    params = CapacityParams(alpha=0.5, s=s, tol=1e-6)
    prob = grid_problem(grid, params)
    masks = _interval_pairs(grid, count, seed=1)
    batch = capacity_batch(prob, masks, params)
    for i, (mask, row) in enumerate(zip(masks, batch)):
        assert row.mask is mask
        one = capacity(prob, mask, params)
        assert (row.value, row.lower, row.upper, row.iterations) == \
            (one.value, one.lower, one.upper, one.iterations)
        audit_certificate(prob, row)
        # the scalar loop's 1-D sums repeat the batch's at N = 256
        if N == 256 and i % 8 == 0:
            assert _scalar_reference(prob, mask, params) == \
                (row.value, row.lower, row.iterations)
    return batch


def test_batch_rows_match_single_solves_on_the_line():
    # every polished dual certifies at iteration 0
    batch = _line_batch_matches_singles(256, 2.0, 40)
    assert {r.iterations for r in batch} == {0}


def test_iterating_batch_rows_match_single_solves_on_the_line():
    # at s = 1.5 the polish forms the potentials of sets of at most 32
    # cells of the 4096-point line only; the larger sets iterate, and rows
    # retire at different times
    batch = _line_batch_matches_singles(4096, 1.5, 12)
    assert len({r.iterations for r in batch}) > 2


@pytest.mark.parametrize("s", [1.5, 2.0, 3.0])
def test_batch_certificates_on_a_finite_model(s):
    # a batched finite apply is a matrix product, which differs from the
    # matrix-vector product of a single row at roundoff: the certified
    # intervals must overlap
    rng = np.random.default_rng(int(10 * s))
    m = 24
    B = rng.random((m, m))
    sp = DiscreteMeasureSpace(rng.random(m) + 0.25)
    prob = finite_problem(sp, (B + B.T) / 2 + np.diag(rng.random(m) + 0.5))
    params = CapacityParams(1.0, s, tol=1e-6)
    masks = [SetMask(sp, rng.random(m) < p) for p in np.linspace(0.1, 0.9, 30)]
    masks = [mk for mk in masks if not mk.is_empty]
    for mask, row in zip(masks, capacity_batch(prob, masks, params)):
        audit_certificate(prob, row)
        one = capacity(prob, mask, params)
        assert max(row.lower, one.lower) <= min(row.upper, one.upper) * (1 + 1e-12)


def test_mixed_batch_keeps_row_flags_independent():
    # 1030 atoms: the polish solves no block of more than 1024 atoms, so
    # the large set can run out of budget
    m = 1030
    sp = uspace(m)
    rng = np.random.default_rng(3)
    B = rng.random((m, m))
    M = (B + B.T) / 2 + np.eye(m)
    M[7, :] = M[:, 7] = 0.0   # atom 7 is unreachable
    prob = finite_problem(sp, M)
    params = CapacityParams(1.0, 2.0, tol=1e-8, max_iter=12)
    masks = [SetMask.empty(sp),
             SetMask.from_indices(sp, [2, 7]),          # infeasible
             SetMask.from_indices(sp, [4]),             # converges early
             SetMask(sp, np.arange(m) != 7)]            # runs out of budget
    rows = capacity_batch(prob, masks, params)
    empty, infeasible, easy, hard = rows
    assert empty.value == 0.0 and empty.converged and empty.iterations == 0
    assert infeasible.infeasible and not infeasible.converged
    assert infeasible.value == math.inf and infeasible.optimizer is None
    assert easy.converged and easy.iterations < params.max_iter
    audit_certificate(prob, easy)
    assert not hard.converged and not hard.infeasible
    assert hard.iterations == params.max_iter and hard.gap > params.tol
    assert 0.0 < hard.lower <= hard.value <= hard.upper
    for mask, row in zip(masks, rows):
        one = capacity(prob, mask, params)
        assert (one.converged, one.infeasible, one.iterations) == \
            (row.converged, row.infeasible, row.iterations)
        # finite rows of a batch differ from a batch of one at roundoff
        assert one.value == pytest.approx(row.value, rel=1e-12)


def _plane_sets(grid):
    """Sets on the plane: a rectangle, two far squares, and a strip across
    the periodic boundary."""
    x, y = grid.coords().T

    def square(cx, cy, r):
        return (np.abs(x - cx) <= r) & (np.abs(y - cy) <= r)

    return {
        "rectangle": (np.abs(x - 2.4) <= 0.4) & (np.abs(y + 0.9) <= 0.6),
        "two squares": square(-4.0, 1.0, 0.3) | square(4.2, -2.0, 0.3),
        # rows 0 and N-1 meet across the periodic boundary
        "seam": (np.abs(x) >= 5.9) & (np.abs(y) <= 0.3),
    }


@pytest.mark.parametrize("kinds", [
    ["rectangle"], ["two squares"], ["seam"], ["rectangle", "two squares"],
    ["two squares", "seam", "rectangle"],
], ids=["rectangle", "two-squares", "seam", "mixed-pair", "mixed-three"])
def test_plane_batch_rows_repeat_their_batch_of_one(kinds):
    # every row of a plane batch repeats its batch of one and the scalar
    # loop bit for bit, whichever sets share its batch.  At s = 2 each
    # polished dual certifies at iteration 0; at s = 1.5 the polish forms
    # the potentials of the seam's 12 cells only, and the other sets iterate
    grid = make_grid(2, 12.0, 128)
    sets = _plane_sets(grid)
    masks = [SetMask(grid, sets[k]) for k in kinds]
    for s in (2.0, 1.5):
        params = CapacityParams(alpha=1.0, s=s, tol=1e-6)
        prob = grid_problem(grid, params)
        for mask, row in zip(masks, capacity_batch(prob, masks, params)):
            one = capacity(prob, mask, params)
            assert (row.value, row.lower, row.upper, row.iterations) == \
                (one.value, one.lower, one.upper, one.iterations)
            for got, ref in ((row.dual_measure, one.dual_measure),
                             (row.optimizer, one.optimizer)):
                assert np.array_equal(got, ref)
            assert _scalar_reference(prob, mask, params) == \
                (row.value, row.lower, row.iterations)
            audit_certificate(prob, row)


def test_unit_square_on_the_largest_plane_grid_in_use():
    # C08's solve: the unit square on the N=256 plane, whose whole-grid
    # temporaries the solver and the apply update in place, repeats the
    # scalar loop bit for bit
    grid = make_grid(2, 12.0, 256)
    params = CapacityParams(alpha=1.0, s=2.0, tol=1e-6)
    prob = grid_problem(grid, params)
    mask = SetMask(grid, np.all(np.abs(grid.coords()) <= 0.5, axis=1))
    res = capacity(prob, mask, params)
    assert _scalar_reference(prob, mask, params) == \
        (res.value, res.lower, res.iterations)
    assert res.iterations <= 10 and res.gap <= params.tol
    audit_certificate(prob, res)


_SQUARE_BITS = """
import hashlib, numpy as np
from capflow.capacity import (CapacityParams, SetMask, capacity,
                              capacity_batch, grid_problem)
from capflow.grid import make_grid
def digest(*arrays):
    return hashlib.sha256(b"".join(a.tobytes() for a in arrays)).hexdigest()
grid = make_grid(2, 12.0, 256)
params = CapacityParams(alpha=1.0, s=2.0, tol=1e-6)
mask = SetMask(grid, np.all(np.abs(grid.coords()) <= 0.5, axis=1))
res = capacity(grid_problem(grid, params), mask, params)
print(res.value.hex(), digest(res.dual_measure))
line = make_grid(1, 16.0, 256)
params = CapacityParams(alpha=0.5, s=2.0, tol=1e-6)
prob = grid_problem(line, params)
masks = [SetMask(line, (np.arange(256) >= a) & (np.arange(256) < a + k))
         for a, k in ((0, 256), (3, 200), (40, 130), (7, 65), (100, 64),
                      (9, 5), (120, 130))]
rows = capacity_batch(prob, masks, params)
memo = prob._interval_nu
print(digest(np.array([r.value for r in rows]),
             *[r.dual_measure for r in rows], *prob.interval_factor(256),
             np.array(sorted(memo)), *[memo[k] for k in sorted(memo)]))
line = make_grid(1, 16.0, 512)
params = CapacityParams(alpha=0.5, s=1.5, tol=1e-6)
prob = grid_problem(line, params)
masks = [SetMask(line, (np.arange(512) >= a) & (np.arange(512) < a + k))
         for a, k in ((200, 60), (10, 80))]
rows = capacity_batch(prob, masks, params)
print(digest(np.array([r.value for r in rows]), *[r.dual_measure for r in rows]))
from capflow.suites import _random_finite_problem
rng = np.random.default_rng(3)
prob = _random_finite_problem(rng, 60)
params = CapacityParams(alpha=1.0, s=3.0, tol=1e-8)
masks = [SetMask(prob.space, rng.random(60) < 0.5) for _ in range(4)]
rows = capacity_batch(prob, masks, params)
print(digest(np.array([(r.value, r.iterations) for r in rows]),
             *[r.dual_measure for r in rows]))
"""


def test_plane_polish_bits_do_not_depend_on_blas_threads():
    # C08's square solves a 484-cell block; a plain LAPACK solve of it moves
    # the last bit of the value between 1 and 2 OpenBLAS threads.  A batch
    # of intervals on the line, up to the whole line, polishes with the
    # shared interval factor, and its last row is served from the memo of
    # polished lengths; the factor's and the memo's bits are checked too.
    # s = 1.5 intervals of 60 and 80 cells on the 512-point line take the
    # Jacobian P diag(d) P^T, and a 60-atom finite model at s = 3 iterates
    # as C01's and C02's do.  Three threads split 64-row tiles unevenly
    outs = {subprocess.run([sys.executable, "-c", _SQUARE_BITS], check=True,
                           capture_output=True, text=True,
                           env={**os.environ, "OPENBLAS_NUM_THREADS": t}).stdout
            for t in ("1", "2", "3")}
    assert len(outs) == 1


@pytest.mark.parametrize("stack", [(), (3,)])
def test_tiled_products_match_einsum_tile_by_tile(stack):
    # `_mul` is A @ B to 1e-13 of |A| |B|, stacked, unstacked and with B
    # broadcast over A's stack, and each 64 x 64 tile of the product has
    # the bits of `_mul` on that tile's rows of A and columns of B alone
    rng = np.random.default_rng(7)
    for k in (1, 63, 64, 65, 200):
        for m in (1, 65):
            for n in (1, 65):
                A = rng.standard_normal(stack + (m, k))
                for B in (rng.standard_normal(stack + (k, n)),
                          rng.standard_normal((k, n))):
                    got = _mul(A, B)
                    ref = np.einsum("...ij,...jk->...ik", A, B)
                    assert got.shape == ref.shape
                    assert (np.abs(got - ref)
                            <= 1e-13 * np.abs(A) @ np.abs(B)).all()
                    for i in range(0, m, 64):
                        for j in range(0, n, 64):
                            tile = _mul(A[..., i:i + 64, :], B[..., j:j + 64])
                            assert np.array_equal(
                                got[..., i:i + 64, j:j + 64], tile)


def _recursive_solve(A, B):
    """`_solve` as it was when each level formed its Schur complement and
    right-hand side as new arrays and left A unchanged, kept as the
    reference for the in-place elimination."""
    k = A.shape[-1]
    if k <= 64:
        for ridge in (0.0, 1e-14 * np.abs(A).max()):
            try:
                return np.linalg.solve(A + ridge * np.eye(k), B)
            except np.linalg.LinAlgError:
                pass
        return B * np.nan
    X = _recursive_solve(A[..., :64, :64], np.concatenate(
        [A[..., :64, 64:], B[..., :64, :]], -1))
    low = A[..., 64:, :64]
    Y = _recursive_solve(A[..., 64:, 64:] - _mul(low, X[..., :k - 64]),
                         B[..., 64:, :] - _mul(low, X[..., k - 64:]))
    return np.concatenate([X[..., k - 64:] - _mul(X[..., :k - 64], Y), Y], -2)


@pytest.mark.parametrize("stack", [(), (3,)])
def test_in_place_solve_matches_the_recursive_solve_bit_for_bit(stack):
    # `_solve` overwrites A with its Schur complements and keeps only the
    # 64-row blocks of X: the solution has the bits of the solver that
    # formed every complement anew, on positive definite blocks, on twin
    # rows (a singular leading block, solved with the 1e-14 ridge) and on
    # a zero trailing block (nan), and B comes back unchanged
    rng = np.random.default_rng(11)
    for k in (1, 63, 64, 65, 128, 129, 200, 400):
        M = rng.standard_normal(stack + (k, k + 16))
        A = M @ M.swapaxes(-1, -2) / k
        cases = {"definite": A}
        if k >= 2:   # the Gram matrix of rows with a twin
            T = A.copy()
            T[..., 1, :] = T[..., 0, :]
            T[..., :, 1] = T[..., :, 0]
            with pytest.raises(np.linalg.LinAlgError):
                np.linalg.solve(T[..., :64, :64], np.ones(min(k, 64)))
            cases["twin"] = T
        if k > 64:
            Z = A.copy()
            Z[..., 64:, :] = Z[..., :, 64:] = 0.0
            cases["zero"] = Z
        for kind, A in cases.items():
            for n in (1, 3):
                B = rng.standard_normal(stack + (k, n))
                B0 = B.copy()
                got, ref = _solve(A.copy(), B), _recursive_solve(A.copy(), B)
                assert got.shape == ref.shape == stack + (k, n)
                assert np.array_equal(got, ref, equal_nan=True)
                assert np.array_equal(B, B0)
                assert np.isfinite(got).all() == (kind != "zero")
                assert np.isnan(got).all() == (kind == "zero")


def test_plane_solve_peaks_below_8_mib():
    # the 484-cell square on the N=256 plane polishes one 484 x 484 block:
    # `_solve` eliminates it in place (one working copy and 64-row blocks
    # of X), the block is gathered 64 rows at a time, and the dual ascent
    # holds one copy of each whole-grid array at iteration 0.  A k^2
    # temporary per elimination level would take it past 8 MiB
    grid = make_grid(2, 12.0, 256)
    params = CapacityParams(alpha=1.0, s=2.0, tol=1e-6)
    prob = grid_problem(grid, params)
    mask = SetMask(grid, np.all(np.abs(grid.coords()) <= 0.5, axis=1))
    assert mask.cardinality == 484
    prob.reach, prob.square   # built and kept before the solve
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        res = capacity(prob, mask, params)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert res.iterations == 0 and res.gap <= params.tol
    assert peak < 8 * 2 ** 20


def _interval(grid, start, length):
    return SetMask(grid, (np.arange(grid.N) >= start)
                   & (np.arange(grid.N) < start + length))


@pytest.mark.parametrize("N", [256, 512])
def test_interval_factor_grows_without_changing_bits(N):
    # a factor grown 64 -> 128 -> 256 (-> 512) by interval requests has
    # the leading blocks of a fresh factor, bit for bit, and inverts the
    # Cholesky factor of the polish matrix at every size
    params = CapacityParams(alpha=0.5, s=2.0, tol=1e-6)
    grid = make_grid(1, 16.0, N)
    grown = grid_problem(grid, params)
    fresh = grid_problem(grid, params)
    T_all, W_all = fresh.interval_factor(N)
    assert T_all.shape == W_all.shape == (N, N)
    for k, m in ((1, 64), (64, 64), (65, 128), (100, 128), (200, 256),
                 (N, N)):
        T, W = grown.interval_factor(k)
        assert T.shape == W.shape == (m, m)
        assert np.array_equal(T, T_all[:m, :m])
        assert np.array_equal(W, W_all[:m, :m])
        assert np.array_equal(W, np.tril(W))
    # T is the s = 2 polish matrix (K^2)_jk / 2 of the interval's cells
    cells = np.arange(N)
    sq = fresh.square[0]
    assert np.array_equal(T_all, sq[(cells[:, None] - cells) % N] / 2.0)
    assert np.abs(W_all @ T_all @ W_all.T - np.eye(N)).max() <= 1e-12


def test_interval_polish_matches_the_general_solve(monkeypatch):
    # interval rows polished through the factor agree with the general
    # `_solve` path on the same matrix, and certify the same capacities
    grid = make_grid(1, 16.0, 256)
    params = CapacityParams(alpha=0.5, s=2.0, tol=1e-6)
    prob = grid_problem(grid, params)
    general = grid_problem(grid, params)
    factor = general.interval_factor
    monkeypatch.setattr(general, "interval_factor",
                        lambda k: (factor(k)[0], np.zeros((0, 0))))
    masks = [_interval(grid, a, k) for a, k in
             ((0, 1), (17, 5), (40, 63), (100, 64), (3, 65), (60, 130),
              (0, 255), (0, 256))]
    E = np.array([m.bools for m in masks])
    mu = E * grid.weights
    nu, ref = _polish(prob, params, E, mu), _polish(general, params, E, mu)
    assert np.all(nu[~E] == 0.0) and np.all(nu[E] > 0.0)
    assert np.all(np.abs(nu - ref).max(axis=1)
                  <= 1e-12 * np.abs(ref).max(axis=1))
    # each active set stays whole: nu is W^T (W 1) on the leading blocks
    W = prob._factor[1]
    for row, mask in zip(nu, masks):
        k = mask.cardinality
        ones = np.ones((1, k))
        assert np.array_equal(row[mask.bools], np.einsum(
            "ji,...j->...i", W[:k, :k], np.einsum("ij,...j->...i",
                                                  W[:k, :k], ones))[0])
    for mask, row, one in zip(masks, capacity_batch(prob, masks, params),
                              capacity_batch(general, masks, params)):
        audit_certificate(prob, row)
        assert row.iterations == one.iterations == 0
        assert abs(row.value - one.value) <= params.tol * one.value
        assert max(row.lower, one.lower) <= min(row.upper, one.upper)


def test_interval_factor_is_bounded_and_unused_off_intervals():
    # wrapped arcs, rows of two intervals, rows at s = 1.5 and plane rows
    # take the general path and leave the factor empty; intervals grow it
    # to the longest one polished, rounded up to 64 cells or capped at N
    line = make_grid(1, 16.0, 256)
    x = np.arange(256)
    for s, sets in ((2.0, [(x < 40) | (x >= 230),            # a wrapped arc
                           (x < 40) | ((x >= 60) & (x < 70))]),
                    (1.5, [x < 40, (x >= 10) & (x < 200)])):
        params = CapacityParams(alpha=0.5, s=s, tol=1e-6)
        prob = grid_problem(line, params)
        for res in capacity_batch(prob, [SetMask(line, E) for E in sets],
                                  params):
            audit_certificate(prob, res)
        assert prob._factor[0].size == prob._factor[1].size == 0
    plane = make_grid(2, 12.0, 128)
    params = CapacityParams(alpha=1.0, s=2.0, tol=1e-6)
    prob = grid_problem(plane, params)
    # a run of cells along one grid row is contiguous in the flat order
    for E in (np.arange(plane.size) // 7 == 1300, _plane_sets(plane)["seam"]):
        audit_certificate(prob, capacity(prob, SetMask(plane, E), params))
    assert prob._factor[0].size == 0

    params = CapacityParams(alpha=0.5, s=2.0, tol=1e-6)
    for N, lengths, sides in ((256, (10, 70, 30, 129, 256),
                               (64, 128, 128, 192, 256)),
                              (32, (3, 20, 32), (32, 32, 32))):
        grid = make_grid(1, 16.0 * N / 256, N)
        prob = grid_problem(grid, params)
        for k, side in zip(lengths, sides):
            res = capacity(prob, _interval(grid, N - k, k), params)
            assert res.iterations == 0
            audit_certificate(prob, res)
            assert tuple(map(len, prob._factor)) == (side, side)
    # a block that is not positive definite stops the factor before it
    T = np.eye(150)
    T[100, 100] = -1.0
    W = _grow_inverse_factor(T, np.zeros((0, 0)))
    assert np.array_equal(W, np.eye(64))
    assert np.array_equal(_grow_inverse_factor(T[:128, :128], W), W)


class _Reads(dict):
    """A memo of polished lengths that records the lengths asked for
    (`asked`) and those served (`served`)."""

    def __init__(self, *args):
        super().__init__(*args)
        self.asked, self.served = [], []

    def __contains__(self, k):
        self.asked.append(k)
        return super().__contains__(k)

    def __getitem__(self, k):
        self.served.append(k)
        return super().__getitem__(k)


@pytest.mark.parametrize("N", [256, 512])
def test_interval_memo_serves_a_length_bit_for_bit(N):
    # an interval row whose length was polished before is served from the
    # memo, and equals the same row polished on a fresh problem, bit for
    # bit: its masses nu and its certified value, bounds and iterations
    params = CapacityParams(alpha=0.5, s=2.0, tol=1e-6)
    grid = make_grid(1, 16.0, N)
    prob = grid_problem(grid, params)
    lengths = (3, 5, 64, 65, 130, N - 1)
    # 1 or 2 cells and the whole line start at their solution: round 0 stops
    capacity_batch(prob, [_interval(grid, 0, k)
                          for k in (1, 2) + lengths + (N,)], params)
    assert sorted(prob._interval_nu) == list(lengths)
    for k in lengths:
        mask = _interval(grid, (N - k) // 2, k)
        E = mask.bools[None]
        reads = prob._interval_nu = _Reads(prob._interval_nu)
        nu = _polish(prob, params, E, E * grid.weights)
        row = capacity(prob, mask, params)
        assert reads.served == [k, k] and prob._interval_nu is reads
        fresh = grid_problem(grid, params)
        assert np.array_equal(nu, _polish(fresh, params, E, E * grid.weights))
        assert np.array_equal(fresh._interval_nu[k], reads[k])
        one = capacity(fresh, mask, params)
        assert (row.value, row.lower, row.upper, row.iterations) == \
            (one.value, one.lower, one.upper, one.iterations)
        assert row.iterations == 0
        assert np.array_equal(row.dual_measure, one.dual_measure)
        audit_certificate(prob, row)


@pytest.mark.parametrize("N", [256, 512])
def test_interval_memo_holds_at_most_one_entry_per_length(N):
    # every length polished twice, at two starts, in one batch: one entry
    # of k masses per length, at most N entries
    params = CapacityParams(alpha=0.5, s=2.0, tol=1e-6)
    grid = make_grid(1, 16.0, N)
    prob = grid_problem(grid, params)
    E = np.array([_interval(grid, start, k).bools for k in range(1, N + 1)
                  for start in (0, (7 * k) % (N - k + 1))])
    _polish(prob, params, E, E * grid.weights)
    memo = prob._interval_nu
    assert sorted(memo) == list(range(1, N + 1))
    assert all(memo[k].shape == (1, k) for k in memo)


def test_interval_memo_is_left_alone_off_positive_interval_starts():
    # rows whose start has a zero cell, wrapped arcs, two-piece rows, rows at
    # s = 1.5, plane rows and finite rows neither read nor write the memo
    line = make_grid(1, 16.0, 256)
    x = np.arange(256)
    params = CapacityParams(alpha=0.5, s=2.0, tol=1e-6)
    prob = grid_problem(line, params)
    capacity(prob, _interval(line, 0, 40), params)   # an entry to be read
    reads = prob._interval_nu = _Reads(prob._interval_nu)
    E = np.array([_interval(line, a, 40).bools for a in (0, 90)])
    mu = E * line.weights
    mu[:, [5, 100]] = 0.0   # a zero cell in the start of each row
    assert _polish(prob, params, E, mu) is not None
    for row in capacity_batch(prob, [SetMask(line, (x < 40) | (x >= 230)),
                                     SetMask(line, (x < 40) | ((x >= 60)
                                                               & (x < 70)))],
                              params):
        audit_certificate(prob, row)
    assert (reads.asked, reads.served) == ([], [])
    assert prob._interval_nu is reads and list(reads) == [40]
    params = CapacityParams(alpha=0.5, s=1.5, tol=1e-6)
    prob = grid_problem(line, params)
    for row in capacity_batch(prob, [_interval(line, 0, 40),
                                     _interval(line, 10, 40)], params):
        audit_certificate(prob, row)
    assert prob._interval_nu == {}
    plane = make_grid(2, 12.0, 128)
    params = CapacityParams(alpha=1.0, s=2.0, tol=1e-6)
    prob = grid_problem(plane, params)
    for E in (np.arange(plane.size) // 7 == 1300, _plane_sets(plane)["seam"]):
        audit_certificate(prob, capacity(prob, SetMask(plane, E), params))
    assert prob._interval_nu == {}
    space = uspace(6)
    prob = finite_problem(space, np.exp(-np.abs(np.subtract.outer(
        np.arange(6.0), np.arange(6.0)))))
    for row in capacity_batch(prob, [SetMask.from_indices(space, [0, 1, 2]),
                                     SetMask.from_indices(space, [2, 3])],
                              PARAMS):
        audit_certificate(prob, row)
    assert prob._interval_nu == {}


def test_interval_memo_is_not_written_past_a_stopped_factor(monkeypatch):
    # a factor stopped short by a block that is not positive definite serves
    # only the lengths it covers: the longer intervals solve and write nothing
    grid = make_grid(1, 16.0, 256)
    params = CapacityParams(alpha=0.5, s=2.0, tol=1e-6)
    prob = grid_problem(grid, params)
    factor = prob.interval_factor
    monkeypatch.setattr(prob, "interval_factor",
                        lambda k: (factor(k)[0], factor(k)[1][:64, :64]))
    for k in (100, 200, 30, 100):
        res = capacity(prob, _interval(grid, 3, k), params)
        assert res.iterations == 0
        audit_certificate(prob, res)
    assert list(prob._interval_nu) == [30]


def _padded_polish(problem, params, E, mu):
    """`_polish` of grid rows at s = 2 off line intervals, with every Newton
    round solving all of the row's cells, identity rows off S."""
    grid = problem.space
    out = np.zeros_like(mu)
    for r in range(len(E)):
        cells = np.flatnonzero(E[r])
        at = np.unravel_index(cells, grid.shape)
        G = problem.square.reshape(grid.shape)[
            tuple((i[:, None] - i) % grid.N for i in at)] / 2.0
        x = mu[r, cells][None]
        S = x > 0.0
        for _ in range(10):
            kf = np.einsum("ij,...j->...i", G, x)
            new = np.where(S, x > 0.0, kf < 1.0)
            if (new == S).all() and \
                    np.abs(kf - 1.0)[S].max(initial=0.0) <= 1e-10:
                break
            S = new
            rhs = kf - 1.0 - np.einsum("...ij,...j->...i", G,
                                       np.where(S, 0.0, x))
            x = np.where(S, x - _solve(np.where(
                S[:, :, None] & S[:, None, :], G, np.eye(cells.size)),
                (rhs * S)[..., None])[..., 0], 0.0)
        out[r, cells] = np.maximum(x, 0.0)
    return out


@pytest.mark.parametrize("N, kind", [(128, "square"), (256, "square"),
                                     (128, "two squares")])
def test_compact_rounds_match_the_padded_solve(monkeypatch, N, kind):
    # Newton rounds that drop cells solve on the active cells alone: the
    # masses agree with rounds padded by identity rows to 1e-12 relative,
    # and the sets, C08's unit square at N=256 among them, still certify
    # at iteration 0, within tol of the padded run
    grid = make_grid(2, 12.0, N)
    params = CapacityParams(alpha=1.0, s=2.0, tol=1e-6)
    prob = grid_problem(grid, params)
    mask = SetMask(grid, np.all(np.abs(grid.coords()) <= 0.5, axis=1)
                   if kind == "square" else _plane_sets(grid)[kind])
    E = mask.bools[None]
    mu = E * grid.weights
    cap = sys.modules["capflow.capacity"]
    sizes, depth = [], [0]   # the unknowns of each Newton round's solve

    def counted(A, B):   # `_solve` recurses through the module name
        if not depth[0]:
            sizes.append(A.shape[-1])
        depth[0] += 1
        try:
            return _solve(A, B)
        finally:
            depth[0] -= 1
    monkeypatch.setattr(cap, "_solve", counted)
    nu = _polish(prob, params, E, mu)
    monkeypatch.undo()
    ref = _padded_polish(prob, params, E, mu)
    assert np.count_nonzero(ref) < mask.cardinality   # a round dropped cells
    assert sizes[0] == mask.cardinality > min(sizes)
    assert np.abs(nu - ref).max() <= 1e-12 * np.abs(ref).max()
    res = capacity(prob, mask, params)
    monkeypatch.setattr(cap, "_polish", _padded_polish)
    padded = capacity(prob, mask, params)
    assert res.iterations == padded.iterations == 0
    assert abs(res.value - padded.value) <= params.tol * padded.value
    assert max(res.lower, padded.lower) <= min(res.upper, padded.upper)
    audit_certificate(prob, res)


def test_gather_dedups_skips_empty_and_serves_later_queries():
    grid = make_grid(1, 16.0, 256)
    params = CapacityParams(alpha=0.5, s=2.0, tol=1e-6)
    prob, calls = _counted(grid_problem(grid, params))
    oracle = CapacityOracle(prob, params)
    a, b = _interval_pairs(grid, 2, seed=4)
    again = SetMask(grid, a.bools)   # the same set, another mask object
    empty = SetMask.empty(grid)
    rows = oracle.gather([m.bools for m in (a, again, empty, b)])
    assert oracle.cache_size == 2
    solved = calls[0]
    results = [oracle.result(m) for m in (a, again, b)]
    assert calls[0] == solved   # served from the memo, no kernel apply
    assert results[0] is results[1]
    assert oracle.result(empty).value == 0.0 and calls[0] == solved
    assert rows.shape == (4, 4) and rows[:, 2].tolist() == [0.0] * 4
    for k, r in zip((0, 1, 3), results):
        assert rows[:, k].tolist() == [r.value, r.lower, r.upper, r.gap]
    oracle.gather([a.bools, b.bools])   # all cached: nothing to solve
    assert calls[0] == solved and oracle.cache_size == 3
    # the batch made fewer applies than the two solves one at a time
    single, single_calls = _counted(grid_problem(grid, params))
    for m in (a, b):
        capacity(single, m, params)
    assert solved < single_calls[0]
    for m, r in zip((a, b), (results[0], results[2])):
        assert r.value == capacity(single, m, params).value


def test_oracle_rejects_masks_of_another_space():
    # the memo key is the bit pattern, which a space of the same size shares
    small, large = (DiscreteMeasureSpace(np.full(3, v)) for v in (1.0, 5.0))
    oracle = CapacityOracle(identity_problem(small), PARAMS)
    assert oracle.value(SetMask.full(small)) == 3.0
    assert CapacityOracle(identity_problem(large), PARAMS).value(
        SetMask.full(large)) == 15.0
    with pytest.raises(ValueError, match="different space"):
        oracle.result(SetMask.full(large))
    # a family is checked where its matrix is built: gather sees bits only
    with pytest.raises(ValueError, match="different space"):
        TestSetFamily.explicit([SetMask.full(large)]).sets(small)
    with pytest.raises(ValueError, match="shape"):
        oracle.gather(np.ones((1, 4), dtype=bool))
    with pytest.raises(ValueError, match="shape"):
        oracle.gather(np.ones(3, dtype=bool))


def _two_of_each():
    """Two 4-atom spaces and two 256-point lines of equal size; each oracle,
    problem and weight lives on the first of its pair, each other input on
    the second."""
    sp, twin = uspace(4), uspace(4)
    line, twin_line = make_grid(1, 16.0, 256), make_grid(1, 16.0, 256)
    line_params = CapacityParams(alpha=0.5, s=2.0, tol=1e-6)
    oracle, twin_oracle = (CapacityOracle(identity_problem(space), PARAMS)
                           for space in (sp, twin))
    return SimpleNamespace(
        sp=sp, oracle=oracle, twin=twin, field=Field.of(sp, np.arange(4.0)),
        weight=Weight(oracle, np.ones(4), WeightConfig()),
        f=Field.of(twin, np.arange(4.0)), zero=Field.of(twin, np.zeros(4)),
        twin_weight=Weight(twin_oracle, np.ones(4), WeightConfig()),
        mu=AtomicMeasure(twin, np.ones(4)),
        result=capacity(identity_problem(twin), SetMask.full(twin), PARAMS),
        line_oracle=CapacityOracle(grid_problem(line, line_params), line_params),
        line_mask=SetMask(twin_line, np.abs(twin_line.axis_coords()) <= 1.0),
        line_empty=SetMask.empty(twin_line))


E22 = LorentzExponents(2.0, 2.0)
ANOTHER_SPACE = {
    "block_norms_upper_greedy": lambda o: block_norms_upper_greedy(
        [o.f], E22, [TestSetFamily.all_subsets()], o.oracle),
    "block_norm_upper_greedy": lambda o: block_norm_upper_greedy(
        o.f, E22, TestSetFamily.all_subsets(), o.oracle),
    "block_norm_upper_constructive-field": lambda o:
        block_norm_upper_constructive(o.f, E22, o.weight, o.oracle),
    "block_norm_upper_constructive-weight": lambda o:
        block_norm_upper_constructive(o.field, E22, o.twin_weight, o.oracle),
    # f on the oracle's space, |g| <= |f| on the twin
    "transport_decomposition": lambda o: transport_decomposition(
        block_norm_upper_greedy(o.field, E22, TestSetFamily.all_subsets(),
                                o.oracle), o.f, o.oracle),
    "trace_norm": lambda o: trace_norm(o.mu, TestSetFamily.all_subsets(),
                                       o.oracle),
    "strichartz_check": lambda o: strichartz_check(o.line_oracle, o.line_mask),
    # an empty set returns `skipped`, but only after the check
    "lebesgue_lower_bound_check": lambda o: lebesgue_lower_bound_check(
        o.line_oracle, o.line_empty, 0.5),
    "l1c_norm": lambda o: l1c_norm(o.f, o.oracle),
    "capacitary_lorentz_norm": lambda o: capacitary_lorentz_norm(
        o.f, E22, o.oracle),
    # an all-zero field returns early, but only after the check
    "level_sum_check": lambda o: level_sum_check(o.zero, o.oracle),
    "a1loc_constant": lambda o: a1loc_constant(o.sp, o.f),
    "audit_certificate": lambda o: audit_certificate(o.oracle.problem, o.result),
    "equilibrium_checks": lambda o: equilibrium_checks(o.oracle.problem,
                                                       o.result),
    "Field.restrict": lambda o: o.field.restrict(SetMask.full(o.f.space)),
    # equal sizes: the bits would mix, and a subset test would answer
    "SetMask.union": lambda o: SetMask.full(o.sp).union(SetMask.full(o.twin)),
    "SetMask.issubset": lambda o: SetMask.empty(o.sp).issubset(
        SetMask.full(o.twin)),
}


@pytest.mark.parametrize("call", ANOTHER_SPACE.values(), ids=ANOTHER_SPACE)
def test_every_entry_point_rejects_another_space(call):
    # the spaces of a pair are equal in all but identity, so no shape or
    # size test can tell them apart
    with pytest.raises(ValueError, match="different spaces"):
        call(_two_of_each())


@pytest.mark.parametrize("size", range(2, 25))
def test_identity_gather_is_the_measure_bit_for_bit(size):
    rng = np.random.default_rng(size)
    sp = DiscreteMeasureSpace(rng.lognormal(0.0, 1.0, size))
    bits = rng.random((64, size)) < rng.uniform(0.05, 0.95, (64, 1))
    bits[0] = False
    value, lower, upper, gap = CapacityOracle(identity_problem(sp), PARAMS).gather(bits)
    measures = [SetMask(sp, row).measure for row in bits]
    assert value.tolist() == measures
    assert lower.tolist() == measures and upper.tolist() == measures
    assert not gap.any()
    # capacity_batch's identity branch takes the same closed form
    batch = capacity_batch(identity_problem(sp), [SetMask(sp, r) for r in bits], PARAMS)
    assert [r.value for r in batch] == measures


@settings(max_examples=150, deadline=None)
@given(st.integers(1, 24), st.integers(1, 40), st.integers(0, 2**31 - 1))
def test_measures_of_a_value_stack_are_set_measures_row_by_row(size, rows, seed):
    # one weight row per set row, as greedy peels weigh each field's
    # residual energy; tied and widely scaled values, some rows empty
    rng = np.random.default_rng(seed)
    values = rng.choice([1.0, 2.0, 0.1, 3.0], (rows, size)) * \
        10.0 ** rng.integers(-30, 30, (rows, size)) * rng.lognormal(0.0, 1.0, (rows, 1))
    bits = rng.random((rows, size)) < rng.uniform(0.0, 1.0, (rows, 1))
    got = _measures(values, bits)
    want = [SetMask(DiscreteMeasureSpace(w), row).measure
            for w, row in zip(values, bits)]
    assert [x.hex() for x in got] == [x.hex() for x in want]
    # one shared vector is the stack of its copies
    assert _measures(values[0], bits).tobytes() == \
        _measures(np.tile(values[0], (rows, 1)), bits).tobytes()


def _finite_oracle(seed, m):
    rng = np.random.default_rng(seed)
    B = rng.random((m, m))
    sp = DiscreteMeasureSpace(rng.random(m) + 0.25)
    return CapacityOracle(finite_problem(sp, (B + B.T) / 2 + np.eye(m)), PARAMS)


def test_gather_and_result_share_one_memo():
    oracle = _finite_oracle(5, 7)
    sp = oracle.space
    bits = TestSetFamily.all_subsets().sets(sp)[::9]
    first = [oracle.result(SetMask(sp, row)) for row in bits[:4]]
    size = oracle.cache_size
    counts = lambda: (oracle.queries, oracle.hits, oracle.solved, oracle.batches)
    assert counts() == (4, 0, 4, 4)
    rows = oracle.gather(bits)   # the first four rows are served from the memo
    assert oracle.cache_size == len(bits) and size == 4
    assert counts() == (4 + len(bits), 4, len(bits), 5)
    for k, row in enumerate(bits):
        r = oracle.result(SetMask(sp, row))
        assert rows[:, k].tolist() == [r.value, r.lower, r.upper, r.gap]
    assert all(oracle.result(SetMask(sp, row)) is r for row, r in zip(bits, first))
    assert oracle.cache_size == len(bits)
    assert counts() == (8 + 2 * len(bits), 8 + len(bits), len(bits), 5)


_FIELDS = ("value", "lower", "upper", "gap", "converged", "iterations",
           "infeasible", "optimizer", "dual_measure")


def _field_bits(res):
    """Every field of a result, floats by their bits and arrays by bytes."""
    out = []
    for name in _FIELDS:
        x = getattr(res, name)
        out.append(x.hex() if isinstance(x, float) else
                   None if x is None else
                   (x.dtype.str, x.tobytes()) if isinstance(x, np.ndarray) else x)
    return out


@settings(max_examples=30, deadline=None)
@given(st.sampled_from(["identity", "finite", "line"]), st.integers(0, 2**31 - 1))
def test_batch_rows_gather_columns_and_results_agree_bit_for_bit(kind, seed):
    # the same distinct non-empty rows, in the same order, make the same
    # solve batch in `capacity_batch` and in `gather`, so every field agrees
    # bit for bit, finite-model BLAS paths included; the oracle's memo takes
    # two batches, the first rows and then the rest
    rng = np.random.default_rng(seed)
    if kind == "line":
        space = make_grid(1, 8.0, 64)
        params = CapacityParams(alpha=0.5, s=2.0, tol=1e-6)
        problems = [grid_problem(space, params) for _ in range(2)]
    else:
        size = int(rng.integers(2, 9))
        space, params = DiscreteMeasureSpace(rng.random(size) + 0.25), PARAMS
        B = rng.random((size, size))
        M = (B + B.T) / 2 + np.eye(size)
        M[0], M[:, 0] = 0.0, 0.0   # sets holding atom 0 are infeasible
        problems = [identity_problem(space) if kind == "identity"
                    else finite_problem(space, M) for _ in range(2)]
    drawn = rng.random((int(rng.integers(1, 12)), space.size)) < rng.uniform(0.05, 0.6)
    drawn[0, int(rng.integers(space.size))] = True
    distinct = TestSetFamily.explicit([SetMask(space, r) for r in drawn]).sets(space)
    bits = np.vstack([distinct, np.zeros((1, space.size), dtype=bool),
                      distinct[rng.integers(0, len(distinct), 3)]])   # repeats
    half = int(rng.integers(0, len(distinct) + 1))
    batches = [capacity_batch(problems[0], [SetMask(space, r) for r in part], params)
               for part in (distinct[:half], distinct[half:])]
    empty = capacity(problems[0], SetMask.empty(space), params)
    want = [empty if not row.any() else (batches[0] + batches[1])[
        int(np.flatnonzero((distinct == row).all(axis=1))[0])] for row in bits]
    oracle = CapacityOracle(problems[1], params)
    oracle.gather(distinct[:half])
    columns = oracle.gather(bits)
    for k, (row, ref) in enumerate(zip(bits, want)):
        assert [x.hex() for x in columns[:, k]] == [
            ref.value.hex(), ref.lower.hex(), ref.upper.hex(), ref.gap.hex()]
        res = oracle.result(SetMask(space, row))
        assert _field_bits(res) == _field_bits(ref)
        assert oracle.result(SetMask(space, row)) is res
    assert oracle.cache_size == len(distinct) + 1   # and the empty set
    if kind == "finite":
        assert any(r.infeasible for r in want) == bool(distinct[:, 0].any())


def test_oracle_counters_on_a_fixed_script():
    # queries, hits, solved, batches and memo size after each call of a
    # fixed script of gathers and results, as the per-row memo counted them
    rng = np.random.default_rng(23)
    B = rng.random((6, 6))
    sp = DiscreteMeasureSpace(rng.random(6) + 0.25)
    bits = rng.random((12, 6)) < 0.4
    bits[3] = False
    bits[7], bits[9] = bits[2], bits[0]
    log = []
    for problem in (finite_problem(sp, (B + B.T) / 2 + np.eye(6)),
                    identity_problem(sp)):
        oracle = CapacityOracle(problem, PARAMS)
        counts = lambda: (oracle.queries, oracle.hits, oracle.solved,
                          oracle.batches, oracle.cache_size)
        oracle.gather(bits)
        log.append(counts())
        for row in (bits[2], ~bits[2], bits[3], bits[3], bits[5]):
            oracle.result(SetMask(sp, row))
            log.append(counts())
        for rows in (np.vstack([bits[::2], ~bits[:3]]),
                     np.zeros((2, 6), dtype=bool), bits):
            oracle.gather(rows)
            log.append(counts())
        assert len(oracle.results()) == oracle.cache_size
    assert log == [
        (12, 2, 9, 1, 9), (13, 3, 9, 1, 9), (14, 3, 10, 2, 10),
        (15, 3, 11, 3, 11), (16, 4, 11, 3, 11), (17, 5, 11, 3, 11),
        (26, 13, 12, 4, 12), (28, 13, 12, 4, 12), (40, 24, 12, 4, 12),
        (12, 0, 0, 0, 0), (13, 0, 1, 1, 1), (14, 0, 2, 2, 2), (15, 0, 3, 3, 3),
        (16, 1, 3, 3, 3), (17, 1, 4, 4, 4), (26, 1, 4, 4, 4), (28, 1, 4, 4, 4),
        (40, 1, 4, 4, 4)]


@pytest.mark.parametrize("stacked", [False, True])
def test_measures_at_every_cardinality_are_set_measures(stacked):
    # rows of 0 to 20 members, under one weight vector or one per row
    rng = np.random.default_rng(20)
    size = 20
    bits = np.zeros((21 * 4, size), dtype=bool)
    for i, c in enumerate(np.repeat(np.arange(21), 4)):
        bits[i, rng.permutation(size)[:c]] = True
    rng.shuffle(bits)
    weights = rng.lognormal(0.0, 1.0, (len(bits) if stacked else 1, size)) * \
        10.0 ** rng.uniform(-3.0, 3.0, (1, size))
    got = _measures(weights if stacked else weights[0], bits)
    want = [SetMask(DiscreteMeasureSpace(w), row).measure
            for w, row in zip(np.broadcast_to(weights, bits.shape), bits)]
    assert [x.hex() for x in got] == [x.hex() for x in want]


@pytest.mark.parametrize("stacked", [False, True])
def test_set_measures_add_their_members_in_atom_order(stacked):
    # the one rule: member weights added left to right, under one weight
    # vector or one per row; numpy's pairwise 1-D sum groups the terms
    # differently from 8 members on, and differs in some of these rows
    rng = np.random.default_rng(29)
    bits = rng.random((40, 32)) < rng.uniform(0.4, 1.0, (40, 1))
    bits[:, :9] = True
    weights = rng.lognormal(0.0, 1.0, (40 if stacked else 1, 32)) * \
        10.0 ** rng.uniform(-3.0, 3.0, (1, 32))
    got = _measures(weights if stacked else weights[0], bits)
    pairwise = 0
    for x, w, row in zip(got, np.broadcast_to(weights, bits.shape), bits):
        acc = 0.0
        for term in w[row].tolist():
            acc += term
        assert x.hex() == acc.hex() == SetMask(DiscreteMeasureSpace(w), row).measure.hex()
        pairwise += float(w[row].sum()) != acc
    assert pairwise > 0


def test_gather_rows_match_single_results_on_the_line():
    grid = make_grid(1, 16.0, 256)
    params = CapacityParams(alpha=0.5, s=2.0, tol=1e-6)
    masks = _interval_pairs(grid, 3, seed=8)
    rows = CapacityOracle(grid_problem(grid, params), params).gather(
        [m.bools for m in masks])
    single = CapacityOracle(grid_problem(grid, params), params)
    for k, m in enumerate(masks):
        r = single.result(m)
        assert rows[:, k].tolist() == [r.value, r.lower, r.upper, r.gap]


def test_geometry_guards_on_finite_models():
    sp = uspace(3)
    oracle = CapacityOracle(identity_problem(sp), PARAMS)
    with pytest.raises(ValueError, match="grid"):
        strichartz_check(oracle, SetMask.full(sp))
    with pytest.raises(ValueError, match="grid"):
        lebesgue_lower_bound_check(oracle, SetMask.full(sp), 0.5)


def test_oracle_caches_by_mask():
    sp = uspace(5)
    oracle = CapacityOracle(identity_problem(sp), PARAMS)
    a = oracle.result(SetMask.from_indices(sp, [1, 2]))
    b = oracle.result(SetMask.from_indices(sp, [1, 2]))
    assert a is b and oracle.cache_size == 1
    # identity rows of a family are closed forms: counted, never memoized
    oracle.gather(np.ones((3, 5), dtype=bool))
    assert (oracle.queries, oracle.hits, oracle.solved, oracle.batches) == (5, 1, 1, 1)
    assert oracle.cache_size == 1


def test_monotone_and_subadditive_certified():
    rng = np.random.default_rng(9)
    sp = DiscreteMeasureSpace(rng.random(16) + 0.25)
    B = rng.random((16, 16))
    prob = finite_problem(sp, (B + B.T) / 2 + np.eye(16))
    oracle = CapacityOracle(prob, CapacityParams(1.0, 2.0, tol=1e-6))
    for _ in range(20):
        small = SetMask(sp, rng.random(16) < 0.3)
        if small.is_empty:
            small = SetMask.from_indices(sp, [0])
        big = SetMask(sp, small.bools | (rng.random(16) < 0.3))
        assert oracle.result(small).lower <= oracle.result(big).upper * (1 + 1e-12)
        other = SetMask(sp, rng.random(16) < 0.3)
        if other.is_empty:
            other = SetMask.from_indices(sp, [1])
        u = oracle.result(small.union(other))
        assert u.lower <= (oracle.result(small).upper +
                           oracle.result(other).upper) * (1 + 1e-12)


# ---------------------------------------------------------------------------
# Capacitary layer cakes
# ---------------------------------------------------------------------------

def test_l1c_layer_cake_examples():
    sp = DiscreteMeasureSpace([1.0, 1.0])
    oracle = CapacityOracle(identity_problem(sp), PARAMS)
    est = l1c_norm(Field.of(sp, [2.0, 1.0]), oracle)
    assert est.value == pytest.approx(3.0) and est.mode == "exact"
    assert l1c_norm(Field.of(sp, [0.0, 0.0]), oracle).value == 0.0
    # c * chi_E collapses to one level
    est = l1c_norm(Field.of(sp, [0.0, 2.5]), oracle)
    assert est.value == pytest.approx(2.5 * 1.0)
    with pytest.raises(ValueError):
        l1c_norm(Field.of(sp, [-1.0, 0.0]), oracle)


@pytest.mark.parametrize("levels", [0, -3])
def test_l1c_rejects_level_caps_below_one(levels):
    # a zero cap once certified the bound 0 for a field whose norm is 11
    sp = uspace(4)
    oracle = CapacityOracle(identity_problem(sp), PARAMS)
    f = Field.of(sp, np.array([1.0, 2.0, 3.0, 5.0]))
    assert l1c_norm(f, oracle).value == pytest.approx(11.0)
    with pytest.raises(ValueError, match="max_levels"):
        l1c_norm(f, oracle, max_levels=levels)


def test_l1c_quantized_bracket():
    rng = np.random.default_rng(2)
    sp = DiscreteMeasureSpace(rng.random(40) + 0.2)
    oracle = CapacityOracle(identity_problem(sp), PARAMS)
    f = Field.of(sp, rng.lognormal(0, 1, 40))
    exact = l1c_norm(f, oracle)
    coarse = l1c_norm(f, oracle, max_levels=8)
    assert coarse.mode == "upper-bound"
    assert coarse.lo <= exact.value * (1 + 1e-12)
    assert exact.value <= coarse.value * (1 + 1e-12)


@pytest.mark.parametrize("kind", ["identity", "finite"])
def test_l1c_norm_adds_its_knots_in_level_order(kind):
    # the value, lower and upper sums over the knots u_1 > ... > u_k > 0,
    # each term cap * (u_i - u_(i+1)) added left to right
    rng = np.random.default_rng(31)
    m = 300 if kind == "identity" else 24
    sp = DiscreteMeasureSpace(rng.random(m) + 0.1)
    B = rng.random((m, m))
    oracle = CapacityOracle(identity_problem(sp) if kind == "identity" else
                            finite_problem(sp, (B + B.T) / 2 + np.eye(m)), PARAMS)
    omega = Field.of(sp, rng.lognormal(0.0, 1.0, m))
    est = l1c_norm(omega, oracle)
    u = np.sort(omega.values)[::-1]
    below = np.concatenate([u[1:], [0.0]])
    value, lower, _, _ = oracle.gather(omega.values >= u[:, None])
    upper = oracle.gather(omega.values > below[:, None])[2]
    for got, caps in ((est.value, value), (est.lo, lower), (est.hi, upper)):
        acc = 0.0
        for term in (caps * (u - below)).tolist():
            acc += term
        assert got == acc


@pytest.mark.parametrize("p, q", [(1.0, 1.0), (1.0, 0.5), (2.0, 1.5),
                                  (1.0, math.inf)])
@pytest.mark.parametrize("kind", ["identity", "grid"])
def test_thinned_capacitary_layer_cake_brackets_the_exact_one(kind, p, q):
    # 16 of at least 300 levels: the bracket holds the layer cake over every
    # level, and the value is the bracket's upper end, bit for bit
    if kind == "identity":
        rng = np.random.default_rng(37)
        sp = DiscreteMeasureSpace(rng.random(320) + 0.1)
        oracle = CapacityOracle(identity_problem(sp), PARAMS)
        f = Field.of(sp, rng.lognormal(0.0, 1.0, 320) * rng.choice([-1, 1], 320))
    else:   # a tilted bump on 512 cells: its superlevel sets are intervals
        grid = make_grid(1, 16.0, 512)
        params = CapacityParams(alpha=0.5, s=2.0, tol=1e-6)
        oracle = CapacityOracle(grid_problem(grid, params), params)
        x = grid.coords()[:, 0]
        f = Field(grid, np.exp(-x ** 2 / 8.0) * (1.0 + 0.05 * x))
    e = LorentzExponents(p, q)
    exact = _capacitary_layer_cake(f, e, oracle, None)
    thin = _capacitary_layer_cake(f, e, oracle, 16)
    assert np.unique(np.abs(f.values)).size >= 300
    assert exact.mode == "exact" and thin.mode == "upper-bound"
    assert thin.lo <= exact.value <= thin.hi
    assert thin.value == thin.hi and exact.value == exact.hi
    assert exact.lo <= exact.hi and (q == math.inf) == (thin.witness is not None)


@pytest.mark.parametrize("kind", ["identity", "finite"])
def test_l1c_norm_is_the_capacitary_layer_cake_at_one_one(kind):
    rng = np.random.default_rng(41)
    m = 40 if kind == "identity" else 16
    sp = DiscreteMeasureSpace(rng.random(m) + 0.1)
    B = rng.random((m, m))
    oracle = CapacityOracle(identity_problem(sp) if kind == "identity" else
                            finite_problem(sp, (B + B.T) / 2 + np.eye(m)), PARAMS)
    omega = Field.of(sp, rng.lognormal(0.0, 1.0, m) * (rng.random(m) > 0.2))
    a = l1c_norm(omega, oracle)
    b = capacitary_lorentz_norm(omega, LorentzExponents(1.0, 1.0), oracle)
    assert (a.value, a.lo, a.hi, a.max_gap, a.mode) == (b.value, b.lo, b.hi,
                                                        b.max_gap, b.mode)
    assert a.value == a.hi


def test_capacitary_lorentz_examples():
    sp = DiscreteMeasureSpace([1.0, 1.0])
    oracle = CapacityOracle(identity_problem(sp), PARAMS)
    chi = Field.of(sp, [0.0, 1.0])
    est = capacitary_lorentz_norm(chi, LorentzExponents(1, 1), oracle)
    assert est.value == pytest.approx(1.0)
    weak = capacitary_lorentz_norm(chi, LorentzExponents(1, math.inf), oracle)
    assert weak.value == pytest.approx(1.0)
    # scaled indicator at (1, q): prefactor (1/q)^(1/q) against c * cap(E)
    sp3 = DiscreteMeasureSpace([1.0, 2.0, 0.5])
    oracle3 = CapacityOracle(identity_problem(sp3), PARAMS)
    for c, q in ((2.5, 0.5), (0.7, 1.0), (1.0, 2.0)):
        f = Field.of(sp3, [c, c, 0.0])
        cap = 3.0  # counting capacity of the support
        est = capacitary_lorentz_norm(f, LorentzExponents(1.0, q), oracle3)
        assert est.value == pytest.approx((1 / q) ** (1 / q) * c * cap, rel=1e-12)


@pytest.mark.parametrize("q", [0.5, 0.75, 1.0])
def test_embedding_constants_on_counting_models(q):
    rng = np.random.default_rng(int(q * 100))
    for _ in range(10):
        m = int(rng.integers(2, 12))
        sp = DiscreteMeasureSpace(rng.random(m) + 0.2)
        oracle = CapacityOracle(identity_problem(sp), PARAMS)
        f = Field.of(sp, rng.lognormal(0, 1, m))
        strong = capacitary_lorentz_norm(f, LorentzExponents(1.0, q), oracle)
        weak = capacitary_lorentz_norm(f, LorentzExponents(1.0, math.inf), oracle)
        l1c = l1c_norm(Field.of(sp, np.abs(f.values)), oracle)
        assert weak.value <= q ** (1 / q) * strong.value * (1 + 1e-12)
        assert l1c.value <= q ** ((1 - q) / q) * strong.value * (1 + 1e-12)


# ---------------------------------------------------------------------------
# Localization and lower bounds on grids
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def grid_oracle():
    grid = make_grid(1, 16.0, 256)
    params = CapacityParams(alpha=0.5, s=2.0, tol=1e-6)
    return CapacityOracle(grid_problem(grid, params), params)


def interval(grid, center, half):
    x = grid.coords()[:, 0]
    return SetMask(grid, np.abs(x - center) <= half)


def test_unit_cover_partitions(grid_oracle):
    grid = grid_oracle.space
    tiles = unit_cover(grid)
    assert tiles.shape[1] == grid.size and not tiles.flags.writeable
    for row in tiles:
        assert SetMask(grid, row).diameter() <= 1.0 + 1e-12
    assert np.all(tiles.sum(axis=0) == 1)


def test_strichartz_single_and_split(grid_oracle):
    grid = grid_oracle.space
    inside = interval(grid, 0.5, 0.3)  # fits in one cover tile
    rep = strichartz_check(grid_oracle, inside)
    assert rep.pieces == 1
    assert rep.ratio == pytest.approx(1.0, abs=1e-9)
    spread = interval(grid, -3.0, 0.4).union(interval(grid, 3.0, 0.4))
    rep = strichartz_check(grid_oracle, spread)
    assert rep.subadditive_ok
    assert rep.pieces >= 2 and math.isfinite(rep.ratio)


def test_counting_model_measure_ratio():
    # with capacity equal to the counting measure the ratio |E|^eps / cap(E)
    # collapses to |E|^(eps-1) <= 1 for integer-mass sets and eps <= 1
    sp = uspace(6)
    oracle = CapacityOracle(identity_problem(sp), PARAMS)
    for idx in ([0], [1, 2], [0, 1, 2, 3, 4, 5]):
        mask = SetMask.from_indices(sp, idx)
        for eps in (0.25, 0.5, 1.0):
            ratio = mask.measure ** eps / oracle.value(mask)
            assert ratio == pytest.approx(mask.measure ** (eps - 1.0))
            assert ratio <= 1.0 + 1e-15


def test_lebesgue_lower_bound_windows(grid_oracle):
    grid = grid_oracle.space
    mask = interval(grid, 0.0, 1.0)
    rep = lebesgue_lower_bound_check(grid_oracle, mask, 0.5)
    assert math.isfinite(rep.ratio) and rep.ratio > 0
    assert lebesgue_lower_bound_check(
        grid_oracle, SetMask.empty(grid), 0.5).skipped
    with pytest.raises(ValueError):
        lebesgue_lower_bound_check(grid_oracle, mask, 1.5)
    # alpha*s < n: the floor of the window is (n - alpha*s)/n
    params = CapacityParams(alpha=0.5, s=1.5, tol=1e-6)
    oracle = CapacityOracle(grid_problem(grid, params), params)
    with pytest.raises(ValueError):
        lebesgue_lower_bound_check(oracle, mask, 0.1)
    assert lebesgue_lower_bound_check(oracle, mask, 0.25).ratio > 0


def test_oracle_rejects_params_of_another_kernel(grid_oracle):
    # the lower-bound check reads its epsilon window from the params: at
    # alpha = 2/3 on a kernel built at 1/2, s = 1.5 would open the window
    # [1/4, 1] to all of (0, 1]
    grid = grid_oracle.space
    params = CapacityParams(alpha=0.5, s=1.5, tol=1e-6)
    problem = grid_problem(grid, params)
    with pytest.raises(ValueError, match="kernel's alpha=0.5"):
        CapacityOracle(problem, CapacityParams(alpha=2.0 / 3.0, s=1.5, tol=1e-6))
    with pytest.raises(ValueError, match="admissible window"):
        lebesgue_lower_bound_check(CapacityOracle(problem, params),
                                   interval(grid, 0.0, 1.0), 0.1)


def test_diameter_matches_brute_force():
    # row ends carry every hull vertex, so the exact farthest pair is found
    # on collinear sets (rows, columns, diagonals) and on scattered ones
    grid = make_grid(2, 4.0, 32)
    pts = grid.coords()
    rng = np.random.default_rng(7)
    sets = [np.eye(32, dtype=bool), np.fliplr(np.eye(32, dtype=bool))]
    for line in (np.s_[5, 3:29:4], np.s_[2:30, 17], np.s_[9, 9]):
        b = np.zeros((32, 32), bool)
        b[line] = True
        sets.append(b)
    sets += [rng.random((32, 32)) < p for p in (0.005, 0.02, 0.3)]
    for b in sets:
        cells = pts[b.ravel()]
        brute = np.sqrt(((cells[:, None] - cells[None]) ** 2).sum(axis=2))
        assert _diameter(grid, b.ravel()) == brute.max()
    assert all(b.any() for b in sets)
    assert _diameter(grid, np.zeros(grid.size, bool)) == 0.0
