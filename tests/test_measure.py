"""Lorentz metrology: hand-checked examples, independent oracles, properties."""
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

import capflow
from capflow.measure import (DiscreteMeasureSpace, Field, LorentzExponents,
                             decreasing_rearrangement, distribution_function,
                             gamma_norm, gamma_sandwich_bound, lorentz_norm,
                             lorentz_norms, pairing, power_identity_check)


def space(*weights):
    return DiscreteMeasureSpace(list(weights))


def fld(sp, *values):
    return Field.of(sp, list(values))


# ---------------------------------------------------------------------------
# Spaces and fields
# ---------------------------------------------------------------------------

def test_space_rejects_bad_weights():
    with pytest.raises(ValueError):
        DiscreteMeasureSpace([1.0, 0.0])
    with pytest.raises(ValueError):
        DiscreteMeasureSpace([1.0, -2.0])
    with pytest.raises(ValueError):
        DiscreteMeasureSpace([])
    with pytest.raises(ValueError):
        DiscreteMeasureSpace([1.0, math.inf])


def test_field_rejects_mismatch_and_nonfinite():
    sp = space(1, 1)
    with pytest.raises(ValueError):
        Field.of(sp, [1.0])
    with pytest.raises(ValueError):
        Field.of(sp, [1.0, math.nan])


def test_exponent_guards():
    e = LorentzExponents(2.0, 1.0)
    assert e.p_conj == 2.0
    with pytest.raises(ValueError):
        _ = e.q_conj
    with pytest.raises(ValueError):
        _ = LorentzExponents(1.0, 2.0).p_conj
    with pytest.raises(ValueError):
        LorentzExponents(0.0, 2.0)
    # conjugate identity
    e2 = LorentzExponents(1.5, 3.0)
    assert abs(1.0 / e2.p + 1.0 / e2.p_conj - 1.0) < 1e-15
    assert abs(1.0 / e2.q + 1.0 / e2.q_conj - 1.0) < 1e-15


# ---------------------------------------------------------------------------
# Distribution function
# ---------------------------------------------------------------------------

def test_distribution_two_atoms():
    d = distribution_function(fld(space(1, 1), 3, 4))
    assert d(0.0) == 2 and d(2.9) == 2
    assert d(3.0) == 1 and d(3.9) == 1
    assert d(4.0) == 0 and d(100.0) == 0


def test_distribution_zero_field():
    d = distribution_function(fld(space(1, 2), 0, 0))
    assert d(0.0) == 0 and d(5.0) == 0


def test_distribution_with_ties_and_weights():
    # levels of (2,1,2) against masses (1,2,3): 6 on [0,1), 4 on [1,2), 0 after
    d = distribution_function(fld(space(1, 2, 3), 2, 1, 2))
    assert d(0.0) == 6 and d(0.99) == 6
    assert d(1.0) == 4 and d(1.5) == 4
    assert d(2.0) == 0


def test_rearrangement_is_equimeasurable():
    sp = space(0.5, 1.5, 2.0)
    f = fld(sp, -3, 1, 2)
    r = decreasing_rearrangement(f)
    d = distribution_function(f)
    assert r(0.0) == 3.0 and r(0.49) == 3.0
    assert r(0.5) == 2.0 and r(2.0) == 2.0 and r(2.5) == 1.0 and r(4.0) == 0.0
    assert d(0.0) == 4.0
    # equimeasurability: Lebesgue measure of {f* > t} equals mu({|f| > t})
    knots = np.concatenate([[0.0], r.breakpoints])
    for t in (0.0, 0.5, 1.5, 2.5, 3.5):
        lebesgue = sum(b - a for a, b, v in
                       zip(knots[:-1], knots[1:], r.plateaus[:-1]) if v > t)
        assert lebesgue == d(t)


# ---------------------------------------------------------------------------
# Lorentz quasi-norm: closed form against oracles
# ---------------------------------------------------------------------------

def test_indicator_closed_form():
    # ||chi_E||_{p,q} = (p/q)^(1/q) mu(E)^(1/p)
    sp = space(1, 2, 3)
    chi = fld(sp, 0, 1, 1)
    for p, q in ((2.0, 1.0), (3.0, 1.5), (1.2, 0.7)):
        want = (p / q) ** (1 / q) * 5.0 ** (1 / p)
        assert lorentz_norm(chi, LorentzExponents(p, q)) == pytest.approx(want, rel=1e-14)


def test_p_equals_q_is_plain_norm():
    assert lorentz_norm(fld(space(1, 1), 3, 4), LorentzExponents(2, 2)) == \
        pytest.approx(5.0, rel=1e-15)


def test_two_level_hand_value():
    # layer cake of (2,1) at p=2, q=1, evaluated piecewise by hand
    got = lorentz_norm(fld(space(1, 1), 2, 1), LorentzExponents(2, 1))
    assert got == pytest.approx(2 * (math.sqrt(2) + 1), rel=1e-14)


def test_infinite_q_is_the_weak_row_of_the_stack():
    # candidates 1*sqrt(2) and 2*1: the top level wins, by hand
    f = fld(space(1, 1), 2, 1)
    e = LorentzExponents(2, math.inf)
    assert lorentz_norm(f, e) == 2.0
    assert lorentz_norm(f, e) == \
        lorentz_norms(f.values[None], f.space.weights, e)[0]


def layer_cake_quadrature(f, p, q):
    """Independent oracle: numeric integration of the distribution function."""
    d = distribution_function(f)
    knots = np.concatenate([[0.0], d.breakpoints])
    acc = 0.0
    for a, b in zip(knots[:-1], knots[1:]):
        val, _ = quad(lambda t: d(t) ** (q / p) * t ** (q - 1), a, b,
                      epsabs=0.0, epsrel=1e-12)
        acc += val
    return (p * acc) ** (1.0 / q)


@pytest.mark.parametrize("seed", range(12))
def test_closed_form_matches_quadrature(seed):
    rng = np.random.default_rng(seed)
    m = int(rng.integers(2, 40))
    sp = DiscreteMeasureSpace(rng.random(m) + 0.1)
    f = Field.of(sp, rng.lognormal(0, 1, m) * rng.choice([-1, 1], m))
    p, q = rng.uniform(0.7, 3.0), rng.uniform(0.7, 3.0)
    closed = lorentz_norm(f, LorentzExponents(p, q))
    assert closed == pytest.approx(layer_cake_quadrature(f, p, q), rel=1e-9)


def test_weak_norm_breakpoints():
    # candidates 1*sqrt(2) and 2*1: the top level wins
    weak = LorentzExponents(2.0, math.inf)
    assert lorentz_norm(fld(space(1, 1), 2, 1), weak) == pytest.approx(2.0)
    # single level: c * mu(E)^(1/p)
    assert lorentz_norm(fld(space(2, 1), 3, 0), weak) == \
        pytest.approx(3 * math.sqrt(2), rel=1e-14)
    assert lorentz_norm(fld(space(1, 1), 0, 0), weak) == 0.0


def test_weak_below_strong_small_q():
    rng = np.random.default_rng(7)
    for q in (0.5, 1.0):
        for _ in range(50):
            m = int(rng.integers(2, 20))
            sp = DiscreteMeasureSpace(rng.random(m) + 0.1)
            f = Field.of(sp, rng.lognormal(0, 1, m))
            p = rng.uniform(0.8, 3.0)
            weak = lorentz_norm(f, LorentzExponents(p, math.inf))
            strong = lorentz_norm(f, LorentzExponents(p, q))
            assert weak <= (q / p) ** (1 / q) * strong * (1 + 1e-12)


# ---------------------------------------------------------------------------
# Stacked Lorentz norms against the per-field path they replaced
# ---------------------------------------------------------------------------

def reference_levels(f):
    """Per-field levels: one np.unique per field, ties merged."""
    a = np.abs(f.values)
    pos = a > 0.0
    if not pos.any():
        return np.empty(0), np.empty(0)
    vals, ws = a[pos], f.space.weights[pos]
    order = np.argsort(-vals, kind="stable")
    vals, ws = vals[order], ws[order]
    u, start = np.unique(-vals, return_index=True)
    return -u, np.cumsum(np.add.reduceat(ws, start))


def reference_norm(f, e):
    """Per-field layer cake on 1-D levels, rooted as a scalar."""
    u, m = reference_levels(f)
    if u.size == 0:
        return 0.0
    p, q = e.p, e.q
    if q == math.inf:
        return float(np.max(u * m ** (1.0 / p)))
    uq = u ** q
    drops = uq - np.concatenate([uq[1:], [0.0]])
    total = np.cumsum(m ** (q / p) * drops)[-1]   # in level order
    return float((p / q) ** (1.0 / q) * total ** (1.0 / q))


def stacks():
    """(weights, stack) cases: ties, zeros, all-zero rows, batches of one,
    rows of up to 256 cells, and level counts that mix with empty rows."""
    rng = np.random.default_rng(20)
    out = [(np.ones(4), np.array([[1.0, 2.0, 0.0, 0.0], [1.0, 2.0, 3.0, 4.0],
                                  [0.0, 0.0, 0.0, 0.0]])),
           (np.ones(3), np.zeros((2, 3)))]
    for size in (1, 3, 8, 17, 33, 256):
        w = rng.random(size) + 0.1
        V = rng.lognormal(0.0, 1.0, (24, size)) * rng.choice([-1.0, 1.0], (24, size))
        V[::3] = np.round(V[::3] * 2.0) / 2.0
        V[1::4] *= rng.random((6, size)) < 0.5
        V[5] = 0.0
        out += [(w, V), (np.ones(size), np.round(V)), (w, V[:1]),
                (w, np.concatenate([np.tile(V[0], (3, 1)), V[5:6]]))]
    return out


PAIRS = [(2.0, 2.0), (2.0, 1.0), (3.0, 1.5), (1.5, 2.0), (0.8, 1.3),
         (2.0, 0.5), (2.5, math.inf)]


@pytest.mark.parametrize("p,q", PAIRS)
def test_stacked_norms_match_per_field_reference_bit_for_bit(p, q):
    e = LorentzExponents(p, q)
    for w, V in stacks():
        sp = DiscreteMeasureSpace(w)
        want = [reference_norm(Field.of(sp, row), e) for row in V]
        assert lorentz_norms(V, w, e).tolist() == want
        single = [lorentz_norm(Field.of(sp, row), e) for row in V]
        assert single == want


def test_stacked_norms_taller_than_one_chunk():
    rng = np.random.default_rng(21)
    size = 2 ** 14
    w = rng.random(size) + 0.1
    V = np.round(rng.lognormal(0.0, 1.0, (2 ** 20 // size + 3, size)), 2)
    e = LorentzExponents(1.5, 2.5)
    sp = DiscreteMeasureSpace(w)
    assert lorentz_norms(V, w, e).tolist() == \
        [reference_norm(Field.of(sp, row), e) for row in V]


@pytest.mark.parametrize("p,q", PAIRS)
def test_lorentz_norms_add_their_terms_in_level_order(p, q):
    # rows of 9 to 300 distinct levels, stacked together: each row's terms
    # are added left to right; numpy's pairwise sum groups them differently
    # from 9 terms on, and differs in some of these rows
    rng = np.random.default_rng(30)
    e = LorentzExponents(p, q)
    w = rng.random(300) + 0.1
    counts = [9, 10, 17, 64, 129, 300]
    V = np.zeros((len(counts), 300))
    for row, k in zip(V, counts):
        row[rng.permutation(300)[:k]] = rng.lognormal(0.0, 1.0, k)
    sp, pairwise = DiscreteMeasureSpace(w), 0
    for row, norm in zip(V, lorentz_norms(V, w, e).tolist()):
        u, m = reference_levels(Field.of(sp, row))
        assert u.size in counts
        if q == math.inf:
            assert norm == float(np.max(u * m ** (1.0 / p)))
            continue
        uq = u ** q
        terms = m ** (q / p) * (uq - np.concatenate([uq[1:], [0.0]]))
        acc = 0.0
        for term in terms.tolist():
            acc += term
        assert norm == (p / q) ** (1.0 / q) * acc ** (1.0 / q)
        pairwise += float(np.sum(terms)) != acc
    assert pairwise > 0 or q == math.inf


@pytest.mark.parametrize("p,q", PAIRS)
def test_padded_and_unpadded_rows_agree_bit_for_bit(p, q):
    # a field restricted to each of the 1023 subsets of 10 atoms, with ties:
    # rows of 1 to 9 levels padded to the longest row, against each row
    # alone, which has no padding: the padded terms add exact zeros
    rng = np.random.default_rng(33)
    w = rng.random(10) + 0.2
    f = np.round(rng.lognormal(0.0, 1.0, 10), 1)
    f[3] = f[7]
    bits = ((np.arange(1, 1 << 10)[:, None] >> np.arange(10)) & 1).astype(bool)
    stack = np.where(bits, f, 0.0)
    e = LorentzExponents(p, q)
    alone = [lorentz_norms(row[None], w, e)[0] for row in stack]
    assert lorentz_norms(stack, w, e).tobytes() == np.array(alone).tobytes()


@pytest.mark.parametrize("level, q", [(1e-150, 3.0), (1e-160, 2.0),
                                      (1e160, 2.0)],
                         ids=["underflow", "subnormal", "overflow"])
def test_norms_raise_when_the_top_level_power_is_not_normal(level, q):
    # u^q underflows to 0, lands among the subnormals or overflows: the
    # norm would read 0, lose digits or read inf, so it raises instead
    w = np.ones(2)
    e = LorentzExponents(2.0, q)
    f = Field.of(DiscreteMeasureSpace(w), [level, level])
    for call in (lambda: lorentz_norm(f, e),
                 lambda: lorentz_norms(np.array([[1.0, 2.0], [level, 0.0]]),
                                       w, e)):
        with pytest.raises(ValueError, match="not a normal float"):
            call()
    # the weak norm takes no power of the levels
    assert lorentz_norm(f, LorentzExponents(2.0, math.inf)) == level * math.sqrt(2.0)


def test_norms_of_normal_fields_keep_their_bits():
    # levels whose q-th powers are normal, down to near the smallest and up
    # to near the largest, give the reference bits, stacked or alone
    w = np.array([0.5, 1.0, 2.0])
    V = np.array([[1e-100, 3e-101, 0.0], [1e100, 1.0, 1e-200],
                  [2.0, 1.5, 0.25], [1e-150, 1e-150, 1e-150]])
    for p, q in ((2.0, 3.0), (1.5, 2.0), (0.8, 1.3)):
        e = LorentzExponents(p, q)
        sp = DiscreteMeasureSpace(w)
        rows = V if q < 2.0 else V[:3]
        want = [reference_norm(Field.of(sp, row), e) for row in rows]
        assert lorentz_norms(rows, w, e).tolist() == want
        assert [lorentz_norm(Field.of(sp, row), e) for row in rows] == want
        assert all(0.0 < x < math.inf for x in want)


def test_stacked_norms_reject_a_stack_of_another_width():
    w = np.ones(4)
    e = LorentzExponents(2.0, 2.0)
    for bad in (np.ones((2, 3)), np.ones(4), np.ones((1, 2, 4))):
        with pytest.raises(ValueError, match="stack"):
            lorentz_norms(bad, w, e)
    assert lorentz_norms(np.ones((0, 4)), w, e).shape == (0,)


# ---------------------------------------------------------------------------
# Pairing
# ---------------------------------------------------------------------------

def test_pairing_examples():
    sp = space(1, 1)
    chi = fld(sp, 1, 1)
    assert pairing(chi, chi) == pytest.approx(2.0)
    assert pairing(fld(sp, 1, 2), fld(sp, 3, -1)) == pytest.approx(1.0)
    assert pairing(fld(sp, 1, 2), fld(sp, 3, -1), absolute=True) == pytest.approx(5.0)


def test_pairing_space_mismatch():
    with pytest.raises(ValueError):
        pairing(fld(space(1), 1), fld(space(1), 1))


def test_cauchy_schwarz_instance():
    rng = np.random.default_rng(3)
    sp = DiscreteMeasureSpace(rng.random(9) + 0.1)
    e = LorentzExponents(2, 2)
    for _ in range(25):
        f = Field.of(sp, rng.standard_normal(9))
        g = Field.of(sp, rng.standard_normal(9))
        assert abs(pairing(f, g)) <= \
            lorentz_norm(f, e) * lorentz_norm(g, e) * (1 + 1e-12)


# ---------------------------------------------------------------------------
# Maximal-average renorming
# ---------------------------------------------------------------------------

def gamma_quadrature_oracle(f, p, q, r, n_grid=400001):
    """Independent high-resolution evaluation of the averaged-rearrangement
    integral: the first plateau analytically (the integrand is singular but
    exactly a power there), trapezoid rule up to the support mass, and the
    exact constant tail."""
    rearr = decreasing_rearrangement(f)
    T = float(rearr.breakpoints[-1])
    m1 = float(rearr.breakpoints[0])
    u1 = float(rearr.plateaus[0])
    beta = q / p - q / r
    total = u1 ** q * m1 ** (q / p) / (q / p)     # exact on [0, m1]
    if T > m1:
        ts = np.linspace(m1, T, n_grid)
        fs = rearr(ts) ** r
        A = u1 ** r * m1 + np.concatenate(
            [[0.0], np.cumsum((fs[1:] + fs[:-1]) / 2 * np.diff(ts))])
        integrand = ts ** (beta - 1.0) * A ** (q / r)
        total += np.trapezoid(integrand, ts)
        A_end = A[-1]
    else:
        A_end = u1 ** r * m1
    total += A_end ** (q / r) * T ** beta / (-beta)
    return total ** (1.0 / q)


def test_gamma_zero():
    assert gamma_norm(fld(space(1, 1), 0, 0), LorentzExponents(2, 2), 1.0) == 0.0


def test_gamma_indicator_pinned_value():
    # mass-one indicator at p=q=2, r=1: oracle pins sqrt(2)
    f = fld(space(1.0), 1.0)
    want = gamma_quadrature_oracle(f, 2, 2, 1)
    assert want == pytest.approx(math.sqrt(2), rel=1e-5)
    assert gamma_norm(f, LorentzExponents(2, 2), 1.0) == \
        pytest.approx(math.sqrt(2), rel=1e-7)


@pytest.mark.parametrize("pqr", [(2.0, 2.0, 1.0), (2.0, 1.0, 1.0),
                                 (3.0, 1.5, 0.5), (1.5, 1.0, 0.75)])
def test_gamma_matches_oracle_and_sandwich(pqr):
    p, q, r = pqr
    rng = np.random.default_rng(int(p * 10 + q * 100 + r * 1000))
    for _ in range(4):
        m = int(rng.integers(2, 9))
        sp = DiscreteMeasureSpace(rng.random(m) + 0.3)
        f = Field.of(sp, rng.lognormal(0, 1, m))
        e = LorentzExponents(p, q)
        gam = gamma_norm(f, e, r)
        assert gam == pytest.approx(gamma_quadrature_oracle(f, p, q, r), rel=2e-4)
        base = lorentz_norm(f, e)
        assert base <= gam * (1 + 1e-7) + 1e-12
        assert gam <= gamma_sandwich_bound(e, r) * base * (1 + 1e-7) + 1e-12


def test_gamma_rejects_bad_exponents():
    f = fld(space(1), 1)
    with pytest.raises(ValueError):
        gamma_norm(f, LorentzExponents(2, 2), 1.5)   # r > 1
    with pytest.raises(ValueError):
        gamma_norm(f, LorentzExponents(0.9, 2), 0.5)  # p <= 1 (also p <= r edge)
    with pytest.raises(ValueError):
        gamma_norm(f, LorentzExponents(2, 0.5), 1.0)  # q < 1


COLD_IMPORT = """
import json, sys
import capflow, capflow.cli
cold = sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))
f = capflow.Field.of(capflow.DiscreteMeasureSpace([0.5, 1.0, 0.25, 2.0]),
                     [3.0, -1.5, 0.75, 2.0])
g = capflow.gamma_norm(f, capflow.LorentzExponents(2.5, 1.5), 0.5)
print(json.dumps({"cold": cold, "gamma": float(g).hex(),
                  "quad": "scipy.integrate" in sys.modules}))
"""


def test_cold_import_loads_no_scipy_and_gamma_is_unchanged():
    # a fresh interpreter: importing the package and its CLI loads no scipy
    # module; gamma_norm loads the quadrature on first use and returns the
    # value it returned when scipy was imported with the module
    env = dict(os.environ,
               PYTHONPATH=os.pathsep.join(filter(None, [
                   str(Path(capflow.__file__).parents[1]),
                   os.environ.get("PYTHONPATH")])))
    out = subprocess.run([sys.executable, "-c", COLD_IMPORT], env=env,
                         capture_output=True, text=True, check=True)
    got = json.loads(out.stdout.splitlines()[-1])
    assert got["cold"] == []
    assert got["gamma"] == "0x1.a9815467b6d5bp+2"   # 6.6485186589082685
    assert got["quad"]


# ---------------------------------------------------------------------------
# Power identity
# ---------------------------------------------------------------------------

def test_power_identity_examples():
    sp = space(1, 1)
    assert power_identity_check(fld(sp, 3, 4), LorentzExponents(1, 1), 2.0) == \
        pytest.approx(0.0, abs=1e-12 * 25)
    assert power_identity_check(fld(sp, 2, 1), LorentzExponents(2, 1), 0.5) <= 1e-12
    assert power_identity_check(fld(sp, 0, 0), LorentzExponents(2, 1), 0.5) == 0.0


# ---------------------------------------------------------------------------
# Quasi-norm properties
# ---------------------------------------------------------------------------

finite_floats = st.floats(min_value=-50, max_value=50, allow_nan=False)


def _norm_or_raises(f, e):
    """lorentz_norm(f, e), or None where the top level's q-th power is not
    a normal float and the norm raises."""
    top = np.abs(f.values).max()
    if top == 0.0 or np.finfo(float).tiny <= top ** e.q < math.inf:
        return lorentz_norm(f, e)
    with pytest.raises(ValueError, match="not a normal float"):
        lorentz_norm(f, e)
    return None


@settings(max_examples=60, deadline=None)
@given(st.lists(finite_floats, min_size=1, max_size=8),
       st.floats(min_value=-4, max_value=4, allow_nan=False))
def test_homogeneity(values, lam):
    sp = DiscreteMeasureSpace(np.ones(len(values)))
    f = Field.of(sp, values)
    e = LorentzExponents(2.0, 1.5)
    got = _norm_or_raises(Field.of(sp, np.asarray(values) * lam), e)
    want = _norm_or_raises(f, e)
    if got is not None and want is not None:
        assert got == pytest.approx(abs(lam) * want, rel=1e-12, abs=1e-12)


@settings(max_examples=60, deadline=None)
@given(st.lists(st.floats(min_value=0, max_value=50, allow_nan=False),
                min_size=1, max_size=8))
def test_monotone_in_pointwise_domination(values):
    sp = DiscreteMeasureSpace(np.ones(len(values)))
    f = np.asarray(values)
    g = f * 0.5
    e = LorentzExponents(1.7, 2.3)
    small, large = (_norm_or_raises(Field.of(sp, v), e) for v in (g, f))
    if small is not None and large is not None:
        assert small <= large * (1 + 1e-12)


def test_unit_r_renorming_is_a_norm():
    # running-average subadditivity makes the r = 1 functional triangle
    rng = np.random.default_rng(13)
    for _ in range(20):
        m = int(rng.integers(2, 12))
        sp = DiscreteMeasureSpace(rng.random(m) + 0.2)
        f = rng.standard_normal(m)
        g = rng.standard_normal(m)
        e = LorentzExponents(rng.uniform(1.2, 3.0), rng.uniform(1.0, 3.0))
        both = gamma_norm(Field.of(sp, f + g), e, 1.0)
        apart = gamma_norm(Field.of(sp, f), e, 1.0) + \
            gamma_norm(Field.of(sp, g), e, 1.0)
        assert both <= apart * (1 + 1e-7)


def test_summed_quasi_triangle_constant():
    # chaining through the r = 1 renorming bounds m-term sums by p/(p-1)
    rng = np.random.default_rng(14)
    for _ in range(20):
        m = int(rng.integers(2, 10))
        sp = DiscreteMeasureSpace(rng.random(m) + 0.2)
        parts = [rng.standard_normal(m) for _ in range(4)]
        p, q = rng.uniform(1.2, 3.0), rng.uniform(1.0, 3.0)
        e = LorentzExponents(p, q)
        total = lorentz_norm(Field.of(sp, np.sum(parts, axis=0)), e)
        bound = p / (p - 1.0) * sum(lorentz_norm(Field.of(sp, v), e)
                                    for v in parts)
        assert total <= bound * (1 + 1e-12)


def test_monotone_convergence_of_truncations():
    rng = np.random.default_rng(11)
    sp = DiscreteMeasureSpace(rng.random(12) + 0.1)
    f = np.abs(rng.standard_normal(12)) + 0.1
    e = LorentzExponents(2.2, 0.8)
    cuts = np.linspace(0.1, 1.0, 8) * f.max()
    norms = [lorentz_norm(Field.of(sp, np.minimum(f, c)), e) for c in cuts]
    norms.append(lorentz_norm(Field.of(sp, f), e))
    assert all(b >= a - 1e-12 for a, b in zip(norms, norms[1:]))
    assert norms[-1] == pytest.approx(norms[-2], rel=1e-15)
