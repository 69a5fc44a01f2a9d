"""Block decompositions, the trace class, and the exact Koethe dual of a
Lorentz space.

A block is a field supported in a bounded set E whose Lorentz norm is
normalized against a power of cap(E): exponent 1/q' for B-type blocks and
1/p' for the script variant.  Block-norm infima are not computable; the
artifact certifies upper bounds only, each carried by an explicit
decomposition witness, and checks the inequality directions that the
decompositions imply.

A `BlockDecomposition` is the columns it is built from: the coefficients,
the block matrix, its support matrix and the normalizations, one row per
term.  The constructive decomposition splits a field over dyadic weight
levels crossed with unit annuli around the origin (finite models carry no
geometry, so there the annulus index collapses to a single band); every
emitted block is tight by construction and reconstruction is exact on the
covered cells.  `block_norms_upper_greedy` decomposes a group of fields on
one oracle as one stack: lockstep peels, one solve batch of every peel
support, and one gather and one `lorentz_norms` stack for the terms of all
fields, then one more of each to validate the blocks; each field keeps the
bits of its batch of one.  A decomposition pairs against a
multiplier-space function through `support_family()`, its support matrix
handed over as an explicit test-set family with no `SetMask` per row, and
`reconstruction()`, the field sum_k lambda_k b_k that the constructor sums
once for its residual check and keeps, so that
|int f g| <= ||f||_M * sum_k |lambda_k| can be checked with the multiplier
module's estimates and `measure.pairing`.

The trace class is a supremum over sets of |mu|(K)/cap(K): `trace_norm`
feeds the multiplier module's one supremum engine and the threshold form
(the least feasible float threshold) from one `CapacityOracle.gather` of
the family's set matrix and one product of that matrix with |mu|.

The Koethe dual norm of L^{P,Q} on at most 6 atoms is exact: the level-
function closed form, maximized over every order of the atoms in one stack,
certified from below by its witness's pairing over its `lorentz_norms` norm.
The table of the m! orders depends on m only and is built once per atom
count (at most 6 entries, 4320 indices at m = 6).
"""
from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass, field, replace
from typing import Optional

import numpy as np

from .capacity import CapacityOracle, NormEstimate, _measures, _stack_rows
from .grid import Grid
from .measure import Field, LorentzExponents, _same_space, lorentz_norms
from .multiplier import TestSetFamily, _explicit_rows, _sup_over_sets
from .weights import Weight

__all__ = [
    "BlockDecomposition",
    "AtomicMeasure",
    "block_norm_upper_constructive",
    "block_norm_upper_greedy",
    "block_norms_upper_greedy",
    "transport_decomposition",
    "trace_norm",
    "lorentz_kothe_dual_norm",
]

_NORMALIZATION_SLACK = 1e-12


# ---------------------------------------------------------------------------
# Blocks
# ---------------------------------------------------------------------------

def _capacity_exponent(e: LorentzExponents, norm_type: str) -> float:
    if norm_type == "B":
        return 1.0 / e.q_conj
    if norm_type == "scriptB":
        return 1.0 / e.p_conj
    raise ValueError(f"unknown block type {norm_type!r}")


def _validate_blocks(blocks: np.ndarray, supports: np.ndarray,
                     e: LorentzExponents, norm_type: str,
                     oracle: CapacityOracle) -> np.ndarray:
    """The normalizations of the rows of the block matrix on the rows of the
    bool support matrix; anything above 1 + 1e-12 raises.  Zero rows get 0;
    the others read their capacities from one gather and their norms from
    one `lorentz_norms` stack, each row with the bits of its own batch of
    one."""
    if np.any(blocks[~supports] != 0.0):
        raise ValueError("block does not vanish off its support")
    live = np.flatnonzero(np.any(blocks != 0.0, axis=1))
    norms = np.zeros(len(blocks))
    if live.size:
        power = _capacity_exponent(e, norm_type)
        if e.q == math.inf:
            raise ValueError("blocks need q < inf")
        # libm's pow, as a scalar power; numpy's vector ** differs in the last bit
        norms[live] = (np.float_power(oracle.gather(supports[live])[0], power)
                       * lorentz_norms(blocks[live], oracle.space.weights, e))
        over = np.flatnonzero(norms > 1.0 + _NORMALIZATION_SLACK)
        if over.size:
            raise ValueError(f"block normalization {norms[over[0]]} exceeds 1")
    return norms


@dataclass(eq=False)
class BlockDecomposition:
    """target = sum_k lambdas[k] blocks[k], as columns: the coefficients
    (K,), the blocks (K, size), their bool supports (K, size) and their
    normalizations (K,), all of one exponent pair and block type ('B', with
    capacity exponent 1/q', or 'scriptB', with 1/p').  The constructor
    sums the reconstruction once, keeps it, and records its residual and
    sum |lambda_k|."""

    lambdas: np.ndarray
    blocks: np.ndarray
    supports: np.ndarray
    normalization: np.ndarray
    exponents: LorentzExponents
    norm_type: str
    target: Field
    residual: float = field(init=False)
    sum_lambda: float = field(init=False)
    _reconstruction: Field = field(init=False, repr=False)

    def __post_init__(self):
        acc = np.zeros(self.target.space.size)
        for lam, row in zip(self.lambdas.tolist(), self.blocks):
            acc += lam * row
        self._reconstruction = Field(self.target.space, acc)
        self.residual = float(np.abs(self.target.values - acc).max(initial=0.0))
        scale = float(np.abs(self.target.values).max(initial=0.0))
        if scale > 0.0 and self.residual > 1e-9 * max(scale, 1e-300):
            raise ValueError(f"reconstruction residual {self.residual:.3e} "
                             f"exceeds 1e-9*scale")
        self.sum_lambda = float(sum(abs(lam) for lam in self.lambdas.tolist()))

    def support_family(self) -> TestSetFamily:
        """The support matrix, as an explicit test-set family."""
        return _explicit_rows(self.target.space, self.supports)

    def reconstruction(self) -> Field:
        """sum_k lambda_k block_k, summed term by term in order by the
        constructor."""
        return self._reconstruction


def _tight_terms(targets: list, bits: np.ndarray, pieces: np.ndarray, ends,
                 e: LorentzExponents, norm_type: str,
                 oracle: CapacityOracle) -> list:
    """The decomposition of targets[k] from rows ends[k]:ends[k + 1] of the
    support matrix `bits` and the piece matrix `pieces`: lambda is the
    piece's Lorentz norm times the capacity factor and the block is
    piece / lambda, so its normalization is exactly 1; pieces with
    lambda = 0 are dropped.  All segments take one gather, one
    `lorentz_norms` stack and one `_validate_blocks` call, each row with the
    bits of its batch of one."""
    space = oracle.space
    # libm's pow, as a scalar power; numpy's vector ** differs in the last bit
    lams = lorentz_norms(pieces, space.weights, e) * np.float_power(
        oracle.gather(bits)[0], _capacity_exponent(e, norm_type))
    kept = np.flatnonzero(lams != 0.0)
    blocks, supports = pieces[kept] / lams[kept, None], bits[kept]
    norms = _validate_blocks(blocks, supports, e, norm_type, oracle)
    cuts = np.searchsorted(kept, ends)
    return [BlockDecomposition(lams[kept[a:b]], blocks[a:b], supports[a:b],
                               norms[a:b], e, norm_type, f)
            for f, a, b in zip(targets, cuts[:-1], cuts[1:])]


def _annulus_index(space) -> np.ndarray:
    """Unit annuli around the origin on grids; a single band elsewhere."""
    if isinstance(space, Grid):
        return np.ceil(space.radius()).astype(int)
    return np.zeros(space.size, dtype=int)


def block_norm_upper_constructive(f: Field, e: LorentzExponents, omega: Weight,
                                  oracle: CapacityOracle) -> BlockDecomposition:
    """Decomposition over dyadic weight levels crossed with unit annuli.

    Pieces are E_k n D_l with E_k = {2^(k-1) < w <= 2^k}; the coefficient is
    the piece's Lorentz norm times cap(piece)^(1/q') and the block is the
    piece normalized by the same factor, so every emitted block is tight
    (normalization exactly 1) and reconstruction is exact.  Pieces where f
    vanishes are skipped.  The guarantee behind the sum-of-coefficients
    bound needs p <= q; other exponent pairs are accepted as a heuristic
    and simply recorded.
    """
    _same_space(oracle.space, f, omega.field)
    w = omega.values
    vals = f.values
    ann = _annulus_index(f.space)
    live = vals != 0.0
    level_of = np.ceil(np.log2(w)).astype(int)
    keys = sorted({(int(k), int(l)) for k, l in zip(level_of[live], ann[live])})
    bits = np.array([(level_of == k) & (ann == l) & live for k, l in keys],
                    dtype=bool).reshape(-1, f.space.size)
    pieces = np.where(bits, vals, 0.0)
    return _tight_terms([f], bits, pieces, [0, len(bits)], e, "B", oracle)[0]


def _greedy_peels(fields: list, sets: list, space) -> tuple:
    """The peels of each field over the rows of its bool set matrix, largest
    residual energy first, the first such set on ties, as a (supports,
    pieces, ends) stack with field k's peels in rows ends[k]:ends[k + 1];
    they need no capacity.  The fields peel in lockstep rounds, one
    `_measures` call per round over the sets of every field.  The first
    field its dictionary does not cover raises."""
    bits, owner, ends = _stack_rows(sets, space.size)
    residual = np.reshape([f.values for f in fields], (-1, space.size))
    peels, uncovered = [[] for _ in fields], {}   # per field, (row, piece)
    while (live := np.flatnonzero(np.any(residual != 0.0, axis=1))).size:
        energies = _measures(space.weights * residual[owner] ** 2, bits)
        for k in live:
            i = ends[k] + int(np.argmax(energies[ends[k]:ends[k + 1]]))
            if energies[i] <= 0.0:   # no set reaches the rest: stop peeling it
                uncovered[k] = int((residual[k] != 0.0).sum())
                residual[k] = 0.0
                continue
            peels[k].append((i, np.where(bits[i], residual[k], 0.0)))
            residual[k] = np.where(bits[i], 0.0, residual[k])
    if uncovered:
        raise ValueError(f"dictionary does not cover the field support "
                         f"({uncovered[min(uncovered)]} cells uncovered)")
    flat = [peel for ps in peels for peel in ps]   # field by field
    return (bits[[i for i, _ in flat]],
            np.reshape([piece for _, piece in flat], (-1, space.size)),
            np.cumsum([0] + [len(ps) for ps in peels]))


def block_norms_upper_greedy(fields: list, e: LorentzExponents,
                             dictionaries: list, oracle: CapacityOracle,
                             norm_type: str = "B") -> list:
    """`block_norm_upper_greedy` of each (field, dictionary) pair, as one
    stack (module docstring): the gather of `_tight_terms` solves every peel
    support in one batch."""
    space = oracle.space
    _same_space(space, *fields)
    peels = _greedy_peels(fields, [d.sets(space, f) for f, d in
                                   zip(fields, dictionaries)], space)
    return _tight_terms(fields, *peels, e, norm_type, oracle)


def block_norm_upper_greedy(f: Field, e: LorentzExponents,
                            dictionary: TestSetFamily, oracle: CapacityOracle,
                            omega: Optional[Weight] = None,
                            norm_type: str = "B") -> BlockDecomposition:
    """Greedy peeling of f over dictionary supports, largest energy first.

    Each peel removes the residual restricted to the chosen support and
    emits it as one tight block.  If the dictionary fails to cover the
    support of f the leftover support is reported.  When a weight is
    supplied the constructive route is also built and the smaller of the
    two coefficient sums is returned.  The batch of one of
    `block_norms_upper_greedy`, which many fields on one oracle should use.
    """
    greedy = block_norms_upper_greedy([f], e, [dictionary], oracle, norm_type)[0]
    if omega is not None and norm_type == "B":
        constructive = block_norm_upper_constructive(f, e, omega, oracle)
        if constructive.sum_lambda < greedy.sum_lambda:
            return constructive
    return greedy


def transport_decomposition(decomp: BlockDecomposition,
                            g: Field, oracle: CapacityOracle) -> BlockDecomposition:
    """Solidity transport: carry a decomposition of f to any |g| <= |f|.

    Each block is multiplied by g/f on {f != 0}; supports shrink and
    Lorentz norms do not increase, so the transported terms are valid
    blocks with the same coefficients and they reconstruct g exactly.
    """
    _same_space(oracle.space, g, decomp.target)
    fvals = decomp.target.values
    if np.any(np.abs(g.values) > np.abs(fvals) * (1.0 + 1e-15)):
        raise ValueError("transport requires |g| <= |f| pointwise")
    with np.errstate(divide="ignore", invalid="ignore"):
        factor = np.where(fvals != 0.0, g.values / fvals, 0.0)
    moved = decomp.blocks * factor
    return replace(decomp, blocks=moved, target=g, normalization=_validate_blocks(
        moved, decomp.supports, decomp.exponents, decomp.norm_type, oracle))


# ---------------------------------------------------------------------------
# Trace class
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class AtomicMeasure:
    """Signed masses per atom/cell with componentwise total variation."""

    space: object
    masses: np.ndarray = field(repr=False)

    def __post_init__(self):
        m = np.asarray(self.masses, dtype=float)
        if m.shape != (self.space.size,):
            raise ValueError("masses must match the space size")
        if not np.all(np.isfinite(m)):
            raise ValueError("masses must be finite")
        m = m.copy()
        m.setflags(write=False)
        object.__setattr__(self, "masses", m)

    @property
    def total_variation(self) -> np.ndarray:
        return np.abs(self.masses)


def trace_norm(mu: AtomicMeasure, family: TestSetFamily,
               oracle: CapacityOracle) -> tuple:
    """(sup form, threshold form) of the trace norm of mu over the family's
    sets, from one gather and one product of the set matrix with |mu|.

    The sup form estimates sup |mu|(K)/cap(K), exactly for all subsets of a
    finite model.  The threshold form is the least float a with
    |mu|(E) <= a cap(E) for every set E (inf when a variation overflows).
    Feasibility is monotone under rounding, so a is found in a few ulp
    steps from max |mu|(E)/cap(E), or by bisection over bit patterns when
    the products overflow or go subnormal.  The forms agree to roundoff
    plus capacity gaps.
    """
    _same_space(oracle.space, mu)
    sets = family.sets(oracle.space)
    gathered = oracle.gather(sets)
    variations = sets.astype(float) @ mu.total_variation
    sup_form = _sup_over_sets([family], [sets], gathered, variations,
                              oracle.space, 1.0)[0]
    keep = gathered[0] > 0.0
    caps, variations = gathered[0][keep], variations[keep]
    top = float(variations.max(initial=0.0))
    if top in (0.0, math.inf):   # no positive variation, or one overflows
        return sup_form, top

    def feasible(k: int) -> bool:
        """P at the float of bit pattern k >= 0 (ordered as their floats)."""
        return bool(np.all(variations <= np.int64(k).view(np.float64) * caps))

    no, yes = 0, int(np.float64(np.inf).view(np.int64))  # P(0) false, P(inf) true
    k = int(np.max(variations / caps).view(np.int64))
    for _ in range(8):   # a few ulps away unless products leave the normal range
        if feasible(k):
            yes, k = k, k - 1
        else:
            no, k = k, k + 1
        if yes - no == 1:
            break
    while yes - no > 1:
        mid = (no + yes) // 2
        no, yes = (no, mid) if feasible(mid) else (mid, yes)
    return sup_form, float(np.int64(yes).view(np.float64))


# ---------------------------------------------------------------------------
# Integral duals
# ---------------------------------------------------------------------------

@functools.cache   # one entry per atom count m <= 6
def _orders(m: int) -> np.ndarray:
    """Every order of m atoms, one per row, read-only."""
    orders = np.array(list(itertools.permutations(range(m))))
    orders.setflags(write=False)
    return orders


def lorentz_kothe_dual_norm(f: Field, e: LorentzExponents) -> NormEstimate:
    """sup of int |f g| over ||g||_{P,Q} <= 1, e = (P, Q) with 1 < Q < inf,
    exactly, on at most 6 atoms.

    A g decreasing along an order of the atoms has ||g||^Q = sum_k v_k g_k^Q,
    v_k = V_k - V_(k-1), V_k = (P/Q) W_k^(Q/P), W_k the weight of the first
    k atoms.  Over that cone, sup sum_k c_k g_k with c_k = |f_k| w_k is the
    level-function value (sum_k v_k s_k^Q')^(1/Q') (Sawyer, Studia Math. 96,
    1990; Sinnamon, Studia Math. 111, 1994): s_k is the slope over atom k of
    the least concave majorant of the partial sums (V_k, C_k), the least
    over i < k of the greatest chord slope from point i to a point j >= k.
    Every g decreases along some order, so the norm is the largest value
    over all m! orders, taken as one stack; on weighted atoms the order of
    |f| alone can fall short.  The witness is g_k = s_k^(Q'-1) along the
    best order; `lo` is its pairing with |f| over its `lorentz_norms` norm,
    `hi` the closed form.  A nonzero field whose max |f| or norm is not a
    normal float raises ValueError (subnormals carry no relative precision).
    """
    m = f.space.size
    if m > 6:
        raise ValueError(f"exact Lorentz dual limited to 6 atoms, got {m}")
    qc = e.q_conj                       # raises unless 1 < Q < inf
    w, scale = f.space.weights, float(np.abs(f.values).max(initial=0.0))
    if scale == 0.0:
        return NormEstimate(0.0, "exact", witness=np.zeros(m), lo=0.0, hi=0.0)
    a = np.abs(f.values) / scale    # homogeneity keeps the powers in range
    orders = _orders(m)
    C, W = np.cumsum(np.pad(np.stack([a * w, w])[:, orders],
                            ((0, 0), (0, 0), (1, 0))), axis=2)
    V = (e.p / e.q) * W ** (e.q / e.p)
    later = np.triu(np.ones((m + 1, m + 1), dtype=bool), 1)     # j > i
    chords = np.where(later, (C[:, None, :] - C[:, :, None]) / np.where(
        later, V[:, None, :] - V[:, :, None], 1.0), -np.inf)    # [., i, j]
    reach = np.maximum.accumulate(chords[..., ::-1], axis=2)[..., ::-1]  # j >= k
    s = np.minimum.accumulate(reach, axis=1)[:, np.arange(m), np.arange(1, m + 1)]
    totals = np.sum(np.diff(V, axis=1) * s ** qc, axis=1)
    best = int(np.argmax(totals))
    g = np.zeros(m)
    g[orders[best]] = s[best] ** (qc - 1.0)
    hi = scale * float(totals[best] ** (1.0 / qc))
    if not (np.finfo(float).tiny <= scale and np.finfo(float).tiny <= hi < math.inf):
        raise ValueError(f"exact Lorentz dual: max |f| = {scale!r} or the norm "
                         f"{hi!r} is not a normal float")
    lo = scale * float(np.sum(a * g * w) / lorentz_norms(g[None], w, e)[0])
    return NormEstimate(hi, "exact", witness=g, lo=lo, hi=hi)
