"""Block decompositions, the trace class, and a brute-force integral-dual
oracle.

A block is a field supported in a bounded set E whose Lorentz norm is
normalized against a power of cap(E): exponent 1/q' for B-type blocks and
1/p' for the script variant.  Block-norm infima are not computable; the
artifact certifies upper bounds only, each carried by an explicit
decomposition witness, and checks the inequality directions that the
decompositions imply.

The constructive decomposition splits a field over dyadic weight levels
crossed with unit annuli around the origin (finite models carry no
geometry, so there the annulus index collapses to a single band); every
emitted block is tight by construction and reconstruction is exact on the
covered cells.

A decomposition is paired against a multiplier-space function through its
two views: `supports()`, the block supports as an explicit test-set family
over which the multiplier norm is taken, and `reconstruction()`, the field
sum_k lambda_k b_k, so that |int f g| <= ||f||_M * sum_k |lambda_k| can be
checked with the multiplier module's estimates and `measure.pairing`.

The trace class is a supremum over sets of |mu|(K)/cap(K), so `trace_norm`
is a caller of the multiplier module's one supremum engine, with the
variations of a whole family taken as one product of its boolean set
matrix with |mu|; the threshold form and the all-subsets multiplier norm
read their capacities from one `CapacityOracle.gather` of the same matrix,
and the block supports of a decomposition are gathered in one batch too.
Lorentz norms of whole families (the block coefficients of a decomposition,
the restricted rows of `m_norm_batch`) come from one `lorentz_norms` stack.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from .capacity import CapacityOracle, NormEstimate, SetMask, _measures
from .grid import Grid
from .measure import (Field, LorentzExponents, _levels, lorentz_norm,
                      lorentz_norms)
from .multiplier import TestSetFamily, _sup_over_sets
from .weights import Weight

__all__ = [
    "Block",
    "BlockDecomposition",
    "AtomicMeasure",
    "validate_block",
    "block_norm_upper_constructive",
    "block_norm_upper_greedy",
    "transport_decomposition",
    "trace_norm",
    "trace_norm_inf_form",
    "kothe_dual_norm_bruteforce",
]

_NORMALIZATION_SLACK = 1e-12


# ---------------------------------------------------------------------------
# Blocks
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Block:
    """Normalized building block supported in a test set."""

    field: Field
    support: SetMask
    exponents: LorentzExponents
    norm_type: str            # 'B' (1/q') or 'scriptB' (1/p')
    normalization: float

    @property
    def values(self) -> np.ndarray:
        return self.field.values


def _capacity_exponent(e: LorentzExponents, norm_type: str) -> float:
    if norm_type == "B":
        return 1.0 / e.q_conj
    if norm_type == "scriptB":
        return 1.0 / e.p_conj
    raise ValueError(f"unknown block type {norm_type!r}")


def validate_block(b: Field, support: SetMask, e: LorentzExponents,
                   norm_type: str, oracle: CapacityOracle) -> Block:
    """Check support and normalization; reject anything above 1 + 1e-12."""
    if not (b.space is support.space is oracle.space):
        raise ValueError("block, support and oracle live on different spaces")
    off = ~support.bools
    if np.any(b.values[off] != 0.0):
        raise ValueError("block does not vanish off its support")
    if float(np.abs(b.values).max(initial=0.0)) == 0.0:
        return Block(b, support, e, norm_type, 0.0)
    cap = float(oracle.gather(support.bools[None])[0][0])
    norm = cap ** _capacity_exponent(e, norm_type) * lorentz_norm(b, e)
    if norm > 1.0 + _NORMALIZATION_SLACK:
        raise ValueError(f"block normalization {norm} exceeds 1")
    return Block(b, support, e, norm_type, norm)


def _combine(terms: list, space) -> np.ndarray:
    """sum_k lambda_k block_k."""
    acc = np.zeros(space.size)
    for lam, blk in terms:
        acc += lam * blk.values
    return acc


@dataclass
class BlockDecomposition:
    """Terms (lambda_k, block_k) with the reconstruction residual recorded."""

    terms: list
    target: Field
    residual: float
    sum_lambda: float

    @staticmethod
    def build(terms: list, target: Field) -> "BlockDecomposition":
        acc = _combine(terms, target.space)
        residual = float(np.abs(target.values - acc).max(initial=0.0))
        scale = float(np.abs(target.values).max(initial=0.0))
        if residual > 1e-9 * max(scale, 1e-300) and scale > 0.0:
            raise ValueError(
                f"reconstruction residual {residual:.3e} exceeds 1e-9*scale")
        sum_lambda = float(sum(abs(lam) for lam, _ in terms))
        return BlockDecomposition(terms, target, residual, sum_lambda)

    def supports(self) -> TestSetFamily:
        """The block supports, as an explicit test-set family."""
        return TestSetFamily.explicit([blk.support for _lam, blk in self.terms])

    def reconstruction(self) -> Field:
        """sum_k lambda_k block_k."""
        return Field(self.target.space, _combine(self.terms, self.target.space))


def _tight_terms(pieces: list, e: LorentzExponents, norm_type: str,
                 oracle: CapacityOracle) -> list:
    """One term per (support, piece): lambda is the piece's Lorentz norm
    times the capacity factor and the block is piece / lambda, so its
    normalization is exactly 1.  Pieces with lambda = 0 are dropped."""
    size = oracle.space.size
    caps = oracle.gather(np.array([mask.bools for mask, _ in pieces],
                                  dtype=bool).reshape(-1, size))[0].tolist()
    norms = lorentz_norms(np.reshape([piece for _, piece in pieces], (-1, size)),
                          oracle.space.weights, e).tolist()
    terms = []
    for (mask, piece), cap, norm in zip(pieces, caps, norms):
        lam = norm * cap ** _capacity_exponent(e, norm_type)
        if lam != 0.0:
            terms.append((lam, validate_block(Field(mask.space, piece / lam),
                                              mask, e, norm_type, oracle)))
    return terms


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
    w = omega.values
    vals = f.values
    ann = _annulus_index(f.space)
    live = vals != 0.0
    level_of = np.ceil(np.log2(w)).astype(int)
    keys = sorted({(int(k), int(l)) for k, l in zip(level_of[live], ann[live])})
    masks = [SetMask(f.space, (level_of == k) & (ann == l) & live) for k, l in keys]
    pieces = [(m, np.where(m.bools, vals, 0.0)) for m in masks]
    return BlockDecomposition.build(_tight_terms(pieces, e, "B", oracle), f)


def block_norm_upper_greedy(f: Field, e: LorentzExponents,
                            dictionary: TestSetFamily, oracle: CapacityOracle,
                            omega: Optional[Weight] = None,
                            norm_type: str = "B") -> BlockDecomposition:
    """Greedy peeling of f over dictionary supports, largest energy first.

    Each peel removes the residual restricted to the chosen support and
    emits it as one tight block.  If the dictionary fails to cover the
    support of f the leftover support is reported.  When a weight is
    supplied the constructive route is also built and the smaller of the
    two coefficient sums is returned.
    """
    sets = dictionary.sets(oracle.space, f)
    residual = f.values.copy()
    # the peel order depends on the residual alone, so the supports are
    # known before any capacity is needed
    peels = []
    while np.any(residual != 0.0):
        energies = _measures(f.space.weights * residual ** 2, sets)
        i = int(np.argmax(energies))   # the first set of the largest energy
        if energies[i] <= 0.0:
            leftover = int((residual != 0.0).sum())
            raise ValueError(
                f"dictionary does not cover the field support "
                f"({leftover} cells uncovered)")
        peels.append((SetMask(oracle.space, sets[i]),
                      np.where(sets[i], residual, 0.0)))
        residual = np.where(sets[i], 0.0, residual)
    greedy = BlockDecomposition.build(_tight_terms(peels, e, norm_type, oracle), f)
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
    fvals = decomp.target.values
    if np.any(np.abs(g.values) > np.abs(fvals) * (1.0 + 1e-15)):
        raise ValueError("transport requires |g| <= |f| pointwise")
    with np.errstate(divide="ignore", invalid="ignore"):
        factor = np.where(fvals != 0.0, g.values / fvals, 0.0)
    terms = []
    for lam, blk in decomp.terms:
        moved = Field(g.space, blk.values * factor)
        terms.append((lam, validate_block(moved, blk.support, blk.exponents,
                                          blk.norm_type, oracle)))
    return BlockDecomposition.build(terms, g)


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
               oracle: CapacityOracle) -> NormEstimate:
    """sup over test sets of |mu|(K)/cap(K); exact for all-subsets on a
    finite model."""
    sets = family.sets(oracle.space)
    return _sup_over_sets(family, sets, sets.astype(float) @ mu.total_variation,
                          oracle, 1.0)


def trace_norm_inf_form(mu: AtomicMeasure, oracle: CapacityOracle) -> float:
    """Threshold form: the least a with |mu|(E) <= a cap(E) for all E.

    Evaluated from the opposite side of the supremum form: bisection on the
    threshold a, where feasibility scans every nonempty subset of the
    finite model (<= 20 atoms) for a violated comparison.  The result must
    agree with the all-subsets supremum form to roundoff plus capacity gaps.
    """
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


# ---------------------------------------------------------------------------
# Brute-force integral dual
# ---------------------------------------------------------------------------

def m_norm_batch(space, e: LorentzExponents, oracle: CapacityOracle) -> Callable:
    """Vectorized all-subsets multiplier norm over rows (small models): the
    norms of every row restricted to every set, in one stack."""
    sets = TestSetFamily.all_subsets().sets(space)
    caps = oracle.gather(sets)[0]
    keep = caps > 0.0
    masks = sets[keep]
    roots = np.float_power(caps[keep], 1.0 / e.q)

    def norm_rows(G: np.ndarray) -> np.ndarray:
        restricted = np.where(masks[:, None, :], G, 0.0).reshape(-1, space.size)
        norms = lorentz_norms(restricted, space.weights, e).reshape(len(masks), -1)
        return np.max(norms / roots[:, None], axis=0, initial=0.0)

    return norm_rows


def kothe_dual_norm_bruteforce(f: Field, norm_rows: Callable,
                               n_starts: int = 256, n_steps: int = 60,
                               seed: int = 0x5EED) -> NormEstimate:
    """Maximize int |f g| over the unit ball of the supplied quasi-norm.

    Multi-start projected local search over the atom values (homogeneity
    lets every candidate be normalized onto the unit sphere), refreshed
    with analytic candidates: powers of |f| aligned and rearranged with f,
    and the indicators of its superlevel sets.  Only a lower bound of the
    dual norm, with the best witness recorded.
    """
    space = f.space
    m = space.size
    if m > 6:
        raise ValueError("brute-force dual limited to 6 atoms")
    a = np.abs(f.values)
    w = space.weights
    if a.max(initial=0.0) == 0.0:
        return NormEstimate(0.0, "lower-bound", witness=np.zeros(m),
                            lo=0.0, hi=0.0)
    rng = np.random.default_rng(seed)

    def objective(G: np.ndarray) -> np.ndarray:
        return G @ (a * w)

    def normalize(G: np.ndarray) -> np.ndarray:
        norms = norm_rows(G)
        norms = np.where(norms > 0.0, norms, 1.0)
        return G / norms[:, None]

    # random starts, powers of |f|, unit vectors and the superlevel
    # indicators of |f|, lowest level first
    seeds = [np.abs(rng.standard_normal((n_starts, m))),
             np.array([a ** t for t in (0.5, 1.0, 2.0, 3.0)]), np.eye(m),
             (a >= _levels(f)[0][::-1, None]).astype(float)]
    G = normalize(np.concatenate(seeds))

    best_vals = objective(G)
    step = 0.5
    for _ in range(n_steps):
        noise = rng.standard_normal(G.shape) * step
        cand = normalize(np.abs(G * (1.0 + noise) + step * 0.1 *
                                np.abs(rng.standard_normal(G.shape))))
        vals = objective(cand)
        better = vals > best_vals
        G[better] = cand[better]
        best_vals[better] = vals[better]
        step *= 0.93
    i = int(np.argmax(best_vals))
    return NormEstimate(float(best_vals[i]), "lower-bound", witness=G[i],
                        lo=float(best_vals[i]), hi=math.inf)
