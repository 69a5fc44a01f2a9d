"""Named, reproducible verification campaigns with machine-readable verdicts.

Every campaign binds the computational modules to a finitely checkable
inequality or constructive procedure and emits verdict rows: 'pass'/'fail'
for contracts with explicit constants, 'recorded' for finiteness-only claims
whose measured constant is reported but not bounded.  Determinism is part of
the contract: identical config and seeds reproduce identical verdict tables,
byte for byte.

Each check is declared once, by `@_check(cid, *claims, suites=(...),
solves=(...))` on a body `body(ctx, rows)`.  The decorator appends
`(cid, claims, fn)` to `CHECKS` and `cid` to `SUITES["all"]` and to the
`SUITES` entry of every campaign named in `suites=`, so `SUITES` is derived
from the declarations; it returns `fn(ctx) -> List[Verdict]`.  `solves`
lists the capacity problems the body builds, each `(n, alpha, s, k)`: for
n = 1 (line) or 2 (plane) the arguments of `RunContext.grid_oracle`, for
n = 0 the `(alpha, s)` of its finite-model params (k is 1).  Before the
first check, `run_suite` builds every declared grid oracle into the
campaign's `RunContext` and checks every declared finite `CapacityParams`,
so a config a campaign cannot solve raises `ConfigError`, naming the suite,
the check, the problem and its config keys; so does a `[grid] L` too small
for the test sets a check draws.  A campaign builds every weight with the
one `RunContext.weights`.  The body states each bound once:
`rows.bound(name, value, limit, what)` keeps the largest
value under `name` in `rows.worst` and records failure `what` if
value > limit, `rows.band` holds seed and refinement ratios to [0.5, 2],
`rows.raises` requires a ValueError, and `rows.fail` records any other
failure.
`rows.row` emits a row, prefixing its id with `cid` and taking its status
from the failures so far; `rows.summary` renders the one failure summary.
The declared claims are a contract: a row naming an undeclared claim
raises, and so does a declared claim that gets no row.  `REQUIRED_CLAIMS`
names every finitely checkable statement the artifact covers; the C00
audit fails if a check declares none of them, so each one is exercised
whenever the checks run.
"""
from __future__ import annotations

import configparser
import csv
import functools
import io
import json
import math
import zlib
from collections import defaultdict
from dataclasses import asdict, dataclass, fields, replace
from pathlib import Path
from typing import Dict, List, Optional

import numpy as np

from . import blocks as bl
from . import multiplier as mn
from . import weights as wt
from .capacity import (CapacityOracle, CapacityParams, CapacityProblem,
                       SetMask, _cover_rows, _measures, audit_certificate,
                       capacitary_lorentz_norm, capacity,
                       equilibrium_checks, finite_problem, grid_problem,
                       identity_problem, l1c_norm,
                       lebesgue_lower_bound_check, nonlinear_potential,
                       strichartz_check)
from .grid import DECAY_MARGIN, Grid, bessel_kernel, convolve, make_grid
from .measure import (DiscreteMeasureSpace, Field, LorentzExponents, _levels,
                      distribution_function, gamma_norm, gamma_sandwich_bound,
                      lorentz_norm, lorentz_norms, pairing,
                      power_identity_check)

__all__ = [
    "CapflowConfig",
    "ConfigError",
    "Verdict",
    "run_suite",
    "write_verdicts",
    "REQUIRED_CLAIMS",
    "SUITES",
    "CHECKS",
]


# ---------------------------------------------------------------------------
# Configuration
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CapflowConfig:
    """Knobs for the verification campaigns (defaults are desk scale)."""

    grid_N: int = 256
    grid_L: float = 16.0
    grid2_N: int = 128
    grid2_L: float = 12.0
    alpha: float = 0.5
    s: float = 2.0
    tol: float = 1e-6
    delta: float = 0.5
    slack: float = 1.25
    master_seed: int = 20260808
    scale_models: int = 50
    scale_fields: int = 200
    scale_gamma: int = 100
    scale_pairs: int = 100
    scale_trace: int = 100
    scale_tuples: int = 50
    scale_grid_sets: int = 4
    scale_kothe: int = 20
    l1c_levels: int = 16

    _FILE_KEYS = {
        ("grid", "N"): ("grid_N", int),
        ("grid", "L"): ("grid_L", float),
        ("grid2", "N"): ("grid2_N", int),
        ("grid2", "L"): ("grid2_L", float),
        ("cap", "alpha"): ("alpha", float),
        ("cap", "s"): ("s", float),
        ("cap", "tol"): ("tol", float),
        ("weights", "delta"): ("delta", float),
        ("weights", "slack"): ("slack", float),
        ("seeds", "master"): ("master_seed", int),
        ("scale", "models"): ("scale_models", int),
        ("scale", "fields"): ("scale_fields", int),
        ("scale", "gamma"): ("scale_gamma", int),
        ("scale", "pairs"): ("scale_pairs", int),
        ("scale", "trace"): ("scale_trace", int),
        ("scale", "tuples"): ("scale_tuples", int),
        ("scale", "grid_sets"): ("scale_grid_sets", int),
        ("scale", "kothe"): ("scale_kothe", int),
        ("scale", "l1c_levels"): ("l1c_levels", int),
    }

    def __post_init__(self):
        # a zero corpus size or level cap makes its check pass vacuously
        for (section, key), (name, _conv) in self._FILE_KEYS.items():
            if section == "scale" and getattr(self, name) < 1:
                raise ValueError(f"[scale] {key} must be at least 1, "
                                 f"got {getattr(self, name)}")
        # before any check runs; s <= n/alpha needs a grid (grid_problem)
        CapacityParams(self.alpha, self.s, self.tol)
        self.weights  # builds, so validates, the weight knobs

    @property
    def weights(self) -> wt.WeightConfig:
        """The weight knobs: `[weights] delta`, `slack`, `[scale] l1c_levels`."""
        return wt.WeightConfig(self.delta, self.slack, self.l1c_levels)

    @staticmethod
    def from_file(path) -> "CapflowConfig":
        parser = configparser.ConfigParser()
        parser.optionxform = str  # keys are case-sensitive (grid.N)
        with open(path) as fh:
            parser.read_file(fh)
        kwargs = {}
        for section in parser.sections():
            for key, raw in parser.items(section):
                spec = CapflowConfig._FILE_KEYS.get((section, key))
                if spec is None:
                    raise ValueError(f"unknown config key [{section}] {key}")
                name, conv = spec
                try:
                    kwargs[name] = conv(raw)
                except ValueError:
                    raise ValueError(f"[{section}] {key}: {raw!r} is not a "
                                     f"valid {conv.__name__}") from None
        return CapflowConfig(**kwargs)

    def quick(self) -> "CapflowConfig":
        """Reduced-scale variant used by the determinism round trip."""
        return replace(self, scale_models=8, scale_fields=30, scale_gamma=8,
                       scale_pairs=10, scale_trace=10, scale_tuples=6,
                       scale_grid_sets=2, scale_kothe=4)

    def to_dict(self) -> Dict:
        return {f.name: getattr(self, f.name) for f in fields(self)
                if not f.name.startswith("_")}


class ConfigError(ValueError):
    """A config a campaign cannot run, named by suite, check and config key."""


@dataclass
class Verdict:
    check_id: str
    status: str          # pass | fail | recorded
    measured: float
    claim: str
    details: str = ""

    def __post_init__(self):
        if self.status not in ("pass", "fail", "recorded"):
            raise ValueError(f"unknown verdict status {self.status!r}")


def _fmt(x: float) -> str:
    return f"{x:.12g}"


# ---------------------------------------------------------------------------
# Check registry
# ---------------------------------------------------------------------------

CHECKS: List = []  # (cid, claims, fn) in registration order, C01..C18
SUITES: Dict[str, List[str]] = {"all": []}  # campaign -> check ids, in order
_SOLVES: Dict[str, tuple] = {}  # check id -> its declared (n, alpha, s, k)

# declared problems: the line grid at [cap] alpha and s, finite models at
# alpha = 1, s = 2 (`finite_oracle`), and those of `finite_corpus`
_LINE = (1, None, None, 1)
_FINITE = (0, 1.0, 2.0, 1)
_CORPUS = tuple((0, 1.0, s, 1) for s in (1.5, 2.0, 3.0))


class _Tally:
    """Failures recorded by a check, or by one group of its rows."""

    def __init__(self):
        self.failures: List[str] = []

    def fail(self, what: str) -> None:
        self.failures.append(what)

    def band(self, what: str, *ratios: float) -> None:
        """Record `what` once unless every ratio lies in [0.5, 2]."""
        if not all(0.5 <= r <= 2.0 for r in ratios):
            self.fail(what)

    def raises(self, call, what: str) -> None:
        """Record `what` unless `call()` raises ValueError."""
        try:
            call()
        except ValueError:
            return
        self.fail(what)

    def status(self) -> str:
        return "fail" if self.failures else "pass"

    def summary(self, otherwise: str) -> str:
        """The first four distinct failures in sorted order, or `otherwise`."""
        return "; ".join(sorted(set(self.failures))[:4]) or otherwise


class _Rows(_Tally):
    """The verdict rows of one check, held to the claims it declared."""

    def __init__(self, cid: str, claims: tuple):
        super().__init__()
        self.cid = cid
        self.claims = claims
        self.verdicts: List[Verdict] = []
        self.worst: Dict[str, float] = defaultdict(float)

    def bound(self, name: str, value: float, limit: float = math.inf,
              what: str = "", start: float = 0.0) -> None:
        """Keep the largest value seen under `name`, from `start`, in
        `worst[name]` (0.0 for a name never bounded); record `what` when
        value > limit."""
        self.worst[name] = max(self.worst.get(name, start), value)
        if value > limit:
            self.fail(what)

    def row(self, suffix: str, measured: float, claim: str, details: str,
            status: Optional[str] = None) -> None:
        """Append row `cid + suffix`; its status is `status` when given,
        else 'fail' iff a failure has been recorded so far."""
        if claim not in self.claims:
            raise ValueError(f"{self.cid} did not declare claim {claim!r}")
        self.verdicts.append(Verdict(self.cid + suffix, status or self.status(),
                                     measured, claim, details))


def _check(cid: str, *claims: str, suites: tuple = (), solves: tuple = ()):
    """Register the decorated `body(ctx, rows)` as check `cid` testing
    `claims`, run by the campaign "all" and by each one in `suites`; it
    becomes `fn(ctx) -> List[Verdict]`.  `solves` lists every capacity
    problem the body builds, as `(n, alpha, s, k)` (module docstring)."""
    def register(body):
        @functools.wraps(body)
        def fn(ctx: RunContext) -> List[Verdict]:
            rows = _Rows(cid, claims)
            body(ctx, rows)
            missing = set(claims) - {v.claim for v in rows.verdicts}
            if missing:
                raise ValueError(f"{cid} emitted no row for claims "
                                 f"{sorted(missing)}")
            return rows.verdicts
        CHECKS.append((cid, claims, fn))
        _SOLVES[cid] = solves
        for name in ("all",) + suites:
            SUITES.setdefault(name, []).append(cid)
        return fn
    return register


# ---------------------------------------------------------------------------
# Shared corpus builders
# ---------------------------------------------------------------------------

class RunContext:
    """Per-run caches: oracles and corpora, and the run's weight knobs."""

    def __init__(self, cfg: CapflowConfig):
        self.cfg = cfg
        self.weights = cfg.weights
        self._oracles: Dict = {}
        self._finite_corpus = None

    def rng(self, tag: str) -> np.random.Generator:
        # crc32, not hash(): stable across processes for byte-identical reruns
        return np.random.default_rng([self.cfg.master_seed,
                                      zlib.crc32(tag.encode())])

    def grid_oracle(self, n: int = 1, alpha: Optional[float] = None,
                    s: Optional[float] = None, k: int = 1) -> CapacityOracle:
        """Oracle on the line (n = 1) or plane (n = 2) grid of k times the
        configured points per axis; alpha and s default to `[cap]`'s."""
        cfg = self.cfg
        alpha = cfg.alpha if alpha is None else alpha
        s = cfg.s if s is None else s
        L = cfg.grid_L if n == 1 else cfg.grid2_L
        N = k * (cfg.grid_N if n == 1 else cfg.grid2_N)
        key = (n, L, N, alpha, s, cfg.tol)
        oracle = self._oracles.get(key)
        if oracle is None:
            grid = make_grid(n, L, N)
            params = CapacityParams(alpha=alpha, s=s, tol=cfg.tol)
            oracle = CapacityOracle(grid_problem(grid, params), params)
            self._oracles[key] = oracle
        return oracle

    def finite_oracle(self, problem: CapacityProblem) -> CapacityOracle:
        """Oracle on a finite model at alpha=1, s=2 and the run's tolerance."""
        return CapacityOracle(problem, CapacityParams(1.0, 2.0, tol=self.cfg.tol))

    def finite_corpus(self) -> List:
        """Deterministic corpus of random finite-model capacity instances."""
        if self._finite_corpus is None:
            rng = self.rng("finite-corpus")
            out = []
            s_cycle = (1.5, 2.0, 3.0)
            for i in range(self.cfg.scale_models):
                m = int(rng.integers(4, 65))
                problem = _random_finite_problem(rng, m)
                params = CapacityParams(1.0, s_cycle[i % 3], self.cfg.tol)
                mask = _random_mask(rng, problem.space)
                out.append((problem, params, mask))
            self._finite_corpus = out
        return self._finite_corpus


def _random_finite_problem(rng, m: int) -> CapacityProblem:
    B = rng.random((m, m))
    M = (B + B.T) / 2.0 + np.diag(rng.random(m) + 0.5)
    w = rng.random(m) + 0.25
    return finite_problem(DiscreteMeasureSpace(w), M)


def _random_space(rng, lo: int, hi: int,
                  floor: float = 0.2) -> DiscreteMeasureSpace:
    """Atom space of a random size in [lo, hi), weights uniform above floor."""
    m = int(rng.integers(lo, hi))
    return DiscreteMeasureSpace(rng.random(m) + floor)


def _random_mask(rng, space) -> SetMask:
    b = rng.random(space.size) < rng.uniform(0.2, 0.6)
    if not b.any():
        b[int(rng.integers(0, space.size))] = True
    return SetMask(space, b)


def _random_field(rng, space, signed: bool = True,
                  levels: Optional[int] = None) -> Field:
    v = rng.lognormal(0.0, 1.0, space.size)
    if levels is not None:
        qs = np.quantile(v, np.linspace(0.0, 1.0, levels + 1)[1:])
        v = qs[np.searchsorted(qs, v, side="left").clip(0, levels - 1)]
        v = v * (rng.random(space.size) > 0.2)
    if signed:   # the stream of rng.choice([-1.0, 1.0], size)
        v = v * np.array([-1.0, 1.0])[rng.integers(0, 2, space.size)]
    return Field(space, v)


def _interval_mask(grid: Grid, center: float, half: float) -> SetMask:
    """The interval of a line grid within `half` of `center`."""
    return SetMask(grid, np.abs(grid.coords()[:, 0] - center) <= half)


def _grid_set_corpus(rng, grid: Grid, count: int) -> List[SetMask]:
    """Compact random sets respecting the wrap-around support margin; the
    widest is a thinned interval of half-width 1.8 on every box that fits it."""
    least = 3.6 + DECAY_MARGIN
    if grid.L < least:
        raise ConfigError(f"{('[grid]', '[grid2]')[grid.n - 1]} L = "
                          f"{grid.L:g} is below {least:g}, the widest test set "
                          f"(diameter 3.6) plus the decay margin {DECAY_MARGIN:g}")
    reach = (grid.L - DECAY_MARGIN) / 2.0
    out = []
    for _ in range(count):
        kind = rng.integers(0, 3)
        if kind == 0:
            c = rng.uniform(-reach * 0.5, reach * 0.5)
            out.append(_interval_mask(grid, c, rng.uniform(0.3, 1.5)))
        elif kind == 1:
            far = reach - 1.0
            a = _interval_mask(grid, rng.uniform(-far, -0.5), rng.uniform(0.2, 0.8))
            b = _interval_mask(grid, rng.uniform(0.5, far), rng.uniform(0.2, 0.8))
            out.append(a.union(b))
        else:
            c = rng.uniform(-reach * 0.5, reach * 0.5)
            base = _interval_mask(grid, c, rng.uniform(0.5, 1.8))
            keep = rng.random(grid.size) < 0.7
            bools = base.bools & keep
            if not bools.any():
                bools = base.bools
            out.append(SetMask(grid, bools))
    return out


def _bump_field(grid: Grid, center: float, width: float,
                height: float = 1.0) -> Field:
    x = grid.coords()
    d2 = ((x - center) ** 2).sum(axis=1)
    return Field(grid, height * np.exp(-d2 / (2.0 * width ** 2)))


# ---------------------------------------------------------------------------
# Checks
# ---------------------------------------------------------------------------

@_check("C01-capacity-certificates", "capacity-definition",
        "capacity-duality-certificate",
        suites=("capacity", "determinism-core"), solves=_CORPUS)
def check_capacity_certificates(ctx: RunContext, rows: _Rows) -> None:
    cfg = ctx.cfg

    # analytic: counting capacity on a weighted identity model
    rng = ctx.rng("c01-analytic")
    space = DiscreteMeasureSpace(rng.random(5) + 0.5)
    oracle = ctx.finite_oracle(identity_problem(space))
    for _ in range(5):
        mask = _random_mask(rng, space)
        rows.bound("identity", abs(oracle.value(mask) - mask.measure), 1e-12,
                   "identity-counting")
    # analytic: uniform optimum under the all-ones kernel
    for m, s in ((4, 2.0), (4, 3.0), (6, 1.5)):
        sp = DiscreteMeasureSpace(np.ones(m))
        prob = finite_problem(sp, np.ones((m, m)))
        res = capacity(prob, SetMask.from_indices(sp, [0, 1]),
                          CapacityParams(1.0, s, tol=cfg.tol))
        rows.bound("all-ones", abs(res.value - m ** (1.0 - s)),
                   1e-6 * m ** (1.0 - s), f"all-ones m={m} s={s}")
    # analytic: the symmetric strictly convex 2x2 instance
    sp2 = DiscreteMeasureSpace([1.0, 1.0])
    prob2 = finite_problem(sp2, [[1.0, 0.5], [0.5, 1.0]])
    res2 = capacity(prob2, SetMask.full(sp2),
                       CapacityParams(1.0, 2.0, tol=cfg.tol))
    rows.bound("2x2", abs(res2.value - 8.0 / 9.0), 1e-6, "2x2 value")
    rows.bound("2x2 optimizer", np.abs(res2.optimizer - 2.0 / 3.0).max(), 1e-4,
               "2x2 optimizer")

    for problem, params, mask in ctx.finite_corpus():
        res = capacity(problem, mask, params)
        rows.bound("gap", res.gap)
        try:
            audit_certificate(problem, res)
        except ValueError as err:
            rows.fail(str(err))
    rows.row("", rows.worst["gap"], "capacity-definition",
             rows.summary(f"{cfg.scale_models} models, max gap"))
    rows.row("/certificates", rows.worst["gap"], "capacity-duality-certificate",
             "lower <= value <= upper with relative gap")


@_check("C02-equilibrium-identities", "equilibrium-identities",
        "nonlinear-potential", suites=("capacity",),
        solves=(_LINE,) + _CORPUS)
def check_equilibrium(ctx: RunContext, rows: _Rows) -> None:
    instances = list(ctx.finite_corpus())
    g1 = ctx.grid_oracle(1)
    grid = g1.space
    instances.append((g1.problem, g1.params, _interval_mask(grid, 0.0, 1.5)))
    instances.append((g1.problem, g1.params,
                      _interval_mask(grid, -2.0, 0.5).union(
                          _interval_mask(grid, 2.0, 0.5))))
    for problem, params, mask in instances:
        res = capacity(problem, mask, params)
        if not res.converged:
            rows.fail("non-convergence")
            continue
        resid = max(equilibrium_checks(problem, res).values())
        rows.bound("resid", resid, 50.0 * params.tol, f"residual {resid:.2e}")
        pot = nonlinear_potential(problem, params, res.dual_measure)
        band = 10.0 * params.tol
        low = float(pot.values[mask.bools].min())
        supp = res.dual_measure > 0.0
        high = float(pot.values[supp].max()) if supp.any() else 1.0
        rows.bound("band", abs(1.0 - low), band, f"potential floor {low:.8f}")
        rows.bound("band", abs(high - 1.0), band, f"potential ceiling {high:.8f}")
    rows.row("", rows.worst["resid"], "equilibrium-identities",
             rows.summary("mass/energy/self-pairing residuals"))
    rows.row("/potential-band", rows.worst["band"], "nonlinear-potential",
             "potential within band on E and supp")


@_check("C03-monotone-subadditive", "capacity-set-function-axioms",
        suites=("capacity",), solves=(_FINITE,))
def check_set_function_axioms(ctx: RunContext, rows: _Rows) -> None:
    cfg = ctx.cfg
    rng = ctx.rng("c03")
    prob = _random_finite_problem(rng, 24)
    oracle = ctx.finite_oracle(prob)
    space = prob.space
    n = cfg.scale_pairs
    # every set is drawn first, then all are solved in one batch: rows
    # (small, big) of each monotone pair, then (a | b, a, b) of each triple
    sets = []
    for _ in range(n):
        small = _random_mask(rng, space).bools
        sets += [small, small | (rng.random(space.size) < 0.3)]
    for _ in range(n):
        a = _random_mask(rng, space).bools
        b = _random_mask(rng, space).bools
        sets += [a | b, a, b]
    _, lower, upper, _ = oracle.gather(sets)
    small, big = lower[:2 * n:2], upper[1:2 * n:2]
    rows.failures += ["monotonicity"] * int(np.sum(small > big * (1 + 1e-12)))
    union, a, b = lower[2 * n::3], upper[2 * n + 1::3], upper[2 * n + 2::3]
    rows.failures += ["subadditivity"] * int(np.sum(union > (a + b) * (1 + 1e-12)))
    # absolute continuity on the discrete model: zero capacity iff empty
    if capacity(prob, SetMask.empty(space), oracle.params).value != 0.0:
        rows.fail("empty set")
    if oracle.value(SetMask.from_indices(space, [0])) <= 0.0:
        rows.fail("null nonempty set")
    rows.row("", float(len(rows.failures)), "capacity-set-function-axioms",
             rows.summary(f"{2 * cfg.scale_pairs} certified comparisons"))


@_check("C04-lorentz-engine", "lorentz-norm-definition", "power-identity",
        suites=("lorentz-core", "determinism-core"))
def check_lorentz_engine(ctx: RunContext, rows: _Rows) -> None:
    cfg = ctx.cfg
    rng = ctx.rng("c04")
    from scipy.integrate import quad
    lattice = [(2.0, 2.0), (2.0, 1.0), (3.0, 1.5), (1.5, 2.0), (0.8, 1.3)]
    for i in range(cfg.scale_fields):
        space = _random_space(rng, 2, 65, floor=0.1)
        f = _random_field(rng, space)
        p, q = lattice[i % len(lattice)]
        e = LorentzExponents(p, q)
        closed = lorentz_norm(f, e)
        dist = distribution_function(f)
        pieces = np.concatenate([[0.0], dist.breakpoints])
        acc = 0.0
        for a, b in zip(pieces[:-1], pieces[1:]):
            val, _ = quad(lambda t: dist(t) ** (q / p) * t ** (q - 1.0), a, b,
                          epsabs=0.0, epsrel=1e-12)
            acc += val
        oracle_val = (p * acc) ** (1.0 / q)
        rel = abs(closed - oracle_val) / max(oracle_val, 1e-300)
        rows.bound("quad", rel, 1e-9, f"quadrature {rel:.2e}")
        # p = q collapses to the plain integral norm
        pp = float(rng.uniform(1.0, 3.0))
        plain = float((space.weights * np.abs(f.values) ** pp).sum()) ** (1 / pp)
        got = lorentz_norm(f, LorentzExponents(pp, pp))
        rows.bound("p=q", abs(got - plain) / max(plain, 1e-300), 1e-12,
                   "p=q reduction")
        r = (0.5, 2.0, 1.0 / 3.0)[i % 3]
        resid = power_identity_check(f, e, r)
        scale = max(lorentz_norm(Field(space, np.abs(f.values) ** r), e), 1.0)
        rows.bound("power", resid / scale, 1e-12, "power identity")
    rows.row("", rows.worst["quad"], "lorentz-norm-definition",
             rows.summary(f"{cfg.scale_fields} fields vs layer-cake quadrature"))
    rows.row("/power-identity", rows.worst["power"], "power-identity",
             "|||f|^r|| = ||f||^r in closed form")


@_check("C05-gamma-sandwich", "gamma-normability",
        suites=("lorentz-core", "determinism-core"))
def check_gamma_sandwich(ctx: RunContext, rows: _Rows) -> None:
    cfg = ctx.cfg
    rng = ctx.rng("c05")
    lattice = [(2.0, 2.0, 1.0), (2.0, 1.0, 1.0), (3.0, 1.5, 0.5),
               (1.5, 1.0, 0.75)]
    for i in range(cfg.scale_gamma):
        space = _random_space(rng, 2, 33)
        f = _random_field(rng, space)
        for p, q, r in lattice:
            e = LorentzExponents(p, q)
            base = lorentz_norm(f, e)
            gam = gamma_norm(f, e, r)
            slack = 1e-6 * max(1.0, base)
            what = f"(p,q,r)=({p},{q},{r})"
            rows.bound("gap", base - gam, slack, what)
            rows.bound("gap", gam - gamma_sandwich_bound(e, r) * base, slack, what)
        # r = 1 renorming is a genuine norm: triangle inequality holds
        g = _random_field(rng, space)
        e1 = LorentzExponents(2.0, 1.5)
        both = gamma_norm(Field(space, f.values + g.values), e1, 1.0)
        apart = gamma_norm(f, e1, 1.0) + gamma_norm(g, e1, 1.0)
        rows.bound("triangle", both / apart, 1 + 1e-7, "triangle r=1")
    rows.row("", rows.worst["gap"], "gamma-normability", rows.summary(
        f"{cfg.scale_gamma} fields x {len(lattice)} exponent triples"))
    rows.row("/triangle", rows.worst["triangle"], "gamma-normability",
             "r=1 renorming satisfies the triangle inequality")


@_check("C06-capacitary-embeddings", "capacitary-embedding-constants",
        "capacitary-lorentz-spaces", "l1c-norm", solves=(_LINE, _FINITE))
def check_capacitary_embeddings(ctx: RunContext, rows: _Rows) -> None:
    rng = ctx.rng("c06")
    cases = []
    for _ in range(10):
        space = _random_space(rng, 2, 17)
        oracle = ctx.finite_oracle(identity_problem(space))
        cases.append((oracle, _random_field(rng, space, levels=6)))
    g1 = ctx.grid_oracle(1)
    grid = g1.space
    for _ in range(4):
        c = rng.uniform(-2.0, 2.0)
        f = _bump_field(grid, c, rng.uniform(0.4, 1.0))
        v = np.round(f.values * 5.0) / 5.0  # few distinct levels
        cases.append((g1, Field(grid, v)))
    for oracle, f in cases:
        weak = capacitary_lorentz_norm(f, LorentzExponents(1.0, math.inf), oracle)
        l1c = l1c_norm(Field(f.space, np.abs(f.values)), oracle)
        k = _levels(f)[0].size
        for q in (0.5, 0.75, 1.0):
            strong = capacitary_lorentz_norm(f, LorentzExponents(1.0, q), oracle)
            # plus the roundoff of the k-level layer cakes and these bounds:
            # (2k + 32 + |ln strong|) / q units of 2^-53, powers within 2^-52
            slack = 1.0 + 50.0 * max(strong.max_gap, weak.max_gap, l1c.max_gap)
            slack += (2 * k + 32 + abs(math.log(strong.value or 1.0))) / q / 2.0 ** 53
            bound_weak = q ** (1.0 / q) * strong.value * slack + 1e-30
            bound_l1 = q ** ((1.0 - q) / q) * strong.value * slack + 1e-30
            # for positive normal floats x > y exactly when x / y > 1
            rows.bound("ratio", weak.value / bound_weak, 1.0, f"weak q={q}",
                       start=-math.inf)
            rows.bound("ratio", l1c.value / bound_l1, 1.0, f"l1c q={q}",
                       start=-math.inf)
    worst = rows.worst["ratio"]
    rows.row("", worst, "capacitary-embedding-constants", rows.summary(
        "q^(1/q) and q^((1-q)/q) constants, q in {1/2, 3/4, 1}"))
    rows.row("/spaces", worst, "capacitary-lorentz-spaces",
             "capacitary layer cakes over nested superlevel sets")
    rows.row("/l1c", worst, "l1c-norm", "layer-cake capacity integral")


@_check("C07-strichartz-localization", "strichartz-localization",
        suites=("localization",), solves=(_LINE, (1, None, None, 2)))
def check_strichartz(ctx: RunContext, rows: _Rows) -> None:
    cfg = ctx.cfg
    rng = ctx.rng("c07")
    coarse = ctx.grid_oracle(1)
    fine = ctx.grid_oracle(1, k=2)
    sets = _grid_set_corpus(rng, coarse.space, cfg.scale_grid_sets + 2)
    refined = [_refine_mask(coarse.space, fine.space, m) for m in sets]
    # one batch per grid; the checks below are served from the memo
    for oracle, masks in ((coarse, sets), (fine, refined)):
        oracle.gather(np.vstack([_cover_rows(oracle.space, m.bools)
                                 for m in masks]))
    for mask, fine_mask in zip(sets, refined):
        rep = strichartz_check(coarse, mask)
        if not rep.subadditive_ok:
            rows.fail("subadditivity")
        if not math.isfinite(rep.ratio):
            rows.fail("ratio infinite")
        rows.bound("ratio", rep.ratio)
        rep_f = strichartz_check(fine, fine_mask)
        drift = rep_f.ratio / rep.ratio if rep.ratio > 0 else math.inf
        rows.bound("drift", drift)
        rows.bound("drift", 1.0 / drift)
        rows.band(f"refinement drift {drift:.3f}", drift)
    rows.row("", rows.worst["ratio"], "strichartz-localization", rows.summary(
        "cap(E) <= sum over unit cover; reverse ratio recorded"))
    rows.row("/reverse-constant", rows.worst["ratio"], "strichartz-localization",
             f"max localized-sum ratio; drift {rows.worst['drift']:.3f}",
             "recorded")


def _refine_mask(coarse: Grid, fine: Grid, mask: SetMask) -> SetMask:
    factor = fine.N // coarse.N
    if coarse.n == 1:
        return SetMask(fine, np.repeat(mask.bools, factor))
    b = mask.bools.reshape(coarse.N, coarse.N)
    return SetMask(fine, np.kron(b, np.ones((factor, factor), dtype=bool)).ravel())


@_check("C08-sobolev-lower-bounds", "sobolev-lower-bounds",
        suites=("localization",),
        solves=((1, None, 2.0, 1), (1, None, 2.0, 2), (1, None, 1.5, 1),
                (1, None, 1.5, 2), (2, 1.0, 2.0, 1), (2, 1.0, 2.0, 2)))
def check_sobolev_bounds(ctx: RunContext, rows: _Rows) -> None:
    cfg = ctx.cfg
    rng = ctx.rng("c08")
    # at alpha = 1/2, s = 2 meets alpha*s = n and s = 1.5 has window floor 1/4
    for s, eps_list in ((2.0, (0.5, 1.0)), (1.5, (0.25, 0.5, 1.0))):
        # each epsilon raised to the window floor 1 - alpha*s of cfg.alpha
        floor = max(0.0, 1.0 - cfg.alpha * s)
        eps_list = sorted({max(eps, floor) for eps in eps_list})
        coarse = ctx.grid_oracle(1, s=s)
        fine = ctx.grid_oracle(1, s=s, k=2)
        sets = _grid_set_corpus(rng, coarse.space, cfg.scale_grid_sets)
        refined = [_refine_mask(coarse.space, fine.space, m) for m in sets]
        # one batch per grid; the checks below are served from the memo
        coarse.gather([m.bools for m in sets])
        fine.gather([m.bools for m in refined])
        for mask, fine_mask in zip(sets, refined):
            for eps in eps_list:
                rep = lebesgue_lower_bound_check(coarse, mask, eps)
                if not math.isfinite(rep.ratio):
                    rows.fail("ratio infinite")
                rep_f = lebesgue_lower_bound_check(fine, fine_mask, eps)
                drift = rep_f.ratio / rep.ratio if rep.ratio > 0 else math.inf
                rows.band(f"drift {drift:.3f} (eps={eps})", drift)
                rows.bound("ratio", rep.ratio)
    # window enforcement: epsilon below the admissible floor must be rejected
    o = ctx.grid_oracle(1, s=1.5)
    rows.raises(lambda: lebesgue_lower_bound_check(
        o, _interval_mask(o.space, 0.0, 1.0), 0.1), "window not enforced")
    # square set on the plane: ratio recorded with one refinement
    o2 = ctx.grid_oracle(2, 1.0, 2.0)
    sq = _square_mask(o2.space, 1.0)
    rep2 = lebesgue_lower_bound_check(o2, sq, 0.5)
    o2f = ctx.grid_oracle(2, 1.0, 2.0, k=2)
    rep2f = lebesgue_lower_bound_check(
        o2f, _refine_mask(o2.space, o2f.space, sq), 0.5)
    drift2 = rep2f.ratio / rep2.ratio if rep2.ratio > 0 else math.inf
    rows.band(f"plane drift {drift2:.3f}", drift2)
    rows.row("", rows.worst["ratio"], "sobolev-lower-bounds",
             rows.summary("|E|^eps / cap(E) finite and refinement-stable"))
    rows.row("/plane", rep2.ratio, "sobolev-lower-bounds",
             f"unit square, eps=1/2, drift {drift2:.3f}")


def _square_mask(grid: Grid, side: float) -> SetMask:
    c = grid.coords()
    return SetMask(grid, np.all(np.abs(c) <= side / 2.0, axis=1))


def _draw_pairs(rng, space, count: int) -> tuple:
    """Lists fs, gs, dictionaries of `count` (f, g, covering) draws.  A
    covering dictionary is random unions plus the singletons, so greedy
    peeling always terminates; the draws share one singletons family."""
    singles = mn._explicit_rows(space, np.eye(space.size, dtype=bool))
    triples = [(_random_field(rng, space), _random_field(rng, space),
                mn.TestSetFamily.random_unions(6, seed=int(rng.integers(2**31)))
                + singles) for _ in range(count)]
    return tuple(map(list, zip(*triples)))


@_check("C09-pairing-inequalities", "pairing-estimate",
        "pairing-direction-weak", "pairing-direction-n",
        suites=("blocks-duality",), solves=(_FINITE,))
def check_pairing(ctx: RunContext, rows: _Rows) -> None:
    cfg = ctx.cfg

    def pairing_max(tag: str, groups, e_blocks, norm_type: str, estimate,
                    aligned=False):
        """Largest ratio |int f g| / (estimate * sum|lambda|) over the
        (problem, count) groups that `groups(rng)` draws lazily from the
        tag's rng, one oracle per group, and the largest solve gap behind
        it.  A group is one stack: one `block_norms_upper_greedy` call for
        its g's, then one `estimate(fs, supports, oracle)` call.  `aligned`
        puts g's Hoelder-aligned sign(g)|g|^(p'-1) (p' the blocks' p) for f."""
        rng = ctx.rng(tag)
        for problem, count in groups(rng):
            oracle = ctx.finite_oracle(problem)
            fs, gs, dicts = _draw_pairs(rng, problem.space, count)
            if aligned:
                fs = [Field(g.space, np.sign(g.values)
                            * np.abs(g.values) ** (e_blocks.p - 1.0)) for g in gs]
            decomps = bl.block_norms_upper_greedy(gs, e_blocks, dicts, oracle,
                                                  norm_type)
            for f, decomp, est in zip(fs, decomps, estimate(
                    fs, [d.support_family() for d in decomps], oracle)):
                rows.bound(tag + "/gap", est.max_gap)
                rows.bound(tag, pairing(f, decomp.reconstruction(), absolute=True)
                           / (est.value * decomp.sum_lambda))
        return rows.worst[tag], rows.worst[tag + "/gap"]

    def corpus_max(tag: str, p: float, q: float, count: int, aligned=False):
        """B-blocks against `m_norms`, in groups of at most 10 pairs on
        identity and random kernels in turn."""
        e = LorentzExponents(p, q)

        def groups(rng):
            for i, start in enumerate(range(0, count, 10)):
                yield (identity_problem(_random_space(rng, 4, 17)) if i % 2 == 0
                       else _random_finite_problem(rng, int(rng.integers(4, 17))),
                       min(10, count - start))

        return pairing_max(tag, groups, LorentzExponents(e.p_conj, e.q_conj),
                           "B", lambda fs, fams, o: mn.m_norms(fs, e, fams, o),
                           aligned)

    hi22, gap22 = corpus_max("c09-22-a", 2.0, 2.0, cfg.scale_pairs)
    rows.bound("p=q=2", hi22, 1.0 + 10.0 * max(gap22, 1e-12),
               f"p=q=2 ratio {hi22:.6f}")
    rows.row("", hi22, "pairing-estimate", rows.summary(
        f"{cfg.scale_pairs} pairs at p=q=2, bound 1+10*gap"))

    unstable = _Tally()
    for (p, q) in ((3.0, 2.0), (2.0, 3.0)):
        n = max(cfg.scale_pairs // 4, 5)
        hi_a, hi_b = (corpus_max(f"c09-{p}-{q}-{t}", p, q, n, aligned=True)[0]
                      for t in "ab")
        unstable.band(f"(p,q)=({p},{q})", hi_a / hi_b if hi_b > 0 else math.inf)
        rows.row(f"/recorded-p{p}-q{q}", max(hi_a, hi_b), "pairing-estimate",
                 f"corpus maxima {hi_a:.4f}/{hi_b:.4f}", "recorded")
    rows.row("/seed-stability", float(len(unstable.failures)) or 1.0,
             "pairing-estimate", unstable.summary("maxima within 2x across seeds"),
             unstable.status())

    # weak route: script blocks with q <= 1 against the weak estimate at p = 2
    rounds = max(cfg.scale_pairs // 25, 2)
    hi_weak, _ = pairing_max(
        "c09-weak", lambda rng: ((identity_problem(_random_space(rng, 4, 13)), 5)
                                 for _ in range(rounds)),
        LorentzExponents(2.0, 1.0), "scriptB",
        lambda fs, fams, o: mn.weak_script_m_norms(fs, 2.0, fams, o))
    rows.row("/weak-blocks", hi_weak, "pairing-direction-weak",
             f"{5 * rounds} script-block pairs, q=1", "recorded")

    # weighted-infimum route: pair against the upper estimate of the dual norm
    rng = ctx.rng("c09-n")
    for _ in range(rounds):
        m = int(rng.integers(4, 13))
        # positive kernels keep the potentials off the weight floor
        problem = _random_finite_problem(rng, m)
        space = problem.space
        oracle = ctx.finite_oracle(problem)
        e = LorentzExponents(2.0, 2.0)
        cands = [wt.potential_weight(oracle, _random_mask(rng, space), ctx.weights)
                 for _ in range(3)]
        fam = (mn.TestSetFamily.all_subsets() if m <= 10
               else mn.TestSetFamily.random_unions(8))
        pairs = [(_random_field(rng, space), _random_field(rng, space))
                 for _ in range(5)]
        for (f, g), est in zip(pairs, mn.m_norms([f for f, _ in pairs], e,
                                                 [fam] * 5, oracle)):
            n_est = wt.n_norm_upper(Field(space, np.abs(g.values)), e, cands,
                                    cfg=ctx.weights)
            rows.bound("n", pairing(f, g, absolute=True)
                       / (est.value * n_est.value))
    rows.row("/n-route", rows.worst["n"], "pairing-direction-n",
             f"{5 * rounds} pairs vs weighted upper bounds", "recorded")


@_check("C10-block-decomposition", "block-decomposition-constructive",
        "block-space-definitions", "level-sum-bound", "block-solidity",
        suites=("blocks-duality",), solves=(_LINE, _FINITE))
def check_block_decomposition(ctx: RunContext, rows: _Rows) -> None:
    cfg = ctx.cfg
    rng = ctx.rng("c10")

    def run_instance(oracle, f, omega_weight, e):
        decomp = bl.block_norm_upper_constructive(f, e, omega_weight, oracle)
        for norm in decomp.normalization.tolist():
            rows.bound("norm", abs(norm - 1.0), 1e-12, "block not tight")
        scale = float(np.abs(f.values).max(initial=0.0))
        rows.bound("resid", decomp.residual / max(scale, 1e-300))
        return decomp

    # finite models
    for _ in range(8):
        space = _random_space(rng, 6, 25)
        oracle = ctx.finite_oracle(identity_problem(space))
        wgt = wt.potential_weight(oracle, _random_mask(rng, space), ctx.weights)
        f = _random_field(rng, space)
        e = LorentzExponents(1.5, 2.5)   # p < q: the guaranteed window
        decomp = run_instance(oracle, f, wgt, e)
        denom = wt.n_norm_upper(f, e, [wgt], cfg=ctx.weights).value
        if denom > 0:
            rows.bound("sum", decomp.sum_lambda / denom)
        rep = wt.level_sum_check(wgt.field, oracle, l1c_levels=cfg.l1c_levels)
        slack = 1.0 + 50.0 * max(oracle.params.tol, 1e-12)
        rows.bound("level", rep.ratio, 4.0 * slack, f"level sum {rep.ratio:.3f}")

    # grid instance
    g1 = ctx.grid_oracle(1)
    grid = g1.space
    wgt = wt.potential_weight(g1, _interval_mask(grid, 0.0, 1.0), ctx.weights)
    f = Field(grid, np.round(_bump_field(grid, 1.0, 0.7).values * 4.0) / 4.0)
    decomp = run_instance(g1, f, wgt, LorentzExponents(1.5, 2.5))
    rep = wt.level_sum_check(wgt.field, g1, l1c_levels=cfg.l1c_levels)
    rows.bound("level", rep.ratio, 4.0 * (1.0 + 50.0 * cfg.tol),
               f"grid level sum {rep.ratio:.3f}")

    # greedy route: a tight block in the dictionary peels in one step
    space = DiscreteMeasureSpace(np.ones(8))
    oracle = ctx.finite_oracle(identity_problem(space))
    e = LorentzExponents(2.0, 2.0)
    support = SetMask.from_indices(space, [1, 2, 3])
    b = np.zeros(8)
    b[1:4] = 1.0
    bf = Field(space, b)
    tight = Field(space, b / (oracle.value(support) ** (1.0 / e.q_conj)
                              * lorentz_norm(bf, e)))
    dictionary = mn.TestSetFamily.explicit([support, SetMask.full(space)])
    gdec = bl.block_norm_upper_greedy(tight, e, dictionary, oracle)
    if gdec.sum_lambda > 1.0 + 1e-9:
        rows.fail("greedy tight block")

    # solidity transport
    f = _random_field(rng, space)
    decomp_f = bl.block_norm_upper_greedy(
        f, e, mn.TestSetFamily.all_subsets(), oracle)
    damp = rng.uniform(0.0, 1.0, space.size)
    g = Field(space, f.values * damp)
    moved = bl.transport_decomposition(decomp_f, g, oracle)
    if moved.sum_lambda > decomp_f.sum_lambda * (1.0 + 1e-12):
        rows.fail("transport coefficients")

    rows.row("", rows.worst["norm"], "block-decomposition-constructive",
             rows.summary("tight blocks, exact reconstruction"))
    rows.row("/definitions", rows.worst["resid"], "block-space-definitions",
             "support and normalization validated per block")
    rows.row("/sum-ratio", rows.worst["sum"],
             "block-decomposition-constructive",
             "sum|lambda| / weighted norm, p < q corpus", "recorded")
    rows.row("/level-sum", rows.worst["level"], "level-sum-bound",
             "dyadic level sum <= 4x the layer-cake norm")
    rows.row("/solidity", 0.0, "block-solidity",
             "transported decompositions keep coefficients")


@_check("C11-weight-characterization", "weight-characterization",
        "weight-averaging", suites=("weights",), solves=(_LINE,))
def check_weight_characterization(ctx: RunContext, rows: _Rows) -> None:
    ratios = {}
    g1 = ctx.grid_oracle(1)
    grid = g1.space
    for tag in ("a", "b"):
        rng = ctx.rng(f"c11-{tag}")
        masks = _grid_set_corpus(rng, grid, 3)
        f = _bump_field(grid, rng.uniform(-1.5, 1.5), rng.uniform(0.5, 1.2))
        # the field's superlevel sets: a corpus meets the field at every seed
        masks += [SetMask(grid, b) for b in
                  mn.TestSetFamily.superlevels(size_cap=4).sets(grid, f)]
        weights = [wt.potential_weight(g1, m, ctx.weights) for m in masks]
        for (p, q) in ((2.0, 2.0), (3.0, 2.0)):
            rep = mn.char_m_via_weights(f, LorentzExponents(p, q), masks,
                                        weights, g1, ctx.weights)
            # the smallest margin, kept as the largest shortfall below zero
            rows.bound("shortfall", -rep.per_set_margin,
                       1e-9 * max(rep.sets_form, 1.0),
                       f"margin (p,q)=({p},{q})", start=-math.inf)
            ratios.setdefault((p, q), []).append(rep.ratio_ws)
            rows.bound("w/s", rep.ratio_ws)
            rows.bound("s/w", rep.ratio_sw)
    for key, pair in ratios.items():
        rows.band(f"seed stability {key}",
                  pair[0] / pair[1] if pair[1] > 0 else math.inf)

    # averaging keeps the sublinearity bound on the local-A1 constant
    rng = ctx.rng("c11-avg")
    averaging = _Tally()
    for _ in range(6):
        m1 = _grid_set_corpus(rng, grid, 1)[0]
        m2 = _grid_set_corpus(rng, grid, 1)[0]
        w1 = wt.potential_weight(g1, m1, ctx.weights)
        w2 = wt.potential_weight(g1, m2, ctx.weights)
        lam = float(rng.uniform(0.2, 0.8))
        mixed = wt.average_weights([(lam, w1), (1.0 - lam, w2)], g1, ctx.weights)
        if mixed.a1_constant > max(w1.a1_constant, w2.a1_constant) + 1e-10:
            averaging.fail("averaging constant")
    rows.failures.extend(averaging.failures)
    rows.row("", -rows.worst["shortfall"], "weight-characterization",
             rows.summary("per-set potential-weight lower bound, banded"))
    rows.row("/forms-ratio", rows.worst["w/s"], "weight-characterization",
             f"two-sided: w/s max {rows.worst['w/s']:.4f}, "
             f"s/w max {rows.worst['s/w']:.4f}", "recorded")
    rows.row("/averaging", float(len(averaging.failures)), "weight-averaging",
             "a1 of convex averages below the max of the parts",
             averaging.status())


@_check("C12-trace-formula", "trace-threshold-equality", "trace-class",
        suites=("blocks-duality",), solves=(_FINITE,))
def check_trace_formula(ctx: RunContext, rows: _Rows) -> None:
    cfg = ctx.cfg
    rng = ctx.rng("c12")
    for i in range(cfg.scale_trace):
        if i % 5 == 4:
            problem = _random_finite_problem(rng, int(rng.integers(3, 8)))
        else:
            problem = identity_problem(_random_space(rng, 2, 13))
        oracle = ctx.finite_oracle(problem)
        masses = rng.standard_normal(problem.space.size) * 3.0
        mu = bl.AtomicMeasure(problem.space, masses)
        sup_form, inf_form = bl.trace_norm(mu, mn.TestSetFamily.all_subsets(),
                                           oracle)
        gap_slack = 10.0 * sup_form.max_gap * max(sup_form.value, 1.0)
        dev = abs(sup_form.value - inf_form)
        rows.bound("dev", dev, 1e-9 * max(sup_form.value, 1.0) + gap_slack,
                   f"dev {dev:.2e}")
    rows.row("", rows.worst["dev"], "trace-threshold-equality", rows.summary(
        f"{cfg.scale_trace} measures, sup form vs threshold form"))
    rows.row("/class", rows.worst["dev"], "trace-class",
             "total-variation-to-capacity suprema")


@_check("C13-kothe-oracle", "kothe-duality",
        suites=("blocks-duality", "determinism-core"))
def check_kothe_oracle(ctx: RunContext, rows: _Rows) -> None:
    cfg = ctx.cfg
    ratio_stats = []
    for tag in ("a", "b"):
        rng = ctx.rng(f"c13-{tag}")
        ratios = []
        for i in range(max(cfg.scale_kothe // 2, 2)):
            space = _random_space(rng, 2, 7)
            f = _random_field(rng, space)
            rng.integers(2**31, size=2)   # the retired search's two seeds
            p = (2.0, 3.0)[i % 2]
            e = LorentzExponents(p, p)
            dual = bl.lorentz_kothe_dual_norm(f, LorentzExponents(e.p_conj,
                                                                  e.p_conj))
            target = lorentz_norm(f, e)
            dev = abs(dual.value - target) / max(target, 1e-300)
            rows.bound("dev", dev, 1e-6, f"sharpness {dev:.2e}")
            # p != q: two-sided comparison constants are recorded
            pq = LorentzExponents(2.5, 1.5)
            dual2 = bl.lorentz_kothe_dual_norm(f, LorentzExponents(pq.p_conj,
                                                                   pq.q_conj))
            for d in (dual, dual2):
                rows.bound("gap", d.hi - d.lo, 1e-12 * d.hi,
                           f"dual certificate gap {d.hi - d.lo:.2e}")
            ratios.append(dual2.value / lorentz_norm(f, pq))
        ratio_stats.append((min(ratios), max(ratios)))
    (lo_a, hi_a), (lo_b, hi_b) = ratio_stats
    rows.band("ratio stability", hi_a / hi_b, lo_a / lo_b)
    rows.row("", rows.worst["dev"], "kothe-duality",
             rows.summary("p=q sharpness 1e-6; p!=q constants recorded"))
    rows.row("/ratio-band", hi_a, "kothe-duality",
             f"p!=q two-sided band [{min(lo_a, lo_b):.4f}, {max(hi_a, hi_b):.4f}]",
             "recorded")


@_check("C14-maximal-probes", "maximal-boundedness-probe",
        "local-maximal-operator", "a1loc-class", "n-space-definition",
        suites=("weights",), solves=(_LINE,))
def check_maximal(ctx: RunContext, rows: _Rows) -> None:
    g1 = ctx.grid_oracle(1)
    grid = g1.space
    rng = ctx.rng("c14")

    # constants are fixed exactly; averages never exceed the sup
    for c in (0.7, 1.0, 3.5):
        out = wt.local_maximal(grid, Field(grid, np.full(grid.size, c)))
        rows.bound("constant", np.abs(out.values - c).max(), 1e-12,
                   "constant not fixed")
    for _ in range(20):
        f = _random_field(rng, grid)
        mf = wt.local_maximal(grid, f)
        if mf.values.max() > np.abs(f.values).max() * (1.0 + 1e-12) + 1e-15:
            rows.fail("sup bound")
        g = _random_field(rng, grid)
        both = wt.local_maximal(grid, Field(grid, f.values + g.values))
        apart = mf.values + wt.local_maximal(grid, g).values
        if np.any(both.values > apart + 1e-12):
            rows.fail("sublinearity")

    a1_one = wt.a1loc_constant(grid, Field(grid, np.ones(grid.size)))
    rows.bound("a1", abs(a1_one - 1.0), 1e-12, "a1 of constant")

    # local-A1 calibration over potential weights
    cands = [wt.potential_weight(g1, m, ctx.weights)
             for m in _grid_set_corpus(ctx.rng("c14-weights"), grid, 3)]
    a1_max = max(w.a1_constant for w in cands)

    e = LorentzExponents(2.0, 2.0)
    probe_max = {}
    for tag in ("a", "b"):
        rngc = ctx.rng(f"c14-{tag}")
        corpus = [Field(grid, np.abs(_bump_field(
            grid, rngc.uniform(-1.5, 1.5), rngc.uniform(0.4, 1.2),
            rngc.uniform(0.5, 2.0)).values))
            for _ in range(3)]
        rep = mn.maximal_boundedness_probe(corpus, e, g1, cands, ctx.weights)
        if not (math.isfinite(rep.m_max) and math.isfinite(rep.n_max)):
            rows.fail("probe infinite")
        probe_max[tag] = rep
    stab = probe_max["a"].m_max / probe_max["b"].m_max \
        if probe_max["b"].m_max > 0 else math.inf
    rows.band(f"probe stability {stab:.3f}", stab)

    # sweep the exponent ratio p/q and record where the ratios sit; no
    # window boundary is claimed, only the measured degradation profile
    rngs = ctx.rng("c14-sweep")
    sweep_corpus = [Field(grid, np.abs(_bump_field(
        grid, rngs.uniform(-1.5, 1.5), rngs.uniform(0.4, 1.2)).values))
        for _ in range(2)]
    sweep = {}
    for p_over_q in (1.0, 1.25, 1.5):
        es = LorentzExponents(2.0 * p_over_q, 2.0)
        rep = mn.maximal_boundedness_probe(sweep_corpus, es, g1)
        sweep[p_over_q] = rep.m_max
        if not math.isfinite(rep.m_max):
            rows.fail(f"sweep p/q={p_over_q}")
    rows.row("", probe_max["a"].m_max, "maximal-boundedness-probe",
             rows.summary("multiplier-estimate ratios under the maximal operator"))
    rows.row("/window-sweep", max(sweep.values()), "maximal-boundedness-probe",
             "ratios at p/q in {1, 1.25, 1.5}: " +
             ", ".join(f"{k}:{v:.4f}" for k, v in sweep.items()), "recorded")
    rows.row("/operator", 0.0, "local-maximal-operator",
             "constants fixed, sup bound, sublinearity")
    rows.row("/a1-calibration", a1_max, "a1loc-class",
             "corpus maximum of potential-weight constants", "recorded")
    rows.row("/n-upper", probe_max["a"].n_max, "n-space-definition",
             "weighted-infimum upper bounds under the maximal operator")


@_check("C15-determinism", "artifact-determinism", suites=("determinism",),
        solves=sum((_SOLVES[cid] for cid in SUITES["determinism-core"]), ()))
def check_determinism(ctx: RunContext, rows: _Rows) -> None:
    first = _render_csv(run_suite("determinism-core", ctx.cfg.quick()))
    if _render_csv(run_suite("determinism-core", ctx.cfg.quick())) != first:
        rows.fail("verdict CSV differs between runs")
    rows.row("", float(len(first)), "artifact-determinism",
             "bytewise-identical verdict CSV across two runs")


@_check("C16-multiplier-invariants", "multiplier-norm-definitions",
        "script-multiplier-coincidence", "weak-multiplier-identity",
        "norm-switching-suprema", "linf-embedding",
        "lorentz-embedding-r-le-q", "quasi-norm-axioms", "fatou-monotone",
        "r-convexity", suites=("lorentz-core",), solves=(_FINITE,))
def check_multiplier_invariants(ctx: RunContext, rows: _Rows) -> None:
    cfg = ctx.cfg
    rng = ctx.rng("c16")
    space = DiscreteMeasureSpace(rng.random(6) + 0.3)
    oracle = ctx.finite_oracle(identity_problem(space))
    allfam = mn.TestSetFamily.all_subsets()

    # one stack: the counting indicator over all subsets, and f over all
    # subsets, a random-union subfamily and that subfamily plus superlevels
    A = SetMask.from_indices(space, [0, 2])
    chiA = Field(space, A.bools.astype(float))
    f = _random_field(rng, space)
    e = LorentzExponents(2.0, 2.0)
    sub = mn.TestSetFamily.random_unions(6, seed=cfg.master_seed)
    est, est_all, est_sub, est_big = mn.m_norms(
        [chiA, f, f, f], e, [allfam, allfam, sub, sub +
                             mn.TestSetFamily.superlevels()], oracle)

    # counting model: the sup of mass ratios for an indicator is one
    if abs(est.value - 1.0) > 1e-12 or not est.witness.issubset(A):
        rows.fail("counting exactness")
    if est.mode != "exact":
        rows.fail("exactness tag")

    # p = q: both multiplier norms coincide
    if abs(est_all.value - mn.script_m_norm(f, e, allfam, oracle).value) > 1e-15:
        rows.fail("p=q coincidence")

    # weak two-form identity (raises internally on disagreement)
    mn.weak_script_m_norm(f, 2.0, allfam, oracle)

    # all-subsets dominates any family; families are monotone
    if est_sub.value > est_all.value * (1 + 1e-15):
        rows.fail("all-subsets domination")
    if est_big.value < est_sub.value * (1 - 1e-15):
        rows.fail("family monotonicity")

    # bounded fields: per-set domination by the sup norm
    sets = allfam.sets(space)
    lhs = lorentz_norms(np.where(sets, f.values, 0.0), space.weights, e)
    rhs = (e.p / e.q) ** (1.0 / e.q) * np.abs(f.values).max() * np.float_power(
        _measures(space.weights, sets), 1.0 / e.p)
    if np.any(lhs > rhs * (1 + 1e-12)):
        rows.fail("sup-norm domination")

    # embedding across secondary exponents: ratios below the explicit
    # constant (r/p)^(1/r - 1/q) from the weak bound on t^(1/p) f*(t),
    # with the corpus maximum recorded and seed-stable
    pe, re_, qe = 2.0, 1.0, 2.5
    emb_cap = (re_ / pe) ** (1.0 / re_ - 1.0 / qe)
    for tag in ("emb-a", "emb-b"):
        rnge = ctx.rng(f"c16-{tag}")
        for _ in range(cfg.scale_fields):
            ff = _random_field(rnge, _random_space(rnge, 2, 33))
            rows.bound(tag, lorentz_norm(ff, LorentzExponents(pe, qe)) /
                       lorentz_norm(ff, LorentzExponents(pe, re_)))
        hi = rows.worst[tag]
        rows.bound("embedding", hi, emb_cap * (1 + 1e-12),
                   f"embedding constant exceeded ({hi:.6f})")
    rows.band("embedding stability", rows.worst["emb-a"] / rows.worst["emb-b"])

    # quasi-triangle constant, measured
    rngk = ctx.rng("c16-kappa")
    for _ in range(cfg.scale_fields):
        sp = _random_space(rngk, 2, 17)
        f1, f2 = _random_field(rngk, sp), _random_field(rngk, sp)
        p, q = (2.0, 0.5) if rngk.random() < 0.5 else (2.0, 2.0)
        e2 = LorentzExponents(p, q)
        s12 = lorentz_norm(Field(sp, f1.values + f2.values), e2)
        rows.bound("kappa", s12 / (lorentz_norm(f1, e2) + lorentz_norm(f2, e2)))

    # monotone limits commute with the closed form
    fpos = np.abs(_random_field(rng, space).values)
    cuts = np.append(np.linspace(0.2, 1.0, 6) * fpos.max(), np.inf)
    norms = lorentz_norms(np.minimum(fpos, cuts[:, None]), space.weights, e)
    if np.any(np.diff(norms) < -1e-12) or abs(norms[-2] - norms[-1]) > 1e-12:
        rows.fail("monotone convergence")

    # r-convexity transfers from the norm level to the estimates
    rngr = ctx.rng("c16-rconv")
    p, q, r = 2.5, 2.0, 1.5
    er = LorentzExponents(p, q)
    e_low = LorentzExponents(p / r, q / r)
    stack = []   # each tuple's mixture and its three fields, in turn
    for _ in range(cfg.scale_tuples):
        fs = [_random_field(rngr, space) for _ in range(3)]
        mix = sum(np.abs(g.values) ** r for g in fs) ** (1.0 / r)
        stack += [Field(space, mix)] + fs
        parts = [np.where(sets, np.abs(g.values) ** r, 0.0) for g in fs]
        norms = lorentz_norms(np.concatenate([sum(parts)] + parts),
                              space.weights, e_low).reshape(4, -1)
        rows.bound("kappa_r", float(np.max(norms[0] / sum(norms[1:]))),
                   start=1.0)
    kappa_est = rows.worst["kappa_r"] ** (1.0 / r) * (1.0 + 1e-9)
    ests = [est.value for est in mn.m_norms(stack, er, [allfam] * len(stack),
                                            oracle)]
    rconv_fail = 0
    for i in range(0, len(ests), 4):
        rhs = kappa_est * sum(v ** r for v in ests[i + 1:i + 4]) ** (1.0 / r)
        rconv_fail += ests[i] > rhs * (1 + 1e-12)
    if rconv_fail:
        rows.fail(f"r-convexity ({rconv_fail})")

    rows.row("", float(len(rows.failures)), "multiplier-norm-definitions",
             rows.summary("finite-model estimator laws"))
    rows.row("/script", 0.0, "script-multiplier-coincidence",
             "p=q collapse of the two capacity exponents")
    rows.row("/weak-identity", 0.0, "weak-multiplier-identity",
             "breakpoint form equals per-set weak form")
    rows.row("/norm-switching", 0.0, "norm-switching-suprema",
             "all-subsets supremum dominates every family")
    rows.row("/linf", 0.0, "linf-embedding", "per-set sup-norm domination")
    rows.row("/embedding", rows.worst["embedding"], "lorentz-embedding-r-le-q",
             f"norm ratio maxima vs constant {emb_cap:.6f}")
    rows.row("/kappa", rows.worst["kappa"], "quasi-norm-axioms",
             "measured quasi-triangle constant", "recorded")
    rows.row("/fatou", 0.0, "fatou-monotone",
             "norms of increasing truncations converge upward")
    rows.row("/r-convex", float(rconv_fail), "r-convexity",
             f"{cfg.scale_tuples} tuples with measured kappa")


@_check("C17-diam1-localization", "diam1-localization",
        suites=("localization",), solves=(_LINE,))
def check_localization_diam1(ctx: RunContext, rows: _Rows) -> None:
    cfg = ctx.cfg
    rng = ctx.rng("c17")
    g1 = ctx.grid_oracle(1)
    grid = g1.space
    e = LorentzExponents(2.0, 2.0)
    # a field inside one cover tile localizes with ratio one (up to gaps)
    x = grid.coords()[:, 0]
    f_in = _bump_field(grid, 0.5, 0.08)
    vals = np.where(np.abs(x - 0.5) <= 0.4, f_in.values, 0.0)
    rep = mn.m_norm_local(Field(grid, vals), e, g1)
    if rep.local.value > rep.global_.value * (1 + 1e-12):
        rows.fail("local exceeds global")
    if not (1.0 - 1e-9 <= rep.ratio <= 1.0 + 1e-3):
        rows.fail(f"single-tile ratio {rep.ratio:.6f}")
    for _ in range(cfg.scale_grid_sets):
        f = Field(grid, _bump_field(grid, rng.uniform(-3, 0), 0.5).values +
                  _bump_field(grid, rng.uniform(1, 3), 0.4).values)
        rep = mn.m_norm_local(f, e, g1)
        if rep.local.value > rep.global_.value * (1 + 1e-12):
            rows.fail("local exceeds global")
        if not math.isfinite(rep.ratio):
            rows.fail("ratio infinite")
        rows.bound("ratio", rep.ratio, start=-math.inf)
    rows.row("", rows.worst["ratio"], "diam1-localization",
             rows.summary("unit-diameter suprema against unrestricted ones"))


@_check("C18-kernel-diagnostics", "bessel-kernel-spectral",
        "convolution-pairing-symmetry", suites=("capacity",),
        solves=((2, 1.0, 2.0, 1),))
def check_kernel_diagnostics(ctx: RunContext, rows: _Rows) -> None:
    cfg = ctx.cfg
    from scipy.integrate import quad as _quad
    grid = make_grid(1, cfg.grid_L, cfg.grid_N)
    spec = bessel_kernel(grid, 1.0)
    plane = ctx.grid_oracle(2, 1.0, 2.0)
    for g, kernel in ((grid, bessel_kernel(grid, cfg.alpha)), (grid, spec),
                      (plane.space, plane.problem.kernel)):
        mass = kernel.kernel.sum() * g.cell_measure
        rows.bound("mass", abs(mass - 1.0), 1e-10, "mass")
        ker = kernel.kernel.reshape(g.shape)
        if g.n == 1:
            flipped = np.roll(ker[::-1], 1)
        else:
            flipped = np.roll(ker[::-1, ::-1], (1, 1), axis=(0, 1))
        if np.abs(ker - flipped).max() > 1e-15 * np.abs(ker).max():
            rows.fail("evenness")

    # a too-coarse plane grid must be rejected with a clipped-mass diagnostic
    rows.raises(lambda: bessel_kernel(make_grid(2, 12.0, 64), 1.0),
                "coarse grid accepted")

    # direct band-limited inverse-transform quadrature at two probe points
    band = math.pi / grid.h
    for x in (0.0, 1.0):
        ref, _ = _quad(lambda xi: (1 + xi ** 2) ** (-0.5) * math.cos(xi * x)
                       / math.pi, 0.0, band, limit=400)
        j = int(round(x / grid.h))
        rows.bound("quad", abs(spec.kernel[j] - ref) / abs(ref), 1e-4,
                   f"quadrature x={x}")

    # pairing symmetry and monotonicity of the convolution
    rng = ctx.rng("c18")
    f = _random_field(rng, grid)
    g = _random_field(rng, grid)
    lhs = pairing(convolve(grid, spec, f), g)
    rhs = pairing(f, convolve(grid, spec, g))
    rows.bound("pairing", abs(lhs - rhs), 1e-10 * max(abs(lhs), abs(rhs), 1.0),
               "pairing symmetry")
    a = Field(grid, np.abs(f.values))
    b = Field(grid, np.abs(f.values) + np.abs(g.values))
    if np.any(convolve(grid, spec, a).values >
              convolve(grid, spec, b).values + 1e-12):
        rows.fail("monotonicity")
    ones = Field(grid, np.ones(grid.size))
    rows.bound("unit", np.abs(convolve(grid, spec, ones).values - 1.0).max(),
               1e-10, "unit response")

    # refinement stability of smoothed indicators at fixed probes
    fine = make_grid(1, cfg.grid_L, cfg.grid_N * 2)
    spec_f = bessel_kernel(fine, 1.0)
    mask_c = _interval_mask(grid, 0.0, 1.0)
    mask_f = _refine_mask(grid, fine, mask_c)
    conv_c = convolve(grid, spec, Field(grid, mask_c.bools.astype(float)))
    conv_f = convolve(fine, spec_f, Field(fine, mask_f.bools.astype(float)))
    for x in (0.0, 0.5, 2.0):
        jc = int((x + grid.L / 2) / grid.h)
        jf = int((x + fine.L / 2) / fine.h)
        c0, f0 = conv_c.values[jc], conv_f.values[jf]
        drift = abs(c0 - f0) / max(abs(c0), 1e-300)
        rows.bound("drift", drift, 0.05, f"refinement drift {drift:.3f}")

    rows.row("", rows.worst["quad"], "bessel-kernel-spectral",
             rows.summary("mass, evenness, quadrature oracle, clip rejection"))
    rows.row("/symmetry", rows.worst["drift"], "convolution-pairing-symmetry",
             "self-adjoint pairing and refinement drift")


# ---------------------------------------------------------------------------
# Claims, suites, runner
# ---------------------------------------------------------------------------

REQUIRED_CLAIMS = [
    "a1loc-class",
    "artifact-determinism",
    "bessel-kernel-spectral",
    "block-decomposition-constructive",
    "block-solidity",
    "block-space-definitions",
    "capacitary-embedding-constants",
    "capacitary-lorentz-spaces",
    "capacity-definition",
    "capacity-duality-certificate",
    "capacity-set-function-axioms",
    "convolution-pairing-symmetry",
    "diam1-localization",
    "equilibrium-identities",
    "fatou-monotone",
    "gamma-normability",
    "kothe-duality",
    "l1c-norm",
    "level-sum-bound",
    "linf-embedding",
    "local-maximal-operator",
    "lorentz-embedding-r-le-q",
    "lorentz-norm-definition",
    "maximal-boundedness-probe",
    "multiplier-norm-definitions",
    "n-space-definition",
    "nonlinear-potential",
    "norm-switching-suprema",
    "pairing-direction-n",
    "pairing-direction-weak",
    "pairing-estimate",
    "power-identity",
    "quasi-norm-axioms",
    "r-convexity",
    "script-multiplier-coincidence",
    "sobolev-lower-bounds",
    "strichartz-localization",
    "trace-class",
    "trace-threshold-equality",
    "weak-multiplier-identity",
    "weight-averaging",
    "weight-characterization",
]

def _audit_verdict() -> Verdict:
    covered = {claim for _cid, claims, _fn in CHECKS for claim in claims}
    missing = sorted(set(REQUIRED_CLAIMS) - covered)
    if missing:
        return Verdict("C00-coverage-audit", "fail", float(len(missing)),
                       "artifact-determinism", "missing: " + ", ".join(missing))
    return Verdict("C00-coverage-audit", "pass", float(len(REQUIRED_CLAIMS)),
                   "artifact-determinism",
                   "every registered claim has at least one check")


def _problem_keys(entry: tuple, cfg: CapflowConfig) -> str:
    """Declared problem `entry` with the config keys it reads."""
    n, alpha, s, k = entry
    g = ("", "grid", "grid2")[n]
    where = "finite models" if not n else (
        f"{('line', 'plane')[n - 1]} grid {f'{k} x ' * (k > 1)}[{g}] N = "
        f"{k * getattr(cfg, g + '_N')}, [{g}] L = {getattr(cfg, g + '_L'):g}")
    exps = [f"{name} = {v:g}" if v is not None
            else f"[cap] {name} = {getattr(cfg, name):g}"
            for name, v in (("alpha", alpha), ("s", s))]
    return f"{where} at {', '.join(exps)} and [cap] tol = {cfg.tol:g}"


def run_suite(suite: str, cfg: CapflowConfig) -> List[Verdict]:
    """Execute the named campaign deterministically; verdict order is fixed
    by check id.  Missing suite names raise.  Before the first check, every
    problem a check of the campaign declares is built into the campaign's
    `RunContext` (grid oracles) or checked (finite params); a config that
    fails there, or in a check, raises `ConfigError` naming the suite, the
    check, the problem and its config keys."""
    if suite not in SUITES:
        raise ValueError(f"unknown suite {suite!r}; "
                         f"choose from {sorted(SUITES)}")
    ctx = RunContext(cfg)
    checks = [(cid, fn) for cid, _claims, fn in CHECKS if cid in SUITES[suite]]
    for cid, _fn in checks:
        for entry in _SOLVES[cid]:
            try:
                if entry[0]:
                    ctx.grid_oracle(*entry)
                else:
                    CapacityParams(entry[1], entry[2], cfg.tol)
            except ValueError as err:
                raise ConfigError(f"suite {suite!r}, check {cid}: "
                                  f"{_problem_keys(entry, cfg)}: {err}") from None
    verdicts = [_audit_verdict(), Verdict("C00-seeds", "recorded", float(
        cfg.master_seed), "artifact-determinism", "master seed")]
    for cid, fn in checks:
        try:
            verdicts.extend(fn(ctx))
        except ConfigError as err:
            raise ConfigError(f"suite {suite!r}, check {cid}: {err}") from None
    verdicts.sort(key=lambda v: v.check_id)
    return verdicts


def _render_csv(verdicts: List[Verdict]) -> bytes:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["check_id", "status", "measured", "claim", "details"])
    for v in verdicts:
        writer.writerow([v.check_id, v.status, _fmt(v.measured), v.claim,
                         v.details])
    return buf.getvalue().encode()


def write_verdicts(verdicts: List[Verdict], path, suite: str,
                   cfg: CapflowConfig) -> None:
    """Write the verdict table of campaign `suite` run under `cfg` as JSON at
    `path` and as CSV beside it (`path` with suffix .csv).  Field order is
    stable, so reruns with the same config and seeds are byte-identical."""
    doc = {"suite": suite, "config": cfg.to_dict(),
           "verdicts": [{**asdict(v), "measured": _fmt(v.measured)}
                        for v in verdicts]}
    Path(path).write_text(json.dumps(doc, indent=2) + "\n")
    Path(path).with_suffix(".csv").write_bytes(_render_csv(verdicts))


def any_failures(verdicts: List[Verdict]) -> bool:
    return any(v.status == "fail" for v in verdicts)
