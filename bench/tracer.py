"""Span tracer that wraps capflow's public functions from outside.

`Tracer.install()` replaces every public function of the traced modules
(the names in each module's `__all__`) and a few hot methods with a wrapper
that records one span: its name, its parent span, start and end.  A
function imported by name into another capflow module (``from .capacity
import capacity``) is replaced there too, and so are the check functions
held in the `suites.CHECKS` registry.  `Tracer.restore()` puts every
original back.  No capflow source file is touched.

Spans live in four flat arrays (name, parent, start, end) plus a per-span
annotation, so a campaign with a million kernel applies costs tens of MB.
`layer_metrics()` turns them into the per-layer metrics; `self_times()`
computes each span's self time (its duration minus its children's).
"""
from __future__ import annotations

import functools
import importlib
import inspect
import itertools
import sys
import time
import weakref
from array import array

import numpy as np

LAYERS = ("grid", "capacity", "measure", "multiplier", "weights", "blocks",
          "suites")

# Methods wrapped besides the module-level public functions.
METHODS = (
    ("capacity", "CapacityProblem", "apply"),
    ("capacity", "CapacityProblem", "potential_of_measure"),
    ("capacity", "CapacityOracle", "result"),
    ("multiplier", "TestSetFamily", "sets"),
)

# Checks run by the benchmark workloads; each gets a wall and a solve
# metric in every traced run (zero when the workload does not run it).
CHECK_IDS = (
    "C07-strichartz-localization", "C08-sobolev-lower-bounds",
    "C09-pairing-inequalities", "C10-block-decomposition", "C12-trace-formula",
    "C13-kothe-oracle", "C17-diam1-localization",
)

APPLY_1D = "grid.apply.1d"
APPLY_2D = "grid.apply.2d"
FINITE_APPLY = "capacity.finite_apply"
SOLVE = "capacity.capacity"
ORACLE = "capacity.CapacityOracle.result"
SETS = "multiplier.TestSetFamily.sets"
CHECK_PREFIX = "suites.check."
SUP_FUNCTIONS = ("multiplier.m_norm", "multiplier.script_m_norm",
                 "multiplier.weak_script_m_norm", "multiplier.m_norm_local",
                 "multiplier.char_m_via_weights")


class Tracer:
    """Records spans for wrapped capflow functions between install/restore."""

    def __init__(self):
        self.names: list = []
        self._ids: dict = {}
        self.name_id = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.aux = array("d")        # apply: cells; sets: sets generated
        self.solves: dict = {}       # span index -> (trivial, iters, converged, gap, tol)
        self.oracle_sizes: dict = {}  # oracle token -> memo entries after last query
        self._oracle_token = weakref.WeakKeyDictionary()  # no strong refs
        self._tokens = itertools.count()
        self._stack = [-1]
        self._undo: list = []

    # -- recording ---------------------------------------------------------

    def _id(self, name: str) -> int:
        i = self._ids.get(name)
        if i is None:
            i = self._ids[name] = len(self.names)
            self.names.append(name)
        return i

    def wrap(self, fn, name=None, namer=None, note=None):
        """Return a span-recording wrapper around `fn`.

        `namer(args)` picks the span name per call when one function serves
        several layers; `note(tracer, index, args, out)` annotates the span
        after it ends.
        """
        fixed = self._id(name) if name is not None else None
        name_id, parent, start, end, aux = (self.name_id, self.parent,
                                            self.start, self.end, self.aux)
        stack = self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(start)
            name_id.append(fixed if namer is None else namer(args))
            parent.append(stack[-1])
            aux.append(0.0)
            end.append(0.0)
            stack.append(idx)
            start.append(clock())
            try:
                out = fn(*args, **kwargs)
            finally:
                end[idx] = clock()
                stack.pop()
            if note is not None:
                note(self, idx, args, out)
            return out

        return traced

    # -- installation ------------------------------------------------------

    def _set(self, owner, attr, value):
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def install(self):
        """Wrap public functions of every layer module, by-name imports and
        the check registry.  Call `restore()` to undo."""
        if self._undo:
            raise RuntimeError("tracer already installed")
        mods = {name: importlib.import_module(f"capflow.{name}")
                for name in LAYERS}
        importlib.import_module("capflow.cli")
        capflow_mods = [m for n, m in sorted(sys.modules.items())
                        if n == "capflow" or n.startswith("capflow.")]
        for layer, mod in mods.items():
            for attr in getattr(mod, "__all__", ()):
                fn = mod.__dict__.get(attr)
                if not _is_own_function(fn, mod):
                    continue
                note = _solve_note if (layer, attr) == ("capacity", "capacity") else None
                wrapped = self.wrap(fn, name=f"{layer}.{attr}", note=note)
                for m in capflow_mods:
                    for key, val in list(m.__dict__.items()):
                        if val is fn:
                            self._set(m, key, wrapped)
        # one apply method serves spectral (grid layer) and finite kernels
        spans = {"apply": dict(namer=self._apply_namer, note=_apply_note),
                 "potential_of_measure": dict(namer=self._apply_namer, note=_apply_note),
                 "result": dict(name=ORACLE, note=_oracle_note),
                 "sets": dict(name=SETS, note=_sets_note)}
        for layer, cls_name, meth in METHODS:
            cls = getattr(mods[layer], cls_name)
            self._set(cls, meth, self.wrap(cls.__dict__[meth], **spans[meth]))
        checks = mods["suites"].CHECKS
        original = list(checks)
        for i, (cid, claims, fn) in enumerate(original):
            checks[i] = (cid, claims, self.wrap(fn, name=CHECK_PREFIX + cid))
        self._undo.append((checks, slice(None), original))
        return self

    def restore(self):
        """Put back every original, in reverse order of installation."""
        while self._undo:
            owner, attr, value = self._undo.pop()
            if isinstance(attr, slice):
                owner[attr] = value
            else:
                setattr(owner, attr, value)

    def __enter__(self):
        return self.install()

    def __exit__(self, *exc):
        self.restore()
        return False

    def _apply_namer(self, args):
        problem = args[0]
        if problem.kernel is None:
            return self._id(FINITE_APPLY)
        return self._id(APPLY_2D if problem.space.n == 2 else APPLY_1D)

    # -- export ------------------------------------------------------------

    def arrays(self) -> dict:
        """Spans as numpy arrays (names as a list of strings)."""
        return {
            "names": list(self.names),
            "name_id": np.frombuffer(self.name_id, dtype=np.int32).copy(),
            "parent": np.frombuffer(self.parent, dtype=np.int32).copy(),
            "start": np.frombuffer(self.start, dtype=np.float64).copy(),
            "end": np.frombuffer(self.end, dtype=np.float64).copy(),
            "aux": np.frombuffer(self.aux, dtype=np.float64).copy(),
        }


def _is_own_function(fn, mod) -> bool:
    return inspect.isfunction(fn) and fn.__module__ == mod.__name__


def _solve_note(tracer, idx, args, out):
    problem, mask = args[0], args[1]
    trivial = bool(mask.is_empty or problem.is_identity)
    tracer.solves[idx] = (trivial, out.iterations, bool(out.converged),
                          float(out.gap), float(out.params.tol))


def _apply_note(tracer, idx, args, out):
    tracer.aux[idx] = float(args[0].space.size)


def _oracle_note(tracer, idx, args, out):
    oracle = args[0]
    token = tracer._oracle_token.get(oracle)
    if token is None:
        token = tracer._oracle_token[oracle] = next(tracer._tokens)
    tracer.oracle_sizes[token] = oracle.cache_size


def _sets_note(tracer, idx, args, out):
    tracer.aux[idx] = float(len(out))


# ---------------------------------------------------------------------------
# Aggregation
# ---------------------------------------------------------------------------

def self_times(parent: np.ndarray, start: np.ndarray, end: np.ndarray) -> np.ndarray:
    """Each span's duration minus the durations of its direct children."""
    dur = end - start
    child = np.zeros(len(dur))
    has_parent = parent >= 0
    np.add.at(child, parent[has_parent], dur[has_parent])
    return dur - child


def outermost(start: np.ndarray, end: np.ndarray) -> np.ndarray:
    """Mask of spans not nested in an earlier span of the same array.

    Spans of one thread nest properly and are recorded in start order, so a
    span is outermost iff it starts at or after every earlier span's end.
    """
    if len(start) == 0:
        return np.zeros(0, dtype=bool)
    prev_end = np.concatenate([[-np.inf], np.maximum.accumulate(end)[:-1]])
    return start >= prev_end


def busy_time(start: np.ndarray, end: np.ndarray) -> float:
    """Wall time covered by a set of spans, counting nested ones once."""
    keep = outermost(start, end)
    return float((end[keep] - start[keep]).sum())


def enclosing(member: np.ndarray, start: np.ndarray, end: np.ndarray,
              t: np.ndarray) -> np.ndarray:
    """Index of the outermost member span containing each time in `t`, or
    -1 where none does."""
    idx = np.flatnonzero(member)
    keep = idx[outermost(start[idx], end[idx])]
    if len(keep) == 0:
        return np.full(len(t), -1)
    k = np.searchsorted(start[keep], t, side="right") - 1
    safe = np.maximum(k, 0)
    return np.where((k >= 0) & (t < end[keep][safe]), keep[safe], -1)


def _pct(values, q: float) -> float:
    if len(values) == 0:
        return 0.0
    return float(np.percentile(np.asarray(values, dtype=float), q))


def layer_metrics(spans: dict, solves: dict, oracle_entries: int) -> dict:
    """Per-layer metrics, name -> (value, unit), from recorded spans.

    `solves` maps the span index of each `capacity()` call to
    (trivial, iterations, converged, gap, tol).
    """
    names = spans["names"]
    nid, parent = spans["name_id"], spans["parent"]
    start, end, aux = spans["start"], spans["end"], spans["aux"]
    dur = end - start
    selft = self_times(parent, start, end)

    def is_(*wanted):
        return np.isin(nid, [names.index(w) for w in wanted if w in names])

    def busy(*wanted):
        m = is_(*wanted)
        return busy_time(start[m], end[m])

    out = {}

    def put(name, value, unit):
        out[name] = (float(value), unit)

    spectral = is_(APPLY_1D, APPLY_2D)
    apply_us = dur[spectral] * 1e6
    put("grid.apply_calls", spectral.sum(), "count")
    put("grid.apply_s", dur[spectral].sum(), "s")
    put("grid.apply_s.2d", dur[is_(APPLY_2D)].sum(), "s")
    put("grid.apply_us_p50", _pct(apply_us, 50), "us")
    put("grid.apply_us_p99", _pct(apply_us, 99), "us")
    # computed from array sizes, not measured: float64 input plus output
    put("grid.apply_bytes", 16.0 * aux[spectral].sum(), "B_computed")
    put("grid.kernel_build_s", busy("grid.bessel_kernel"), "s")

    finite = is_(FINITE_APPLY)
    put("capacity.finite_apply_calls", finite.sum(), "count")
    put("capacity.finite_apply_s", dur[finite].sum(), "s")
    real = np.zeros(len(nid), dtype=bool)
    real[[i for i, note in solves.items() if not note[0]]] = True
    notes = [solves[i] for i in np.flatnonzero(real)]
    iters = np.array([n[1] for n in notes], dtype=float)
    applies = np.flatnonzero(spectral | finite)
    applies_in_solve = applies[enclosing(real, start, end, start[applies]) >= 0]
    solve_s = float(dur[real].sum())
    put("capacity.solves", real.sum(), "count")
    put("capacity.solves_trivial", len(solves) - real.sum(), "count")
    put("capacity.solve_s", solve_s, "s")
    put("capacity.solve_self_s", solve_s - float(dur[applies_in_solve].sum()), "s")
    put("capacity.solve_ms_p50", _pct(dur[real] * 1e3, 50), "ms")
    put("capacity.solve_ms_p99", _pct(dur[real] * 1e3, 99), "ms")
    put("capacity.iterations", iters.sum(), "count")
    put("capacity.iterations_p50", _pct(iters, 50), "count")
    put("capacity.applies_per_iter",
        len(applies_in_solve) / iters.sum() if iters.sum() else 0.0, "ratio")
    put("capacity.unconverged", sum(1 for n in notes if not n[2]), "count")
    put("capacity.max_gap", max((n[3] for n in notes), default=0.0), "ratio")
    oracle = is_(ORACLE)
    solve_parent = parent[is_(SOLVE)]
    misses = int(oracle[solve_parent[solve_parent >= 0]].sum())
    queries = int(oracle.sum())
    put("capacity.oracle_queries", queries, "count")
    put("capacity.oracle_hits", queries - misses, "count")
    put("capacity.oracle_hit_ratio",
        (queries - misses) / queries if queries else 0.0, "ratio")
    put("capacity.oracle_entries", oracle_entries, "count")
    put("capacity.l1c_calls", is_("capacity.l1c_norm").sum(), "count")
    put("capacity.l1c_s", busy("capacity.l1c_norm"), "s")
    put("capacity.caplorentz_s", busy("capacity.capacitary_lorentz_norm"), "s")

    put("measure.lorentz_calls", is_("measure.lorentz_norm").sum(), "count")
    put("measure.lorentz_s", busy("measure.lorentz_norm"), "s")
    put("measure.gamma_s", busy("measure.gamma_norm"), "s")
    put("measure.rearrangement_s", busy("measure.decreasing_rearrangement",
                                        "measure.distribution_function"), "s")

    sets = is_(SETS)
    put("multiplier.sets_calls", sets.sum(), "count")
    put("multiplier.sets_generated", aux[sets].sum(), "count")
    put("multiplier.sets_s", busy(SETS), "s")
    sup = is_(*SUP_FUNCTIONS)
    put("multiplier.sup_self_s", selft[sup].sum(), "s")

    put("weights.potential_weight_calls",
        is_("weights.potential_weight").sum(), "count")
    put("weights.potential_weight_s", busy("weights.potential_weight"), "s")
    put("weights.maximal_s", busy("weights.local_maximal"), "s")
    put("weights.n_norm_s", busy("weights.n_norm_upper"), "s")
    put("weights.level_sum_s", busy("weights.level_sum_check"), "s")

    put("blocks.trace_s", busy("blocks.trace_norm", "blocks.trace_norm_inf_form"), "s")
    put("blocks.decomp_s", busy("blocks.block_norm_upper_constructive",
                                "blocks.block_norm_upper_greedy",
                                "blocks.transport_decomposition"), "s")
    put("blocks.kothe_s", busy("blocks.kothe_dual_norm_bruteforce"), "s")
    put("blocks.pairing_s", busy("blocks.pairing_inequality_suite"), "s")

    # checks run one after another, so each real solve belongs to the
    # check span that encloses its start
    owner = enclosing(is_(*(CHECK_PREFIX + c for c in CHECK_IDS)), start, end,
                      start[real])
    for cid in CHECK_IDS:
        mine = is_(CHECK_PREFIX + cid)
        put(f"suites.{cid}.wall_s", dur[mine].sum(), "s")
        put(f"suites.{cid}.solves", np.isin(owner, np.flatnonzero(mine)).sum(), "count")

    span_layer = np.array([n.split(".", 1)[0] for n in names] or [""], dtype=object)[nid]
    for layer in LAYERS:
        put(f"{layer}.self_s", selft[span_layer == layer].sum(), "s")
    return out
