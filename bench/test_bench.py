"""Self-tests of the benchmark harness: `python3 -m pytest bench -q`."""
import importlib
import json
import re
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import tracer as tr  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9_.-]+")


def _capflow_bindings():
    """Every function object bound in a capflow module namespace, a class
    dict of a wrapped method, or the check registry."""
    import capflow.cli  # noqa: F401  (loads every module)
    out = {}
    for name, mod in sys.modules.items():
        if name == "capflow" or name.startswith("capflow."):
            for key, val in vars(mod).items():
                if callable(val):
                    out[(name, key)] = val
    for layer, cls, meth in tr.METHODS:
        mod = importlib.import_module(f"capflow.{layer}")
        out[(cls, meth)] = vars(getattr(mod, cls))[meth]
    suites = importlib.import_module("capflow.suites")
    out[("CHECKS",)] = [fn for _cid, _claims, fn in suites.CHECKS]
    return out


def test_install_wraps_by_name_imports_and_restore_undoes_everything():
    before = _capflow_bindings()
    # capflow/__init__ re-exports `capacity`, which shadows the submodule
    # attribute, so fetch modules from sys.modules
    cap, measure, suites, weights = (importlib.import_module(f"capflow.{m}") for m in
                                     ("capacity", "measure", "suites", "weights"))
    t = tr.Tracer().install()
    try:
        # defining module and every module that imported the name
        assert cap.capacity is not before[("capflow.capacity", "capacity")]
        assert suites.capacity is cap.capacity
        assert weights.l1c_norm is cap.l1c_norm
        assert suites.lorentz_norm is measure.lorentz_norm
        assert cap.CapacityOracle.result is not before[("CapacityOracle", "result")]
        assert all(fn is not orig for (_c, _l, fn), orig
                   in zip(suites.CHECKS, before[("CHECKS",)]))
        with pytest.raises(RuntimeError):
            t.install()
    finally:
        t.restore()
    after = _capflow_bindings()
    assert after.keys() == before.keys()
    changed = [k for k in before if after[k] is not before[k]
               and k != ("CHECKS",)]
    assert changed == []
    assert all(a is b for a, b in zip(after[("CHECKS",)], before[("CHECKS",)]))


def test_wrapped_solve_records_spans_and_same_result():
    from capflow.capacity import (CapacityOracle, CapacityParams, SetMask,
                                  grid_problem)
    from capflow.grid import make_grid
    grid = make_grid(1, 16.0, 256)
    params = CapacityParams(alpha=0.5, s=2.0)
    mask = SetMask(grid, np.abs(grid.axis_coords()) <= 1.0)
    plain = CapacityOracle(grid_problem(grid, params), params).result(mask)
    with tr.Tracer() as t:
        oracle = CapacityOracle(grid_problem(grid, params), params)
        traced = oracle.result(mask)
        oracle.result(mask)
    assert traced.value == plain.value and traced.iterations == plain.iterations
    m = tr.layer_metrics(t.arrays(), t.solves, sum(t.oracle_sizes.values()))
    assert m["capacity.solves"][0] == 1
    assert m["capacity.oracle_queries"][0] == 2
    assert m["capacity.oracle_hits"][0] == 1
    assert m["capacity.oracle_entries"][0] == 1
    assert m["capacity.iterations"][0] == plain.iterations
    assert m["grid.apply_calls"][0] > plain.iterations
    assert 0.0 < m["capacity.solve_self_s"][0] < m["capacity.solve_s"][0]


def test_self_time_on_synthetic_nested_tree():
    # 0 [0,10] -> 1 [1,4] -> 2 [2,3];  0 -> 3 [5,9];  4 [11,12] is a root
    parent = np.array([-1, 0, 1, 0, -1])
    start = np.array([0.0, 1.0, 2.0, 5.0, 11.0])
    end = np.array([10.0, 4.0, 3.0, 9.0, 12.0])
    np.testing.assert_allclose(tr.self_times(parent, start, end),
                               [3.0, 2.0, 1.0, 4.0, 1.0])
    # nested members are counted once
    assert tr.busy_time(start[[0, 1, 2]], end[[0, 1, 2]]) == 10.0
    assert tr.busy_time(start[[1, 3, 4]], end[[1, 3, 4]]) == 8.0
    member = np.array([False, True, False, True, False])
    np.testing.assert_array_equal(
        tr.enclosing(member, start, end, np.array([0.5, 2.0, 6.0, 9.5])),
        [-1, 1, 3, -1])


def test_layer_metrics_on_synthetic_spans():
    names = [tr.CHECK_PREFIX + "C12-trace-formula", tr.ORACLE, tr.SOLVE,
             tr.FINITE_APPLY, "measure.lorentz_norm"]
    # check [0,10] > oracle [1,5] > solve [1.5,4.5] > apply [2,3]; lorentz [6,7]
    spans = {"names": names,
             "name_id": np.array([0, 1, 2, 3, 1, 4], dtype=np.int32),
             "parent": np.array([-1, 0, 1, 2, 0, 0], dtype=np.int32),
             "start": np.array([0.0, 1.0, 1.5, 2.0, 5.5, 6.0]),
             "end": np.array([10.0, 5.0, 4.5, 3.0, 5.6, 7.0]),
             "aux": np.zeros(6)}
    m = tr.layer_metrics(spans, {2: (False, 4, True, 1e-7, 1e-6)}, 1)
    assert m["capacity.solve_s"][0] == 3.0
    assert m["capacity.solve_self_s"][0] == 2.0
    assert m["capacity.applies_per_iter"][0] == 0.25
    assert m["capacity.oracle_hits"][0] == 1
    assert m["suites.C12-trace-formula.wall_s"][0] == 10.0
    assert m["suites.C12-trace-formula.solves"][0] == 1
    assert m["suites.C09-pairing-inequalities.solves"][0] == 0
    assert m["measure.lorentz_s"][0] == 1.0
    assert m["capacity.self_s"][0] == pytest.approx(4.0 + 0.1 - 3.0 + 2.0 + 1.0)


def test_metric_names_match_benchmark_json():
    bench = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    declared = [m["name"] for m in bench["end_to_end"] + bench["per_layer"]]
    assert len(declared) == len(set(declared))
    assert all(NAME.fullmatch(n) and len(n) <= 64 for n in declared)
    empty = {k: np.zeros(0, dtype=np.int32 if k in ("name_id", "parent") else float)
             for k in ("name_id", "parent", "start", "end", "aux")}
    produced = tr.layer_metrics(dict(empty, names=[]), {}, 0)
    produced.update({"trace.overhead_s": (0.0, "s"), "campaign.wall_raw_s": (0.0, "s"),
                     "campaign.ref_ms": (0.0, "ms")})
    units = {m["name"]: m["unit"] for m in bench["per_layer"]}
    assert {k: u for k, (_v, u) in produced.items()} == units
    e2e = {m["name"] for m in bench["end_to_end"]}
    assert e2e == {"wall_s", "setup_s", "peak_rss_mib"}
