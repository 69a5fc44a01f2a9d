"""Verification-suite plumbing and the command-line interface."""
import collections
import dataclasses
import inspect
import json
import math
import subprocess
import sys

import numpy as np
import pytest

from capflow import blocks as bl
from capflow import grid as grid_module
from capflow import modelio
from capflow import multiplier as mn
from capflow import suites
from capflow import weights as wt
from capflow.capacity import (CapacityOracle, CapacityParams, grid_problem,
                              identity_problem)
from capflow.grid import make_grid
from capflow.measure import DiscreteMeasureSpace, Field, LorentzExponents
from capflow.suites import (CHECKS, REQUIRED_CLAIMS, SUITES, CapflowConfig,
                            ConfigError, Verdict, any_failures, run_suite,
                            write_verdicts)
from capflow.weights import WeightConfig
from capflow.cli import main as cli_main


def test_config_file_roundtrip(tmp_path):
    cfg_path = tmp_path / "capflow.cfg"
    cfg_path.write_text(
        "[grid]\nN = 128\nL = 12.0\n"
        "[cap]\nalpha = 0.5\ns = 2.0\ntol = 1e-6\n"
        "[weights]\ndelta = 0.5\nslack = 1.25\n"
        "[seeds]\nmaster = 42\n"
        "[scale]\nmodels = 5\n")
    cfg = CapflowConfig.from_file(cfg_path)
    assert cfg.grid_N == 128 and cfg.grid_L == 12.0
    assert cfg.master_seed == 42 and cfg.scale_models == 5
    assert cfg.tol == 1e-6

    bad = tmp_path / "bad.cfg"
    bad.write_text("[grid]\nM = 3\n")
    with pytest.raises(ValueError, match="unknown config key"):
        CapflowConfig.from_file(bad)


def test_config_rejects_level_cap_below_one(tmp_path):
    # a zero level cap would certify l1c bounds of 0
    bad = tmp_path / "bad.cfg"
    bad.write_text("[scale]\nl1c_levels = 0\n")
    with pytest.raises(ValueError, match="l1c_levels"):
        CapflowConfig.from_file(bad)


SCALE = {name: key for (section, key), (name, _conv)
         in CapflowConfig._FILE_KEYS.items() if section == "scale"}


def test_every_scale_field_is_a_scale_key():
    names = {f.name for f in dataclasses.fields(CapflowConfig)}
    assert set(SCALE) == {n for n in names if n.startswith("scale_")} | {"l1c_levels"}


@pytest.mark.parametrize("name", sorted(SCALE))
def test_config_rejects_scale_below_one(name):
    # fields = 0 divided by zero in C16; trace = 0 passed C12 on no measures
    for bad in (0, -3):
        with pytest.raises(ValueError,
                           match=rf"\[scale\] {SCALE[name]} must be at least 1"):
            CapflowConfig(**{name: bad})
    assert getattr(CapflowConfig(**{name: 1}), name) == 1


def test_config_file_rejects_zero_scale(tmp_path):
    for key in ("fields", "trace"):
        bad = tmp_path / f"{key}.cfg"
        bad.write_text(f"[seeds]\nmaster = 7\n[scale]\n{key} = 0\n")
        with pytest.raises(ValueError, match=f"{key} must be at least 1"):
            CapflowConfig.from_file(bad)


@pytest.mark.parametrize("kwargs, match", [
    (dict(delta=2.0), r"delta must lie in \(0, 1\]"),
    (dict(slack=0.5), r"slack multiplier must be >= 1"),
    (dict(s=1.0), r"s must lie in \(1, inf\)"),
    (dict(alpha=0.0), r"alpha must be positive"),
    (dict(tol=2.0), r"tolerance must lie in \(0, 1\)"),
], ids=["delta", "slack", "s", "alpha", "tol"])
def test_config_rejects_bad_solver_and_weight_knobs(kwargs, match):
    # caught when the config is built, by the validators a check would
    # otherwise meet mid-campaign (delta = 2 raised in C09, after C01-C08)
    with pytest.raises(ValueError, match=match):
        CapflowConfig(**kwargs)


@pytest.fixture()
def stub_checks(monkeypatch):
    """Every check replaced by a stub that records its id, so `run_suite`
    builds the declared problems and nothing else; returns the record."""
    ran = []
    monkeypatch.setattr(suites, "CHECKS", [
        (cid, claims, lambda ctx, cid=cid: ran.append(cid) or [])
        for cid, claims, _fn in suites.CHECKS])
    return ran


def _first_on_the_line(suite):
    """The first check of `suite` that declares a line grid, or None."""
    return next((cid for cid in SUITES[suite]
                 if any(entry[0] == 1 for entry in suites._SOLVES[cid])), None)


def test_line_window_builds_the_line_kernel_on_each_line_grid(stub_checks):
    # alpha = 0.3 clips kernel mass on the 256-cell line: every campaign
    # with a check declared on the line at [cap] alpha raises before its
    # first check, naming the suite, that check, the grid and the key
    cfg = CapflowConfig(alpha=0.3)
    for suite in SUITES:
        cid = _first_on_the_line(suite)
        if cid is None:
            run_suite(suite, cfg)
            assert stub_checks == SUITES[suite]
            stub_checks.clear()
            continue
        with pytest.raises(ConfigError, match=rf"^suite '{suite}', check "
                           rf"{cid}: line grid \[grid\] N = 256, \[grid\] L "
                           r"= 16 at \[cap\] alpha = 0.3, .*too coarse"):
            run_suite(suite, cfg)
        assert not stub_checks
    # C07 and C08 also declare the line of twice the cells, so their
    # campaign builds that kernel too; the one of blocks-duality does not
    for suite, alpha, sizes in (("localization", 0.45, {256, 512}),
                                ("blocks-duality", 0.44, {256})):
        run_suite(suite, CapflowConfig(alpha=alpha))
        assert {key[2] for key in grid_module._kernel_cache
                if key[0] == 1 and key[3] == alpha} == sizes


def test_c08_epsilons_are_raised_to_the_window_floor(monkeypatch):
    # C08 lists its epsilons for alpha = 1/2 and raises each to the floor
    # (n - alpha*s)/n of cfg.alpha: at 1/2 the lists stay as written, and
    # at 0.4, inside every line window, s = 1.5 starts at 0.4 and passes
    seen = collections.defaultdict(set)
    real = suites.lebesgue_lower_bound_check

    def record(oracle, mask, eps):
        rep = real(oracle, mask, eps)
        seen[oracle.space.n, oracle.space.N, oracle.params.s].add(eps)
        return rep

    monkeypatch.setattr(suites, "lebesgue_lower_bound_check", record)
    for alpha, low in ((0.5, 0.25), (0.4, 1.0 - 0.4 * 1.5)):
        seen.clear()
        cfg = CapflowConfig(alpha=alpha).quick()
        verdicts = suites.check_sobolev_bounds(suites.RunContext(cfg))
        assert [v.status for v in verdicts] == ["pass", "pass"]
        for N in (cfg.grid_N, 2 * cfg.grid_N):
            assert sorted(seen[1, N, 2.0]) == [0.5, 1.0]
            assert sorted(seen[1, N, 1.5]) == [low, 0.5, 1.0]


def test_config_leaves_the_exponent_window_to_grids():
    # s <= n/alpha needs a dimension: a config without a grid may hold
    # s = 3 at alpha = 1, and the line problem rejects it
    cfg = CapflowConfig(alpha=1.0, s=3.0)
    params = CapacityParams(cfg.alpha, cfg.s, cfg.tol)
    with pytest.raises(ValueError, match="exponent window"):
        grid_problem(make_grid(1, cfg.grid_L, cfg.grid_N), params)


def test_suites_on_the_line_check_the_window_before_any_check(stub_checks):
    # s = 3 at alpha = 0.5 lies outside the line's window s <= 1/alpha:
    # every campaign with a check declared on the line at [cap] s raises
    # before its first check; the others have none and run
    cfg = CapflowConfig(s=3.0)
    on_line = {"all", "capacity", "localization", "blocks-duality", "weights"}
    assert set(SUITES) == on_line | {"lorentz-core", "determinism-core",
                                     "determinism"}
    assert {s for s in SUITES if _first_on_the_line(s)} == on_line
    for suite in SUITES:
        if suite in on_line:
            with pytest.raises(ConfigError, match=(
                    rf"^suite '{suite}', check {_first_on_the_line(suite)}: "
                    r"line grid .* at \[cap\] alpha = 0.5, \[cap\] s = 3 and "
                    r"\[cap\] tol = 1e-06: .*s=3.0 > n/alpha=2")):
                run_suite(suite, cfg)
            assert not stub_checks
        else:
            run_suite(suite, cfg)
            assert stub_checks == SUITES[suite]
            stub_checks.clear()
    run_suite("weights", CapflowConfig(s=2.0))
    assert stub_checks == SUITES["weights"]
    stub_checks.clear()
    # C08 also declares the line at s = 2 and 1.5 with [cap] alpha: at
    # alpha = 0.6 its s = 2 is outside the window though cfg.s = 1.5 is in
    cfg = CapflowConfig(alpha=0.6, s=1.5)
    for suite in on_line:
        if "C08-sobolev-lower-bounds" in SUITES[suite]:
            with pytest.raises(ConfigError, match=(
                    rf"^suite '{suite}', check C08-sobolev-lower-bounds: line "
                    r"grid \[grid\] N = 256, \[grid\] L = 16 at \[cap\] alpha "
                    r"= 0.6, s = 2 and \[cap\] tol = 1e-06: exponent window "
                    r"violated: s=2.0 > n/alpha=1.66667$")):
                run_suite(suite, cfg)
            assert not stub_checks
        else:
            run_suite(suite, cfg)
            assert stub_checks == SUITES[suite]
            stub_checks.clear()
    assert {s for s in on_line if "C08-sobolev-lower-bounds" in SUITES[s]} \
        == {"all", "localization"}


@pytest.mark.parametrize("config, suite, cid, names", [
    (dict(grid2_N=64), "localization", "C08-sobolev-lower-bounds",
     "plane grid [grid2] N = 64, [grid2] L = 12 at alpha = 1, s = 2"),
    (dict(grid2_N=64), "capacity", "C18-kernel-diagnostics",
     "plane grid [grid2] N = 64"),
    (dict(tol=2.5e-9), "determinism", "C15-determinism",
     "finite models at alpha = 1, s = 3 and [cap] tol = 2.5e-09"),
    (dict(s=1.5, tol=1.6e-9), "lorentz-core", "C16-multiplier-invariants",
     "finite models at alpha = 1, s = 2 and [cap] tol = 1.6e-09"),
], ids=["plane-C08", "plane-C18", "finite-s3", "finite-s2"])
def test_plane_and_finite_declarations_are_checked_before_any_check(
        stub_checks, config, suite, cid, names):
    # the plane grids of C08 and C18 and the finite params of every check
    # are built or checked with the line's, before the first check
    with pytest.raises(ConfigError) as err:
        run_suite(suite, CapflowConfig(**config))
    assert str(err.value).startswith(f"suite {suite!r}, check {cid}: {names}")
    assert not stub_checks


def test_checks_solve_exactly_the_problems_they_declare(monkeypatch):
    # at quick scale each check asks `grid_oracle` for every grid it
    # declares and no other, and builds finite-model params at exactly
    # the (alpha, s) it declares; its declared grids are built first, as
    # `run_suite` builds them, so the body makes no grid params of its own
    real = suites.RunContext.grid_oracle
    signature = inspect.signature(real)
    asked, made = set(), set()

    def recording_oracle(self, *args, **kwargs):
        bound = signature.bind(self, *args, **kwargs)
        bound.apply_defaults()
        asked.add(tuple(bound.arguments.values())[1:])
        return real(self, *args, **kwargs)

    class RecordedParams(CapacityParams):
        def __post_init__(self):
            super().__post_init__()
            made.add((self.alpha, self.s))

    cfg = CapflowConfig().quick()
    for cid, _claims, fn in CHECKS:
        declared = suites._SOLVES[cid]
        ctx = suites.RunContext(cfg)
        grids = {entry for entry in declared if entry[0]}
        for entry in grids:
            ctx.grid_oracle(*entry)
        asked.clear()
        made.clear()
        with monkeypatch.context() as patch:
            patch.setattr(suites.RunContext, "grid_oracle", recording_oracle)
            patch.setattr(suites, "CapacityParams", RecordedParams)
            # C15's quick config is this one, validated before the record
            patch.setattr(CapflowConfig, "quick", lambda self: cfg)
            fn(ctx)
        assert asked == grids, cid
        assert made == {entry[1:3] for entry in declared if not entry[0]}, cid


def test_weight_settings_reach_every_weight_of_a_campaign(monkeypatch):
    # [weights] slack and [scale] l1c_levels reach the weights of C09, C10,
    # C11 and C14, and every n_norm_upper screening of them
    want = WeightConfig(0.5, 1.5, 7)
    seen = collections.defaultdict(set)
    real_weight, real_norm = wt.potential_weight, wt.n_norm_upper

    def weight(oracle, mask, cfg=WeightConfig()):
        seen["potential_weight"].add(cfg)
        return real_weight(oracle, mask, cfg)

    def norm(f, e, candidates, cfg=WeightConfig(), oracle=None):
        seen["n_norm_upper"].add(cfg)
        return real_norm(f, e, candidates, cfg, oracle)

    monkeypatch.setattr(wt, "potential_weight", weight)
    monkeypatch.setattr(wt, "n_norm_upper", norm)
    monkeypatch.setattr(suites.mn, "n_norm_upper", norm)   # C14's probe
    cfg = CapflowConfig(slack=1.5, l1c_levels=7).quick()
    for check, screened in ((suites.check_pairing, True),
                            (suites.check_block_decomposition, True),
                            (suites.check_weight_characterization, False),
                            (suites.check_maximal, True)):
        seen.clear()
        check(suites.RunContext(cfg))
        assert seen["potential_weight"] == {want}, check.__name__
        assert seen["n_norm_upper"] == ({want} if screened else set())


def test_c11_builds_no_certificate_and_eager_ones_move_no_row(monkeypatch):
    # C11 never reads a weight's L1-capacity certificate, so it builds none;
    # building every weight's certificate as the weight is made leaves every
    # row of the campaign as it is
    in_c11, calls = [False], []
    real_l1c, real_init = wt.l1c_norm, wt.Weight.__init__

    def l1c(*args, **kwargs):
        calls.append(in_c11[0])
        return real_l1c(*args, **kwargs)

    def tagged(cid, fn):
        def run(ctx):
            in_c11[0] = cid.startswith("C11-")
            try:
                return fn(ctx)
            finally:
                in_c11[0] = False
        return run

    def eager(self, *args):
        real_init(self, *args)
        self.l1c_estimate

    monkeypatch.setattr(suites, "CHECKS", [(cid, claims, tagged(cid, fn))
                                           for cid, claims, fn in CHECKS])
    monkeypatch.setattr(wt, "l1c_norm", l1c)
    lazy = list(map(repr, run_suite("weights", CapflowConfig())))
    assert calls and not any(calls)   # only C14's candidates are read
    calls.clear()
    monkeypatch.setattr(wt.Weight, "__init__", eager)
    assert list(map(repr, run_suite("weights", CapflowConfig()))) == lazy
    assert any(calls)


@pytest.mark.parametrize("check, seed", [
    ("C06", 8), ("C06", 13), ("C06", 34),
    ("C11", 11), ("C11", 43), ("C11", 4280214213),
    ("C09", 3611029060)])
def test_checks_pass_at_the_master_seeds_they_used_to_fail(check, seed):
    # C06 at ties within roundoff, C11's corpora missing the bump field and
    # C09's independent f and g each once failed at these seeds
    fn = next(fn for cid, _claims, fn in CHECKS if cid.startswith(check + "-"))
    verdicts = fn(suites.RunContext(CapflowConfig(master_seed=seed)))
    assert [v.check_id for v in verdicts if v.status == "fail"] == []


def test_c06_roundoff_term_still_sees_a_strong_norm_too_small(monkeypatch):
    # C06's worst ratio is 1.0 at the default seed, a tie; strong norms
    # 1e-12 too small must still break it, far above the roundoff term
    real = suites.capacitary_lorentz_norm

    def shrunk(f, e, oracle):
        est = real(f, e, oracle)
        if e.q == math.inf:
            return est
        return dataclasses.replace(est, value=est.value * (1.0 - 1e-12))

    fn = next(fn for cid, _claims, fn in CHECKS if cid.startswith("C06-"))
    assert all(v.status == "pass" for v in fn(suites.RunContext(CapflowConfig())))
    monkeypatch.setattr(suites, "capacitary_lorentz_norm", shrunk)
    verdicts = fn(suites.RunContext(CapflowConfig()))
    assert verdicts and all(v.status == "fail" for v in verdicts)


CAMPAIGN_MODULES = """
import sys
from capflow.cli import main
for suite in ("localization", "blocks-duality"):
    try:
        main(["verify", "--suite", suite, "--quick", "--out", sys.argv[1]])
    except SystemExit as stop:
        assert not stop.code, stop.code
print(sorted(m for m in sys.modules if m.split(".")[:2] == ["numpy", "ma"]))
"""


def test_campaigns_load_no_numpy_ma(tmp_path):
    # a fresh interpreter: a localization and a blocks-duality campaign
    # leave numpy.ma unloaded (plain np.unique imports it on numpy >= 2.3)
    out = subprocess.run([sys.executable, "-c", CAMPAIGN_MODULES,
                          str(tmp_path / "v.json")],
                         capture_output=True, text=True, check=True)
    assert out.stdout.splitlines()[-1] == "[]"
    assert (tmp_path / "v.csv").exists()


def test_unknown_and_empty_suite():
    with pytest.raises(ValueError, match="unknown suite"):
        run_suite("no-such-suite", CapflowConfig())


# the hand-kept campaign table that the suites= declarations replaced
_OLD_SUITES = {
    "lorentz-core": ["C04-lorentz-engine", "C05-gamma-sandwich",
                     "C16-multiplier-invariants"],
    "capacity": ["C01-capacity-certificates", "C02-equilibrium-identities",
                 "C03-monotone-subadditive", "C18-kernel-diagnostics"],
    "localization": ["C07-strichartz-localization", "C08-sobolev-lower-bounds",
                     "C17-diam1-localization"],
    "weights": ["C11-weight-characterization", "C14-maximal-probes"],
    "blocks-duality": ["C09-pairing-inequalities", "C10-block-decomposition",
                       "C12-trace-formula", "C13-kothe-oracle"],
    "determinism-core": ["C01-capacity-certificates", "C04-lorentz-engine",
                         "C05-gamma-sandwich", "C13-kothe-oracle"],
    "determinism": ["C15-determinism"],
}


def test_registry_covers_claims():
    covered = set()
    for _cid, claims, _fn in CHECKS:
        covered.update(claims)
    assert set(REQUIRED_CLAIMS) <= covered
    ids = [cid for cid, _claims, _fn in CHECKS]
    assert ids == sorted(ids) and len(ids) == 18
    # SUITES, derived from the suites= declarations, is the old table
    assert SUITES == {"all": ids, **_OLD_SUITES}


@pytest.fixture()
def scratch_registry(monkeypatch):
    """An empty CHECKS list, so test checks never reach the real registry."""
    monkeypatch.setattr(suites, "CHECKS", [])
    monkeypatch.setattr(suites, "SUITES", {})
    monkeypatch.setattr(suites, "_SOLVES", {})
    return suites.CHECKS


def test_check_registration_and_row_ids(scratch_registry):
    @suites._check("X01-demo", "claim-a", "claim-b")
    def demo(ctx, rows):
        rows.row("", 1.0, "claim-a", "main")
        rows.row("/side", 2.0, "claim-b", "side", "recorded")

    assert scratch_registry == [("X01-demo", ("claim-a", "claim-b"), demo)]
    assert suites.SUITES == {"all": ["X01-demo"]}

    @suites._check("X06-member", "claim-a", suites=("core", "extra"))
    def member(ctx, rows):
        rows.row("", 0.0, "claim-a", "")

    assert suites.SUITES == {"all": ["X01-demo", "X06-member"],
                             "core": ["X06-member"], "extra": ["X06-member"]}
    assert demo.__name__ == "demo"
    out = demo(None)
    assert [(v.check_id, v.status, v.claim) for v in out] == [
        ("X01-demo", "pass", "claim-a"), ("X01-demo/side", "recorded", "claim-b")]


def test_check_rejects_undeclared_claim(scratch_registry):
    @suites._check("X02-undeclared", "claim-a")
    def bad(ctx, rows):
        rows.row("", 0.0, "claim-a", "")
        rows.row("/extra", 0.0, "claim-z", "")

    with pytest.raises(ValueError, match="claim-z"):
        bad(None)


def test_check_rejects_declared_claim_without_row(scratch_registry):
    @suites._check("X03-missing", "claim-a", "claim-b")
    def bad(ctx, rows):
        rows.row("", 0.0, "claim-a", "")

    with pytest.raises(ValueError, match="claim-b"):
        bad(None)


def test_check_summary_and_status(scratch_registry):
    @suites._check("X04-tally", "claim-a")
    def tally(ctx, rows):
        rows.row("/before", 0.0, "claim-a", rows.summary("clean"))
        for what in ("e", "b", "e", "d", "a", "c", "b"):
            rows.fail(what)
        rows.row("", 0.0, "claim-a", rows.summary("clean"))
        rows.row("/recorded", 0.0, "claim-a", "", "recorded")
        rows.row("/forced", 0.0, "claim-a", "", "pass")

    out = {v.check_id: v for v in tally(None)}
    assert (out["X04-tally/before"].status, out["X04-tally/before"].details) \
        == ("pass", "clean")
    # sorted, de-duplicated, first four
    assert (out["X04-tally"].status, out["X04-tally"].details) \
        == ("fail", "a; b; c; d")
    assert out["X04-tally/recorded"].status == "recorded"
    assert out["X04-tally/forced"].status == "pass"

    # bound keeps the largest value from its start and fails above the limit
    rows = suites._Rows("X05-bounds", ("claim-a",))
    rows.bound("zero", -1.0)
    rows.bound("start", -1.0, start=-math.inf)
    rows.bound("edge", 2.0, 2.0, "edge")   # equal to the limit: no failure
    rows.bound("over", 2.5, 2.0, "over")
    rows.bound("nan", 1.0)
    rows.bound("nan", math.nan, 0.5, "nan")   # neither kept nor failed
    rows.bound("nan-first", math.nan)
    assert rows.worst == {"zero": 0.0, "start": -1.0, "edge": 2.0, "over": 2.5,
                          "nan": 1.0, "nan-first": 0.0}
    assert rows.worst["never bounded"] == 0.0
    assert rows.failures == ["over"]
    # band is inclusive at both ends, fails on nan, and fails once per call
    for r in (0.5, 1.0, 2.0):
        rows.band("inside", r)
    rows.band("low", math.nextafter(0.5, 0.0))
    rows.band("high", math.nextafter(2.0, 3.0))
    rows.band("nan", math.nan)
    rows.band("pair", 3.0, 0.1)
    assert rows.failures == ["over", "low", "high", "nan", "pair"]
    # raises fails only when the call returns; other errors propagate
    rows.raises(lambda: float("x"), "raised")
    rows.raises(lambda: None, "returned")
    assert rows.failures[-1] == "returned" and "raised" not in rows.failures
    with pytest.raises(ZeroDivisionError):
        rows.raises(lambda: 1 / 0, "divided")


def test_verdict_status_guard():
    with pytest.raises(ValueError):
        Verdict("X", "maybe", 0.0, "claim")


def test_verdict_files_print_nonfinite_and_rounded_measures(tmp_path):
    # twelve significant digits; nan and both infinities as the words
    values = [math.nan, math.inf, -math.inf, 0.1 + 0.2, 1e-300, 2.0]
    texts = ["nan", "inf", "-inf", "0.3", "1e-300", "2"]
    verdicts = [Verdict(f"X{i}", "recorded", x, "claim")
                for i, x in enumerate(values)]
    path = tmp_path / "v.json"
    write_verdicts(verdicts, path, "x", CapflowConfig())
    doc = json.loads(path.read_text())
    assert [v["measured"] for v in doc["verdicts"]] == texts
    rows = path.with_suffix(".csv").read_text().splitlines()[1:]
    assert [row.split(",")[2] for row in rows] == texts


def test_small_suite_runs_and_reports(tmp_path):
    cfg = CapflowConfig().quick()
    verdicts = run_suite("determinism-core", cfg)
    ids = [v.check_id for v in verdicts]
    assert ids == sorted(ids)
    assert ids[0] == "C00-coverage-audit"
    assert not any_failures(verdicts)

    json_path = tmp_path / "verdicts.json"
    csv_path = tmp_path / "verdicts.csv"
    write_verdicts(verdicts, json_path, "determinism-core", cfg)
    doc = json.loads(json_path.read_text())
    assert list(doc) == ["suite", "config", "verdicts"]
    assert doc["suite"] == "determinism-core"
    assert doc["config"]["master_seed"] == cfg.master_seed
    assert len(doc["verdicts"]) == len(verdicts)
    lines = csv_path.read_text().splitlines()
    assert lines[0] == "check_id,status,measured,claim,details"
    assert len(lines) == len(verdicts) + 1


def test_suite_rerun_is_byte_identical(tmp_path):
    cfg = CapflowConfig().quick()
    paths = [tmp_path / "a.json", tmp_path / "b.json"]
    for path in paths:
        write_verdicts(run_suite("determinism-core", cfg), path,
                       "determinism-core", cfg)
    for suffix in (".json", ".csv"):
        a, b = (p.with_suffix(suffix).read_bytes() for p in paths)
        assert a == b


def test_corrupted_tolerance_forces_failure(monkeypatch):
    # shrink the two-sided comparison constant to one: the upper leg must fail
    import capflow.suites as suites_mod
    monkeypatch.setattr(suites_mod, "gamma_sandwich_bound",
                        lambda e, r: 1.0)
    cfg = CapflowConfig().quick()
    from capflow.suites import RunContext, check_gamma_sandwich
    verdicts = check_gamma_sandwich(RunContext(cfg))
    assert any(v.status == "fail" for v in verdicts)
    assert all(v.measured > 0 for v in verdicts if v.status == "fail")


# ---------------------------------------------------------------------------
# CLI
# ---------------------------------------------------------------------------

def _write_model(tmp_path):
    sp = DiscreteMeasureSpace([1.0, 1.0, 1.0, 1.0])
    model = tmp_path / "model.txt"
    modelio.write_finite_model(model, sp, {"f": np.array([2.0, 1.0, 0.0, 0.5])})
    mask = tmp_path / "mask.txt"
    mask.write_text("1 1 0 0\n")
    return model, mask


def test_cli_capacity(tmp_path, capsys):
    model, mask = _write_model(tmp_path)
    out = tmp_path / "report.json"
    rc = cli_main(["capacity", "--model", str(model), "--set", str(mask),
                   "--alpha", "1.0", "--s", "2.0", "--tol", "1e-6",
                   "--out", str(out)])
    assert rc == 0
    doc = json.loads(out.read_text())
    assert doc["value"] == pytest.approx(2.0)  # counting capacity of two atoms
    assert doc["converged"] is True


def test_cli_capacity_with_kernel_file(tmp_path):
    model, mask = _write_model(tmp_path)
    kernel = tmp_path / "kernel.txt"
    kernel.write_text("1 0 0 0\n0 1 0 0\n0 0 1 0\n0 0 0 1\n")
    out = tmp_path / "report.json"
    rc = cli_main(["capacity", "--model", str(model), "--kernel", str(kernel),
                   "--set", str(mask), "--out", str(out)])
    assert rc == 0
    assert json.loads(out.read_text())["value"] == pytest.approx(2.0)


@pytest.mark.parametrize("text, got", [
    ("1 0 0 0\n0 1 0 0\n", 8),
    ("", 0),
    ("1 0 0 0 " * 4 + "\n1\n", 17),
], ids=["short", "empty", "long"])
def test_cli_kernel_file_with_wrong_entry_count(tmp_path, text, got):
    # the kernel file is read by modelio: a wrong entry count names the
    # file and both counts, where numpy's reshape named neither
    model, mask = _write_model(tmp_path)
    kernel = tmp_path / "kernel.txt"
    kernel.write_text(text)
    with pytest.raises(ValueError) as err:
        cli_main(["capacity", "--model", str(model), "--kernel", str(kernel),
                  "--set", str(mask)])
    assert str(kernel) in str(err.value)
    assert f"expected 16 entries, got {got}" in str(err.value)


def test_cli_mnorm(tmp_path, capsys):
    model, _ = _write_model(tmp_path)
    rc = cli_main(["mnorm", "--model", str(model), "--space", "M",
                   "--p", "2", "--q", "2", "--family", "all",
                   "--field", "f"])
    assert rc == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["mode"] == "exact" and doc["value"] > 0


def test_cli_maximal_roundtrip(tmp_path):
    g = make_grid(1, 4.0, 16)
    vals = np.zeros(g.size)
    vals[5] = 2.0
    src = tmp_path / "in.txt"
    dst = tmp_path / "out.txt"
    modelio.write_grid_field(src, g, vals)
    rc = cli_main(["maximal", "--in", str(src), "--out", str(dst)])
    assert rc == 0
    _, out = modelio.read_grid_field(dst)
    assert out[5] == pytest.approx(2.0 / 3.0)


def test_cli_block_greedy(tmp_path, capsys):
    model, _ = _write_model(tmp_path)
    out = tmp_path / "decomp.json"
    rc = cli_main(["block", "--model", str(model), "--field", "f",
                   "--mode", "greedy", "--family", "all",
                   "--p", "2", "--q", "2", "--out", str(out)])
    assert rc == 0
    entries = json.loads(out.read_text())
    assert entries and all("lambda" in t and "block_file" in t for t in entries)
    # every emitted block file parses back and respects its support
    for t in entries:
        _, fields = modelio.read_finite_model(out.with_name(t["block_file"]))
        vals = fields["block"]
        off = np.setdiff1d(np.arange(4), t["support_cells"])
        assert np.all(vals[off] == 0.0)


def test_cli_block_greedy_with_a_weight_takes_the_smaller_route(tmp_path, capsys):
    # on this model the constructive route's coefficient sum, 3.5, is below
    # the greedy one's, so --weight makes greedy mode write the former
    sp = DiscreteMeasureSpace([1.0, 1.0, 1.0, 1.0])
    f, weight = np.array([2.0, 1.0, 0.0, 0.5]), np.array([4.0, 2.0, 1.0, 0.5])
    model = tmp_path / "model.txt"
    modelio.write_finite_model(model, sp, {"f": f, "weight": weight})
    oracle = CapacityOracle(identity_problem(sp), CapacityParams(0.5, 2.0, 1e-6))
    e = LorentzExponents(2.0, 2.0)
    constructive = bl.block_norm_upper_constructive(
        Field(sp, f), e, wt.Weight(oracle, weight, WeightConfig()), oracle)
    greedy = bl.block_norm_upper_greedy(Field(sp, f), e,
                                        mn.TestSetFamily.all_subsets(), oracle)
    assert constructive.sum_lambda < greedy.sum_lambda
    out = tmp_path / "decomp.json"
    assert cli_main(["block", "--model", str(model), "--field", "f", "--mode",
                     "greedy", "--family", "all", "--weight", str(model),
                     "--out", str(out)]) == 0
    assert capsys.readouterr().out == (
        f"terms={len(constructive.lambdas)} sum_lambda={constructive.sum_lambda!r} "
        f"residual={constructive.residual!r}\n")
    entries = json.loads(out.read_text())
    assert [t["lambda"] for t in entries] == constructive.lambdas.tolist()


def test_cli_nnorm(tmp_path, capsys):
    model, mask = _write_model(tmp_path)
    rc = cli_main(["nnorm", "--model", str(model), "--field", "f",
                   "--p", "2", "--q", "2",
                   "--candidates", f"potentials:{mask}"])
    assert rc == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["upper_bound"] > 0 and doc["candidates"] == 1


def test_cli_verify_quick(tmp_path, capsys):
    out = tmp_path / "verdicts.json"
    rc = cli_main(["verify", "--suite", "determinism-core", "--quick",
                   "--out", str(out)])
    assert rc == 0
    assert out.exists() and out.with_suffix(".csv").exists()
    text = capsys.readouterr().out
    assert "C00-coverage-audit: pass" in text


def test_cli_entrypoint_subprocess():
    proc = subprocess.run([sys.executable, "-m", "capflow.cli", "verify",
                           "--suite", "no-such"], capture_output=True, text=True)
    assert proc.returncode != 0


def test_cli_capacity_on_grid(tmp_path):
    g = make_grid(1, 16.0, 256)
    x = g.axis_coords()
    mask = tmp_path / "gmask.txt"
    modelio.write_grid_field(mask, g, (np.abs(x) <= 1.0).astype(float))
    out = tmp_path / "report.json"
    rc = cli_main(["capacity", "--grid", "256", "--L", "16.0",
                   "--alpha", "0.5", "--s", "2.0", "--set", str(mask),
                   "--out", str(out)])
    assert rc == 0
    doc = json.loads(out.read_text())
    assert doc["converged"] and doc["relative_gap"] <= 1e-6
    assert doc["set_measure"] == pytest.approx(2.0, abs=2 * g.h)


def test_cli_mnorm_on_grid(tmp_path, capsys):
    g = make_grid(1, 16.0, 256)
    x = g.axis_coords()
    field_file = tmp_path / "f.txt"
    modelio.write_grid_field(field_file, g, np.exp(-x ** 2))
    rc = cli_main(["mnorm", "--grid", "256", "--L", "16.0", "--alpha", "0.5",
                   "--s", "2.0", "--space", "M", "--p", "2", "--q", "2",
                   "--family", "dyadic:3", "--field-file", str(field_file)])
    assert rc == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["mode"] == "lower-bound" and doc["value"] > 0


def test_determinism_across_processes(tmp_path):
    import os
    env = dict(os.environ)
    outs = []
    for tag, seed in (("a", "0"), ("b", "1")):
        env["PYTHONHASHSEED"] = seed  # RNG streams must not depend on hash()
        out = tmp_path / f"{tag}.json"
        proc = subprocess.run(
            [sys.executable, "-m", "capflow.cli", "verify",
             "--suite", "determinism-core", "--quick", "--out", str(out)],
            capture_output=True, text=True, env=env)
        assert proc.returncode == 0, proc.stdout + proc.stderr
        outs.append(out.with_suffix(".csv").read_bytes())
    assert outs[0] == outs[1]


def test_cli_nnorm_file_candidates(tmp_path, capsys):
    model, _ = _write_model(tmp_path)
    g_free = tmp_path / "w.txt"
    # bare weight field on the finite model is not supported; use grid route
    from capflow.grid import make_grid
    g = make_grid(1, 16.0, 256)
    x = g.axis_coords()
    modelio.write_grid_field(g_free, g, np.exp(-np.abs(x)) + 1e-6)
    f_file = tmp_path / "f.txt"
    modelio.write_grid_field(f_file, g, np.exp(-x ** 2))
    rc = cli_main(["nnorm", "--grid", "256", "--L", "16.0", "--alpha", "0.5",
                   "--s", "2.0", "--p", "2", "--q", "2",
                   "--field-file", str(f_file),
                   "--candidates", f"file:{g_free}"])
    assert rc == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["upper_bound"] > 0 and doc["candidates"] == 1


def test_cli_mnorm_weak_space(tmp_path, capsys):
    model, _ = _write_model(tmp_path)
    rc = cli_main(["mnorm", "--model", str(model), "--space", "weakM",
                   "--p", "2", "--family", "all", "--field", "f"])
    assert rc == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["space"] == "weakM" and doc["value"] > 0


def test_cli_mnorm_weak_space_levels_on_grid(tmp_path, capsys):
    # superlevel sets of f in the family: both weak-norm forms use them
    g = make_grid(1, 16.0, 256)
    x = g.axis_coords()
    field_file = tmp_path / "f.txt"
    modelio.write_grid_field(
        field_file, g, np.exp(-x ** 2) - 0.5 * np.exp(-(x - 2.0) ** 2 / 0.3))
    rc = cli_main(["mnorm", "--grid", "256", "--L", "16", "--space", "weakM",
                   "--p", "2", "--family", "dyadic:4", "--family", "levels",
                   "--field-file", str(field_file)])
    assert rc == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["space"] == "weakM" and doc["value"] > 0
    assert doc["bracket"][0] <= doc["value"] <= doc["bracket"][1]


def _three_atom_model(tmp_path):
    model = tmp_path / "m.txt"
    modelio.write_finite_model(model, DiscreteMeasureSpace([1.0, 2.0, 1.0]),
                               {"f": np.array([1.0, 0.5, 2.0])})
    mask = tmp_path / "s.txt"
    mask.write_text("1 1 0\n")
    return str(model), str(mask)


_NNORM = ["nnorm", "--model", "{model}", "--field", "f", "--p", "2",
          "--q", "2", "--candidates"]


@pytest.mark.parametrize("argv, names", [
    (["capacity", "--grid", "abc", "--set", "{mask}"], ["--grid", "'abc'"]),
    (["capacity", "--grid", "4x4x4", "--set", "{mask}"], ["--grid", "4x4x4"]),
    (["capacity", "--model", "{model}", "--grid", "256", "--set", "{mask}"],
     ["--grid", "--model"]),
    (["block", "--model", "{model}", "--grid", "256", "--field", "f",
      "--family", "all", "--out", "{tmp}/b.json"], ["--grid", "--model"]),
    (["mnorm", "--model", "{model}", "--field", "nope", "--space", "M",
      "--p", "2", "--family", "all"], ["--field", "{model}", "'nope'"]),
    (["block", "--model", "{model}", "--field", "f", "--weight", "{model}",
      "--mode", "constructive", "--out", "{tmp}/b.json"],
     ["--weight-field", "{model}", "'weight'"]),
    (["mnorm", "--model", "{model}", "--field", "f", "--space", "M",
      "--p", "2", "--family", "random:x"], ["--family", "'random:x'"]),
    (["mnorm", "--model", "{model}", "--field", "f", "--space", "M",
      "--p", "2", "--family", "levels:3"], ["--family", "'levels:3'"]),
    (["mnorm", "--model", "{model}", "--field", "f", "--space", "M",
      "--p", "2", "--family", "random:0"], ["--family", "'random:0'", "N >= 1"]),
    (["mnorm", "--model", "{model}", "--field", "f", "--space", "M",
      "--p", "2", "--family", "random:-2"], ["--family", "'random:-2'"]),
    (["mnorm", "--model", "{model}", "--field", "f", "--space", "M",
      "--p", "2", "--family", "dyadic:-1"], ["--family", "'dyadic:-1'", "G >= 0"]),
    (["mnorm", "--model", "{model}", "--field", "f", "--space", "M",
      "--p", "2", "--family", "dyadic:0"], ["--family", "need a grid model"]),
    (["block", "--model", "{model}", "--field", "f", "--family", "dyadic:1",
      "--out", "{tmp}/b.json"], ["--family", "need a grid model"]),
    (["mnorm", "--grid", "256", "--field-file", "{tmp}/g.txt", "--space", "M",
      "--p", "2", "--family", "all"], ["--family", "space has 256"]),
    (["capacity", "--grid", "256", "--kernel", "{model}", "--set", "{mask}"],
     ["--kernel", "--grid"]),
    (["verify", "--suite", "determinism", "--out", "{tmp}/v.csv"],
     ["--out", "v.csv"]),
    (["verify", "--suite", "blocks-duality", "--out", "{tmp}/nodir/v.json"],
     ["--out", "nodir", "does not exist"]),
    (["mnorm", "--model", "{model}", "--field", "f", "--space", "M",
      "--p", "2", "--family", "all", "--out", "{tmp}/nodir/r.json"],
     ["--out", "nodir", "does not exist"]),
    (_NNORM + ["potentials:"], ["--candidates", "'potentials:'"]),
    (_NNORM + ["file:"], ["--candidates", "'file:'"]),
    (_NNORM + ["potentials:{mask},,{mask}"], ["--candidates", ",,"]),
    (["capacity", "--model", "{model}", "--set", "{mask}", "--s", "0.5"],
     ["capflow: s must lie in (1, inf), got 0.5"]),
    (["capacity", "--model", "{model}", "--set", "{mask}", "--tol", "2"],
     ["capflow: tolerance must lie in (0, 1), got 2.0"]),
    (["capacity", "--model", "{model}", "--set", "{mask}", "--alpha", "0"],
     ["capflow: alpha must be positive, got 0.0"]),
    (["capacity", "--grid", "256", "--set", "{mask}", "--alpha", "1",
      "--s", "3"], ["capflow: exponent window violated: s=3.0 > n/alpha=1"]),
], ids=["grid-not-a-number", "grid-three-axes", "model-and-grid",
        "block-model-and-grid", "missing-field", "missing-weight-field",
        "family-count", "family-extra-part", "family-no-sets",
        "family-negative-count", "family-negative-generation",
        "mnorm-dyadic-on-atoms", "block-dyadic-on-atoms", "all-on-a-grid",
        "kernel-on-grid", "csv-out",
        "verify-out-dir-missing", "report-out-dir-missing",
        "no-candidates", "no-candidate-files", "empty-candidate",
        "s-below-one", "tol-above-one", "alpha-zero", "s-above-n-over-alpha"])
def test_cli_bad_inputs_exit_with_one_named_line(tmp_path, argv, names):
    # a bad flag value or file ends the run with one line that names the
    # flag or file and the bad token, or states the violated parameter
    # condition; no traceback
    model, mask = _three_atom_model(tmp_path)
    grid = make_grid(1, 16.0, 256)
    modelio.write_grid_field(tmp_path / "g.txt", grid, np.ones(grid.size))
    fill = dict(model=model, mask=mask, tmp=tmp_path)
    argv = [a.format(**fill) for a in argv]
    proc = subprocess.run([sys.executable, "-m", "capflow.cli"] + argv,
                          capture_output=True, text=True)
    assert proc.returncode != 0 and proc.stdout == ""
    assert "Traceback" not in proc.stderr
    last = proc.stderr.strip().splitlines()[-1]
    assert all(n.format(**fill) in last for n in names), proc.stderr
    assert not list(tmp_path.glob("b*")) and not list(tmp_path.glob("v*"))


@pytest.mark.parametrize("config, argv, names", [
    (None, ["--suite", "no-such-suite"], ["--suite", "'no-such-suite'"]),
    (None, ["--suite", "all", "--config", "{tmp}/missing.ini"],
     ["--config", "missing.ini", "No such file"]),
    ("[grid]\nM = 3\n", ["--suite", "all", "--config", "{tmp}/c.ini"],
     ["--config", "[grid] M"]),
    ("[cap]\ntol = abc\n", ["--suite", "all", "--config", "{tmp}/c.ini"],
     ["--config", "[cap] tol", "'abc'"]),
    ("[scale]\nmodels = 2.5\n", ["--suite", "all", "--config", "{tmp}/c.ini"],
     ["--config", "[scale] models", "'2.5'"]),
    ("[weights]\ndelta = 2\n", ["--suite", "all", "--quick", "--config",
                                 "{tmp}/c.ini"], ["--config", "delta", "2.0"]),
    ("nothing\n", ["--suite", "all", "--config", "{tmp}/c.ini"],
     ["--config", "no section headers"]),
    ("[cap]\ns = 3\n", ["--suite", "all", "--quick", "--config",
                         "{tmp}/c.ini"],
     ["--config", "suite 'all'", "check C02-equilibrium-identities",
      "[cap] s = 3", "s=3.0 > n/alpha=2"]),
    ("[cap]\nalpha = 0.6\ns = 1.5\n", ["--suite", "localization", "--quick",
                                       "--config", "{tmp}/c.ini"],
     ["--config", "suite 'localization'", "check C08-sobolev-lower-bounds",
      "[cap] alpha = 0.6, s = 2", "s=2.0 > n/alpha=1.66667"]),
    ("[cap]\nalpha = 0.3\n", ["--suite", "all", "--quick", "--config",
                              "{tmp}/c.ini"],
     ["--config", "suite 'all'", "check C02-equilibrium-identities",
      "[grid] N = 256", "[cap] alpha = 0.3", "grid too coarse for alpha=0.3"]),
    ("[grid2]\nN = 64\n", ["--suite", "localization", "--quick", "--config",
                           "{tmp}/c.ini"],
     ["--config", "suite 'localization'", "check C08-sobolev-lower-bounds",
      "[grid2] N = 64", "grid too coarse for alpha=1.0"]),
    ("[grid2]\nN = 64\n", ["--suite", "capacity", "--quick", "--config",
                           "{tmp}/c.ini"],
     ["--config", "suite 'capacity'", "check C18-kernel-diagnostics",
      "[grid2] N = 64", "grid too coarse for alpha=1.0"]),
    ("[grid2]\nN = 16\n", ["--suite", "all", "--quick", "--config",
                           "{tmp}/c.ini"],
     ["--config", "suite 'all'", "check C08-sobolev-lower-bounds",
      "[grid2] N = 16", "spacing h=0.75 exceeds 1/4"]),
    ("[cap]\ntol = 2.5e-9\n", ["--suite", "capacity", "--quick", "--config",
                               "{tmp}/c.ini"],
     ["--config", "suite 'capacity'", "check C01-capacity-certificates",
      "s = 3 and [cap] tol = 2.5e-09", "not above the gap floor 3e-09"]),
    ("[cap]\ns = 1.5\ntol = 1.6e-9\n", ["--suite", "blocks-duality", "--quick",
                                        "--config", "{tmp}/c.ini"],
     ["--config", "suite 'blocks-duality'", "check C09-pairing-inequalities",
      "s = 2 and [cap] tol = 1.6e-09", "not above the gap floor 2e-09"]),
    ("[grid]\nL = 10\n", ["--suite", "localization", "--quick", "--config",
                          "{tmp}/c.ini"],
     ["--config", "suite 'localization'", "check C07-strichartz-localization",
      "[grid] L = 10 is below 11.6"]),
], ids=["unknown-suite", "missing-config", "unknown-key", "not-a-number",
        "not-an-integer", "delta-above-one", "no-sections",
        "s-outside-the-line-window", "c08-s-outside-the-line-window",
        "line-grid-too-coarse-for-alpha", "plane-grid-too-coarse-in-c08",
        "plane-grid-too-coarse-in-c18", "plane-spacing-above-a-quarter",
        "tol-below-the-s3-gap-floor", "tol-below-the-s2-gap-floor",
        "line-box-too-small-for-the-test-sets"])
def test_cli_verify_bad_inputs_exit_with_one_named_line(tmp_path, config,
                                                        argv, names):
    # verify's suite and config errors end with one line naming the flag,
    # and for a config a campaign cannot run the suite, the check and the
    # config key; all but a too small [grid] L are found before any check
    # runs; no traceback, no stdout and no verdict file
    if config is not None:
        (tmp_path / "c.ini").write_text(config)
    argv = ["verify"] + [a.format(tmp=tmp_path) for a in argv] + \
        ["--out", str(tmp_path / "v.json")]
    proc = subprocess.run([sys.executable, "-m", "capflow.cli"] + argv,
                          capture_output=True, text=True)
    assert proc.returncode == 1 and proc.stdout == ""
    lines = proc.stderr.strip().splitlines()
    assert len(lines) == 1 and lines[0].startswith("capflow: "), proc.stderr
    assert all(n in lines[0] for n in names), proc.stderr
    assert not list(tmp_path.glob("v*"))
