"""Command-line interface.

Subcommands:
  capacity  certified capacity of a masked set on a finite model or a grid
  mnorm     multiplier-norm estimates over a test-set family
  nnorm     weighted-infimum upper bounds from candidate weights
  maximal   local maximal operator on a grid field file
  block     block-decomposition upper bounds with a JSON witness
  verify    named verification campaigns with verdict reports
"""
from __future__ import annotations

import argparse
import json
import math
import sys
from pathlib import Path
from typing import Optional

import numpy as np

from . import blocks as bl
from . import modelio
from . import multiplier as mn
from . import weights as wt
from .capacity import (CapacityOracle, CapacityParams, SetMask, capacity,
                       finite_problem, grid_problem, identity_problem)
from .grid import make_grid
from .measure import Field, LorentzExponents
from .suites import CapflowConfig, SuiteSpec, any_failures, emit_report, run_suite

__all__ = ["main"]


def _load_problem(args) -> tuple:
    """Resolve (problem, params, space) from --model or --grid options."""
    params = CapacityParams(alpha=args.alpha, s=args.s, tol=args.tol)
    if args.model:
        space, fields = modelio.read_finite_model(args.model)
        if args.kernel:
            problem = finite_problem(
                space, modelio.read_kernel_matrix(args.kernel, space.size))
        else:
            problem = identity_problem(space)
        return problem, params, space, fields
    if args.grid is None:
        raise SystemExit("need --model FILE or --grid N[xN]")
    if "x" in args.grid:
        a, b = args.grid.split("x")
        if a != b:
            raise SystemExit("anisotropic grids unsupported")
        grid = make_grid(2, args.L, int(a))
    else:
        grid = make_grid(1, args.L, int(args.grid))
    return grid_problem(grid, params), params, grid, {}


def _add_problem_args(sub, with_set: bool = True):
    sub.add_argument("--model", help="finite-model file (identity kernel "
                     "unless --kernel is given)")
    sub.add_argument("--kernel", help="whitespace m*m matrix file for finite models")
    sub.add_argument("--grid", help="points per axis, e.g. 256 or 128x128")
    sub.add_argument("--L", type=float, default=16.0, help="box side length")
    sub.add_argument("--alpha", type=float, default=0.5)
    sub.add_argument("--s", type=float, default=2.0)
    sub.add_argument("--tol", type=float, default=1e-6)
    if with_set:
        sub.add_argument("--set", required=True, help="0/1 mask file")


def _mask_from(args, space) -> SetMask:
    return SetMask(space, modelio.read_mask_values(args.set, space))


def _field_from(args, space, fields) -> Field:
    if args.field and args.field in fields:
        return Field(space, fields[args.field])
    if args.field_file:
        return modelio.field_from_file(args.field_file, space)
    raise SystemExit("need --field NAME (finite model) or --field-file FILE (grid)")


def _parse_family(specs, space) -> mn.TestSetFamily:
    fams = []
    for spec in specs:
        parts = spec.split(":")
        kind = parts[0]
        if kind == "all":
            fams.append(mn.TestSetFamily.all_subsets())
        elif kind == "dyadic":
            top = int(parts[1]) if len(parts) > 1 else 4
            fams.append(mn.TestSetFamily.dyadic(tuple(range(top + 1))))
        elif kind == "levels":
            fams.append(mn.TestSetFamily.superlevels(size_cap=32))
        elif kind == "random":
            count = int(parts[1]) if len(parts) > 1 else 32
            seed = int(parts[2], 0) if len(parts) > 2 else mn.DEFAULT_SEED
            fams.append(mn.TestSetFamily.random_unions(count, seed=seed))
        else:
            raise SystemExit(f"unknown family spec {spec!r} "
                             "(grammar: all | dyadic:G | levels | random:N:SEED)")
    fam = fams[0]
    for extra in fams[1:]:
        fam = fam + extra
    return fam


def _emit(report: dict, out: Optional[str]) -> None:
    """Write a JSON report to `out`, or to stdout when no path is given."""
    text = json.dumps(report, indent=2) + "\n"
    if out:
        Path(out).write_text(text)
    else:
        sys.stdout.write(text)


def _cmd_capacity(args) -> int:
    problem, params, space, _fields = _load_problem(args)
    mask = _mask_from(args, space)
    res = capacity(problem, mask, params)
    report = {
        "value": res.value,
        "lower": res.lower,
        "upper": res.upper,
        "relative_gap": res.gap,
        "converged": res.converged,
        "infeasible": res.infeasible,
        "iterations": res.iterations,
        "set_cardinality": mask.cardinality,
        "set_measure": mask.measure,
        "alpha": params.alpha,
        "s": params.s,
        "tol": params.tol,
    }
    _emit(report, args.out)
    return 0 if res.converged else 1


def _cmd_mnorm(args) -> int:
    problem, params, space, fields = _load_problem(args)
    oracle = CapacityOracle(problem, params)
    f = _field_from(args, space, fields)
    family = _parse_family(args.family, space)
    e = LorentzExponents(args.p, args.q)
    if args.space_kind == "M":
        est = mn.m_norm(f, e, family, oracle)
    elif args.space_kind == "scriptM":
        est = mn.script_m_norm(f, e, family, oracle)
    else:
        est = mn.weak_script_m_norm(f, args.p, family, oracle)
    report = {
        "space": args.space_kind,
        "p": args.p,
        "q": args.q,
        "value": est.value,
        "mode": est.mode,
        "bracket": [est.lo, est.hi if math.isfinite(est.hi) else None],
        "max_capacity_gap": est.max_gap,
        "witness_cardinality": est.witness.cardinality if est.witness else 0,
    }
    _emit(report, args.out)
    return 0


def _cmd_nnorm(args) -> int:
    problem, params, space, fields = _load_problem(args)
    oracle = CapacityOracle(problem, params)
    f = _field_from(args, space, fields)
    cfg = wt.WeightConfig(delta=args.delta, slack=args.slack)
    kind, _, rest = args.candidates.partition(":")
    cands = []
    if kind == "potentials":
        for mask_file in rest.split(","):
            mask = SetMask(space, modelio.read_mask_values(mask_file, space))
            cands.append(wt.potential_weight(oracle, mask, cfg))
    elif kind == "file":
        for wfile in rest.split(","):
            cands.append(wt._certified_weight(
                oracle, modelio.field_from_file(wfile, space).values, cfg))
    else:
        raise SystemExit("candidates grammar: potentials:<mask,...> | file:<field,...>")
    est = wt.n_norm_upper(f, LorentzExponents(args.p, args.q), cands,
                          cfg=cfg, oracle=oracle)
    report = {
        "p": args.p,
        "q": args.q,
        "upper_bound": est.value,
        "candidates": len(cands),
        "witness_a1": est.witness.a1_constant if est.witness else None,
    }
    _emit(report, args.out)
    return 0


def _cmd_maximal(args) -> int:
    grid, vals = modelio.read_grid_field(args.infile)
    out = wt.local_maximal(grid, Field(grid, vals))
    modelio.write_grid_field(args.outfile, grid, out.values)
    return 0


def _cmd_block(args) -> int:
    problem, params, space, fields = _load_problem(args)
    oracle = CapacityOracle(problem, params)
    f = _field_from(args, space, fields)
    e = LorentzExponents(args.p, args.q)
    cfg = wt.WeightConfig(delta=args.delta, slack=args.slack)
    omega = None
    if args.weight:
        if args.grid:
            raw = modelio.field_from_file(args.weight, space).values
        else:
            raw = modelio.read_finite_model(args.weight)[1][args.weight_field]
        omega = wt._certified_weight(oracle, raw, cfg)
    if args.mode == "constructive":
        if omega is None:
            raise SystemExit("constructive mode needs --weight")
        decomp = bl.block_norm_upper_constructive(f, e, omega, oracle)
    else:
        family = _parse_family(args.family or ["random:32:0x5EED"], space)
        decomp = bl.block_norm_upper_greedy(f, e, family, oracle, omega)
    out = Path(args.out)
    entries = []
    for i, (lam, blk) in enumerate(decomp.terms):
        block_file = out.with_name(f"{out.stem}_block_{i:03d}.txt")
        if args.grid:
            modelio.write_grid_field(block_file, space, blk.values)
        else:
            modelio.write_finite_model(block_file, space, {"block": blk.values})
        entries.append({
            "lambda": lam,
            "support_cells": np.flatnonzero(blk.support.bools).tolist(),
            "block_file": block_file.name,
        })
    out.write_text(json.dumps(entries, indent=2) + "\n")
    sys.stdout.write(f"terms={len(entries)} sum_lambda={decomp.sum_lambda!r} "
                     f"residual={decomp.residual!r}\n")
    return 0


def _cmd_verify(args) -> int:
    cfg = CapflowConfig.from_file(args.config) if args.config else CapflowConfig()
    if args.quick:
        cfg = cfg.quick()
    spec = SuiteSpec(args.suite, cfg)
    verdicts = run_suite(spec)
    if args.out:
        emit_report(verdicts, "json", args.out, spec=spec)
        csv_path = Path(args.out).with_suffix(".csv")
        emit_report(verdicts, "csv", csv_path, spec=spec)
    for v in verdicts:
        sys.stdout.write(f"{v.check_id}: {v.status} "
                         f"(measured={v.measured:.6g}) {v.details}\n")
    return 1 if any_failures(verdicts) else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="capflow", description=__doc__)
    subs = parser.add_subparsers(dest="command", required=True)

    sub = subs.add_parser("capacity", help="certified capacity of a set")
    _add_problem_args(sub)
    sub.add_argument("--out")
    sub.set_defaults(fn=_cmd_capacity)

    sub = subs.add_parser("mnorm", help="multiplier-norm estimate")
    _add_problem_args(sub, with_set=False)
    sub.add_argument("--space", dest="space_kind", required=True,
                     choices=["M", "scriptM", "weakM"])
    sub.add_argument("--p", type=float, required=True)
    sub.add_argument("--q", type=float, default=2.0)
    sub.add_argument("--family", action="append", required=True,
                     help="all | dyadic:G | levels | random:N:SEED (repeatable)")
    sub.add_argument("--field", help="field name inside the finite-model file")
    sub.add_argument("--field-file", help="grid field file")
    sub.add_argument("--out")
    sub.set_defaults(fn=_cmd_mnorm)

    sub = subs.add_parser("nnorm", help="weighted-infimum upper bound")
    _add_problem_args(sub, with_set=False)
    sub.add_argument("--p", type=float, required=True)
    sub.add_argument("--q", type=float, required=True)
    sub.add_argument("--candidates", required=True,
                     help="potentials:<mask,...> | file:<field,...>")
    sub.add_argument("--delta", type=float, default=0.5)
    sub.add_argument("--slack", type=float, default=1.25)
    sub.add_argument("--field", help="field name inside the finite-model file")
    sub.add_argument("--field-file", help="grid field file")
    sub.add_argument("--out")
    sub.set_defaults(fn=_cmd_nnorm)

    sub = subs.add_parser("maximal", help="local maximal operator on a field")
    sub.add_argument("--in", dest="infile", required=True)
    sub.add_argument("--out", dest="outfile", required=True)
    sub.set_defaults(fn=_cmd_maximal)

    sub = subs.add_parser("block", help="block-decomposition upper bound")
    _add_problem_args(sub, with_set=False)
    sub.add_argument("--mode", choices=["constructive", "greedy"],
                     default="greedy")
    sub.add_argument("--p", type=float, default=2.0)
    sub.add_argument("--q", type=float, default=2.0)
    sub.add_argument("--weight", help="weight field file")
    sub.add_argument("--weight-field", default="weight",
                     help="field name when --weight is a finite-model file")
    sub.add_argument("--delta", type=float, default=0.5)
    sub.add_argument("--slack", type=float, default=1.25)
    sub.add_argument("--family", action="append")
    sub.add_argument("--field", help="field name inside the finite-model file")
    sub.add_argument("--field-file", help="grid field file")
    sub.add_argument("--out", required=True)
    sub.set_defaults(fn=_cmd_block)

    sub = subs.add_parser("verify", help="run a verification campaign")
    sub.add_argument("--suite", required=True)
    sub.add_argument("--config", help="key = value config file with [sections]")
    sub.add_argument("--out", help="verdicts JSON path (CSV written alongside)")
    sub.add_argument("--quick", action="store_true",
                     help="reduced-scale corpora")
    sub.set_defaults(fn=_cmd_verify)

    args = parser.parse_args(argv)
    return args.fn(args)


if __name__ == "__main__":
    sys.exit(main())
