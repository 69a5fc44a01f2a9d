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
import configparser
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
from .measure import Field, LorentzExponents
from .suites import (SUITES, CapflowConfig, ConfigError, any_failures,
                     run_suite, write_verdicts)

__all__ = ["main"]


def _bad(flag: str, message: str):
    """End the run with one line naming the flag and its bad value."""
    raise SystemExit(f"capflow: {flag}: {message}")


def _load_problem(args) -> tuple:
    """Resolve (problem, params, space, fields) from --model or --grid."""
    if args.kernel and args.grid:
        _bad("--kernel", "a kernel file needs --model, not --grid")
    try:
        params = CapacityParams(alpha=args.alpha, s=args.s, tol=args.tol)
        if args.grid:
            grid = modelio.grid_of("--grid", args.grid, args.L)
            return grid_problem(grid, params), params, grid, {}
    except ValueError as err:
        raise SystemExit(f"capflow: {err}") from None
    space, fields = modelio.read_finite_model(args.model)
    if args.kernel:
        problem = finite_problem(
            space, modelio.read_kernel_matrix(args.kernel, space.size))
    else:
        problem = identity_problem(space)
    return problem, params, space, fields


def _model_field(flag: str, path, fields: dict, name: str, space) -> Field:
    """Field `name` of finite-model file `path`, read for `flag`."""
    if name not in fields:
        _bad(flag, f"{path} has no field {name!r} "
                   f"(fields: {', '.join(fields) or 'none'})")
    if fields[name].size != space.size:
        _bad(flag, f"{path} has {fields[name].size} atoms, not {space.size}")
    return Field(space, fields[name])


def _oracle_and_field(args) -> tuple:
    """The problem's capacity oracle and the --field or --field-file field."""
    problem, params, space, fields = _load_problem(args)
    if args.field_file:
        f = modelio.field_from_file(args.field_file, space)
    else:
        f = _model_field("--field", args.model or "a --grid problem", fields,
                         args.field, space)
    return CapacityOracle(problem, params), f


def _parse_family(specs) -> mn.TestSetFamily:
    fams = []
    for spec in specs:
        kind, *parts = spec.split(":")
        try:
            if kind == "all" and not parts:
                fams.append(mn.TestSetFamily.all_subsets())
            elif kind == "dyadic" and len(parts) <= 1 and \
                    (top := int(parts[0]) if parts else 4) >= 0:
                fams.append(mn.TestSetFamily.dyadic(tuple(range(top + 1))))
            elif kind == "levels" and not parts:
                fams.append(mn.TestSetFamily.superlevels(size_cap=32))
            elif kind == "random" and len(parts) <= 2 and \
                    (count := int(parts[0]) if parts else 32) >= 1:
                seed = int(parts[1], 0) if len(parts) > 1 else mn.DEFAULT_SEED
                fams.append(mn.TestSetFamily.random_unions(count, seed=seed))
            else:
                raise ValueError(kind)
        except ValueError:
            _bad("--family", f"bad spec {spec!r} (grammar: all | dyadic:G | "
                             "levels | random:N:SEED, with G >= 0 and N >= 1)")
    return sum(fams[1:], fams[0])


def _emit(report: dict, out: Optional[str]) -> None:
    """Write a JSON report to `out`, or to stdout when no path is given."""
    text = json.dumps(report, indent=2) + "\n"
    if out:
        Path(out).write_text(text)
    else:
        sys.stdout.write(text)


def _cmd_capacity(args) -> int:
    problem, params, space, _fields = _load_problem(args)
    mask = SetMask(space, modelio.read_mask_values(args.set, space))
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
    oracle, f = _oracle_and_field(args)
    family = _parse_family(args.family)
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
    oracle, f = _oracle_and_field(args)
    space = oracle.space
    cfg = wt.WeightConfig(delta=args.delta, slack=args.slack)
    kind, _, rest = args.candidates.partition(":")
    paths = rest.split(",")
    if kind not in ("potentials", "file") or not all(paths):
        _bad("--candidates", f"bad spec {args.candidates!r} (grammar: "
                             "potentials:<mask,...> | file:<field,...>)")
    cands = []
    for path in paths:
        if kind == "potentials":
            mask = SetMask(space, modelio.read_mask_values(path, space))
            cands.append(wt.potential_weight(oracle, mask, cfg))
        else:
            cands.append(wt.Weight(
                oracle, modelio.field_from_file(path, space).values, cfg))
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
    oracle, f = _oracle_and_field(args)
    space = oracle.space
    e = LorentzExponents(args.p, args.q)
    cfg = wt.WeightConfig(delta=args.delta, slack=args.slack)
    omega = None
    if args.weight:
        if args.grid:
            weight = modelio.field_from_file(args.weight, space)
        else:
            weight = _model_field("--weight-field", args.weight,
                                  modelio.read_finite_model(args.weight)[1],
                                  args.weight_field, space)
        omega = wt.Weight(oracle, weight.values, cfg)
    if args.mode == "constructive":
        if omega is None:
            _bad("--mode", "constructive mode needs --weight")
        decomp = bl.block_norm_upper_constructive(f, e, omega, oracle)
    else:
        family = _parse_family(args.family or ["random:32:0x5EED"])
        decomp = bl.block_norm_upper_greedy(f, e, family, oracle, omega)
    out = Path(args.out)
    entries = []
    for i, (lam, block, support) in enumerate(zip(
            decomp.lambdas.tolist(), decomp.blocks, decomp.supports)):
        block_file = out.with_name(f"{out.stem}_block_{i:03d}.txt")
        if args.grid:
            modelio.write_grid_field(block_file, space, block)
        else:
            modelio.write_finite_model(block_file, space, {"block": block})
        entries.append({
            "lambda": lam,
            "support_cells": np.flatnonzero(support).tolist(),
            "block_file": block_file.name,
        })
    out.write_text(json.dumps(entries, indent=2) + "\n")
    sys.stdout.write(f"terms={len(entries)} sum_lambda={decomp.sum_lambda!r} "
                     f"residual={decomp.residual!r}\n")
    return 0


def _cmd_verify(args) -> int:
    if args.suite not in SUITES:
        _bad("--suite", f"unknown suite {args.suite!r} "
                        f"(choose from {', '.join(sorted(SUITES))})")
    try:   # a configparser error spans lines
        cfg = CapflowConfig.from_file(args.config) if args.config else CapflowConfig()
    except (OSError, ValueError, configparser.Error) as err:
        _bad("--config", " ".join(str(err).splitlines()))
    if args.quick:
        cfg = cfg.quick()
    if args.out and Path(args.out).suffix == ".csv":
        _bad("--out", f"{args.out}: give the JSON path; the CSV goes beside it")
    try:
        verdicts = run_suite(args.suite, cfg)
    except ConfigError as err:
        _bad("--config", str(err))
    if args.out:
        write_verdicts(verdicts, args.out, args.suite, cfg)
    for v in verdicts:
        sys.stdout.write(f"{v.check_id}: {v.status} "
                         f"(measured={v.measured:.6g}) {v.details}\n")
    return 1 if any_failures(verdicts) else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="capflow", description=__doc__)
    subs = parser.add_subparsers(dest="command", required=True)

    problem = argparse.ArgumentParser(add_help=False)
    where = problem.add_mutually_exclusive_group(required=True)
    where.add_argument("--model", help="finite-model file (identity kernel "
                       "unless --kernel is given)")
    where.add_argument("--grid", help="points per axis as in a grid-file "
                       "header: N on the line, NxN on the plane")
    problem.add_argument("--kernel",
                         help="whitespace m*m matrix file for --model")
    problem.add_argument("--L", type=float, default=16.0,
                         help="box side length for --grid")
    problem.add_argument("--alpha", type=float, default=0.5)
    problem.add_argument("--s", type=float, default=2.0)
    problem.add_argument("--tol", type=float, default=1e-6)

    field = argparse.ArgumentParser(add_help=False)
    which = field.add_mutually_exclusive_group(required=True)
    which.add_argument("--field", help="field name inside the --model file")
    which.add_argument("--field-file", help="grid field file")

    weights = argparse.ArgumentParser(add_help=False)
    weights.add_argument("--delta", type=float, default=0.5)
    weights.add_argument("--slack", type=float, default=1.25)

    sub = subs.add_parser("capacity", parents=[problem],
                          help="certified capacity of a set")
    sub.add_argument("--set", required=True, help="0/1 mask file")
    sub.add_argument("--out")
    sub.set_defaults(fn=_cmd_capacity)

    sub = subs.add_parser("mnorm", parents=[problem, field],
                          help="multiplier-norm estimate")
    sub.add_argument("--space", dest="space_kind", required=True,
                     choices=["M", "scriptM", "weakM"])
    sub.add_argument("--p", type=float, required=True)
    sub.add_argument("--q", type=float, default=2.0)
    sub.add_argument("--family", action="append", required=True,
                     help="all | dyadic:G | levels | random:N:SEED (repeatable)")
    sub.add_argument("--out")
    sub.set_defaults(fn=_cmd_mnorm)

    sub = subs.add_parser("nnorm", parents=[problem, field, weights],
                          help="weighted-infimum upper bound")
    sub.add_argument("--p", type=float, required=True)
    sub.add_argument("--q", type=float, required=True)
    sub.add_argument("--candidates", required=True,
                     help="potentials:<mask,...> | file:<field,...>")
    sub.add_argument("--out")
    sub.set_defaults(fn=_cmd_nnorm)

    sub = subs.add_parser("maximal", help="local maximal operator on a field")
    sub.add_argument("--in", dest="infile", required=True)
    sub.add_argument("--out", dest="outfile", required=True)
    sub.set_defaults(fn=_cmd_maximal)

    sub = subs.add_parser("block", parents=[problem, field, weights],
                          help="block-decomposition upper bound")
    sub.add_argument("--mode", choices=["constructive", "greedy"],
                     default="greedy")
    sub.add_argument("--p", type=float, default=2.0)
    sub.add_argument("--q", type=float, default=2.0)
    sub.add_argument("--weight", help="weight field file")
    sub.add_argument("--weight-field", default="weight",
                     help="field name when --weight is a finite-model file")
    sub.add_argument("--family", action="append")
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
    out = getattr(args, "out", None) or getattr(args, "outfile", None)
    if out and not Path(out).parent.is_dir():
        _bad("--out", f"{out}: directory {Path(out).parent} does not exist")
    return args.fn(args)


if __name__ == "__main__":
    sys.exit(main())
