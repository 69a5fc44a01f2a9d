"""capflow benchmark: wall time of `capflow verify --suite <workload>`.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root.  A workload is the `capflow verify` suite of
the same name.  Each campaign runs in a fresh process (`bench/workload.py`)
with BLAS/OpenMP pinned to one thread; the config it reads carries the
campaign seed as `[seeds] master`.

* `--trace 0`: untraced campaigns until `--seconds` is spent, at least
  `MIN_CAMPAIGNS`.  On `localization` every campaign uses the run's seed;
  on `blocks-duality` campaign i uses `panel_seed(seed, i)`.  Reports
  `wall_s`, each seed's median campaign time averaged over the seeds;
  `setup_s`, the median set-up of the campaign processes; and the median
  `peak_rss_mib`.  Both times are at reference speed (see `workload.py`).
* `--trace 1`: one untraced and one traced campaign of `--seed`.  Reports
  the per-layer metrics of the traced one; `trace.overhead_s`, the traced
  minus the untraced wall time; and the untraced campaign's raw wall time
  and reference-loop time, `campaign.wall_raw_s` and `campaign.ref_ms`.

Every run checks that no verdict is `fail`, that every campaign of a seed
wrote the same verdict CSV (SHA-256), in this run and in earlier runs on
the same source, and, when traced, that every non-trivial solve converged
with gap <= tol.  The last stdout line is the result JSON;
the full record, with the environment, goes to `.bench_work/results/`.
"""
import argparse
import hashlib
import itertools
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from importlib import metadata
from pathlib import Path

HERE = Path(__file__).resolve().parent

# Whether a run's campaigns each take a new seed.  localization does the same
# work on every seed (within 2%), so it repeats the run's seed.  A
# blocks-duality campaign's work depends on its seed (random model sizes in
# C09 and C12: 4.4-12.2 s over 95 seeds on a 2-core Xeon), so a run averages
# as many seeds as fit.
NEW_SEEDS = {"localization": False, "blocks-duality": True}
MIN_CAMPAIGNS = 6        # per untraced run, even past --seconds
RUN_LIMIT_S = 170.0      # whole run, including the traced campaign
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")


class ChildFailed(Exception):
    pass


def nonnegative(text: str) -> int:
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError("seed must be >= 0")
    return value


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(NEW_SEEDS))
    ap.add_argument("--seed", type=nonnegative, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    root = Path.cwd()
    src = root / "src"
    if not (src / "capflow" / "cli.py").is_file():
        print(f"bench: no capflow sources under {src}; run from the "
              "repository root", file=sys.stderr)
        return 2

    work = root / ".bench_work" / args.workload
    work.mkdir(parents=True, exist_ok=True)
    env = dict(os.environ)
    env.update({v: "1" for v in THREAD_VARS})
    env["PYTHONPATH"] = os.pathsep.join(
        [str(src)] + [p for p in [os.environ.get("PYTHONPATH")] if p])
    started = time.perf_counter()

    def child(seed, out, *extra):
        config = work / f"capflow-{seed}.cfg"
        config.write_text(f"[seeds]\nmaster = {seed}\n")
        cmd = [sys.executable, str(HERE / "workload.py"), "--config", str(config),
               "--suite", args.workload, "--out", str(out)]
        remaining = RUN_LIMIT_S - (time.perf_counter() - started)
        t0 = time.perf_counter()
        try:
            proc = subprocess.run(cmd + list(extra), env=env, cwd=root,
                                  capture_output=True, text=True,
                                  timeout=max(remaining, 1.0))
        except subprocess.TimeoutExpired as exc:
            raise ChildFailed(f"{' '.join(cmd)} timed out") from exc
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            raise ChildFailed(proc.stderr[-2000:] or f"exit {proc.returncode}")
        return dict(json.loads(lines[-1]), process_s=time.perf_counter() - t0)

    record = {"workload": args.workload, "seed": args.seed,
              "seconds": args.seconds, "trace": args.trace,
              "env": environment(root, env)}
    campaigns, problems = [], []
    try:
        if args.trace:
            campaigns.append(child(args.seed, work / "untraced"))
            campaigns.append(child(args.seed, work / "traced", "--trace"))
        else:
            for i in itertools.count():
                spent = time.perf_counter() - started
                if i >= MIN_CAMPAIGNS and spent + statistics.median(
                        c["process_s"] for c in campaigns) > args.seconds:
                    break
                seed = panel_seed(args.seed, i) if NEW_SEEDS[args.workload] else args.seed
                campaigns.append(child(seed, work / "untraced"))
    except ChildFailed as exc:
        problems.append(str(exc))

    attempted, failed = tally(campaigns, problems)
    problems += check_digests(root / ".bench_work" / "digests.json", args.workload,
                              record["env"]["source_sha256"], campaigns)

    metrics = {} if problems else summarize(campaigns, args.trace)
    record.update(campaigns=[{k: v for k, v in c.items() if k != "layer_metrics"}
                             for c in campaigns],
                  problems=problems, metrics=metrics,
                  elapsed_s=time.perf_counter() - started)
    results = root / ".bench_work" / "results"
    results.mkdir(parents=True, exist_ok=True)
    (results / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1) + "\n")
    for p in problems:
        print(f"bench: {p}", file=sys.stderr)
    print(json.dumps({"correct": not problems, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


def summarize(campaigns: list, trace: int) -> dict:
    """The result's metrics: the end-to-end ones, or the traced campaign's
    per-layer metrics plus the tracing overhead."""
    def metric(value, unit):
        return {"value": value, "unit": unit}

    if trace:
        untraced, traced = campaigns
        metrics = dict(traced["layer_metrics"])
        metrics["trace.overhead_s"] = metric(traced["wall_s"] - untraced["wall_s"], "s")
        metrics["campaign.wall_raw_s"] = metric(untraced["wall_raw_s"], "s")
        metrics["campaign.ref_ms"] = metric(untraced["ref_wall_ms"], "ms")
        return metrics
    by_seed = {}
    for c in campaigns:
        by_seed.setdefault(c["seed"], []).append(c["wall_s"])
    median = statistics.median
    return {"wall_s": metric(statistics.mean(median(w) for w in by_seed.values()), "s"),
            "setup_s": metric(median(c["setup_s"] for c in campaigns), "s"),
            "peak_rss_mib": metric(median(c["peak_rss_mib"] for c in campaigns), "MiB")}


def tally(campaigns: list, problems: list) -> tuple:
    """Verdicts attempted and failed (a `fail` verdict, or a campaign that
    raised); appends what went wrong to `problems`."""
    attempted = failed = 0
    for c in campaigns:
        attempted += c.get("verdicts", 1)
        failed += len(c.get("fails", []))
        if c.get("fails"):
            problems.append(f"fail verdicts: {c['fails']}")
        elif c["error"] is not None or c["rc"] != 0:
            failed += 1
            problems.append(c["error"] or f"verify exited {c['rc']}")
        if c.get("unconverged_solves"):
            problems.append(f"{c['unconverged_solves']} solves without gap <= tol")
    if problems and failed == 0:
        attempted, failed = attempted + 1, 1
    return attempted, failed


def panel_seed(seed: int, i: int) -> int:
    """Master seed of the i-th campaign of a run: the run's own seed first,
    then seeds hashed from it.  The verdict work of a campaign depends on
    its seed (random model sizes), so a run averages over several."""
    if i == 0:
        return seed
    return int.from_bytes(hashlib.sha256(f"{seed}/{i}".encode()).digest()[:4], "big")


def check_digests(path: Path, workload: str, source: str, campaigns: list) -> list:
    """Every campaign of one seed, in this run or an earlier run on the same
    source tree, must write the same verdict CSV; new digests are recorded."""
    known = json.loads(path.read_text()) if path.exists() else {}
    problems = []
    for c in campaigns:
        if "digest" not in c:
            continue
        key = f"{workload}/{c['seed']}/{source}"
        if known.setdefault(key, c["digest"]) != c["digest"]:
            problems.append(f"seed {c['seed']}: verdict digest {c['digest']} "
                            f"differs from {known[key]}")
    path.write_text(json.dumps(known, indent=1, sort_keys=True) + "\n")
    return problems


def environment(root: Path, env: dict) -> dict:
    src_hash = hashlib.sha256()
    for f in sorted((root / "src" / "capflow").glob("*.py")):
        src_hash.update(f.name.encode() + b"\0" + f.read_bytes())
    cpu = ""
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), "")
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "cpu_model": cpu or platform.processor(),
        "python": platform.python_version(),
        "numpy": metadata.version("numpy"),
        "scipy": metadata.version("scipy"),
        "threads": {v: env[v] for v in THREAD_VARS},
        "git_commit": git_commit(root),
        "source_sha256": src_hash.hexdigest(),
    }


def git_commit(root: Path):
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(root.parent))
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, env=env,
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


if __name__ == "__main__":
    sys.exit(main())
