"""Run one `capflow verify` campaign in this (fresh) process and report it.

    python3 bench/workload.py --suite NAME --config FILE --out DIR [--trace]

`run.py` starts this script once per campaign so that every campaign pays
its own imports and starts with empty kernel and oracle caches, as a user's
`capflow verify` does.  It prints one JSON object on its last stdout line:

* `setup_raw_s`: time from the start of this script until capflow, numpy
  and scipy are imported and the config is parsed;
* `wall_raw_s`: time of `capflow.cli.main(["verify", ...])`, which ends
  after the verdict table is written;
* `setup_s`, `wall_s`: the same times at reference speed (below);
* `peak_rss_mib`, verdict counts and the SHA-256 of the verdict CSV;
* with `--trace`, the per-layer metrics of `tracer.layer_metrics`.

Reference speed.  The shared host this benchmark was built on runs the
same code up to 1.7x slower for stretches of seconds to minutes, on one
core at a time.  So the process pins itself to the core it starts on, and
times a fixed loop that does not touch capflow (`ref_loop`): 30 passes
right after set-up, and one pass every 0.1 s on a second thread during the
campaign.  A time at reference speed is the raw time times `REF_S` over
the loop's time then (median of the 30 passes for set-up, mean of the
samples for the campaign): the time on a core where the loop takes 1 ms.
"""
import time

T0 = time.perf_counter()

import os  # noqa: E402

try:  # the campaign and the speed sampler share one core
    with open("/proc/self/stat") as _fh:
        os.sched_setaffinity(0, {int(_fh.read().rsplit(")", 1)[1].split()[36])})
except (OSError, AttributeError, IndexError, ValueError):
    pass

import argparse  # noqa: E402
import contextlib  # noqa: E402
import csv  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import threading  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

REF_S = 1e-3             # loop time that defines reference speed
SAMPLE_PERIOD_S = 0.1


def ref_loop() -> float:
    """CPU time of this thread for one pass of a fixed mix of bytecode and
    small numpy calls.  CPU time, not wall time, so that the time the pass
    waits for the GIL or for the campaign's thread on the shared core does
    not count."""
    import numpy as np
    t = time.thread_time()
    s = 0.0
    for i in range(8000):
        s += i * 0.5
    x = np.arange(64.0)
    for _ in range(300):
        x = np.sqrt(x + 1.0)
    return time.thread_time() - t


class SpeedSampler:
    """Times `ref_loop` every `SAMPLE_PERIOD_S` on a daemon thread."""

    def __init__(self):
        self.samples = []
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._run, daemon=True)

    def _run(self):
        while not self._stop.wait(SAMPLE_PERIOD_S):
            self.samples.append(ref_loop())

    def __enter__(self):
        self._thread.start()
        return self

    def __exit__(self, *exc):
        self._stop.set()
        self._thread.join()


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--suite", required=True)
    ap.add_argument("--config", required=True)
    ap.add_argument("--out", required=True)
    ap.add_argument("--trace", action="store_true")
    args = ap.parse_args(argv)

    import numpy  # noqa: F401  (set-up cost counted even if capflow stops importing it)
    import scipy  # noqa: F401
    import capflow.cli
    from capflow.suites import CapflowConfig
    cfg = CapflowConfig.from_file(args.config)
    setup = time.perf_counter() - T0
    ref_setup = statistics.median(ref_loop() for _ in range(30))
    report = {"setup_raw_s": setup, "setup_s": setup * REF_S / ref_setup,
              "ref_setup_ms": ref_setup * 1e3, "seed": cfg.master_seed}

    tracer = None
    if args.trace:
        from tracer import Tracer
        tracer = Tracer().install()
    Path(args.out).mkdir(parents=True, exist_ok=True)
    out_json = Path(args.out) / "verdicts.json"
    argv_verify = ["verify", "--suite", args.suite, "--config", args.config,
                   "--out", str(out_json)]
    error = None
    rc = None
    with SpeedSampler() as speed:
        t1 = time.perf_counter()
        try:
            with contextlib.redirect_stdout(io.StringIO()):
                rc = capflow.cli.main(argv_verify)
        except Exception:
            error = traceback.format_exc()
        wall = time.perf_counter() - t1
    ref_wall = statistics.mean(speed.samples or [ref_setup])
    if tracer is not None:
        tracer.restore()

    report.update(wall_raw_s=wall, wall_s=wall * REF_S / ref_wall,
                  ref_wall_ms=ref_wall * 1e3, rc=rc, error=error,
                  peak_rss_mib=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0)
    csv_path = out_json.with_suffix(".csv")
    if error is None:
        data = csv_path.read_bytes()
        rows = list(csv.DictReader(io.StringIO(data.decode())))
        report.update(
            digest=hashlib.sha256(data).hexdigest(),
            verdicts=len(rows),
            fails=[r["check_id"] for r in rows if r["status"] == "fail"])
    if tracer is not None:
        report.update(_traced_report(tracer, Path(args.out)))
    print(json.dumps(report))
    return 0


def _traced_report(tracer, out_dir: Path) -> dict:
    import numpy as np
    from tracer import layer_metrics
    spans = tracer.arrays()
    np.savez(out_dir / "spans.npz", names=np.array(spans["names"]),
             **{k: v for k, v in spans.items() if k != "names"})
    metrics = layer_metrics(spans, tracer.solves, sum(tracer.oracle_sizes.values()))
    bad = [(gap, tol) for trivial, _it, conv, gap, tol in tracer.solves.values()
           if not trivial and not (conv and gap <= tol)]
    return {"spans": len(spans["start"]), "unconverged_solves": len(bad),
            "layer_metrics": {k: {"value": v, "unit": u}
                              for k, (v, u) in metrics.items()}}


if __name__ == "__main__":
    sys.exit(main())
