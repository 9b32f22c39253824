"""The cyl benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs from the root of a source checkout (``src/cyl`` must be there; nothing
needs building).  With ``--trace 0`` it reports the end-to-end metrics
``wall_s``, ``setup_s`` and ``peak_rss_mb``; with ``--trace 1`` the per-layer
metrics of a traced run.  The last line of standard output is one JSON object
with the keys ``correct``, ``attempted`` (operations checked), ``failed``
(operations whose output failed its gate) and ``metrics``; the line before it
holds the details: pass times, set-up samples, failures and the environment.
See perfbench/README.md for the workloads and metric definitions.

The work runs in child interpreters (``worker.py``), one at a time, with
BLAS and OpenMP pinned to one thread.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_SAMPLES = 5     # fresh interpreters whose set-up time is sampled
DEADLINE_S = 170.0    # the whole run, set-up samples included
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


def _child_env():
    return {**os.environ, **{var: "1" for var in THREAD_VARS}}


def _worker(args, deadline, extra=()):
    """Run one worker to completion and return its JSON result."""
    t0 = time.monotonic()
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--t0", repr(t0), *extra]
    proc = subprocess.run(cmd, cwd=ROOT, env=_child_env(), text=True,
                          capture_output=True, timeout=max(deadline - t0, 1.0))
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"worker exited with code {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main(argv=None):
    # workload and metric names and units are defined once, in BENCHMARK.json
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=[w["name"] for w in spec["workloads"]])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=spec["run_seconds"])
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        ap.error("--seed must be >= 0 and --seconds > 0")
    if not (ROOT / "src" / "cyl" / "__init__.py").is_file():
        raise SystemExit(f"no cyl sources under {ROOT / 'src'}; run from a checkout")

    deadline = time.monotonic() + DEADLINE_S
    try:
        setups = [] if args.trace else [
            _worker(args, deadline, ["--setup-only"])["setup_s"]
            for _ in range(SETUP_SAMPLES - 1)]
        res = _worker(args, deadline)
    except subprocess.TimeoutExpired:
        raise SystemExit(f"workload did not finish within {DEADLINE_S:.0f} s")
    setups.append(res["setup_s"])

    if args.trace:
        values, listed = res.pop("per_layer"), spec["per_layer"]
    else:
        values = {"wall_s": res["wall_s"], "setup_s": statistics.median(setups),
                  "peak_rss_mb": res["peak_rss_mb"]}
        listed = spec["end_to_end"]
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
               for m in listed}
    print(json.dumps({**res, "setup_samples": setups}))
    print(json.dumps({"correct": res["ops_failed"] == 0, "attempted": res["ops"],
                      "failed": res["ops_failed"], "metrics": metrics}))


if __name__ == "__main__":
    main()
