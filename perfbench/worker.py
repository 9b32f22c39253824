"""One workload process: set up, run timed passes, check every operation.

Started by ``run.py`` in a fresh interpreter; prints one JSON object as its
last line of standard output.  ``--setup-only`` stops right after set-up,
so ``run.py`` can sample set-up time several times per run.  ``--record``
writes the outputs of a fixed number of passes to the reference file instead
of timing (see README.md, "Reference outputs").
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
REFERENCE = HERE / "reference.json"
DEFAULT_SEED = 1
WARMUP_STREAM = 1_000_000  # pass p draws from [seed, p]; the warm-up from this


def _rng(seed, stream):
    import numpy as np
    return np.random.default_rng([seed, stream])


def _environment():
    import numpy as np
    import scipy

    env = {
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "threads": {k: os.environ.get(k) for k in
                    ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")},
    }
    try:
        blas = np.__config__.CONFIG["Build Dependencies"]["blas"]
        env["blas"] = f"{blas.get('name')} {blas.get('version')}"
    except (AttributeError, KeyError):
        env["blas"] = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            env["cpu"] = next((ln.split(":", 1)[1].strip() for ln in fh
                               if ln.startswith("model name")), "unknown")
    except OSError:
        env["cpu"] = "unknown"
    env["git_commit"] = "unavailable (not a git checkout)"
    if (ROOT / ".git").exists():
        git = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, text=True,
                             capture_output=True, timeout=30)
        env["git_commit"] = git.stdout.strip() or "unavailable"
    # identifies the measured library even where git is not available
    digest = hashlib.sha256()
    for path in sorted((SRC / "cyl").rglob("*.py")):
        digest.update(path.relative_to(SRC).as_posix().encode() + b"\0")
        digest.update(path.read_bytes())
    env["src_sha256"] = digest.hexdigest()
    return env


class _Run:
    """Operation bookkeeping of one worker."""

    def __init__(self, wl, seed):
        self.wl = wl
        self.ops = 0
        self.failures = []
        self.reference = None
        if seed == DEFAULT_SEED and REFERENCE.is_file():
            self.reference = json.loads(REFERENCE.read_text()).get(wl.name)

    def execute(self, inputs, label):
        """One pass; returns ((start, end), outputs or None)."""
        t = time.monotonic()
        try:
            out = self.wl.run(inputs)
        except Exception:  # any exception is a failed operation
            self.ops += 1
            self.failures.append(f"{label}: {traceback.format_exc(limit=3)}")
            out = None
        return (t, time.monotonic()), out

    def check(self, out, pass_id, label):
        for op, ok, detail in self.wl.check(out):
            self.ops += 1
            if not ok:
                self.failures.append(f"{label}: {op}: {detail}")
        ref = self.reference
        if ref is not None and pass_id < len(ref["passes"]):
            from workloads import reference_mismatches
            bad = reference_mismatches(self.wl.quantities(out), ref["passes"][pass_id])
            self.ops += 1
            if bad:
                self.failures.append(f"{label}: reference mismatch: " + "; ".join(bad[:5]))


def _record(wl, seed, passes):
    data = json.loads(REFERENCE.read_text()) if REFERENCE.is_file() else {}
    data[wl.name] = {"seed": seed, "passes": [
        {k: list(v) for k, v in wl.quantities(wl.run(wl.inputs(_rng(seed, p)))).items()}
        for p in range(passes)]}
    REFERENCE.write_text(json.dumps(data, indent=1, sort_keys=True) + "\n")
    return {"recorded": wl.name, "passes": passes}


def main(argv=None):
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--t0", type=float, required=True,
                    help="time.monotonic() at which the parent started this process")
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--record", type=int, default=0, metavar="PASSES")
    args = ap.parse_args(argv)

    import speed
    sampler = speed.SpeedSampler()
    sampler.start(speed.SETUP_INTERVAL_S)
    sys.path.insert(0, str(SRC))
    import cyl
    if Path(cyl.__file__).resolve().parent != (SRC / "cyl").resolve():
        raise SystemExit(f"imported cyl from {cyl.__file__}, not from {SRC}")
    from workloads import WORKLOADS

    wl = WORKLOADS[args.workload]
    if args.record:
        sampler.stop()
        print(json.dumps(_record(wl, args.seed, args.record)))
        return
    inputs = wl.inputs(_rng(args.seed, 0))
    wl.warmup(_rng(args.seed, WARMUP_STREAM))
    setup_raw, setup_s = sampler.window(args.t0, time.monotonic())
    if args.setup_only:
        sampler.stop()
        print(json.dumps({"setup_s": setup_s, "raw_setup_s": setup_raw}))
        return
    sampler.set_interval(speed.INTERVAL_S)

    run = _Run(wl, args.seed)
    walls, raw_walls, traced_walls, per_pass = [], [], [], []
    tracer = None
    if args.trace:
        import tracing
        tracer = tracing.Tracer()
    start = time.monotonic()
    p = 0
    while True:
        if p:
            inputs = wl.inputs(_rng(args.seed, p))
        window, out = run.execute(inputs, f"pass {p}")
        raw, norm = sampler.window(*window)
        raw_walls.append(raw)
        walls.append(norm)
        if out is not None:
            run.check(out, p, f"pass {p}")
        if tracer is not None:
            tracer.pass_id = p
            inst = tracing.install(tracer)
            sid = tracer.begin("bench.pass")
            try:
                window, traced = run.execute(inputs, f"traced pass {p}")
            finally:
                tracer.end(sid)
                inst.uninstall()
            traced_norm = sampler.window(*window)[1]
            traced_walls.append(traced_norm)
            if traced is not None:
                run.check(traced, p, f"traced pass {p}")
                run.ops += 1
                if out is not None and wl.quantities(traced) != wl.quantities(out):
                    run.failures.append(f"traced pass {p}: outputs differ from the untraced pass")
            # span durations include the sampler's handler time, so the
            # factor maps the whole window onto its normalised length
            per_pass.append(tracing.pass_metrics(
                tracer.spans, p, traced_norm / (window[1] - window[0])))
        p += 1
        if time.monotonic() - start >= args.seconds:
            break
    sampler.stop()

    result = {
        "workload": wl.name, "seed": args.seed, "passes": p,
        "pass_walls": walls, "raw_pass_walls": raw_walls,
        "setup_s": setup_s, "raw_setup_s": setup_raw,
        "wall_s": statistics.median(walls),
        "raw_wall_s": statistics.median(raw_walls),
        "speed_samples": len(sampler.cost),
        "kernel_s": statistics.median(sampler.cost),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "ops": run.ops, "ops_failed": len(run.failures),
        "failures": run.failures[:20],
        "reference_checked": run.reference is not None,
        "environment": _environment(),
    }
    if tracer is not None:
        layer = tracing.combine(per_pass)
        untraced = statistics.median(walls)
        overhead = statistics.median(t - u for t, u in zip(traced_walls, walls))
        layer.update({
            "trace.untraced_wall_s": untraced,
            "trace.traced_wall_s": statistics.median(traced_walls),
            "trace.overhead_s": overhead,
            "trace.overhead_ratio": overhead / untraced,
        })
        result["per_layer"] = layer
        out_dir = ROOT / ".perfbench_out"
        out_dir.mkdir(exist_ok=True)
        spans = out_dir / f"spans-{wl.name}-seed{args.seed}.jsonl"
        tracer.write_jsonl(spans)
        result["spans_file"] = str(spans.relative_to(ROOT))
    print(json.dumps(result))


if __name__ == "__main__":
    main()
