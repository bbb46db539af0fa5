"""Benchmark of the rigged library and CLI.

Run from the root of a checkout:

    python3 perfbench/run.py --workload grid --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 30 --trace 0

``--trace 0`` times the workload untraced and reports the end-to-end metrics;
``--trace 1`` adds one traced repetition and reports the per-layer metrics.
The last line of standard output is one JSON object
``{"correct", "attempted", "failed", "metrics"}``; a full record goes to
``perfbench/out/``.  The exit code is 0 only when every operation's output
was correct; it is 2 when the library cannot be imported from ``src/``.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
SETUP_SAMPLES = 9
WORKLOAD_NAMES = ("grid", "bijection", "characters")


def _git_sha() -> str:
    """HEAD of the checkout, read from .git without running git; 'unknown' outside a repository."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def _child_env() -> dict[str, str]:
    env = dict(os.environ)
    env.pop("RIGGED_DEBUG", None)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def measure_setup() -> float:
    """Median wall time of a fresh interpreter until ``import rigged, rigged.cli`` returns."""
    cmd = [sys.executable, "-c", "import rigged, rigged.cli"]
    env = _child_env()
    times = []
    for i in range(SETUP_SAMPLES + 1):
        t0 = time.perf_counter()
        subprocess.run(cmd, env=env, cwd=ROOT, check=True, stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL)
        if i:  # the first start may compile bytecode; users pay that once
            times.append(time.perf_counter() - t0)
    return statistics.median(times)


def load_library() -> str | None:
    """Import rigged from this checkout's src/; returns an error message on failure."""
    # Timed runs never inherit the debug double-computations (about +25%).
    os.environ.pop("RIGGED_DEBUG", None)
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    try:
        import rigged.cli
    except ImportError as exc:
        return f"cannot import rigged from {SRC}: {exc}"
    if Path(rigged.cli.__file__).resolve().parent.parent != SRC.resolve():
        return f"rigged was imported from {rigged.cli.__file__}, not from {SRC}"
    return None


def clear_caches() -> None:
    """Cold caches on every repetition: every CLI invocation starts with them empty."""
    from rigged import identities, qseries

    qseries.q_binomial.cache_clear()
    identities._iota.cache_clear()


def repeat(rep, inputs, gate, seconds: float) -> list:
    """Run whole repetitions while the next one is expected to fit in ``seconds``; at least one."""
    from workloads import Meter

    meters = []
    start = time.perf_counter()
    while True:
        clear_caches()
        gc.collect()
        meters.append(Meter())
        rep(inputs, gate, meters[-1])
        elapsed = time.perf_counter() - start
        if elapsed * (len(meters) + 1) / len(meters) > seconds:
            return meters


def percentile_ms(samples: list[float], p: int) -> float:
    """p-th percentile in ms; 0 when fewer than 10 samples lie beyond it (or none exist)."""
    if len(samples) * (100 - p) < 1000:
        return 0.0
    return statistics.quantiles(samples, n=100, method="inclusive")[p - 1] * 1e3


def measure_trace(rep, inputs, gate):
    """One traced repetition: per-layer metrics, layer shares, the spans, and the traced calls' wall time."""
    from rigged import identities, qseries

    import spans
    from workloads import Meter

    clear_caches()
    gc.collect()
    rec = spans.Recorder()
    meter = Meter(calibrate=False)
    traced_wall = spans.traced(lambda: rep(inputs, gate, meter), rec)
    layer, shares = spans.layer_metrics(rec, traced_wall)
    qb, ic = qseries.q_binomial.cache_info(), identities._iota.cache_info()
    layer["qseries.q_binomial.misses"] = qb.misses
    layer["qseries.q_binomial.hit_ratio"] = qb.hits / max(1, qb.hits + qb.misses)
    layer["identities.iota_cache.hit_ratio"] = ic.hits / max(1, ic.hits + ic.misses)
    return layer, shares, rec, meter.raw_s


def run(workload: str, seed: int, seconds: float, trace: bool) -> int:
    from workloads import WORKLOADS, Gate

    make_inputs, rep = WORKLOADS[workload]
    meta = {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "git_sha": _git_sha(),
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "RIGGED_DEBUG": os.environ.get("RIGGED_DEBUG", "unset"),
    }
    print(" ".join(f"{k}={v}" for k, v in meta.items()), flush=True)

    gate = Gate()
    inputs = make_inputs(seed)
    metrics: dict[str, tuple[float, str]] = {}
    notes: dict[str, str] = {}
    if not trace:
        metrics["setup_s"] = (measure_setup(), "s")
        notes["setup_s"] = f"median of {SETUP_SAMPLES} fresh interpreters"
    meters = repeat(rep, inputs, gate, seconds / 2 if trace else seconds)
    wall_s = statistics.median(m.raw_s for m in meters)
    latencies = {kind: [dt for m in meters for dt in m.samples[kind]] for kind in ("iota", "kappa")}
    if not trace:
        metrics["wall_ref"] = (statistics.median(m.ref for m in meters), "ref")
        notes["wall_ref"] = f"median of {len(meters)} repetitions, in reference-loop units"
        metrics["peak_rss_mb"] = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB")
        print(f"  {'wall_s':<40} {wall_s:.6g} s  median of {len(meters)} repetitions, raw (not gated: host drift)")
        for kind, samples in latencies.items():
            for p in (50, 90):
                if percentile_ms(samples, p):
                    print(f"  {f'{kind}_p{p}_ms':<40} {percentile_ms(samples, p):.6g} ms  over {len(samples)} calls")
    else:
        layer, shares, rec, traced_s = measure_trace(rep, inputs, gate)
        layer["trace.overhead_s"] = traced_s - wall_s
        for kind, samples in latencies.items():
            for p in (50, 90):
                layer[f"bijection.{kind}.p{p}_ms"] = percentile_ms(samples, p)
        for name, value in layer.items():
            metrics[name] = (value, _unit(name))
        notes["trace.overhead_s"] = f"traced {traced_s:.4f} s - untraced median {wall_s:.4f} s"
        rec.write(OUT / f"trace-{workload}", meta)
        print("self-time share of the traced wall, by layer:")
        for name, share in sorted(shares.items(), key=lambda kv: -kv[1]):
            print(f"  {name:<14} {100 * share:6.2f} %")
        print(f"  {'sum':<14} {100 * sum(shares.values()):6.2f} %   "
              f"trace.overhead_s {layer['trace.overhead_s']:.4f} s  ({len(rec.start)} spans)")
    for name, (value, unit) in metrics.items():
        print(f"  {name:<40} {value:.6g} {unit}  {notes.get(name, '')}".rstrip())
    fail_ratio = gate.failed / max(1, gate.attempted)
    print(f"  {'fail_ratio':<40} {fail_ratio:.6g}  {gate.failed} of {gate.attempted} operations")
    for witness in gate.witnesses:
        print(f"  FAILED: {witness}")

    result = {
        "correct": gate.failed == 0,
        "attempted": gate.attempted,
        "failed": gate.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    OUT.mkdir(exist_ok=True)
    record = dict(meta, **result, fail_ratio=fail_ratio, wall_s=wall_s, witnesses=gate.witnesses,
                  repetitions=[{"raw_s": m.raw_s, "ref": m.ref, "reference_s": m.reference_s} for m in meters])
    (OUT / f"{workload}-seed{seed}-trace{int(trace)}.json").write_text(json.dumps(record, indent=1))
    print(json.dumps(result), flush=True)
    return 0 if gate.failed == 0 else 1


def _unit(name: str) -> str:
    if name.endswith("_ratio"):
        return "ratio"
    if name.endswith("_ms"):
        return "ms"
    if name.endswith("_s"):
        return "s"
    return "count"


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if args.workload == "all":
        # One child per workload, so each reports its own peak RSS.
        codes = []
        for name in WORKLOAD_NAMES:
            cmd = [sys.executable, str(HERE / "run.py"), "--workload", name, "--seed", str(args.seed),
                   "--seconds", str(args.seconds), "--trace", str(args.trace)]
            codes.append(subprocess.run(cmd, cwd=ROOT, stdin=subprocess.DEVNULL).returncode)
        return max(codes)

    error = load_library()
    if error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    return run(args.workload, args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())
