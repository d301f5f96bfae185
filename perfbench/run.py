"""Run one qmc benchmark workload and print its metrics.

    python3 perfbench/run.py --workload capacity --seed 1 --seconds 30 --trace 0

Run from the root of a checkout; the library is imported from ``src/``.
One client sends each request only after the previous result has come back
(a closed loop).  A run makes ``round(seconds / nominal pass seconds)`` passes
over the workload's request mix, so two runs with the same ``--seconds`` do
the same work.  Each result is re-checked outside the timed region.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` runs one pass in
which each request runs twice, untraced and with every layer call wrapped in
a span; it prints the per-layer metrics and writes the spans to
``.perfbench/trace-<workload>.jsonl``.  ``--workload all`` runs the three
workloads one after another, each in its own process.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

import os
import sys
import time

# one BLAS/OpenMP thread, set before numpy loads.  QMC_THREADS keeps its
# default (os.cpu_count()), so pool size x BLAS threads <= cores.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS", "BLIS_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import json
import platform
import resource
import statistics
import subprocess
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
TRACE_DIR = ROOT / ".perfbench"
WORKLOAD_NAMES = ("capacity", "sweep", "magic")
SETUP_SAMPLES = 3
CHILD_TIMEOUT_S = 170


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    # internal: set up once and print the set-up time
    ap.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return ap.parse_args(argv)


def import_library():
    """Put the checkout's src/ first on the path and make sure qmc comes from it."""
    if not (SRC / "qmc" / "__init__.py").is_file():
        raise SystemExit(f"no qmc package under {SRC}; run from the root of a qmc checkout")
    sys.path.insert(0, str(SRC))
    import qmc

    if Path(qmc.__file__).resolve().parent != (SRC / "qmc").resolve():
        raise SystemExit(f"imported qmc from {qmc.__file__}, not from {SRC}")
    import workloads

    return workloads


def pass_count(workloads, name: str, seconds: float) -> int:
    return max(1, round(seconds / workloads.WORKLOADS[name][1]))


# ---------------------------------------------------------------------------
# Requests
# ---------------------------------------------------------------------------


def run_request(req, refusal, tracer=None, request_id=None) -> dict:
    """Time one library call, then check its result outside the timed region."""
    if tracer is not None:
        tracer.request = request_id
        tracer.active = True
    out = error = None
    start = time.perf_counter()
    try:
        out = req.call() if tracer is None else tracer.span("request", req.call)
    except Exception as exc:  # every raise counts as a failed request
        error = exc
    latency = time.perf_counter() - start
    if tracer is not None:
        tracer.active = False
    record = {"kind": req.kind, "latency_s": latency, "bracket_bits": None}
    if error is not None:
        record["status"] = "refused" if isinstance(error, refusal) else "error"
        record["detail"] = f"{type(error).__name__}: {error}"
        return record
    try:
        verdict = req.check(out)
    except Exception as exc:
        record.update(status="error", detail=f"check raised {type(exc).__name__}: {exc}")
        return record
    record["status"] = "ok" if verdict.ok else "check-failed"
    record["detail"] = verdict.detail
    if verdict.ok:
        record["bracket_bits"] = verdict.bracket_bits
    return record


def setup(workloads, name: str, seed: int, passes: int):
    """Everything before the first timed request, including one warm-up request."""
    from qmc.magic import MrmInfError

    plan = workloads.WORKLOADS[name][0](seed, passes)
    warm = run_request(plan.warmup, MrmInfError)
    if warm["status"] != "ok":
        raise SystemExit(f"warm-up request {warm['kind']} failed: {warm['detail']}")
    return plan, MrmInfError


def since_process_start() -> float:
    """Seconds from the start of this process (kernel clock ticks since boot) to now."""
    with open("/proc/self/stat") as fh:
        fields = fh.read().rsplit(")", 1)[1].split()
    started = int(fields[19]) / os.sysconf("SC_CLK_TCK")
    return time.clock_gettime(time.CLOCK_BOOTTIME) - started


def setup_probes(args) -> list[float]:
    """Set up again in fresh processes, one after another; each reports its own set-up time."""
    samples = []
    for _ in range(SETUP_SAMPLES - 1):
        cmd = [
            sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
            "--seed", str(args.seed), "--seconds", str(args.seconds), "--setup-probe",
        ]
        done = subprocess.run(cmd, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S, check=True)
        samples.append(json.loads(done.stdout.strip().splitlines()[-1])["setup_s"])
    return samples


# ---------------------------------------------------------------------------
# Metrics
# ---------------------------------------------------------------------------


def tail_level(n: int) -> float:
    """p90 when at least ten samples lie beyond it; otherwise the highest
    level that keeps ten beyond, and never below the median."""
    return max(0.5, min(0.9, 1.0 - 10.0 / n))


def quantile(values, level: float) -> float:
    ordered = sorted(values)
    pos = level * (len(ordered) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def end_to_end(passes: list[list[dict]], setup_s: list[float]) -> tuple[dict, list[str]]:
    records = [r for p in passes for r in p]
    latencies_ms = [1e3 * r["latency_s"] for r in records]
    failed = sum(r["status"] != "ok" for r in records)
    brackets = [r["bracket_bits"] for r in records if r["bracket_bits"] is not None]
    level = tail_level(len(records))
    metrics = {
        "setup_s": (statistics.median(setup_s), "s"),
        "wall_s": (sum(r["latency_s"] for r in records), "s"),
        "req_p50_ms": (quantile(latencies_ms, 0.5), "ms"),
        "req_p90_ms": (quantile(latencies_ms, level), "ms"),
        "success_ratio": ((len(records) - failed) / len(records), "ratio"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        "bracket_bits_mean": (statistics.fmean(brackets) if brackets else 0.0, "bits"),
    }
    notes = [
        f"setup_s: median of {len(setup_s)} set-ups, this process's and fresh ones {[round(v, 4) for v in setup_s]}",
        f"wall_s: summed latencies of all {len(records)} requests in {len(passes)} passes",
        f"req_p90_ms: taken at percentile {100 * level:.1f} of {len(records)} requests "
        f"({len(records) - 1 - int(level * (len(records) - 1))} samples beyond it)",
        f"fail_ratio: {failed / len(records):.4f} ({failed} of {len(records)} requests failed)",
        f"bracket_bits_mean: over {len(brackets)} requests that carry a magic upper bound",
    ]
    by_kind = {}
    for r in records:
        by_kind.setdefault(r["kind"], []).append(1e3 * r["latency_s"])
    notes += [
        f"latency {kind}: {len(ms)} requests, median {statistics.median(ms):.1f} ms"
        for kind, ms in sorted(by_kind.items(), key=lambda kv: statistics.median(kv[1]))
    ]
    return metrics, notes


def per_layer(tracer, untraced_s: float, traced_s: float) -> dict:
    totals = tracer.layer_totals()
    counters = tracer.counters
    installed = {name for name, *_ in tracer.installed}

    def calls(span):
        return totals.get(span, {}).get("calls", 0)

    def seconds(span, key="self_s"):
        return totals.get(span, {}).get(key, 0.0)

    runs = counters["capacity.minimize.runs"]
    map_wall = seconds("parallel.map", "total_s")
    table = [
        ("capacity.solve.calls", "capacity.solve", calls("capacity.solve"), "count"),
        ("capacity.solve.self_s", "capacity.solve", seconds("capacity.solve"), "s"),
        ("capacity.minimize.nfev", "capacity.minimize", counters["capacity.minimize.nfev"], "count"),
        ("capacity.minimize.converged_ratio", "capacity.minimize",
         counters["capacity.minimize.converged"] / runs if runs else 0.0, "ratio"),
        ("capacity.ic.calls", "capacity.ic", calls("capacity.ic"), "count"),
        ("capacity.ic.self_s", "capacity.ic", seconds("capacity.ic"), "s"),
        ("channel.apply.calls", "channel.apply", calls("channel.apply"), "count"),
        ("channel.apply.self_s", "channel.apply", seconds("channel.apply"), "s"),
        ("channel.apply.us_per_call", "channel.apply",
         1e6 * seconds("channel.apply", "total_s") / max(calls("channel.apply"), 1), "us"),
        ("channel.choi.calls", "channel.choi", calls("channel.choi"), "count"),
        ("channel.choi.self_s", "channel.choi", seconds("channel.choi"), "s"),
        ("linalg.eig.calls", "linalg.eig", calls("linalg.eig"), "count"),
        ("linalg.eig.self_s", "linalg.eig", seconds("linalg.eig"), "s"),
        ("linalg.partial_trace.self_s", "linalg.partial_trace", seconds("linalg.partial_trace"), "s"),
        ("weyl.transform.calls", "weyl.transform", calls("weyl.transform"), "count"),
        ("weyl.transform.self_s", "weyl.transform", seconds("weyl.transform"), "s"),
        ("weyl.action.calls", "weyl.action", calls("weyl.action"), "count"),
        ("states.mean_state.self_s", "states.mean_state", seconds("states.mean_state"), "s"),
        ("states.family.self_s", "states.family", seconds("states.family"), "s"),
        ("magic.cone.calls", "magic.cone", calls("magic.cone"), "count"),
        ("magic.cone.self_s", "magic.cone", seconds("magic.cone"), "s"),
        ("magic.cone.cuts", "magic.cone", counters["magic.cone.cuts"], "count"),
        ("magic.cone.failed", "magic.cone", counters["magic.cone.failed"], "count"),
        ("magic.simplex.pivots", "magic.simplex", counters["magic.simplex.pivots"], "count"),
        ("magic.simplex.self_s", "magic.simplex", seconds("magic.simplex"), "s"),
        ("coding.fidelity.calls", "coding.fidelity", calls("coding.fidelity"), "count"),
        ("coding.fidelity.self_s", "coding.fidelity", seconds("coding.fidelity"), "s"),
        ("coding.decoder.self_s", "coding.decoder", seconds("coding.decoder"), "s"),
        ("parallel.map.wall_s", "parallel.map", map_wall, "s"),
        ("parallel.map.item_s", "parallel.map", seconds("parallel.item", "total_s"), "s"),
        ("parallel.map.speedup", "parallel.map",
         seconds("parallel.item", "total_s") / map_wall if map_wall else 0.0, "ratio"),
    ]
    metrics = {name: (value, unit) for name, span, value, unit in table if span in installed}
    metrics["trace.overhead_ratio"] = (traced_s / untraced_s, "ratio")
    return metrics


# ---------------------------------------------------------------------------
# Environment record and output
# ---------------------------------------------------------------------------


def git_commit() -> str:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unknown (not a git checkout)"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    ref_file = ROOT / ".git" / ref[5:]
    if ref_file.is_file():
        return ref_file.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref[5:]):
                return line.split()[0]
    return "unknown"


def environment(args, passes: list[list]) -> dict:
    import numpy
    import scipy

    blas = numpy.__config__.CONFIG.get("Build Dependencies", {}).get("blas", {})
    kinds = Counter(req.kind for p in passes for req in p)
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "passes": len(passes),
        "requests": sum(len(p) for p in passes),
        "kinds": dict(sorted(kinds.items())),
        "nproc": len(os.sched_getaffinity(0)),
        "os_cpu_count": os.cpu_count(),
        "qmc_threads": os.environ.get("QMC_THREADS", "default (os.cpu_count())"),
        "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "commit": git_commit(),
    }


def report(env: dict, records: list[dict], metrics: dict, notes: list[str]) -> None:
    print("# environment " + json.dumps(env))
    for r in records:
        if r["status"] != "ok":
            print(f"# {r['status'].upper()} {r['kind']} ({1e3 * r['latency_s']:.1f} ms): {r['detail']}")
    for name, (value, unit) in metrics.items():
        print(f"{env['workload']:9s} {name:36s} {value:14.6f} {unit}")
    for note in notes:
        print("# " + note)
    errors = sum(r["status"] in ("error", "check-failed") for r in records)
    refused = sum(r["status"] == "refused" for r in records)
    correct = errors == 0
    print(
        f"# verdict: {'correct' if correct else 'INCORRECT'} "
        f"({errors} wrong results or errors, {refused} refused, {len(records)} attempted)"
    )
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": len(records),
                "failed": errors + refused,
                "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
            }
        )
    )


def main_untraced(args, workloads) -> int:
    plan, refusal = setup(workloads, args.workload, args.seed, pass_count(workloads, args.workload, args.seconds))
    samples = [since_process_start()] + setup_probes(args)
    results = [[run_request(req, refusal) for req in p] for p in plan.passes]
    metrics, notes = end_to_end(results, samples)
    report(environment(args, plan.passes), [r for p in results for r in p], metrics, notes)
    return 0


def main_traced(args, workloads) -> int:
    from layers import LayerTracer

    tracer = LayerTracer()
    tracer.install()
    tracer.request = "setup"
    tracer.active = True
    plan, refusal = setup(workloads, args.workload, args.seed, 1)
    tracer.active = False
    tracer.uninstall()
    requests = plan.passes[0]
    untraced, traced = [], []
    for i, req in enumerate(requests):
        # each request runs untraced and traced back to back, in alternating
        # order, so both see the same machine state and the same warm caches
        for with_trace in ((False, True) if i % 2 == 0 else (True, False)):
            if with_trace:
                tracer.install()
                traced.append(run_request(req, refusal, tracer, i))
                tracer.uninstall()
            else:
                untraced.append(run_request(req, refusal))
    untraced_s = sum(r["latency_s"] for r in untraced)
    traced_s = sum(r["latency_s"] for r in traced)
    metrics = per_layer(tracer, untraced_s, traced_s)
    env = environment(args, [requests, requests])
    TRACE_DIR.mkdir(exist_ok=True)
    path = TRACE_DIR / f"trace-{args.workload}.jsonl"
    tracer.write(path, {"environment": env, "missing": tracer.missing, "counters": dict(tracer.counters)})
    notes = [
        f"one pass, each request untraced ({untraced_s:.3f} s in all) and traced ({traced_s:.3f} s in all)",
        f"counts cover the traced set-up and the traced pass; {len(tracer.spans)} spans in {path.name}",
    ]
    if tracer.missing:
        notes.append("not in this library, so left out: " + ", ".join(tracer.missing))
    report(env, untraced + traced, metrics, notes)
    return 0


def main_all(args) -> int:
    """Each workload in its own process, then one combined summary line."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOAD_NAMES:
        cmd = [
            sys.executable, str(Path(__file__).resolve()), "--workload", name, "--seed", str(args.seed),
            "--seconds", str(args.seconds), "--trace", str(args.trace),
        ]
        done = subprocess.run(cmd, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S * 4)
        sys.stderr.write(done.stderr)
        lines = done.stdout.strip().splitlines()
        if done.returncode != 0 or not lines:
            raise SystemExit(f"workload {name} exited with {done.returncode}")
        print("\n".join(lines[:-1]))
        result = json.loads(lines[-1])
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for key, value in result["metrics"].items():
            combined["metrics"][f"{name}.{key}"] = value
    print(json.dumps(combined))
    return 0


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.workload == "all":
        return main_all(args)
    workloads = import_library()
    if args.setup_probe:
        setup(workloads, args.workload, args.seed, pass_count(workloads, args.workload, args.seconds))
        print(json.dumps({"setup_s": since_process_start()}))
        return 0
    if args.trace:
        return main_traced(args, workloads)
    return main_untraced(args, workloads)


if __name__ == "__main__":
    sys.exit(main())
