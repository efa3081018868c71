"""lgc benchmark: run a workload in fresh single-threaded processes and report.

    python3 perfbench/run.py --workload NAME|all [--seed N] [--seconds S]
                             [--trace 0|1] [--size default|tiny|N]

Run from the repository root.  Each instance of the workload runs in its
own child process (perfbench/child.py) with lgc's threads and the
BLAS/OpenMP threads pinned to 1; instances repeat until --seconds have
passed.  With --trace 0 the end-to-end metrics are the medians over the
instances.  With --trace 1 instances alternate untraced and traced; the
per-layer metrics come from the traced ones, and the tracing overhead is
the difference of the two wall-time medians.

The last stdout line is one JSON object with the keys correct, attempted,
failed and metrics.  The full result, with the machine facts, is written
to perfbench/out/<workload>.trace<0|1>.json.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

from tracing import EXACT, UNITS, combine
from workloads import OUT, WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RUN_SECONDS = 30
DEADLINE_S = 165.0  # every run must end within 180 s

PINNED_ENV = {
    "LGC_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "NUMEXPR_NUM_THREADS": "1",
    "VECLIB_MAXIMUM_THREADS": "1",
    "PYTHONHASHSEED": "0",
}

END_TO_END_UNITS = {"wall_s": "s", "setup_s": "s", "ops_per_s": "ops/s",
                    "peak_rss_mb": "MB"}


def machine_facts() -> dict:
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh
                        if ln.startswith("model name")), cpu)
    except OSError:
        pass
    return {"nproc": os.cpu_count(),
            "usable_cpus": len(os.sched_getaffinity(0)),
            "cpu_model": cpu,
            "python": platform.python_version(),
            "platform": platform.platform(),
            "pinned_env": PINNED_ENV}


def run_instance(name: str, seed: int, size: int, trace: int, run_id: str,
                 timeout: float) -> dict:
    """Spawn one child and time it from spawn to exit."""
    cmd = [sys.executable, str(HERE / "child.py"), "--workload", name,
           "--seed", str(seed), "--size", str(size), "--trace", str(trace),
           "--run-id", run_id]
    env = dict(os.environ, **PINNED_ENV)
    t0 = time.monotonic()
    proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                            text=True)
    try:
        out, _ = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        return {"ok": False, "trace": trace,
                "problems": [f"instance passed its {timeout:.0f} s limit"]}
    wall = time.monotonic() - t0
    lines = out.strip().splitlines()
    if proc.returncode != 0 or not lines:
        return {"ok": False, "trace": trace,
                "problems": [f"child exited with {proc.returncode}"]}
    rep = json.loads(lines[-1])
    rep.update(ok=True, trace=trace, wall_s=wall,
               setup_s=rep["steady_at"] - t0)
    return rep


def run_workload(name: str, seed: int, size: int, seconds: int,
                 trace: int) -> dict:
    wl = WORKLOADS[name]
    OUT.mkdir(exist_ok=True)
    for old in OUT.glob(f"{name}-*.spans.csv"):
        old.unlink()
    start = time.monotonic()
    instances: list = []
    # trace 1 alternates untraced and traced instances, starting untraced;
    # stop once the next instance would more likely than not end past `seconds`
    while True:
        elapsed = time.monotonic() - start
        kinds = {r["trace"] for r in instances}
        walls = [r["wall_s"] for r in instances if r["ok"]]
        typical = statistics.median(walls) if walls else 0.0
        done = (elapsed + 0.5 * typical >= seconds
                and 0 in kinds and trace in kinds)
        if done or elapsed >= DEADLINE_S - 10.0:
            break
        kind = trace and len(instances) % 2
        run_id = f"{name}-{seed}-{len(instances)}"
        rep = run_instance(name, seed, size, kind, run_id,
                           DEADLINE_S - elapsed)
        if not rep["ok"]:
            rep.update(attempted=wl.ops(size), failed=wl.ops(size))
        instances.append(rep)

    attempted = sum(r["attempted"] for r in instances)
    failed = sum(r["failed"] for r in instances)
    problems = [p for r in instances for p in r["problems"]]
    good = [r for r in instances if r["ok"]]
    plain = [r for r in good if r["trace"] == 0]
    traced = [r for r in good if r["trace"] == 1]
    correct = failed == 0 and len(good) == len(instances) and bool(plain)

    e2e = {}
    if plain:
        e2e = {
            "wall_s": statistics.median(r["wall_s"] for r in plain),
            "setup_s": statistics.median(r["setup_s"] for r in plain),
            "ops_per_s": statistics.median(
                r["attempted"] / (r["wall_s"] - r["setup_s"]) for r in plain),
            "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in plain),
        }
    layers = {}
    if trace:
        correct = correct and bool(traced)
        if traced:
            per = [r["layers"] for r in traced]
            for key in EXACT:
                if len({m[key] for m in per}) > 1:
                    correct = False
                    problems.append(f"{key} differs between traced instances: "
                                    f"{[m[key] for m in per]}")
            layers = combine(per)
            if plain:
                traced_wall = statistics.median(r["wall_s"] for r in traced)
                layers["trace.overhead_s"] = traced_wall - e2e["wall_s"]
                layers["trace.overhead_frac"] = (layers["trace.overhead_s"]
                                                 / e2e["wall_s"])
    units = UNITS if trace else END_TO_END_UNITS
    metrics = {k: {"value": v, "unit": units[k]}
               for k, v in (layers if trace else e2e).items()}
    facts = machine_facts()
    facts["versions"] = good[0]["versions"] if good else {}
    result = {
        "workload": name, "seed": seed, "size": size,
        "run_seconds": seconds, "trace": trace, "facts": facts,
        "correct": correct, "attempted": attempted, "failed": failed,
        "fail_frac": failed / attempted, "problems": problems,
        "metrics": metrics,
        "instances": [{k: v for k, v in r.items() if k != "layers"}
                      for r in instances],
    }
    (OUT / f"{name}.trace{trace}.json").write_text(
        json.dumps(result, indent=2) + "\n")
    return result


def _size(text: str):
    if text in ("default", "tiny"):
        return text
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError("size must be >= 1")
    return value


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", default="all",
                    choices=["all", *WORKLOADS])
    ap.add_argument("--seed", type=int,
                    help="workload seed (default: the acceptance suite's)")
    ap.add_argument("--seconds", type=int, default=RUN_SECONDS)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--size", type=_size, default="default",
                    help="ops per instance: default, tiny, or a number")
    args = ap.parse_args()
    if args.seed is not None and not 0 <= args.seed < 2 ** 63:
        ap.error("seed must be in [0, 2^63)")
    if not 1 <= args.seconds <= 120:
        ap.error("seconds must be in [1, 120]")
    if not (ROOT / "src" / "lgc" / "__init__.py").is_file():
        print(f"run.py: no lgc sources under {ROOT / 'src'}; run from a "
              "checkout of the repository", file=sys.stderr)
        return 2

    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    results = []
    for name in names:
        wl = WORKLOADS[name]
        seed = wl.default_seed if args.seed is None else args.seed
        size = {"default": wl.default_size,
                "tiny": wl.tiny_size}.get(args.size, args.size)
        res = run_workload(name, seed, size, args.seconds, args.trace)
        results.append(res)
        n_inst = len(res["instances"])
        print(f"{name}: seed {seed}, size {size}, {n_inst} instances, "
              f"correct {res['correct']}, fail_frac {res['fail_frac']:.3g} "
              f"({res['failed']}/{res['attempted']})")
        for key, m in res["metrics"].items():
            print(f"  {key:34s} {m['value']:>16.6g} {m['unit']}")
        for prob in res["problems"]:
            print(f"  problem: {prob}", file=sys.stderr)
    if len(results) == 1:
        metrics = results[0]["metrics"]
    else:
        metrics = {f"{r['workload']}.{k}": m for r in results
                   for k, m in r["metrics"].items()}
    print(json.dumps({"correct": all(r["correct"] for r in results),
                      "attempted": sum(r["attempted"] for r in results),
                      "failed": sum(r["failed"] for r in results),
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
