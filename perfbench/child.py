"""One instance of one workload, run in a fresh process by run.py.

Prints one JSON object as its last stdout line: set-up and end times on
the shared monotonic clock, ops attempted and failed, the result digest,
peak RSS, and (traced) the per-layer metrics of this instance.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


class Steady:
    """Records the time of the first steady-loop call."""

    def __init__(self):
        self.at = None

    def __call__(self) -> None:
        if self.at is None:
            self.at = time.monotonic()

    def hook(self, module, attr: str) -> None:
        """Mark the steady loop at the first call of module.attr."""
        fn = getattr(module, attr)

        def first_call(*args, **kwargs):
            self()
            return fn(*args, **kwargs)

        setattr(module, attr, first_call)


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--size", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--run-id", required=True)
    args = ap.parse_args()

    sys.path.insert(0, str(SRC))
    import lgc.cli  # imports every layer; part of set-up
    if Path(lgc.__file__).resolve().parent != SRC / "lgc":
        print(f"child: lgc imported from {lgc.__file__}, not {SRC}",
              file=sys.stderr)
        return 2
    import mpmath
    import numpy

    from tracing import Tracer, layer_metrics
    from workloads import OUT, WORKLOADS, Outcome, expected_digest

    wl = WORKLOADS[args.workload]
    tracer = None
    if args.trace:
        tracer = Tracer(args.run_id)
        tracer.install()
    steady = Steady()
    try:
        res = wl.run(args.seed, args.size, steady)
    except Exception:
        res = Outcome(attempted=wl.ops(args.size))
        res.fail(res.attempted, traceback.format_exc())
    t_end = time.monotonic()
    want = expected_digest(wl.name, args.seed, args.size)
    if want is not None and res.digest != want:
        res.fail(res.attempted, f"digest {res.digest} != recorded {want}")
    report = {
        "steady_at": steady.at if steady.at is not None else t_end,
        "end_at": t_end,
        "attempted": res.attempted,
        "failed": res.failed,
        "problems": res.problems,
        "digest": res.digest,
        "digest_checked": want is not None,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "versions": {"numpy": numpy.__version__, "mpmath": mpmath.__version__},
    }
    if tracer is not None:
        tracer.write(OUT / f"{args.run_id}.spans.csv")
        report["layers"] = layer_metrics(tracer.spans)
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
