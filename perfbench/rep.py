"""One benchmark repetition, in a fresh interpreter.

``run.py`` starts this script once per repetition so that no
in-process memo (``repro.experiments.runner``'s ``_CACHE``) survives
from one repetition to the next.  It sets up, runs the workload once,
and writes one JSON record to ``--out``::

    python3 perfbench/rep.py --workload kernel-long --seed 1 \\
        --workdir .perfbench/tmp/rep0 --spawned-at <monotonic> --out rep.json

The calibration loop runs just before and just after the timed window;
``run.py`` uses it to express times at a reference host speed.  With
``--trace 1`` the layer wrappers of ``tracing.py`` are installed after
set-up and the record carries the per-layer metrics.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time
from pathlib import Path

ROOT = Path.cwd()
sys.path.insert(0, str(ROOT / "src"))


def cpu_seconds() -> float:
    """User plus system time of this process and its reaped children."""
    total = 0.0
    for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN):
        usage = resource.getrusage(who)
        total += usage.ru_utime + usage.ru_stime
    return total


class _Node:
    __slots__ = ("value", "next")

    def __init__(self, value, nxt):
        self.value = value
        self.next = nxt


def calibration_s() -> float:
    """Time of a fixed pure-Python loop shaped like the simulator's work
    (small objects, attribute and dict traffic): the host's current
    speed.  It runs no program code, so a change to the program cannot
    move it."""
    start = time.perf_counter()
    table = {}
    head = None
    total = 0
    for i in range(300_000):
        head = _Node(i, head if i % 64 else None)
        table[i & 1023] = head
        slot = (i * 7) & 1023
        total += table[slot].value if slot in table else 0
        if i % 3 == 0:
            total ^= len(table)
    return time.perf_counter() - start


def peak_rss_mb() -> float:
    """Largest resident set of this process or any reaped child."""
    return max(
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss,
    ) / 1024.0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--spawned-at", type=float, required=True,
                        help="time.monotonic() when the parent started us")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--plant", action="append", default=[],
                        metavar="SPAN=SECONDS",
                        help="sleep inside every span of that name (traced "
                             "runs only; the attribution self-test)")
    args = parser.parse_args(argv)

    import repro  # noqa: F401 - import cost belongs to set-up
    from workloads import WORKLOADS

    workdir = Path(args.workdir)
    workload = WORKLOADS[args.workload](args.seed, workdir)
    workload.setup()
    recorder = None
    if args.trace:
        import tracing

        plant = {}
        for item in args.plant:
            name, _, seconds = item.partition("=")
            plant[name] = float(seconds)
        spool = workdir / "spans"
        spool.mkdir()
        recorder = tracing.Recorder(spool, plant)
        tracing.install(recorder)
    record = {"setup_s": time.monotonic() - args.spawned_at}
    try:
        if not args.setup_only:
            before = calibration_s()
            ready = time.monotonic()
            cpu_start = cpu_seconds()
            if recorder is not None:
                recorder.active = True
            workload.run()
            done = time.monotonic()
            cpu_end = cpu_seconds()
            if recorder is not None:
                recorder.active = False
            after = calibration_s()
            outputs = workload.outputs()
            record.update(
                wall_s=done - ready,
                cpu_s=cpu_end - cpu_start,
                calibration_s=(before + after) / 2,
                outputs=outputs,
            )
            if recorder is not None:
                record["layers"] = tracing.layer_metrics(
                    recorder.collect(), (ready, done)
                )
    finally:
        workload.teardown()
    record["peak_rss_mb"] = peak_rss_mb()
    Path(args.out).write_text(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())
