"""Benchmark of contourchain: one workload per process, one caller, closed loop.

    python3 perfbench/run.py --workload annulus_verify --seed 101 --seconds 36 --trace 0

Run from the root of a checkout; the package is imported from ``src/`` there
and from nowhere else.  Each operation starts when the previous one ends and
is checked against values the benchmark computes apart from the package (see
``checks.py``); checks run between operations, outside the timed spans.  The
round of operations is repeated, always whole, for about ``--seconds``.

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` alternates untraced
and traced rounds and prints the per-layer metrics of the traced ones (see
``tracing.py``).  The last line of standard output is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``; the same object and, when
traced, the spans are written under ``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
OUT = HERE / "out"

WORKLOADS = ("annulus_verify", "tight_chain", "near_pole_integrals")

# Fresh interpreters timed for setup_s, spread evenly over the run so that
# they see the same machine conditions as the operations; the median is reported.
SETUP_PROBES = 7


def setup(workload: str, seed: int):
    """Import the package from the checkout and build the workload's operations."""
    start = time.perf_counter()
    sys.path.insert(0, str(SRC))
    import contourchain
    if not Path(contourchain.__file__).resolve().is_relative_to(SRC):
        raise ImportError(f"contourchain imported from {contourchain.__file__}, not from {SRC}")
    import workloads
    ops = workloads.build(workload, seed)
    return ops, time.perf_counter() - start


def setup_probe(workload: str, seed: int) -> float:
    """Set-up time in a fresh interpreter, as timed by ``setup`` there."""
    probe = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
         "--workload", workload, "--seed", str(seed)],
        capture_output=True, text=True, timeout=120, check=True)
    return float(probe.stdout.split()[-1])


def measure(ops, seconds: float, tracer=None, probe=None) -> dict:
    """Run whole rounds for about ``seconds``; with a tracer, every other round is traced.

    The run stops at the round boundary nearest to ``seconds``: another round
    starts only while half of the last round's time still fits.  ``probe``,
    when given, is called SETUP_PROBES times between rounds, at even intervals
    of the run; the run's clock includes the probes.
    """
    from checks import CheckFailed

    samples = []  # (family, wall, cpu, traced) per successful operation, in order
    attempted = failed = 0
    correct = True
    setups = []
    probes_due = [k * seconds / SETUP_PROBES for k in range(SETUP_PROBES)] if probe else []
    rounds, last_round = 0, 0.0
    start = time.perf_counter()
    while rounds < (2 if tracer else 1) or time.perf_counter() - start + last_round / 2 < seconds:
        while probes_due and time.perf_counter() - start >= probes_due[0]:
            setups.append(probe())
            probes_due.pop(0)
        round_start = time.perf_counter()
        traced = tracer is not None and rounds % 2 == 1
        if traced:
            tracer.install()
        for op in ops:
            attempted += 1
            if traced:
                tracer.op_id = attempted
            w0, c0 = time.perf_counter(), time.process_time()
            try:
                out = op.run()
            except Exception as exc:  # a failed operation is counted, the run goes on
                failed += 1
                print(f"operation {op.family} failed: {type(exc).__name__}: {exc}", file=sys.stderr)
                continue
            wall, cpu = time.perf_counter() - w0, time.process_time() - c0
            try:
                op.check(out)
            except CheckFailed as exc:
                failed += 1
                correct = False
                print(f"operation {op.family} gave a wrong output: {exc}", file=sys.stderr)
                continue
            finally:
                del out
            samples.append((op.family, wall, cpu, traced))
        if traced:
            tracer.uninstall()
        rounds += 1
        last_round = time.perf_counter() - round_start
    setups += [probe() for _ in probes_due]
    return {"samples": samples, "setups": setups, "attempted": attempted, "failed": failed,
            "correct": correct}


def _walls(run: dict, traced: bool) -> list[float]:
    return [wall for _, wall, _, t in run["samples"] if t == traced]


def end_to_end(run: dict) -> dict:
    walls = _walls(run, False)
    cpu = sum(c for _, _, c, _ in run["samples"])
    return {
        "op_p50_s": (statistics.median(walls), "s"),
        "ops_per_s": (len(walls) / sum(walls), "1/s"),
        "cpu_s_per_op": (cpu / len(walls), "s"),
        "peak_rss_mib": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MiB"),
        "setup_s": (statistics.median(run["setups"]), "s"),
    }


def per_layer(run: dict, tracer) -> dict:
    traced = _walls(run, True)
    metrics = tracer.metrics(len(traced))
    traced_p50 = statistics.median(traced)
    metrics["trace.op_p50_s"] = (traced_p50, "s")
    metrics["trace.overhead_s"] = (traced_p50 - statistics.median(_walls(run, False)), "s")
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true",
                        help="time set-up in this interpreter, print the seconds, and exit")
    args = parser.parse_args(argv)

    if not (SRC / "contourchain" / "__init__.py").is_file():
        print(f"error: no package source at {SRC}; run from a checkout of the repository",
              file=sys.stderr)
        return 2
    if args.setup_probe:
        print(setup(args.workload, args.seed)[1])
        return 0

    ops, _ = setup(args.workload, args.seed)
    try:
        ops[0].run()  # warm-up: first-call costs stay out of the timed loop
    except Exception:  # the timed loop counts and reports the failure
        pass

    tracer = probe = None
    if args.trace:
        import tracing
        tracer = tracing.Tracer()
    else:
        def probe():
            return setup_probe(args.workload, args.seed)
    run = measure(ops, args.seconds, tracer, probe)
    if not _walls(run, False) or (tracer and not _walls(run, True)):
        print("error: no operation succeeded; nothing to report", file=sys.stderr)
        return 1
    metrics = per_layer(run, tracer) if tracer else end_to_end(run)

    result = {"correct": run["correct"], "attempted": run["attempted"], "failed": run["failed"],
              "metrics": {name: {"value": value, "unit": unit}
                          for name, (value, unit) in metrics.items()}}
    OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    record = dict(result, samples=run["samples"])
    (OUT / f"{stem}.json").write_text(json.dumps(record) + "\n", encoding="utf-8")
    if tracer:
        tracer.write(OUT / f"{stem}-spans.csv")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
