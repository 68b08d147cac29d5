"""Run one benchmark workload of cylcoh and print its metrics.

    python3 perfbench/run.py --workload identity --seed 1 --seconds 20 --trace 0

The package is imported from src/ of the checkout this file sits in.
One process runs one workload as a closed loop: each operation starts
when the previous one ends, with no threads beyond OpenBLAS's own.

Set-up (setup_s) is the import, the median of three builds of the
inputs (forms, covers and partitions of unity, reference values), and
one warm-up operation, which pays the first-call costs.  The timed phase
then repeats whole rounds of the workload's operations until --seconds
have passed, checking each output as its operation returns (see
workloads.py).  With --trace 0 the end-to-end metrics are printed; with
--trace 1 the run records spans around each layer and prints the
per-layer metrics instead.  The last line of standard output is the JSON
result; a record with the machine header, and the spans of a traced
run, go to perfbench/results/.
"""

import argparse
import json
import os
import platform
import resource
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
RESULTS = HERE / "results"
SETUP_REPEATS = 3


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=["identity", "glue", "criterion"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    return ap.parse_args(argv)


def blas_info():
    """Name and thread count of the OpenBLAS that numpy loaded, read
    through its C API; None where the library does not export them."""
    import ctypes

    path = None
    try:
        with open("/proc/self/maps") as fh:
            for line in fh:
                if "openblas" in line.lower():
                    path = line.split()[-1]
                    break
    except OSError:  # no /proc: not Linux
        pass
    if path is None:
        return {"name": None, "threads": None}
    lib = ctypes.CDLL(path)
    for prefix in ("scipy_openblas_", "openblas_"):
        for suffix in ("64_", ""):
            get_threads = getattr(lib, f"{prefix}get_num_threads{suffix}", None)
            get_config = getattr(lib, f"{prefix}get_config{suffix}", None)
            if get_threads is not None and get_config is not None:
                get_threads.restype = ctypes.c_int
                get_config.restype = ctypes.c_char_p
                return {"name": get_config().decode(), "threads": get_threads()}
    return {"name": None, "threads": None}


def header():
    import numpy

    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": blas_info(),
        "machine": platform.machine(),
    }


def timed_rounds(ops, seconds, wrap=None):
    """Run whole rounds of ops until `seconds` have passed.

    Each output is checked as soon as its operation returns, outside the
    operation's timing, and then dropped, so memory does not grow with
    the number of rounds.  An operation fails when it raises or its check
    says FAILED; any other check message is a wrong output.  Returns the
    per-operation durations, rounds, failed count, raised errors, wrong
    outputs and the largest residual."""
    from workloads import FAILED

    runs = [wrap("op", op.run) if wrap else op.run for op in ops]
    durations, raised, wrong = [], [], []
    rounds = failed = 0
    residual = None
    start = time.perf_counter()
    while True:
        for op, run in zip(ops, runs):
            t = time.perf_counter()
            try:
                out = run()
            except Exception as exc:  # a raising operation counts as failed
                durations.append(time.perf_counter() - t)
                failed += 1
                raised.append(f"{op.label}: {exc!r}")
                continue
            durations.append(time.perf_counter() - t)
            status, res = op.check(out)
            del out  # before the next operation allocates its own
            if status == FAILED:
                failed += 1
            elif status != "ok":
                wrong.append(f"{op.label}: {status}")
            if res is not None:
                residual = res if residual is None else max(residual, res)
        rounds += 1
        if time.perf_counter() - start >= seconds:
            return durations, rounds, failed, raised, wrong, residual


def main(argv=None):
    args = parse_args(argv)
    t0 = time.perf_counter()
    if not (SRC / "cylcoh" / "__init__.py").is_file():
        print(f"run.py: no cylcoh sources at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import cylcoh  # noqa: F401  (numpy comes with it)
    import_s = time.perf_counter() - t0

    import tracing
    import workloads

    wl = workloads.WORKLOADS[args.workload](args.seed)
    prep = []
    for _ in range(SETUP_REPEATS):
        t = time.perf_counter()
        wl.prepare()
        prep.append(time.perf_counter() - t)
    t = time.perf_counter()
    wl.warmup()
    warm_s = time.perf_counter() - t
    setup_s = import_s + statistics.median(prep) + warm_s

    ops = wl.round()
    tracer = tracing.Tracer() if args.trace else None
    if tracer:
        tracer.install()
    try:
        durations, rounds, failed, raised, wrong, residual = timed_rounds(
            ops, args.seconds, tracer.wrap if tracer else None)
    finally:
        if tracer:
            tracer.uninstall()
    wrong += wl.final_checks()
    op_time = sum(durations)

    if tracer:
        metrics = tracer.layer_metrics(rounds)
    else:
        metrics = {
            "setup_s": {"value": setup_s, "unit": "s"},
            "ops_per_s": {"value": len(durations) / op_time, "unit": "1/s"},
            "op_p50_s": {"value": statistics.median(durations), "unit": "s"},
            "peak_rss_mb": {"value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                            "unit": "MiB"},
            "residual_max": {"value": residual, "unit": "1"},
        }
    result = {"correct": not wrong, "attempted": len(durations), "failed": failed,
              "metrics": metrics}

    RESULTS.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    record = {
        "header": header(), "args": vars(args), "rounds": rounds,
        "ops_per_round": len(ops), "op_time_s": op_time,
        "round_op_s": [sum(durations[i:i + len(ops)])
                       for i in range(0, len(durations), len(ops))],
        "setup": {"import_s": import_s, "prepare_s": prep, "warmup_s": warm_s},
        "raised": raised[:50], "wrong": wrong[:50], "result": result,
    }
    (RESULTS / f"{stem}.json").write_text(json.dumps(record, indent=1) + "\n")
    if tracer:
        tracer.dump(RESULTS / f"{stem}-spans.jsonl")
    print(json.dumps({"header": record["header"]}))
    for line in wrong[:20]:
        print("WRONG:", line)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
