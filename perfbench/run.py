"""Benchmark entry point.

    python3 perfbench/run.py --workload train-copy --seed 1 --seconds 35 --trace 0

Runs one workload in this process against the scenemt sources under
`src/` of the checkout that holds this file. With `--trace 0` it prints the
end-to-end metrics; with `--trace 1` it times the first half of the run
plain and the second half traced, and prints the per-layer metrics plus the
tracing overhead. Times are scaled to a reference speed: each round by the
reference loop run beside it, set-up by three runs of the loop right after
it (see `reference`). The last line of standard output is one JSON object:
{"correct", "attempted", "failed", "metrics"}. The full record (machine,
round times, trace spans) goes to perfbench/results/.
"""

import os
import sys
import time

_START = time.perf_counter()

# one BLAS/OpenMP thread, fixed before numpy is imported: threaded BLAS on
# these tiny matrices only adds noise
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
MIN_ROUNDS = 3
REFERENCE_SECONDS = 0.025


def process_age():
    """Seconds since this process started.

    Read from /proc (start time in 10 ms ticks); where that is unavailable,
    seconds since this module was imported.
    """
    try:
        with open("/proc/self/stat") as fh:
            fields = fh.read().rsplit(")", 1)[1].split()
        started = int(fields[19]) / os.sysconf("SC_CLK_TCK")
        return time.clock_gettime(time.CLOCK_BOOTTIME) - started
    except (OSError, ValueError, IndexError, AttributeError):
        return time.perf_counter() - _START


def import_program():
    """Import scenemt from this checkout's src/, never from anywhere else."""
    src = ROOT / "src"
    if not (src / "scenemt" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no scenemt sources under {src}")
    sys.path.insert(0, str(src))
    import scenemt

    if Path(scenemt.__file__).resolve().parent != src / "scenemt":
        raise SystemExit(f"perfbench: scenemt imported from {scenemt.__file__}, not {src}")


def blas_threads():
    """Thread count reported by the OpenBLAS numpy loaded, or None."""
    import ctypes

    try:
        with open("/proc/self/maps") as fh:
            libs = sorted({ln.split()[-1] for ln in fh if "openblas" in ln.lower()})
    except OSError:
        return None
    for path in libs:
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def machine():
    src_lines = sum(len(p.read_text(encoding="utf-8").splitlines())
                    for p in sorted((ROOT / "src").rglob("*.py")))
    return dict(
        python=platform.python_version(),
        numpy=np.__version__,
        blas_threads=blas_threads(),
        nproc=os.cpu_count(),
        affinity=len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        src_lines=src_lines,
        platform=platform.platform(),
    )


def reference():
    """Wall time of a fixed numpy-and-interpreter loop that never calls scenemt.

    The speed of a small shared box drifts by tens of percent over a minute
    as other tenants load the host. Each round is scaled by this loop's time
    around it, so a rate reads as if the loop always took REFERENCE_SECONDS;
    on decode-beam4 and masks-ucca that cut the run-to-run spread about
    fourfold (see README.md).
    """
    a = np.linspace(-1.0, 1.0, 192).reshape(12, 16)
    w = np.linspace(-0.5, 0.5, 256).reshape(16, 16)
    start = time.perf_counter()
    for _ in range(400):
        h = a
        for _ in range(4):
            z = h @ w
            z = z - z.max(axis=-1, keepdims=True)
            e = np.exp(z)
            h = e / e.sum(axis=-1, keepdims=True) + a
    return time.perf_counter() - start


def timed(workload, seconds, min_rounds):
    """Run whole rounds for about `seconds`, with the reference loop between them.

    Returns the rounds' seconds, the same at reference speed, and the
    reference loop's times.
    """
    raw, scaled = [], []
    deadline = time.perf_counter() + seconds
    before = reference()
    refs = [before]
    while True:
        start = time.perf_counter()
        workload.run_round()
        elapsed = time.perf_counter() - start
        after = reference()
        raw.append(elapsed)
        scaled.append(elapsed * 2.0 * REFERENCE_SECONDS / (before + after))
        before = after
        refs.append(after)
        if len(raw) >= min_rounds and time.perf_counter() + statistics.median(raw) > deadline:
            return raw, scaled, refs


def peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def run(name, seed, seconds, trace, small=False):
    """Set up, time and check one workload; return (result line, full record)."""
    import spans
    from checks import CheckError
    from workloads import WORKLOADS

    work_dir = HERE / "work" / f"{name}-{seed}-{os.getpid()}"
    workload = WORKLOADS[name](seed, work_dir, small=small)
    try:
        workload.setup()
        setup_raw = process_age()
        setup_s = setup_raw * REFERENCE_SECONDS / statistics.median(reference() for _ in range(3))
        workload.warmup()
        workload.attempted = workload.failed = 0
        record = dict(workload=name, seed=seed, seconds=seconds, trace=trace)
        per_round = workload.sentences_per_round
        if not trace:
            raw, times, refs = timed(workload, seconds, MIN_ROUNDS)
            metrics = {
                "sentences_per_s": (per_round / statistics.median(times), "sentences/s"),
                "setup_s": (setup_s, "s"),
                "peak_rss_mb": (peak_rss_mb(), "MB"),
            }
            record.update(round_seconds=raw, scaled_round_seconds=times, reference_seconds=refs,
                          raw_sentences_per_s=per_round / statistics.median(raw))
        else:
            _, plain, _ = timed(workload, seconds / 2, 2)
            tracer = spans.Tracer()
            tracer.install()
            try:
                _, traced, refs = timed(workload, seconds / 2, 2)
            finally:
                tracer.uninstall()
            layers = spans.layer_metrics(tracer, **workload.trace_counts(len(traced)))
            # per-layer times are scaled to reference speed like the rates
            speed = REFERENCE_SECONDS / statistics.median(refs)
            metrics = {k: (v * speed if spans.unit_of(k) == "ms" else v, spans.unit_of(k))
                       for k, v in layers.items()}
            overhead = statistics.median(traced) / statistics.median(plain) - 1.0
            metrics["bench.trace_overhead_pct"] = (100.0 * overhead, "%")
            record.update(scaled_round_seconds=plain, scaled_traced_round_seconds=traced,
                          trace=tracer.dump())
            if tracer.absent:
                print(f"perfbench: absent from the program: {tracer.absent}", file=sys.stderr)
        try:
            workload.check()
            correct = True
        except CheckError as exc:
            correct = False
            record["check_failure"] = str(exc)
            print(f"perfbench: check failed: {exc}", file=sys.stderr)
    finally:
        workload.cleanup()
    line = dict(
        correct=correct,
        attempted=workload.attempted,
        failed=workload.failed,
        metrics={k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    )
    record.update(result=line, raw_setup_s=setup_raw, machine=machine())
    return line, record


def main(argv=None):
    from workloads import WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=35.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    line, record = run(args.workload, args.seed, args.seconds, args.trace)
    out = HERE / "results"
    out.mkdir(exist_ok=True)
    path = out / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    try:
        import_program()
    except ImportError:
        traceback.print_exc()
        sys.exit(2)
    sys.exit(main())
