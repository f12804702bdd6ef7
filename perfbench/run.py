"""ddsim benchmark: one workload, one seed, one timed run.

    python3 perfbench/run.py --workload separated --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout; ``ddsim`` is imported from its
``src/``.  One caller runs a closed loop over a pool of generated items,
pass after pass, until ``--seconds`` have elapsed; op and set-up times are
scaled to a reference host speed by a calibration timed beside them.  The
last line of stdout is a JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``: the end-to-end metrics with ``--trace 0``, the
per-layer metrics with ``--trace 1``.  ``failed`` counts the ops on which the
program erred (a wrong output or an untyped exception); a typed refusal to
build a certificate is not counted there but in ``verified_ratio``.  The lines before it hold the run's metadata
and a summary (fail rate, warm-up, failures by input family), and the full
record is written to ``perfbench/out/``.  See ``perfbench/NOTES.md``.
"""

import os

#: BLAS and OpenMP thread pin, set in this process's environment before numpy
#: loads and inherited by the set-up subprocesses.
THREAD_PIN = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
              "MKL_NUM_THREADS": "1"}
os.environ.update(THREAD_PIN)

import argparse  # noqa: E402
import json  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
from collections import Counter  # noqa: E402
from contextlib import nullcontext  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
#: Seed kept out of development and tuning, for checking a claimed gain.
HELD_OUT_SEED = 7919
#: Fresh interpreters timed per set-up metric (after one untimed start).
SETUP_REPEATS = 15
#: Ops run between two calibrations.
CHUNK = 8
#: Calibration time that defines the reference host speed.  Every timed op
#: and set-up start is scaled by ``CALIBRATION_REF_S`` over the calibration
#: time measured next to it, so each figure reads as on a host where the
#: calibration takes this long: the round figure of its fastest time on the
#: 2-core host the bounds were set on.  See NOTES.md.
CALIBRATION_REF_S = 0.5e-3
#: Direct calls per probed public function in the traced run.
PROBE_REPEATS = 10


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


if not (SRC / "ddsim" / "__init__.py").is_file():
    fail(f"no ddsim sources under {SRC}; run from the root of a source checkout")
sys.path.insert(0, str(SRC))

import numpy as np  # noqa: E402

import ddsim  # noqa: E402

if Path(ddsim.__file__).resolve().parent != (SRC / "ddsim").resolve():
    fail(f"imported ddsim from {ddsim.__file__}, not from {SRC}")

import spans  # noqa: E402
from workloads import WORKLOADS, SEARCH_TRIALS, failure_of, probe_calls  # noqa: E402

# Bound here, before a traced run wraps ``numpy.linalg``, so the calibration
# never runs through a tracing wrapper.
_eigvals, _svd, _inv = np.linalg.eigvals, np.linalg.svd, np.linalg.inv
_CAL_RNG = np.random.default_rng(0)
_CAL_SQUARE = _CAL_RNG.standard_normal((8, 8))
_CAL_STACK = _CAL_RNG.standard_normal((500, 2, 2))


def calibration_s():
    """Wall time of a fixed piece of work of the ops' kind: small LAPACK
    calls, a batched inverse and a Python loop."""
    start = time.perf_counter()
    for _ in range(5):
        _eigvals(_CAL_SQUARE)
        _svd(_CAL_SQUARE)
    _inv(_CAL_STACK)
    sum(i * i for i in range(2000))
    return time.perf_counter() - start


def run_pass(items, call, check_op, tracer=None):
    """One op per item: (seconds, failure reason or None) each.  Only the
    program calls are timed; the output check runs after the clock stops."""
    results = []
    for item in items:
        with tracer.op() if tracer else nullcontext():
            start = time.perf_counter()
            try:
                out, failure = call(item), None
            except Exception as exc:  # every escaped exception is a failed op
                out, failure = None, failure_of(exc)
            elapsed = time.perf_counter() - start
        if failure is None:
            try:
                failure = check_op(item, out)
            except Exception as exc:  # an output the check cannot read
                failure = f"wrong:unreadable output ({type(exc).__name__})"
        results.append((elapsed, failure))
    return results


def measure(items, call, check_op, seconds, tracer=None):
    """Whole passes over ``items`` until ``seconds`` have elapsed: the results
    of each pass, in item order, each op's time scaled to the reference host
    speed by the calibration run after its chunk of ``CHUNK`` ops; and the
    scale factors applied."""
    passes, scales = [], []
    deadline = time.perf_counter() + seconds
    while not passes or time.perf_counter() < deadline:
        results = []
        for i in range(0, len(items), CHUNK):
            chunk = run_pass(items[i:i + CHUNK], call, check_op, tracer)
            scales.append(CALIBRATION_REF_S / calibration_s())
            results += [(t * scales[-1], failure) for t, failure in chunk]
        passes.append(results)
    return passes, scales


def is_error(failure):
    """Whether a failure reason marks a program error, as opposed to a typed
    refusal to build a certificate (``numerical:``)."""
    return failure is not None and failure.startswith(("wrong:", "exception:"))


def ops_per_s(passes):
    """Verified ops per second of op time, over every attempted op."""
    ops = [op for p in passes for op in p]
    return sum(f is None for _, f in ops) / sum(t for t, _ in ops)


def fresh_import_s(module):
    """Median wall time of a fresh interpreter running ``import <module>``,
    each start scaled to the reference host speed by the calibrations run
    just before and after it (the fastest of three each)."""
    cmd = [sys.executable, "-c", f"import {module}"]
    env = dict(os.environ, PYTHONPATH=str(SRC))

    def once():
        before = min(calibration_s() for _ in range(3))
        start = time.perf_counter()
        subprocess.run(cmd, env=env, cwd=ROOT, check=True,
                       stdout=subprocess.DEVNULL)
        elapsed = time.perf_counter() - start
        after = min(calibration_s() for _ in range(3))
        return elapsed * CALIBRATION_REF_S / ((before + after) / 2.0)

    once()  # fill the file cache; not timed
    return statistics.median(once() for _ in range(SETUP_REPEATS))


def eigvals_floor_us(items):
    """Median time of a bare ``numpy.linalg.eigvals`` on the pool's matrices."""
    times = []
    for item in items:
        for _ in range(3):
            start = time.perf_counter()
            np.linalg.eigvals(item["a"])
            times.append(time.perf_counter() - start)
    return statistics.median(times) * 1e6


def git_commit():
    """Commit of the checkout, read from ``.git`` without leaving it."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def blas_name():
    try:
        blas = np.__config__.CONFIG["Build Dependencies"]["blas"]
        return f"{blas['name']} {blas['version']}"
    except (AttributeError, KeyError, TypeError):
        return "unknown"


def pin_to_one_cpu():
    """Pin this process, and so the set-up subprocesses it starts, to one CPU,
    so that every calibration runs on the core it scales.  Returns the CPU,
    or None where affinity cannot be set."""
    if not hasattr(os, "sched_setaffinity"):
        return None
    cpu = min(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    return cpu


def metadata(args, cpu):
    return {"workload": args.workload, "seed": args.seed,
            "held_out_seed": HELD_OUT_SEED, "seconds": args.seconds,
            "trace": args.trace, "commit": git_commit(),
            "python": sys.version.split()[0], "numpy": np.__version__,
            "blas": blas_name(), "nproc": os.cpu_count(), "thread_pin": THREAD_PIN,
            "cpu_pin": cpu, "calibration_ref_s": CALIBRATION_REF_S}


def by_family(items, results):
    """attempted, failed and failure reasons per input family, one op per item."""
    out = {}
    for item, (_, failure) in zip(items, results):
        row = out.setdefault(item["family"], {"attempted": 0, "failed": 0,
                                               "reasons": Counter()})
        row["attempted"] += 1
        if failure:
            row["failed"] += 1
            row["reasons"][failure] += 1
    return out


def end_to_end(passes):
    """End-to-end metrics over every attempted op, failed ones included."""
    ms = [t * 1e3 for p in passes for t, _ in p]
    p50, p90 = np.percentile(ms, [50, 90])
    verified = sum(f is None for p in passes for _, f in p)
    return {"ops_per_s": (ops_per_s(passes), "1/s"),
            "latency_p50_ms": (float(p50), "ms"),
            "latency_p90_ms": (float(p90), "ms"),
            "verified_ratio": (verified / len(ms), "ratio")}


def traced(args, items, call, check_op, workdir):
    """Untraced and traced halves of the run, then the probe.  Returns the
    measured results and the per-layer metrics."""
    half = args.seconds / 2.0
    plain, scales = measure(items, call, check_op, half)
    ops_tracer = spans.Tracer()
    with ops_tracer.installed():
        spanned, more = measure(items, call, check_op, half, ops_tracer)
    probe_tracer = spans.Tracer()
    probe_failures = Counter()
    calls = probe_calls(np.random.default_rng([args.seed, 1]), workdir)
    with probe_tracer.installed():
        for span, fn in calls.items():
            stat = ops_tracer.stats.get(span)
            if stat is not None and stat.durations:
                continue
            for _ in range(PROBE_REPEATS):
                with probe_tracer.op():
                    try:
                        fn()
                    except Exception as exc:  # a removed or failing public name
                        probe_failures[f"{span}: {type(exc).__name__}"] += 1
    left = spans.installed_wrappers()
    if left:
        raise RuntimeError(f"tracing wrappers left installed: {left}")

    metrics, sources, missing = spans.layer_metrics(
        ops_tracer.stats, probe_tracer.stats, len(spanned) * len(items), SEARCH_TRIALS)
    untraced_rate = ops_per_s(plain)
    if untraced_rate > 0:
        metrics["trace.overhead_ratio"] = (ops_per_s(spanned) / untraced_rate, "ratio")
    else:
        missing.append("trace.overhead_ratio")
    metrics["linalg.eigvals_floor_us"] = (eigvals_floor_us(items), "us")
    metrics["setup.numpy_import_s"] = (fresh_import_s("numpy"), "s")
    detail = {"traced_passes": len(spanned), "untraced_passes": len(plain),
              "sources": sources, "missing": missing,
              "probe_failures": dict(probe_failures)}
    return plain + spanned, scales + more, metrics, detail


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not args.seconds > 0:
        parser.error("--seconds must be positive")

    make, call, check_op = WORKLOADS[args.workload]
    meta = metadata(args, pin_to_one_cpu())
    (HERE / ".work").mkdir(exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=HERE / ".work")
    try:
        items = make(np.random.default_rng(args.seed), workdir)
        if spans.installed_wrappers():
            raise RuntimeError("tracing wrappers installed before the run")
        start = time.perf_counter()
        warm = run_pass(items, call, check_op)
        summary = {"items": len(items),
                   "warmup_first_op_ms": warm[0][0] * 1e3,
                   "warmup_pass_s": time.perf_counter() - start,
                   "by_family": by_family(items, warm)}
        if args.trace:
            passes, scales, metrics, summary["trace"] = traced(
                args, items, call, check_op, workdir)
        else:
            passes, scales = measure(items, call, check_op, args.seconds)
            metrics = end_to_end(passes)
            metrics["setup_s"] = (fresh_import_s("ddsim"), "s")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    results = [op for p in passes for op in p]
    failures = Counter(f for _, f in results if f)
    wrong = sum(n for f, n in failures.items() if f.startswith("wrong:")) \
        + sum(1 for _, f in warm if f and f.startswith("wrong:"))
    errors = sum(n for f, n in failures.items() if is_error(f))
    summary.update(attempted=len(results), unverified=sum(failures.values()),
                   fail_rate=sum(failures.values()) / len(results),
                   errors=errors, passes=len(passes),
                   time_scale_median=statistics.median(scales),
                   failures=dict(failures))
    result = {"correct": wrong == 0, "attempted": len(results), "failed": errors,
              "metrics": {name: {"value": value, "unit": unit}
                          for name, (value, unit) in sorted(metrics.items())}}

    out_dir = HERE / "out"
    out_dir.mkdir(exist_ok=True)
    record = out_dir / f"BENCH_{args.workload}_seed{args.seed}_trace{args.trace}.json"
    record.write_text(json.dumps({"meta": meta, "summary": summary, "result": result},
                                 indent=1) + "\n")
    print("meta " + json.dumps(meta))
    print("summary " + json.dumps(summary))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
