#!/usr/bin/env python3
"""Run one tqla benchmark workload and print its metrics.

    python3 perfbench/run.py --workload toy-sweep --seed 0 --seconds 30 --trace 0

Run from the root of a checkout; the package is imported from ``src/``
there. With ``--trace 0`` the run measures the end-to-end metrics. With
``--trace 1`` it alternates untraced rounds with rounds in which every
layer's entry points are wrapped, and reports per-layer metrics instead. The last line
of standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``; the lines before it give the environment, the
report digests and every metric with its unit. A fuller record goes to
``perfbench/out/``.
"""

import ctypes
import os

THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)
# BLAS reads these once, when numpy is first imported.
for _var in THREAD_VARS:
    os.environ[_var] = "1"

#: glibc ``mallopt`` parameters (malloc.h) and the values the benchmark sets.
MALLOC_SETTINGS = {"M_TRIM_THRESHOLD": (-1, 2**31 - 1), "M_MMAP_THRESHOLD": (-3, 32 * 2**20)}


def retain_freed_memory():
    """Keep freed arrays in the process's heap; returns the settings glibc took.

    By default glibc gives large freed blocks back to the kernel and maps
    them again on the next allocation, and when it does so depends on the
    history of allocation sizes. On wide-trap that came to about 200k page
    faults per 7 s round on a 2-vCPU virtual machine, and what a page fault
    costs there depends on the load on the host. A fixed mmap threshold
    above the largest array, and no trimming, make every round after
    warm-up reuse memory that is already mapped (under 1.1k faults a round).
    """
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (OSError, AttributeError):  # not glibc
        return {}
    return {
        name: value
        for name, (param, value) in MALLOC_SETTINGS.items()
        if mallopt(param, value) == 1
    }


MALLOC = retain_freed_memory()

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import shutil  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"


def _commit():
    if not (ROOT / ".git").exists():
        return None
    done = subprocess.run(
        ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
        capture_output=True,
        text=True,
        timeout=30,
    )
    return done.stdout.strip() or None


def _source_sha256():
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def _blas():
    import numpy as np

    try:
        deps = np.show_config(mode="dicts")["Build Dependencies"]
    except TypeError:  # numpy before 1.26 has no dict mode
        return None
    blas = deps.get("blas", {})
    return {k: blas.get(k) for k in ("name", "version", "openblas configuration")}


def environment(seed, input_seed):
    import numpy as np

    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": _blas(),
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "threads": {v: os.environ[v] for v in THREAD_VARS},
        "mallopt": MALLOC,
        "seed": seed,
        "input_seed": input_seed,
        "commit": _commit(),
        "source_sha256": _source_sha256(),
    }


def run(workload_name, seed, seconds, trace, import_s):
    """Set up, measure and check one workload; returns (result, record)."""
    import harness

    workload = harness.make_workload(workload_name, seed)
    OUT.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(dir=OUT))
    spans_path = OUT / f"{workload_name}-seed{seed}.spans.json.gz" if trace else None
    try:
        outcomes, metrics = harness.measure(workload, workdir, seconds, trace, import_s, spans_path)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    out = outcomes[-1]

    attempted = sum(o.attempted for o in outcomes)
    failed = sum(o.failed for o in outcomes)
    record = {
        "workload": workload_name,
        "trace": trace,
        "seconds": seconds,
        "environment": environment(seed, workload.input_seed),
        "loop": "closed, 1 client",
        "attempted": attempted,
        "failed": failed,
        "op_failure_ratio": failed / attempted,
        "failures": [m for o in outcomes for m in o.failures],
        "digests": out.digests,
        "digests_matching_reference": sorted(
            s for s, d in out.digests.items() if workload.references.get(s, {}).get("digest") == d
        ),
        "final_losses": out.final_losses,
        "rounds": [len(o.round_walls) for o in outcomes],
        "metrics": {k: {"value": v, "unit": u, "note": n} for k, (v, u, n) in metrics.items()},
    }
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": float(v), "unit": u} for k, (v, u, _) in metrics.items()},
    }
    return result, record


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "tqla" / "__init__.py").is_file():
        print(f"error: no tqla package under {SRC}; run from a full checkout", file=sys.stderr)
        return 2

    started = time.perf_counter()
    sys.path[:0] = [str(SRC), str(HERE)]
    import harness
    import tqla

    import_s = time.perf_counter() - started
    if not Path(tqla.__file__).resolve().is_relative_to(SRC):
        print(f"error: tqla was imported from {tqla.__file__}, not {SRC}", file=sys.stderr)
        return 2
    if args.workload not in harness.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; known: {', '.join(harness.WORKLOADS)}")

    result, record = run(args.workload, args.seed, args.seconds, bool(args.trace), import_s)
    print("environment " + json.dumps(record["environment"], sort_keys=True))
    for scheme, digest in sorted(record["digests"].items()):
        print(f"digest {scheme} {digest} final_loss {record['final_losses'][scheme]!r}")
    for message in record["failures"]:
        print(f"failure {message}")
    for name, m in record["metrics"].items():
        note = f"  ({m['note']})" if m["note"] else ""
        print(f"{name} {m['value']!r} {m['unit']}{note}")
    print(
        f"op_failure_ratio {record['op_failure_ratio']!r} "
        f"({record['failed']} failed of {record['attempted']} attempted)"
    )
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (OUT / name).write_text(json.dumps(record, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
