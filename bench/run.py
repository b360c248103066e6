"""nlslab benchmark: one workload, one process, measured for a fixed time.

Run from the root of a checkout:

    python3 bench/run.py --workload sp-invariants --seed 1 --seconds 35 --trace 0

The process imports ``nlslab.cli``, then calls ``nlslab.cli.main`` on the
workload's shipped config again and again, one scenario at a time (closed
loop), until another call would overrun ``--seconds``.  Before each call it
times a cold ``import nlslab.cli`` in a fresh interpreter (set-up), and tops
the samples up to SETUP_REPEATS after the last call.  During each call a
timer runs a fixed reference kernel every half second, so that ``wall_ref``
can express the call's wall time in units of the machine's speed during
that call (see reference.py).  Every
call writes into its own temporary directory under ``.bench_work/``, and its
outputs are checked against the acceptance thresholds and hashed.  With
``--trace 1`` untraced and traced calls alternate, no set-up is timed, and
the result carries the per-layer metrics instead of the end-to-end ones.

The last line of standard output is the result object; the line before it
holds the samples, the output digest, any failures and the provenance.
See bench/README.md for what each metric means.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import ctypes.util
import gc
import hashlib
import io
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

from reference import ReferenceKernel, ReferenceSampler
from spans import Tracer, layer_metrics
from workloads import WORKLOADS, inspect_outputs

# Numerics are single-threaded; these must be set before numpy is imported.
THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)
SETUP_REPEATS = 5
# glibc's default mmap threshold, fixed so that glibc does not raise it as
# large blocks are freed (see fix_mmap_threshold).
MMAP_THRESHOLD = 128 * 1024
WORK_DIR = ".bench_work"
SETUP_CODE = (
    "import time; t = time.perf_counter(); import nlslab.cli; "
    "print(time.perf_counter() - t)"
)
SEED_NOTE = (
    "nlslab has no random number generator (a config 'seed' is only echoed), "
    "so the workload inputs do not depend on the seed"
)


def time_import(root: Path) -> float:
    """Seconds to import nlslab.cli cold, in a fresh interpreter.

    The measuring process has imported it already, so the bytecode cache is
    written and the library files are in the page cache, as on a user's
    second and later runs.
    """
    path = os.pathsep.join(filter(None, (str(root / "src"), os.environ.get("PYTHONPATH"))))
    proc = subprocess.run(
        [sys.executable, "-c", SETUP_CODE],
        cwd=root, env=dict(os.environ, PYTHONPATH=path),
        capture_output=True, text=True, timeout=120, check=True,
    )
    return float(proc.stdout)


def fix_mmap_threshold() -> int | None:
    """Fix glibc's mmap threshold at its default; returns it, or None off glibc.

    By default glibc raises the threshold each time a large block is freed,
    after which blocks of that size come from the heap and stay resident
    once freed.  On fem-growth, where SuperLU frees a factorisation per
    step attempt, peak RSS then varied from 134 to 220 MB between runs of
    the same code; with the threshold fixed it repeats to about 1%.
    """
    libc_name = ctypes.util.find_library("c")
    if libc_name is None:
        return None
    mallopt = getattr(ctypes.CDLL(libc_name), "mallopt", None)
    if mallopt is None:
        return None
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    m_mmap_threshold = -3  # from glibc's malloc.h
    return MMAP_THRESHOLD if mallopt(m_mmap_threshold, MMAP_THRESHOLD) == 1 else None


def run_call(cli, workload, root: Path, work_root: Path, probe=None):
    """One ``cli.main`` call in a fresh directory; returns (wall seconds, outputs).

    ``probe`` is a Tracer or a ReferenceSampler, active during the call only.
    A sampler's own time is left out of the wall time.
    """
    workdir = Path(tempfile.mkdtemp(prefix=workload.name + "-", dir=work_root))
    argv = workload.argv(root)
    gc.collect()
    os.chdir(workdir)
    try:
        with probe or contextlib.nullcontext(), contextlib.redirect_stdout(io.StringIO()):
            start = time.perf_counter()
            code = cli.main(argv)
            wall = time.perf_counter() - start
        if isinstance(probe, ReferenceSampler):
            wall -= probe.spent
    finally:
        os.chdir(root)
    if code != 0:
        raise RuntimeError(f"nlslab {' '.join(argv)} exited with {code}")
    outputs = inspect_outputs(workload, workdir)
    shutil.rmtree(workdir)
    return wall, outputs


def _read_text(path: str) -> str | None:
    try:
        return Path(path).read_text()
    except OSError:
        return None


def _cpu_model() -> str | None:
    for line in (_read_text("/proc/cpuinfo") or "").splitlines():
        if line.startswith("model name"):
            return line.split(":", 1)[1].strip()
    return None


def _caches() -> dict[str, str]:
    caches = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        level, kind, size = (_read_text(index / f) for f in ("level", "type", "size"))
        if level and kind and size:
            caches[f"L{level.strip()} {kind.strip()}"] = size.strip()
    return caches


def _git_commit(root: Path) -> str | None:
    if not (root / ".git").exists():
        return None  # the checkout may be a plain copy of the tree
    try:
        proc = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=root, capture_output=True, text=True, timeout=30
        )
    except (OSError, subprocess.SubprocessError):
        return None
    return proc.stdout.strip() or None


def _source_sha256(root: Path) -> str:
    h = hashlib.sha256()
    for path in sorted((root / "src" / "nlslab").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes() + b"\0")
    return h.hexdigest()


def provenance(root: Path, workload, seed: int) -> dict:
    import numpy
    import scipy

    caches = _caches()
    return {
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "caches_per_core": caches,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "thread_env": {var: os.environ.get(var) for var in THREAD_VARS},
        "git_commit": _git_commit(root),
        "source_sha256": _source_sha256(root),
        "seed": seed,
        "seed_note": SEED_NOTE,
        "largest_vector_bytes": workload.largest_vector_bytes,
        "working_set_note": (
            f"the largest vector a kernel touches is {workload.largest_vector_bytes} B against "
            f"an L2 of {caches.get('L2 Unified', 'unknown size')} per core; the kernels are "
            "not bandwidth-bound, so no bandwidth or roofline figure is reported"
        ),
    }


def _median(values) -> float:
    return statistics.median(values) if values else math.nan


def measure(cli, workload, root: Path, seconds: float, trace: bool):
    """Closed loop of calls until another would overrun ``seconds``.

    Without tracing, a set-up sample precedes each call, topped up to
    SETUP_REPEATS at the end: spread over the run, the samples see the same
    mix of machine load as the calls do.  Each untraced call also yields the
    ratio of its wall time to the mean reference-kernel time during it.
    With tracing, untraced and traced calls alternate, starting untraced,
    until there is at least one of each.
    """
    work_root = root / WORK_DIR
    work_root.mkdir(exist_ok=True)
    tracer = Tracer() if trace else None
    sampler = None if trace else ReferenceSampler(ReferenceKernel())
    setup, ratios = [], []  # seconds; call wall over mean reference time
    plain, traced = [], []  # (wall, outputs)
    summaries = []  # per traced call: (counts, measured)
    started = time.perf_counter()
    while True:
        if trace and len(traced) < len(plain):
            tracer.start_run(len(traced))
            traced.append(run_call(cli, workload, root, work_root, tracer))
            summaries.append(tracer.run_summary())
        else:
            if not trace:
                setup.append(time_import(root))
            plain.append(run_call(cli, workload, root, work_root, sampler))
            if sampler:
                ratios.append(plain[-1][0] / sampler.mean())
        if plain and (traced or not trace):
            typical = max(_median([w for w, _ in calls]) for calls in (plain, traced) if calls)
            if time.perf_counter() - started + typical > seconds:
                break
    while not trace and len(setup) < SETUP_REPEATS:
        setup.append(time_import(root))
    return setup, ratios, plain, traced, tracer, summaries


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)

    root = Path.cwd().resolve()
    if not (root / "src" / "nlslab" / "cli.py").is_file():
        print(f"error: {root} holds no nlslab source tree (src/nlslab)", file=sys.stderr)
        return 2
    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; known: {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    for var in THREAD_VARS:
        os.environ[var] = "1"
    mmap_threshold = fix_mmap_threshold()
    sys.path.insert(0, str(root / "src"))

    import nlslab.cli as cli

    if not Path(cli.__file__).resolve().is_relative_to(root / "src"):
        print(f"error: imported nlslab from {cli.__file__}, not from {root}/src",
              file=sys.stderr)
        return 2

    setup, ratios, plain, traced, tracer, summaries = measure(
        cli, workload, root, args.seconds, bool(args.trace)
    )
    calls = plain + traced
    attempted = len(workload.methods) * len(calls)
    failed = sum(outputs.failed for _, outputs in calls)
    digests = sorted({outputs.digest for _, outputs in calls})
    failures = {
        label: reasons
        for _, outputs in calls
        for label, reasons in outputs.failures.items()
        if reasons
    }
    correct = failed == 0 and len(digests) == 1
    info = {
        "workload": workload.name,
        "seed": args.seed,
        "trace": args.trace,
        "samples": {
            "wall_s": [w for w, _ in plain],
            "traced_wall_s": [w for w, _ in traced],
            "setup_s": setup,
            "wall_ref": ratios,
        },
        "wall_s_median": _median([w for w, _ in plain]),
        "digest": digests[0] if len(digests) == 1 else digests,
        "failures": failures,
        "provenance": {
            **provenance(root, workload, args.seed),
            "malloc_mmap_threshold": mmap_threshold,
        },
    }

    if args.trace:
        counts = summaries[0][0]
        if any(c != counts for c, _ in summaries):
            correct = False
            info["failures"]["trace"] = ["per-layer counts differ between traced calls"]
        outputs = traced[0][1]
        overhead = _median([w for w, _ in traced]) - _median([w for w, _ in plain])
        metrics = layer_metrics(
            counts, [s for _, s in summaries], outputs.controller, outputs.error_rows, overhead
        )
        spans_file = root / WORK_DIR / "spans" / f"{workload.name}.jsonl"
        tracer.write_spans(spans_file)
        info["spans_file"] = str(spans_file.relative_to(root))
    else:
        errors = calls[0][1].final_errors
        gmean = math.exp(statistics.fmean(math.log(e) for e in errors)) if errors else math.nan
        rss_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        values = {
            "wall_ref": (_median(ratios), "ref"),
            "setup_s": (_median(setup), "s"),
            "peak_rss_mb": (rss_kib / 1024.0, "MB"),
            "error_gmean": (gmean, "1"),
            "pass_frac": (1.0 - failed / attempted, "ratio"),
        }
        metrics = {name: {"value": v, "unit": unit} for name, (v, unit) in values.items()}

    print(json.dumps(info))
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
