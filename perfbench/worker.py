"""One benchmark workload in one fresh process.

    python3 perfbench/worker.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/worker.py --setup-only

The worker pins BLAS/OpenMP threads to 1 before numpy loads, imports
stabsplit from the checkout's ``src/``, warms BLAS up and prints ``ready``;
``run.py`` times process start to that line as set-up.  It then runs one cold
pass of the workload through ``stabsplit.cli.main``, checks every output of
every pass, and prints one JSON line with its results.

After the cold pass, untraced (``--trace 0``) workers run warm passes until
the next one would end after S seconds, at least one.  Traced
(``--trace 1``) workers alternate traced and untraced passes, at least two
traced and one untraced; the untraced ones give the tracing overhead.
"""

import argparse
import contextlib
import hashlib
import io
import json
import os
import platform
import resource
import statistics
import sys
import time
from importlib import metadata
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
SPANS_DIR = HERE.parent / ".perfbench-out"
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def _load_program():
    """Pin threads, import numpy and stabsplit from this checkout, warm BLAS up."""
    for var in THREAD_VARS:
        os.environ[var] = "1"
    if not (SRC / "stabsplit" / "__init__.py").is_file():
        sys.exit(f"error: no stabsplit sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import numpy as np
    import stabsplit.cli

    if not Path(stabsplit.cli.__file__).resolve().is_relative_to(SRC.resolve()):
        sys.exit(f"error: stabsplit imported from {stabsplit.cli.__file__}, not {SRC}")
    rng = np.random.default_rng(0)
    mat = rng.standard_normal((64, 64))
    np.linalg.eigh(mat + mat.T)
    mat @ mat
    return stabsplit.cli


class Run:
    """Passes of one workload, their timings and every check result."""

    def __init__(self, cli, workload, seed: int):
        self.cli = cli
        self.workload = workload
        self.argvs = workload.argvs(seed)
        self.reference = None  # outputs of the first pass
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []

    def one_pass(self, recording=None) -> float:
        outputs, codes = [], []
        with recording or contextlib.nullcontext():
            start = time.perf_counter()
            for argv in self.argvs:
                buffer = io.StringIO()
                with contextlib.redirect_stdout(buffer):
                    codes.append(self.cli.main(argv))
                outputs.append(buffer.getvalue())
            elapsed = time.perf_counter() - start
        self.record(outputs, codes)
        return elapsed

    def record(self, outputs: list[str], codes: list[int]) -> None:
        """Check one pass's outputs, each against the first pass too, and count them."""
        errors = self.workload.check(outputs, codes)
        if self.reference is None:
            self.reference = outputs
        else:
            errors = [
                error or (None if out == ref else f"{argv[0]}: output differs from the first pass")
                for error, out, ref, argv in zip(errors, outputs, self.reference, self.argvs)
            ]
        self.attempted += len(errors)
        for error in errors:
            if error is not None:
                self.failed += 1
                self.errors.append(error)

    def final_rel_error(self) -> float:
        return self.workload.final_rel_error(self.reference[0])


def _per_layer(run: Run, tracer, spans, traced_s, untraced_s) -> dict[str, float]:
    labels = tracer.labels
    summaries = [s.summary(len(labels)) for s in spans]
    calls = summaries[0][0]
    for other, _ in summaries[1:]:
        if list(other) != list(calls):
            run.errors.append("call counts differ between traced passes")
    out: dict[str, float] = {}
    for index, label in enumerate(labels):
        out[f"{label}.calls"] = int(calls[index])
        out[f"{label}.self_s"] = statistics.median(float(s[1][index]) for s in summaries)
    wl = run.workload
    out["lmg.candidate_groups.calls_per_point"] = out["lmg.candidate_groups.calls"] / wl.points
    out["tableau.StabilizerGroup.expectation.calls_per_point"] = (
        out["tableau.StabilizerGroup.expectation.calls"] / wl.points
    )
    out["adapt.PoolOperator.conjugate_inplace.calls_per_layer"] = (
        out["adapt.PoolOperator.conjugate_inplace.calls"] / wl.layers if wl.layers else 0.0
    )
    # Computed, not measured: sre builds one complex128 cross matrix of
    # 2^N x 2^N entries per call.
    out["metrics.sre.cross_bytes"] = out["metrics.sre.calls"] * 16 * 4**wl.qubits
    out["trace.overhead_s"] = statistics.median(traced_s) - statistics.median(untraced_s)
    # Root spans are cli.main, so self times sum to the traced command time.
    out["trace.unattributed_s"] = statistics.median(traced_s) - statistics.median(
        float(s[1].sum()) for s in summaries
    )
    return out


def _version(package: str) -> str:
    try:
        return metadata.version(package)
    except metadata.PackageNotFoundError:
        return "not installed"


def _provenance(np_version: str) -> dict:
    return {
        "python": platform.python_version(),
        "numpy": np_version,
        "scipy": _version("scipy"),
        "cpu_count": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "threads": {var: os.environ[var] for var in THREAD_VARS},
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true", help="exit once ready")
    args = parser.parse_args()

    cli = _load_program()
    print("ready", flush=True)
    if args.setup_only:
        return 0

    import numpy as np

    sys.path.insert(0, str(HERE))
    from tracing import Spans, Tracer, save_spans
    from workloads import build_workloads

    run = Run(cli, build_workloads()[args.workload], args.seed)
    start = time.perf_counter()
    first_pass_s = run.one_pass()
    tracer = Tracer("stabsplit") if args.trace else None
    traced_s, untraced_s, spans = [], [], []
    while True:
        traced = bool(args.trace) and len(traced_s) <= len(untraced_s)
        if args.trace:
            required = len(traced_s) < 2 or not untraced_s
        else:
            required = not untraced_s
        same_kind = traced_s if traced else untraced_s
        estimate = same_kind[-1] if same_kind else first_pass_s
        if not required and time.perf_counter() - start + estimate > args.seconds:
            break
        if traced:
            spans.append(Spans())
            traced_s.append(run.one_pass(tracer.recording(spans[-1])))
        else:
            untraced_s.append(run.one_pass())

    result = {
        "attempted": run.attempted,
        "failed": run.failed,
        "errors": run.errors,
        "first_pass_s": first_pass_s,
        "wall_samples": untraced_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "final_rel_error": run.final_rel_error(),
        "output_sha256": [hashlib.sha256(out.encode()).hexdigest() for out in run.reference],
        "provenance": _provenance(np.__version__),
    }
    if args.trace:
        result["traced_samples"] = traced_s
        result["per_layer"] = _per_layer(run, tracer, spans, traced_s, untraced_s)
        SPANS_DIR.mkdir(exist_ok=True)
        save_spans(SPANS_DIR / f"{args.workload}.spans.npz", args.workload, tracer.labels, spans)
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
