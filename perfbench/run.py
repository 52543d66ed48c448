"""stabsplit benchmark: run one workload, or all of them, and print its metrics.

    python3 perfbench/run.py --workload paper-n8 --seed 1 --seconds 40 --trace 0
    python3 perfbench/run.py --workload all

Run from anywhere; the program is imported from ``src/`` next to this
directory.  Each workload runs in fresh worker processes of its own with
BLAS/OpenMP threads pinned to 1, so peak memory and the cold first pass
belong to that workload.  ``setup_s`` is the median over all processes of
the time from process start to ``ready``, ``first_pass_s`` the median cold
pass over the workers, and ``wall_s`` the median of all their warm passes.

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics with
``--trace 0``, the per-layer metrics with ``--trace 1``, exactly as
``BENCHMARK.json`` declares them.  The lines before
it print every metric by name with its unit, and the provenance; the full
result also goes to ``.perfbench-out/<workload>-trace<k>.json``.
"""

from __future__ import annotations

import argparse
import json
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = ROOT / ".perfbench-out"
# An untraced run starts SETUP_PROBES processes that exit once ready, then
# SEGMENTS workers that each run a cold pass and warm passes.  Spreading the
# cold passes and warm passes over the whole run keeps their medians steady
# when the machine's speed drifts for seconds at a time.
SETUP_PROBES = 2
SEGMENTS = 4
DEADLINE_S = 170.0  # a single workload run must end well within 180 s


def _run_worker(extra: list[str], deadline: float) -> tuple[float, dict | None]:
    """Run one worker; return the seconds until it printed ``ready`` and its
    JSON result (None for a set-up probe)."""
    start = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, str(HERE / "worker.py"), *extra],
        stdout=subprocess.PIPE,
        cwd=ROOT,
        text=True,
    )
    try:
        line = proc.stdout.readline()
        ready = time.perf_counter() - start
        stdout, _ = proc.communicate(timeout=max(1.0, deadline - time.perf_counter()))
    finally:
        if proc.poll() is None:
            proc.kill()
        proc.wait()
    if line.strip() != "ready" or proc.returncode != 0:
        raise RuntimeError(f"worker {' '.join(extra)} exited with code {proc.returncode}")
    return ready, (json.loads(stdout.strip().splitlines()[-1]) if stdout.strip() else None)


def _git_sha() -> str:
    if not (ROOT / ".git").exists():
        return "unknown (not a git checkout)"
    done = subprocess.run(
        ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=30
    )
    return done.stdout.strip() if done.returncode == 0 else "unknown"


def _percentile_line(samples: list[float]) -> str:
    """Highest whole percentile with at least ten samples above it."""
    n = len(samples)
    if n < 11:
        return f"no percentile with ten samples beyond it ({n} samples)"
    ordered = sorted(samples)
    rank = n - 10  # samples at or below the reported value
    pct = 100 * rank // n
    return f"p{pct} = {ordered[rank - 1]:.6f} s over {n} samples"


def run_workload(name: str, seed: int, seconds: float, trace: int) -> dict:
    """All processes of one workload run; returns the merged result.

    Untraced: set-up probes, then ``SEGMENTS`` workers in turn, each with an
    equal share of the time left.  Traced: one worker for all of it.
    """
    start = time.perf_counter()
    deadline = start + DEADLINE_S
    setup, results = [], []
    if not trace:
        for _ in range(SETUP_PROBES):
            setup.append(_run_worker(["--setup-only"], deadline)[0])
    segments = 1 if trace else SEGMENTS
    for left in range(segments, 0, -1):
        share = max(0.0, seconds - (time.perf_counter() - start)) / left
        ready, result = _run_worker(
            [
                *("--workload", name, "--seed", str(seed)),
                *("--seconds", f"{share:.3f}", "--trace", str(trace)),
            ],
            deadline,
        )
        setup.append(ready)
        results.append(result)

    last = results[-1]
    errors = [error for result in results for error in result["errors"]]
    if any(result["output_sha256"] != last["output_sha256"] for result in results):
        errors.append("outputs differ between processes")
    merged = dict(
        last,
        seed=seed,
        attempted=sum(result["attempted"] for result in results),
        failed=sum(result["failed"] for result in results),
        errors=errors,
        setup_samples=setup,
        first_pass_samples=[result["first_pass_s"] for result in results],
        wall_samples=[s for result in results for s in result["wall_samples"]],
        peak_rss_mb=max(result["peak_rss_mb"] for result in results),
    )
    merged["provenance"]["git_sha"] = _git_sha()
    merged["end_to_end"] = {
        "setup_s": statistics.median(setup),
        "first_pass_s": statistics.median(merged["first_pass_samples"]),
        "wall_s": statistics.median(merged["wall_samples"]),
        "peak_rss_mb": merged["peak_rss_mb"],
        "final_rel_error": last["final_rel_error"],
    }
    OUT_DIR.mkdir(exist_ok=True)
    (OUT_DIR / f"{name}-trace{trace}.json").write_text(json.dumps(merged, indent=2) + "\n")
    return merged


def _report(name: str, result: dict, section: str, declared: list[dict]) -> dict[str, dict]:
    """Print the declared metrics by name and return them for the JSON line."""
    values = result[section]
    units = {metric["name"]: metric["unit"] for metric in declared}
    if set(values) != set(units):
        raise RuntimeError(
            f"measured {section} metrics differ from BENCHMARK.json: "
            f"{sorted(set(values) ^ set(units))}"
        )
    print(f"[{name}] seed {result['seed']}, provenance {json.dumps(result['provenance'])}")
    for key, unit in units.items():
        print(f"[{name}] {key} = {values[key]} {unit}")
    walls = result["wall_samples"]
    print(f"[{name}] wall_s: median of {len(walls)} warm passes; {_percentile_line(walls)}")
    failed_frac = result["failed"] / result["attempted"]
    print(f"[{name}] failed_frac = {failed_frac} ({result['failed']} of {result['attempted']})")
    for error in result["errors"]:
        print(f"[{name}] error: {error}")
    return {key: {"value": values[key], "unit": unit} for key, unit in units.items()}


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads = [workload["name"] for workload in spec["workloads"]]
    parser = argparse.ArgumentParser(description="stabsplit benchmark")
    parser.add_argument("--workload", required=True, choices=(*workloads, "all"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "stabsplit" / "__init__.py").is_file():
        print(f"error: no stabsplit sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    # Turn termination into SystemExit so running workers are killed and reaped.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    section = "per_layer" if args.trace else "end_to_end"
    names = workloads if args.workload == "all" else [args.workload]
    metrics, attempted, failed, correct = {}, 0, 0, True
    for name in names:
        try:
            result = run_workload(name, args.seed, args.seconds, args.trace)
            reported = _report(name, result, section, spec[section])
        except (RuntimeError, subprocess.TimeoutExpired, ValueError, KeyError) as exc:
            print(f"error: workload {name}: {exc}", file=sys.stderr)
            return 1
        prefix = f"{name}." if args.workload == "all" else ""
        metrics.update({prefix + k: v for k, v in reported.items()})
        attempted += result["attempted"]
        failed += result["failed"]
        correct = correct and not result["errors"]
    summary = {"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
