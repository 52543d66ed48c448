"""Self-test of the benchmark's output checks and tracer.

    python3 -m pytest perfbench/tests -q

Each check is fed a real CLI output that passes, then a corrupted copy that
must be rejected and counted as a failed operation.
"""

from __future__ import annotations

import dataclasses
import re
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(BENCH.parent / "src"))
sys.path.insert(0, str(BENCH))

import stabsplit.cli as cli  # noqa: E402
from tracing import Spans, Tracer  # noqa: E402
from worker import Run  # noqa: E402
from workloads import (  # noqa: E402
    build_workloads,
    check_adapt_trace,
    check_collective_sweep,
    dense_energy_floor,
)


@pytest.fixture(scope="module")
def table():
    return build_workloads()


@pytest.fixture(scope="module")
def paper_run(table):
    run = Run(cli, table["paper-n8"], seed=3)
    run.one_pass()
    return run


def _alter_digit(text: str, line: int, column: str) -> str:
    """Change the last digit of one CSV cell."""
    lines = text.splitlines(keepends=True)
    header = lines[0].rstrip("\n").split(",")
    cells = lines[line].rstrip("\n").split(",")
    cell = cells[header.index(column)]
    digit = re.search(r"\d(?=\D*$)", cell)
    swapped = "1" if digit.group() != "1" else "2"
    cells[header.index(column)] = cell[: digit.start()] + swapped + cell[digit.end() :]
    lines[line] = ",".join(cells) + "\n"
    return "".join(lines)


def _small_run(workload, argv, check) -> tuple[Run, list[str]]:
    small = dataclasses.replace(workload, commands=(tuple(argv),), checks=(check,))
    run = Run(cli, small, seed=0)
    run.one_pass()
    assert (run.attempted, run.failed) == (1, 0), run.errors
    return run, run.reference


def test_paper_n8_outputs_match_recorded_digests(paper_run):
    assert (paper_run.attempted, paper_run.failed) == (4, 0), paper_run.errors


def test_altered_sweep_digit_is_rejected_and_counted(paper_run):
    outputs = list(paper_run.reference)
    outputs[0] = _alter_digit(outputs[0], 7, "M2_exact")
    before = paper_run.failed
    paper_run.record(outputs, [0] * len(outputs))
    assert paper_run.failed == before + 1
    assert "sha256" in paper_run.errors[-1] and paper_run.errors[-1].startswith("sweep")


def test_collective_closed_forms_reject_altered_energy(table):
    ns, vbars = (12, 16), (0.5, 3.0)
    argv = ["sweep", "--n", "12", "--n", "16", "--chi", "-1", "--vbar", "0.5", "--vbar", "3"]
    run, outputs = _small_run(
        table["collective-large-n"],
        [*argv, "--jobs", "1"],
        lambda text: check_collective_sweep(text, ns, vbars),
    )
    for column in ("E_s1", "E_s2"):
        before = run.failed
        run.record([_alter_digit(outputs[0], 3, column)], [0])
        assert run.failed == before + 1
        assert column in run.errors[-1]


def test_adapt_check_rejects_rising_energy(table):
    layers = 4
    floor = dense_energy_floor(4, 5.0, -1.0)
    argv = ["adapt", "--n", "4", "--vbar", "5", "--reference", "s2", "--max-layers", str(layers)]
    run, outputs = _small_run(
        table["adapt-n8"], argv, lambda text: check_adapt_trace(text, layers, -5.0, floor)
    )
    # Line k + 1 holds layer k; raise layer 2 above layer 1.
    lines = outputs[0].splitlines(keepends=True)
    col = lines[0].rstrip("\n").split(",").index("energy")
    previous = float(lines[2].split(",")[col])
    cells = lines[3].rstrip("\n").split(",")
    cells[col] = repr(previous + 1e-3)
    lines[3] = ",".join(cells) + "\n"
    run.record(["".join(lines)], [0])
    assert run.failed == 1
    assert "rose at layer 2" in run.errors[-1]


def test_failed_exit_code_is_counted(paper_run):
    before = paper_run.failed
    paper_run.record(list(paper_run.reference), [0, 1, 0, 0])
    assert paper_run.failed == before + 1
    assert "exit code 1" in paper_run.errors[-1]


def test_tracer_is_complete_neutral_and_repeatable(table, paper_run):
    tracer = Tracer("stabsplit")
    summaries = []
    for _ in range(2):
        spans = Spans()
        before = paper_run.failed
        paper_run.one_pass(tracer.recording(spans))
        # Traced outputs are byte-identical to the untraced first pass.
        assert paper_run.failed == before
        summaries.append(spans.summary(len(tracer.labels)))
    assert list(summaries[0][0]) == list(summaries[1][0])
    calls = dict(zip(tracer.labels, summaries[0][0]))
    # 50 grid points plus qitp; magic once per grid point.
    assert calls["exact.dense_ground_state"] == 51
    assert calls["metrics.sre"] == 50
    assert calls["cli.main"] == 4
    # Originals are restored after recording.
    assert len(tracer.unwrapped()) >= len(tracer.labels)


def test_tracer_reports_a_binding_it_missed():
    tracer = Tracer("stabsplit")
    import stabsplit.metrics

    original = stabsplit.metrics.sre
    with tracer.recording(Spans()):
        assert tracer.unwrapped() == []
        wrapped = cli.sre
        cli.sre = original
        try:
            assert tracer.unwrapped() == ["stabsplit.cli.sre"]
        finally:
            cli.sre = wrapped
    assert cli.sre is original
