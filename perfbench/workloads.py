"""The benchmark's workloads: CLI commands, output checks and their reasons.

Every workload is a fixed list of ``stabsplit`` CLI invocations.  The
program is deterministic and its ``--seed`` flag is reserved and unused, so
the benchmark's seed is handed to that flag unchanged: the checks then also
confirm that no output depends on it.
"""

from __future__ import annotations

import csv
import hashlib
import io
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np


class CheckError(Exception):
    """An output failed its check."""


# sha256 of the paper's N = 8 outputs, recorded at the commit that added the
# benchmark; ROADMAP freezes these bytes.
PAPER_N8_SHA256 = {
    "sweep": "0a3f86ee78848ca5b985dd0538b28356b31a495b076020ec13c002585fb174b8",
    "qitp": "e33bd959a67dc2980f59f227112f9936d266f1a255e8a858243eed10b145f546",
    "decompose": "467f40ecb48ecdd31e88aaa000015b80df460b889328d8567ec68630dcc0be37",
    "prepare": "5aede7e3e54742678663f65c1ef4925ea30eb5e2863b21464abbd3591e70ad37",
}


def _rows(text: str) -> list[dict[str, str]]:
    return list(csv.DictReader(io.StringIO(text)))


def _number(row: dict[str, str], column: str) -> float:
    try:
        value = float(row[column])
    except (KeyError, ValueError) as exc:
        raise CheckError(f"column {column}: {exc}") from exc
    if not math.isfinite(value):
        raise CheckError(f"column {column} is not finite: {row[column]!r}")
    return value


def _close(got: float, want: float, rel: float, what: str) -> None:
    if abs(got - want) > rel * max(abs(want), 1e-300):
        raise CheckError(f"{what} = {got!r}, expected {want!r} within {rel:g} relative")


def check_digest(expected: str) -> Callable[[str], None]:
    def check(text: str) -> None:
        got = hashlib.sha256(text.encode()).hexdigest()
        if got != expected:
            raise CheckError(f"sha256 {got[:10]} differs from recorded {expected[:10]}")

    return check


def check_collective_sweep(text: str, ns: tuple[int, ...], vbars: tuple[float, ...]) -> None:
    """Closed forms that hold at any N: E_s1 = -N/2, E_s2 = -N vbar / 4."""
    rows = _rows(text)
    got = [(row.get("N"), row.get("vbar")) for row in rows]
    want = [(str(n), f"{v:.12g}") for n in ns for v in vbars]
    if got != want:
        raise CheckError(f"rows cover (N, vbar) = {got}, expected {want}")
    for row in rows:
        n = int(row["N"])
        vbar = _number(row, "vbar")
        where = f"N={n} vbar={row['vbar']}"
        for column, value in row.items():
            if value != "" and column != "N":
                _number(row, column)
        _close(_number(row, "E_s1"), -n / 2.0, 1e-9, f"E_s1 at {where}")
        _close(_number(row, "E_s2"), -n * vbar / 4.0, 1e-9, f"E_s2 at {where}")
        if not _number(row, "E_exact") <= _number(row, "E_stab_sel"):
            raise CheckError(f"E_exact above E_stab_sel at {where}")
        if row.get("M2_exact") != "":
            raise CheckError(f"M2_exact should be empty above N = 10 at {where}")
        for column in ("fid_s1", "fid_s2"):
            if not 0.0 <= _number(row, column) <= 1.0:
                raise CheckError(f"{column} outside [0, 1] at {where}")


def dense_energy_floor(n: int, vbar: float, chi: float) -> float:
    """Lowest eigenvalue of the full 2^n Hamiltonian, built independently of
    stabsplit from H = sum_q Z_q / 2 - vbar / (2 (n-1)) sum_{i<j} (X_i X_j +
    chi Y_i Y_j), with sum_{i<j} A_i A_j = ((sum_q A_q)^2 - n) / 2."""
    paulis = {
        "X": np.array([[0, 1], [1, 0]], dtype=complex),
        "Y": np.array([[0, -1j], [1j, 0]]),
        "Z": np.array([[1, 0], [0, -1]], dtype=complex),
    }
    dim = 1 << n

    def total(letter: str) -> np.ndarray:
        out = np.zeros((dim, dim), dtype=complex)
        for q in range(n):
            out += np.kron(np.kron(np.eye(1 << q), paulis[letter]), np.eye(1 << (n - q - 1)))
        return out

    ident = np.eye(dim)
    sx, sy = total("X"), total("Y")
    pairs_x = (sx @ sx - n * ident) / 2.0
    pairs_y = (sy @ sy - n * ident) / 2.0
    h = total("Z") / 2.0 - vbar / (2.0 * (n - 1)) * (pairs_x + chi * pairs_y)
    return float(np.linalg.eigvalsh(h)[0])


def check_adapt_trace(text: str, layers: int, first_energy: float, floor: float) -> None:
    """Layer count, reference energy, monotone descent and the variational floor."""
    rows = _rows(text)
    if [row.get("layer") for row in rows] != [str(k) for k in range(layers + 1)]:
        raise CheckError(f"expected layers 0..{layers}, got {len(rows)} rows")
    energies = [_number(row, "energy") for row in rows]
    _close(energies[0], first_energy, 1e-9, "layer-0 energy")
    for k in range(1, len(energies)):
        if energies[k] > energies[k - 1]:
            raise CheckError(f"energy rose at layer {k}: {energies[k - 1]!r} -> {energies[k]!r}")
    for k, energy in enumerate(energies):
        if energy < floor - 1e-9:
            raise CheckError(f"layer {k} energy {energy!r} below the exact ground energy {floor!r}")


def sweep_final_rel_error(text: str) -> float:
    """(E_stab_sel - E_exact) / |E_exact| on the sweep's last row."""
    last = _rows(text)[-1]
    exact = _number(last, "E_exact")
    return (_number(last, "E_stab_sel") - exact) / abs(exact)


def adapt_final_rel_error(text: str) -> float:
    return _number(_rows(text)[-1], "rel_energy_error")


@dataclass(frozen=True)
class Workload:
    """CLI commands run in order as one pass, one check per command."""

    name: str
    why: str
    commands: tuple[tuple[str, ...], ...]
    checks: tuple[Callable[[str], None], ...]
    # Relative energy error of the last approximation the pass outputs,
    # read from the first command's output.
    final_rel_error: Callable[[str], float]
    # Bases of the per-layer ratios: grid points plus single-point commands,
    # adapt layers, and the qubit count of the dense layers.
    points: int
    layers: int
    qubits: int

    def argvs(self, seed: int) -> list[list[str]]:
        return [[*command, "--seed", str(seed)] for command in self.commands]

    def check(self, outputs: list[str], codes: list[int]) -> list[str | None]:
        """One entry per command: None when it passed, else the reason."""
        errors = []
        for command, check, text, code in zip(self.commands, self.checks, outputs, codes):
            error = None
            if code != 0:
                error = f"exit code {code}"
            else:
                try:
                    check(text)
                except CheckError as exc:
                    error = str(exc)
            errors.append(None if error is None else f"{' '.join(command)}: {error}")
        return errors


def build_workloads() -> dict[str, Workload]:
    """The workload table; computes the adapt check's exact energy floor."""
    large_ns, large_vbar = (100, 200), 10.0
    adapt_layers = 24
    adapt_floor = dense_energy_floor(8, 5.0, -1.0)
    table = [
        Workload(
            name="paper-n8",
            why="the paper's N = 8 outputs (sweep, qitp, decompose, prepare); "
            "dense exact, sre and evolve dominate",
            commands=(
                ("sweep", "--n", "8", "--chi", "-1", "--jobs", "1"),
                ("qitp", "--n", "8", "--vbar", "1.1"),
                ("decompose", "--n", "8", "--vbar", "5"),
                ("prepare", "--n", "8", "--vbar", "5", "--family", "s2", "--emit-state"),
            ),
            checks=tuple(check_digest(PAPER_N8_SHA256[k]) for k in PAPER_N8_SHA256),
            final_rel_error=sweep_final_rel_error,
            points=50 + 3,
            layers=0,
            qubits=8,
        ),
        Workload(
            name="collective-large-n",
            why="sweep at N = 100 and 200 with no 2^N path; the tableau and lmg "
            "layers do almost all the work",
            commands=(
                (
                    "sweep",
                    *(arg for n in large_ns for arg in ("--n", str(n))),
                    "--chi", "-1", "--vbar", str(large_vbar), "--jobs", "1",
                ),
            ),
            checks=(lambda text: check_collective_sweep(text, large_ns, (large_vbar,)),),
            final_rel_error=sweep_final_rel_error,
            points=len(large_ns),
            layers=0,
            qubits=max(large_ns),
        ),
        Workload(
            name="adapt-n8",
            why="adaptive growth at N = 8, vbar = 5 cut to 24 layers; the adapt "
            "layer does all the work",
            commands=(
                (
                    "adapt", "--n", "8", "--vbar", "5", "--reference", "s2",
                    "--max-layers", str(adapt_layers),
                ),
            ),
            checks=(
                lambda text: check_adapt_trace(text, adapt_layers, -10.0, adapt_floor),
            ),
            final_rel_error=adapt_final_rel_error,
            points=1,
            layers=adapt_layers,
            qubits=8,
        ),
    ]
    return {w.name: w for w in table}

