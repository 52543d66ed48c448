"""Command-line drivers: grid sweeps, decomposition, preparation, cooling,
adaptive growth.

Every subcommand is deterministic.  Sweep rows are computed independently
(optionally in a process pool) and emitted in sorted order, so the CSV bytes
do not depend on the worker count.  Exit codes: 0 success, 1 a grid point or
computation failed, 2 usage error.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import sys
from dataclasses import fields

import numpy as np

from .adapt import ADAPT_QUBIT_LIMIT, AdaptConfig, AdaptError, AdaptTrace, run_adapt
from .evolve import QITP_QUBIT_LIMIT, qitp_postselect, variational_jz, deformed_hf, parity_project
from .exact import (
    dense_ground_state,
    dicke_hamiltonian_full,
    fidelity,
    ground_state,
    s2_candidate_state,
    stab_state_dicke_amplitudes,
)
from .lmg import (
    HamiltonianSplit,
    LmgParams,
    best_family_energy,
    build_lmg,
    candidate_groups,
    preparation_circuit,
    prepare_stab_state,
    select_candidate,
    select_split,
    split_around,
)
from .metrics import SRE_QUBIT_LIMIT, n_tangle_dicke, one_spin_entropy_dicke, sre
from .tableau import STATEVECTOR_QUBIT_LIMIT

# Sweep observables and the columns each fills, in column order.
_COLUMNS_FOR = {
    "energies": ("E_exact", "E_s1", "E_s2", "E_stab_sel"),
    "fidelities": ("fid_s1", "fid_s2"),
    "entropy": ("S1_exact", "S1_s2"),
    "tangles": ("tauN_exact", "tauN_s2"),
    "magic": ("M2_exact",),
    "varjz": ("E_varjz", "fid_varjz"),
    "hf": ("E_hf", "fid_hf", "E_hfproj", "fid_hfproj"),
}
OBSERVABLES = tuple(_COLUMNS_FOR)
COLUMNS = ("N", "chi", "vbar", *(col for cols in _COLUMNS_FOR.values() for col in cols))

QITP_COLUMNS = (
    "tau",
    "fidelity_s1_init",
    "fidelity_s2_init",
    "energy_s1_init",
    "energy_s2_init",
    "success_prob_s1",
    "success_prob_s2",
)

ADAPT_COLUMNS = (
    "layer",
    "operator_label",
    "gradient",
    "energy",
    "rel_energy_error",
    "fidelity",
)


class UsageError(Exception):
    """Bad flag or config values; mapped to exit code 2."""


def _fmt(value: float) -> str:
    return f"{value:.12g}"


# -- configuration -----------------------------------------------------------


def _load_config(path: str) -> dict[str, str]:
    """Flat key=value lines; '#' starts a comment; keys use flag names."""
    try:
        with open(path, encoding="utf-8") as handle:
            text = handle.read()
    except OSError as exc:
        raise UsageError(f"cannot read config file: {exc}") from exc
    out: dict[str, str] = {}
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise UsageError(f"{path}:{lineno}: expected key=value, got {raw.strip()!r}")
        key, value = line.split("=", 1)
        out[key.strip().replace("-", "_")] = value.strip()
    return out


def _cast(kind, text: str):
    """Config text as a value of the setting's ``kind``."""
    if kind is bool:
        low = text.lower()
        if low in ("1", "true", "yes", "on"):
            return True
        if low in ("0", "false", "no", "off"):
            return False
        raise ValueError(f"not a boolean: {text!r}")
    if isinstance(kind, list):
        values = [kind[0](tok) for tok in text.split(",") if tok.strip()]
        if not values:
            raise ValueError("empty list")
        return values
    if isinstance(kind, tuple):
        if text not in kind:
            raise ValueError(f"must be one of {', '.join(kind)}, got {text!r}")
        return text
    return kind(text)


def _resolve(args: argparse.Namespace, cfg: dict[str, str], settings: dict) -> dict:
    """Merge flag values, config values, and defaults; flags win.

    Config keys outside ``settings`` are rejected so typos do not pass
    silently.
    """
    unknown = sorted(set(cfg) - set(settings) - {"config"})
    if unknown:
        raise UsageError(f"unknown config keys: {', '.join(unknown)}")
    opt = {}
    for name, (kind, default, _) in settings.items():
        flag_value = getattr(args, name)
        if flag_value is not None:
            opt[name] = flag_value
        elif name in cfg:
            try:
                opt[name] = _cast(kind, cfg[name])
            except (ValueError, TypeError) as exc:
                raise UsageError(f"config key {name}: {exc}") from exc
        else:
            opt[name] = default
    return opt


def _emit(text: str, path: str | None) -> None:
    if path is None:
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(text)


def _emit_table(columns, rows, opt: dict) -> None:
    """Rows as CSV to ``out`` and, when ``json`` is set, as JSON records there."""
    lines = [",".join(columns)] + [",".join(row) for row in rows]
    _emit("\n".join(lines) + "\n", opt["out"])
    if opt["json"] is not None:
        records = [dict(zip(columns, row)) for row in rows]
        _emit(json.dumps(records, indent=2) + "\n", opt["json"])


def _point_params(point) -> LmgParams:
    """``point``'s n, vbar and chi as LmgParams; a rule they break is a usage error."""
    try:
        return LmgParams(point["n"], point["vbar"], point["chi"])
    except ValueError as exc:
        raise UsageError(str(exc)) from exc


# -- sweep -------------------------------------------------------------------


def _sweep_cells(n: int, chi: float, vbar: float, observables: frozenset) -> dict[str, str]:
    """Requested observable columns for one grid point, already formatted."""
    params = LmgParams(n, vbar, chi)
    cells: dict[str, str] = {}
    exact_energy, exact_state = ground_state(params)
    if observables & {"energies", "magic"}:
        h = build_lmg(params)
    if "energies" in observables:
        candidates = candidate_groups(h, params)
        cells["E_exact"] = _fmt(exact_energy)
        cells["E_s1"] = _fmt(best_family_energy(candidates, "s1"))
        cells["E_s2"] = _fmt(best_family_energy(candidates, "s2"))
        cells["E_stab_sel"] = _fmt(select_candidate(h, params, candidates).energy)
    if observables & {"fidelities", "entropy", "tangles", "varjz"}:
        s2_state = s2_candidate_state(params)
    if "fidelities" in observables:
        s1_state = stab_state_dicke_amplitudes(n, "s1")
        cells["fid_s1"] = _fmt(fidelity(s1_state, exact_state))
        cells["fid_s2"] = _fmt(fidelity(s2_state, exact_state))
    if "entropy" in observables:
        cells["S1_exact"] = _fmt(one_spin_entropy_dicke(exact_state))
        cells["S1_s2"] = _fmt(one_spin_entropy_dicke(s2_state))
    if "tangles" in observables:
        cells["tauN_exact"] = _fmt(n_tangle_dicke(exact_state))
        cells["tauN_s2"] = _fmt(n_tangle_dicke(s2_state))
    if "magic" in observables:
        _, dense_vec = dense_ground_state(h)
        cells["M2_exact"] = _fmt(sre(dense_vec))
    if "varjz" in observables:
        res = variational_jz(params, reference=s2_state, exact_state=exact_state)
        cells["E_varjz"] = _fmt(res.energy)
        cells["fid_varjz"] = _fmt(res.fidelity)
    if "hf" in observables:
        h_full = dicke_hamiltonian_full(params)
        _, hf_state = deformed_hf(params)
        cells["E_hf"] = _fmt(float(hf_state.amps @ h_full @ hf_state.amps))
        cells["fid_hf"] = _fmt(fidelity(hf_state, exact_state))
        projected = parity_project(hf_state, (-1) ** (n - exact_state.ks[0]))
        cells["E_hfproj"] = _fmt(float(projected.amps @ h_full @ projected.amps))
        cells["fid_hfproj"] = _fmt(fidelity(projected, exact_state))
    return cells


def _row_worker(task):
    """One grid point; returns formatted cells or the failure message."""
    n, chi, vbar, observables = task
    try:
        return _sweep_cells(n, chi, vbar, frozenset(observables)), None
    except Exception as exc:
        return None, f"{type(exc).__name__}: {exc}"


def run_sweep(opt: dict) -> int:
    ns = sorted(set(opt["n"]))
    chis = sorted(set(opt["chi"]))
    explicit = opt["vbar"] is not None
    for n in ns:
        for chi in chis:
            for vbar in opt["vbar"] if explicit else (opt["vbar_min"], opt["vbar_max"]):
                # Valid bounds give valid grid points.
                _point_params({"n": n, "chi": chi, "vbar": vbar})
    if explicit:
        vbars = sorted(set(opt["vbar"]))
    else:
        if opt["vbar_points"] < 1:
            raise UsageError("vbar-points must be >= 1")
        if opt["vbar_min"] > opt["vbar_max"]:
            raise UsageError("vbar-min must not exceed vbar-max")
        if opt["linear"]:
            vbars = list(np.linspace(opt["vbar_min"], opt["vbar_max"], opt["vbar_points"]))
        else:
            if opt["vbar_min"] <= 0:
                raise UsageError("log-spaced grids need vbar-min > 0 (use --linear)")
            vbars = list(np.geomspace(opt["vbar_min"], opt["vbar_max"], opt["vbar_points"]))

    if opt["observables"] is None:
        observables = set(OBSERVABLES)
        if max(ns) > SRE_QUBIT_LIMIT:
            observables.discard("magic")
    else:
        tokens = [tok.strip() for tok in opt["observables"].split(",") if tok.strip()]
        if not tokens:
            raise UsageError(f"observables must name at least one of {','.join(OBSERVABLES)}")
        bad = sorted(set(tokens) - set(OBSERVABLES))
        if bad:
            raise UsageError(f"unknown observables: {', '.join(bad)}")
        observables = set(tokens)
        if "magic" in observables and max(ns) > SRE_QUBIT_LIMIT:
            raise UsageError(f"magic needs every N <= {SRE_QUBIT_LIMIT}")

    requested = {col for obs in observables for col in _COLUMNS_FOR[obs]}
    tasks = [
        (n, chi, vbar, tuple(sorted(observables)))
        for n in ns
        for chi in chis
        for vbar in vbars
    ]
    jobs = opt["jobs"] if opt["jobs"] is not None else (os.cpu_count() or 1)
    if jobs < 1:
        raise UsageError("jobs must be >= 1")
    if jobs > 1 and len(tasks) > 1:
        # Imported here: the pool's import costs every other command's start.
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=jobs) as pool:
            results = list(pool.map(_row_worker, tasks))
    else:
        results = [_row_worker(task) for task in tasks]

    failed = False
    rows = []
    for (n, chi, vbar, _), (cells, error) in zip(tasks, results):
        if error is not None:
            failed = True
            print(f"sweep point N={n} chi={chi} vbar={vbar}: {error}", file=sys.stderr)
            cells = {col: "ERROR" for col in requested}
        index = {"N": str(n), "chi": _fmt(chi), "vbar": _fmt(vbar)}
        rows.append(
            tuple(index[col] if col in index else cells.get(col, "") for col in COLUMNS)
        )
    _emit_table(COLUMNS, rows, opt)
    return 1 if failed else 0


# -- decompose / prepare -----------------------------------------------------


def _circuit_text(gates) -> str:
    return "; ".join(f"{g.name} {' '.join(str(q) for q in g.qubits)}" for g in gates)


def _split_report(split: HamiltonianSplit) -> list[str]:
    lines = [f"family: {split.family}", "generators:"]
    lines += [g.render() for g in split.group.generators]
    lines.append(f"stabilizer energy: {_fmt(split.stab_energy)}")
    lines.append("magic part:")
    lines += [f"{_fmt(coeff)} {s.render()}" for coeff, s in split.magic_part.terms]
    lines.append(f"circuit: {_circuit_text(preparation_circuit(split))}")
    return lines


def run_decompose(opt: dict) -> int:
    params = _point_params(opt)
    split = select_split(build_lmg(params), params)
    _emit("\n".join(_split_report(split)) + "\n", opt["out"])
    return 0


def run_prepare(opt: dict) -> int:
    params = _point_params(opt)
    h = build_lmg(params)
    if opt["family"] is None:
        split = select_split(h, params)
    else:
        candidates = {c.family: c for c in candidate_groups(h, params)}
        split = split_around(h, params, candidates[opt["family"]])
    lines = _split_report(split)
    if opt["emit_state"]:
        if params.n > STATEVECTOR_QUBIT_LIMIT:
            raise UsageError(f"state emission needs n <= {STATEVECTOR_QUBIT_LIMIT}")
        state = prepare_stab_state(split)
        lines.append("state:")
        for idx in np.nonzero(np.abs(state) > 1e-12)[0]:
            amp = state[idx]
            lines.append(f"{idx:0{params.n}b} {_fmt(amp.real)} {_fmt(amp.imag)}")
    _emit("\n".join(lines) + "\n", opt["out"])
    return 0


# -- qitp ----------------------------------------------------------------------


def run_qitp(opt: dict) -> int:
    params = _point_params(opt)
    n = params.n
    if n > QITP_QUBIT_LIMIT:
        raise UsageError(f"qitp needs n <= {QITP_QUBIT_LIMIT}")
    if opt["tau_points"] < 1 or not 0 <= opt["tau_max"] < math.inf:
        raise UsageError("need finite tau-max >= 0 and tau-points >= 1")
    if opt["e0"] is not None and not math.isfinite(opt["e0"]):
        raise UsageError("e0 must be finite")
    h = build_lmg(params)
    dense = h.dense_real()
    eig = np.linalg.eigh(dense)
    _, exact_vec = dense_ground_state(h)
    candidates = candidate_groups(h, params)
    e0 = opt["e0"] if opt["e0"] is not None else select_candidate(h, params, candidates).energy
    # The s1 and s2 starts, in column order.
    initials = [c.group.to_statevector() for c in candidates]
    rows = []
    for tau in np.linspace(0.0, opt["tau_max"], opt["tau_points"]):
        evolved = qitp_postselect(h, initials, float(tau), e0, eig=eig)
        cells = [_fmt(float(tau))]
        cells += [_fmt(fidelity(state, exact_vec)) for state, _ in evolved]
        cells += [_fmt(float(np.real(np.vdot(state, dense @ state)))) for state, _ in evolved]
        cells += [_fmt(prob) for _, prob in evolved]
        rows.append(tuple(cells))
    _emit_table(QITP_COLUMNS, rows, opt)
    return 0


# -- adapt ---------------------------------------------------------------------


def run_adapt_cmd(opt: dict) -> int:
    params = _point_params(opt)
    if params.n > ADAPT_QUBIT_LIMIT:
        raise UsageError(f"adapt needs n <= {ADAPT_QUBIT_LIMIT}")
    try:
        config = AdaptConfig(**{f.name: opt[f.name] for f in fields(AdaptConfig)})
    except ValueError as exc:
        raise UsageError(str(exc)) from exc
    h = build_lmg(params)
    candidates = {c.family: c for c in candidate_groups(h, params)}
    reference = candidates[opt["reference"]].group.to_statevector()
    try:
        trace = run_adapt(h, reference, config)
    except AdaptError as err:
        # Keep the layers recorded before the failure; main reports the error.
        if err.trace is not None:
            _emit_adapt_rows(err.trace, opt)
        raise
    _emit_adapt_rows(trace, opt)
    last = trace.layers[-1]
    if trace.converged and last.fidelity < 1.0 - 1e-6:
        # No gradient is left, yet the state is not the reference sector's
        # ground state: a stationary point of the pool, not convergence.
        print(
            f"note: adapt stopped at layer {last.layer} with every gradient below "
            f"{_fmt(config.grad_threshold)} but fidelity {_fmt(last.fidelity)}: "
            "a stationary point, not the ground state of the start's parity sector",
            file=sys.stderr,
        )
    return 0


def _emit_adapt_rows(trace: AdaptTrace, opt: dict) -> None:
    rows = [
        (
            str(record.layer),
            record.label,
            _fmt(record.gradient),
            _fmt(record.energy),
            _fmt(rel),
            _fmt(record.fidelity),
        )
        for record, rel in zip(trace.layers, trace.rel_energy_errors())
    ]
    _emit_table(ADAPT_COLUMNS, rows, opt)


# -- settings and parser -------------------------------------------------------


# Each subcommand's runner, help line and settings, name -> (kind, default,
# help).  The flag is --name with dashes and the config key is the name.
# kind is int, float or str; [int] or [float] for a repeatable flag (a comma
# list in a config file); bool for a switch; or a tuple of choices.
_POINT = {
    "n": (int, 8, "spin count, >= 2"),
    "chi": (float, -1.0, "anisotropy in [-1, 1]"),
    "vbar": (float, 1.0, "coupling, finite and >= 0"),
}
_JSON = {"json": (str, None, "also write rows as JSON to this path")}
_OUTPUT = {
    "seed": (int, None, "reserved; every run is deterministic"),
    "out": (str, None, "output path (default: stdout)"),
}
SETTINGS = {
    "sweep": (
        run_sweep,
        "grid sweep over (N, chi, vbar) to CSV",
        {
            "n": ([int], [8], "spin count (repeatable)"),
            "chi": ([float], [-1.0], "anisotropy (repeatable)"),
            "vbar": ([float], None, "explicit coupling (repeatable; default: the grid)"),
            "vbar_min": (float, 0.1, "lowest grid coupling"),
            "vbar_max": (float, 100.0, "highest grid coupling"),
            "vbar_points": (int, 50, "grid points"),
            "linear": (bool, False, "linear grid (default: log)"),
            "observables": (str, None, f"comma list from {{{','.join(OBSERVABLES)}}}"),
            **_JSON,
            "jobs": (int, None, "worker processes (default: machine)"),
            **_OUTPUT,
        },
    ),
    "decompose": (run_decompose, "print the selected stabilizer split", {**_POINT, **_OUTPUT}),
    "prepare": (
        run_prepare,
        "print a family's group, circuit, and state",
        {
            **_POINT,
            "family": (("s1", "s2"), None, "stabilizer family (default: the selected one)"),
            "emit_state": (bool, False, "also print the state's nonzero amplitudes"),
            **_OUTPUT,
        },
    ),
    "qitp": (
        run_qitp,
        "projection-cooling curves to CSV",
        {
            **_POINT,
            "tau_max": (float, 5.0, "largest imaginary time"),
            "tau_points": (int, 26, "imaginary-time grid points"),
            "e0": (float, None, "energy shift (default: selected stabilizer energy)"),
            **_JSON,
            **_OUTPUT,
        },
    ),
    "adapt": (
        run_adapt_cmd,
        "adaptive ansatz growth trace to CSV",
        {
            **_POINT,
            "reference": (("s1", "s2"), "s2", "start state: s2 the X-pair, s1 all spins down"),
            "max_layers": (int, AdaptConfig.max_layers, "layer cap"),
            "grad_threshold": (float, AdaptConfig.grad_threshold, "stop when no gradient exceeds this"),
            "vqe_tol": (float, AdaptConfig.vqe_tol, "re-optimization stops below this energy step"),
            **_JSON,
            **_OUTPUT,
        },
    ),
}


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """One subparser per ``SETTINGS`` entry, one flag per setting; built on
    first use and shared by every later ``main`` call in the process."""
    parser = argparse.ArgumentParser(
        prog="stabsplit",
        description="Stabilizer splits, state preparation, and deformation "
        "drivers for the collective spin model.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for command, (_, summary, settings) in SETTINGS.items():
        p = sub.add_parser(command, help=summary)
        p.add_argument("--config", help="flat key=value file mirroring the flags")
        for name, (kind, default, text) in settings.items():
            flag = "--" + name.replace("_", "-")
            if default is not None and kind is not bool:
                shown = ",".join(map(str, default)) if isinstance(kind, list) else default
                text = f"{text} (default: {shown})"
            if kind is bool:
                p.add_argument(flag, action="store_true", default=None, help=text)
            elif isinstance(kind, list):
                p.add_argument(flag, type=kind[0], action="append", help=text)
            elif isinstance(kind, tuple):
                p.add_argument(flag, choices=kind, help=text)
            else:
                p.add_argument(flag, type=None if kind is str else kind, help=text)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = _load_config(args.config) if args.config else {}
        run, _, settings = SETTINGS[args.command]
        return run(_resolve(args, cfg, settings))
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
