"""Command-line drivers: grid sweeps, decomposition, preparation, cooling,
adaptive growth.

Every subcommand is deterministic.  Sweep rows are computed independently
(optionally in a process pool) and emitted in sorted order, so the CSV bytes
do not depend on the worker count.  Exit codes: 0 success, 1 a grid point or
computation failed, 2 usage error.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from concurrent.futures import ProcessPoolExecutor
from dataclasses import fields

import numpy as np

from .adapt import ADAPT_QUBIT_LIMIT, AdaptConfig, AdaptError, AdaptTrace, run_adapt
from .evolve import QITP_QUBIT_LIMIT, qitp_postselect, variational_jz, deformed_hf, parity_project
from .exact import (
    DickeVector,
    dense_ground_state,
    dicke_hamiltonian_full,
    fidelity,
    ground_state,
    stab_state_dicke_amplitudes,
)
from .lmg import (
    HamiltonianSplit,
    LmgParams,
    best_family_energy,
    build_lmg,
    candidate_groups,
    negated_pair_completion,
    preparation_circuit,
    prepare_stab_state,
    select_candidate,
    select_split,
    split_around,
)
from .metrics import SRE_QUBIT_LIMIT, n_tangle_dicke, one_spin_entropy_dicke, sre
from .tableau import STATEVECTOR_QUBIT_LIMIT

COLUMNS = (
    "N",
    "chi",
    "vbar",
    "E_exact",
    "E_s1",
    "E_s2",
    "E_stab_sel",
    "fid_s1",
    "fid_s2",
    "S1_exact",
    "S1_s2",
    "tauN_exact",
    "tauN_s2",
    "M2_exact",
    "E_varjz",
    "fid_varjz",
    "E_hf",
    "fid_hf",
    "E_hfproj",
    "fid_hfproj",
)

OBSERVABLES = ("energies", "fidelities", "entropy", "tangles", "magic", "varjz", "hf")

_COLUMNS_FOR = {
    "energies": ("E_exact", "E_s1", "E_s2", "E_stab_sel"),
    "fidelities": ("fid_s1", "fid_s2"),
    "entropy": ("S1_exact", "S1_s2"),
    "tangles": ("tauN_exact", "tauN_s2"),
    "magic": ("M2_exact",),
    "varjz": ("E_varjz", "fid_varjz"),
    "hf": ("E_hf", "fid_hf", "E_hfproj", "fid_hfproj"),
}

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


def _bool(text: str) -> bool:
    low = text.lower()
    if low in ("1", "true", "yes", "on"):
        return True
    if low in ("0", "false", "no", "off"):
        return False
    raise UsageError(f"not a boolean: {text!r}")


def _int_list(text: str) -> list[int]:
    return [int(tok) for tok in text.split(",") if tok.strip()]


def _float_list(text: str) -> list[float]:
    return [float(tok) for tok in text.split(",") if tok.strip()]


def _check_vbar(values) -> None:
    """Reject a nan, infinite or negative coupling as a usage error."""
    if not all(math.isfinite(v) and v >= 0 for v in values):
        raise UsageError("vbar must be finite and nonnegative")


def _resolve(args: argparse.Namespace, cfg: dict[str, str], table: dict) -> dict:
    """Merge flag values, config values, and defaults; flags win.

    ``table`` maps each setting name to (cast for config text, default).
    Config keys outside the table are rejected so typos do not pass silently.
    """
    unknown = sorted(set(cfg) - set(table) - {"config"})
    if unknown:
        raise UsageError(f"unknown config keys: {', '.join(unknown)}")
    merged = {}
    for name, (cast, default) in table.items():
        flag_value = getattr(args, name, None)
        if flag_value is not None:
            merged[name] = flag_value
        elif name in cfg:
            try:
                merged[name] = cast(cfg[name])
            except (ValueError, TypeError) as exc:
                raise UsageError(f"config key {name}: {exc}") from exc
        else:
            merged[name] = default
    return merged


def _emit(text: str, path: str | None) -> None:
    if path is None:
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(text)


def _csv_text(columns, rows) -> str:
    lines = [",".join(columns)]
    lines += [",".join(row) for row in rows]
    return "\n".join(lines) + "\n"


def _json_text(columns, rows) -> str:
    records = [dict(zip(columns, row)) for row in rows]
    return json.dumps(records, indent=2) + "\n"


# -- sweep -------------------------------------------------------------------


def _sweep_cells(n: int, chi: float, vbar: float, observables: frozenset) -> dict[str, str]:
    """Requested observable columns for one grid point, already formatted."""
    params = LmgParams(n, vbar, chi)
    cells: dict[str, str] = {}
    exact_energy, exact_state = ground_state(params)
    if "energies" in observables:
        h = build_lmg(params)
        candidates = candidate_groups(h, params)
        cells["E_exact"] = _fmt(exact_energy)
        cells["E_s1"] = _fmt(best_family_energy(candidates, "s1"))
        cells["E_s2"] = _fmt(best_family_energy(candidates, "s2"))
        cells["E_stab_sel"] = _fmt(select_candidate(h, params, candidates).energy)
    if observables & {"fidelities", "entropy", "tangles"}:
        # The s2 state is the X-pair candidate's: at n = 2 it can sit in the
        # odd sector, (|01> + |10>)/sqrt(2) = |J = 1, M = 0>.
        if negated_pair_completion(params):
            s2_state = DickeVector(2, (1,), [1.0])
        else:
            s2_state = stab_state_dicke_amplitudes(n, "s2")
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
        _, dense_vec = dense_ground_state(params)
        cells["M2_exact"] = _fmt(sre(dense_vec))
    if "varjz" in observables:
        res = variational_jz(params)
        cells["E_varjz"] = _fmt(res.energy)
        cells["fid_varjz"] = _fmt(res.fidelity)
    if "hf" in observables:
        h_full = dicke_hamiltonian_full(params)
        _, hf_state = deformed_hf(params)
        cells["E_hf"] = _fmt(float(hf_state.amps @ h_full @ hf_state.amps))
        cells["fid_hf"] = _fmt(fidelity(hf_state, exact_state))
        projected = parity_project(hf_state)
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


_SWEEP_TABLE = {
    "n": (_int_list, [8]),
    "chi": (_float_list, [-1.0]),
    "vbar": (_float_list, None),
    "vbar_min": (float, 0.1),
    "vbar_max": (float, 100.0),
    "vbar_points": (int, 50),
    "linear": (_bool, False),
    "observables": (str, None),
    "out": (str, None),
    "json": (str, None),
    "jobs": (int, None),
    "seed": (int, None),
}


def run_sweep(args: argparse.Namespace, cfg: dict[str, str]) -> int:
    opt = _resolve(args, cfg, _SWEEP_TABLE)
    ns = sorted(set(opt["n"]))
    chis = sorted(set(opt["chi"]))
    if any(n < 2 for n in ns):
        raise UsageError("spin counts must be >= 2")
    if any(not -1.0 <= chi <= 1.0 for chi in chis):
        raise UsageError("chi must lie in [-1, 1]")
    if opt["vbar"] is not None:
        _check_vbar(opt["vbar"])
        vbars = sorted(set(opt["vbar"]))
    else:
        # Finite nonnegative bounds give finite nonnegative grid points.
        _check_vbar((opt["vbar_min"], opt["vbar_max"]))
        if opt["vbar_points"] < 1:
            raise UsageError("vbar-points must be >= 1")
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
    _emit(_csv_text(COLUMNS, rows), opt["out"])
    if opt["json"] is not None:
        _emit(_json_text(COLUMNS, rows), opt["json"])
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


_POINT_TABLE = {
    "n": (int, 8),
    "chi": (float, -1.0),
    "vbar": (float, 1.0),
    "out": (str, None),
    "seed": (int, None),
}


def _point_params(opt) -> LmgParams:
    if opt["n"] < 2:
        raise UsageError("n must be >= 2")
    if not -1.0 <= opt["chi"] <= 1.0:
        raise UsageError("chi must lie in [-1, 1]")
    _check_vbar((opt["vbar"],))
    return LmgParams(opt["n"], opt["vbar"], opt["chi"])


def run_decompose(args: argparse.Namespace, cfg: dict[str, str]) -> int:
    opt = _resolve(args, cfg, _POINT_TABLE)
    params = _point_params(opt)
    split = select_split(build_lmg(params), params)
    _emit("\n".join(_split_report(split)) + "\n", opt["out"])
    return 0


_PREPARE_TABLE = dict(_POINT_TABLE, family=(str, None), emit_state=(_bool, False))


def run_prepare(args: argparse.Namespace, cfg: dict[str, str]) -> int:
    opt = _resolve(args, cfg, _PREPARE_TABLE)
    params = _point_params(opt)
    h = build_lmg(params)
    if opt["family"] is None:
        split = select_split(h, params)
    elif opt["family"] in ("s1", "s2"):
        candidates = {c.family: c for c in candidate_groups(h, params)}
        split = split_around(h, params, candidates[opt["family"]])
    else:
        raise UsageError("family must be s1 or s2")
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


_QITP_TABLE = {
    "n": (int, 8),
    "chi": (float, -1.0),
    "vbar": (float, 1.0),
    "tau_max": (float, 5.0),
    "tau_points": (int, 26),
    "e0": (float, None),
    "out": (str, None),
    "json": (str, None),
    "seed": (int, None),
}


def run_qitp(args: argparse.Namespace, cfg: dict[str, str]) -> int:
    opt = _resolve(args, cfg, _QITP_TABLE)
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
    _, exact_vec = dense_ground_state(params)
    candidates = candidate_groups(h, params)
    e0 = opt["e0"] if opt["e0"] is not None else select_candidate(h, params, candidates).energy
    initials = {c.family: c.group.to_statevector() for c in candidates if c.family != "s3"}
    rows = []
    for tau in np.linspace(0.0, opt["tau_max"], opt["tau_points"]):
        cells = [_fmt(float(tau))]
        evolved = {}
        for key in ("s1", "s2"):
            state, prob = qitp_postselect(h, initials[key], float(tau), e0, eig=eig)
            evolved[key] = (state, prob)
        for key in ("s1", "s2"):
            cells.append(_fmt(fidelity(evolved[key][0], exact_vec)))
        for key in ("s1", "s2"):
            state = evolved[key][0]
            cells.append(_fmt(float(np.real(np.vdot(state, dense @ state)))))
        for key in ("s1", "s2"):
            cells.append(_fmt(evolved[key][1]))
        rows.append(tuple(cells))
    _emit(_csv_text(QITP_COLUMNS, rows), opt["out"])
    if opt["json"] is not None:
        _emit(_json_text(QITP_COLUMNS, rows), opt["json"])
    return 0


# -- adapt ---------------------------------------------------------------------


_ADAPT_TABLE = {
    "n": (int, 8),
    "chi": (float, -1.0),
    "vbar": (float, 1.0),
    "reference": (str, AdaptConfig.reference),
    "max_layers": (int, AdaptConfig.max_layers),
    "grad_threshold": (float, AdaptConfig.grad_threshold),
    "vqe_tol": (float, AdaptConfig.vqe_tol),
    "out": (str, None),
    "json": (str, None),
    "seed": (int, None),
}


def run_adapt_cmd(args: argparse.Namespace, cfg: dict[str, str]) -> int:
    opt = _resolve(args, cfg, _ADAPT_TABLE)
    params = _point_params(opt)
    if params.n > ADAPT_QUBIT_LIMIT:
        raise UsageError(f"adapt needs n <= {ADAPT_QUBIT_LIMIT}")
    try:
        config = AdaptConfig(**{f.name: opt[f.name] for f in fields(AdaptConfig)})
    except ValueError as exc:
        raise UsageError(str(exc)) from exc
    h = build_lmg(params)
    candidates = {c.family: c for c in candidate_groups(h, params)}
    reference = candidates[config.reference].group.to_statevector()
    try:
        trace = run_adapt(h, reference, config)
    except AdaptError as err:
        # Keep the layers recorded before the failure; main reports the error.
        if err.trace is not None:
            _emit_adapt_rows(err.trace, opt)
        raise
    _emit_adapt_rows(trace, opt)
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
    _emit(_csv_text(ADAPT_COLUMNS, rows), opt["out"])
    if opt["json"] is not None:
        _emit(_json_text(ADAPT_COLUMNS, rows), opt["json"])


# -- parser ------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="stabsplit",
        description="Stabilizer splits, state preparation, and deformation "
        "drivers for the collective spin model.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser):
        p.add_argument("--config", help="flat key=value file mirroring the flags")
        p.add_argument("--seed", type=int, help="reserved; every run is deterministic")
        p.add_argument("--out", help="output path (default: stdout)")

    sweep = sub.add_parser("sweep", help="grid sweep over (N, chi, vbar) to CSV")
    sweep.add_argument("--n", type=int, action="append", help="spin count (repeatable)")
    sweep.add_argument("--chi", type=float, action="append", help="anisotropy (repeatable)")
    sweep.add_argument("--vbar", type=float, action="append", help="explicit coupling (repeatable)")
    sweep.add_argument("--vbar-min", type=float, dest="vbar_min")
    sweep.add_argument("--vbar-max", type=float, dest="vbar_max")
    sweep.add_argument("--vbar-points", type=int, dest="vbar_points")
    sweep.add_argument("--linear", action="store_true", default=None, help="linear grid (default: log)")
    sweep.add_argument("--observables", help=f"comma list from {{{','.join(OBSERVABLES)}}}")
    sweep.add_argument("--json", help="also write rows as JSON to this path")
    sweep.add_argument("--jobs", type=int, help="worker processes (default: machine)")
    common(sweep)
    sweep.set_defaults(run=run_sweep)

    decompose = sub.add_parser("decompose", help="print the selected stabilizer split")
    decompose.add_argument("--n", type=int)
    decompose.add_argument("--chi", type=float)
    decompose.add_argument("--vbar", type=float)
    common(decompose)
    decompose.set_defaults(run=run_decompose)

    prepare = sub.add_parser("prepare", help="print a family's group, circuit, and state")
    prepare.add_argument("--n", type=int)
    prepare.add_argument("--chi", type=float)
    prepare.add_argument("--vbar", type=float)
    prepare.add_argument("--family", choices=("s1", "s2"))
    prepare.add_argument("--emit-state", action="store_true", default=None, dest="emit_state")
    common(prepare)
    prepare.set_defaults(run=run_prepare)

    qitp = sub.add_parser("qitp", help="projection-cooling curves to CSV")
    qitp.add_argument("--n", type=int)
    qitp.add_argument("--chi", type=float)
    qitp.add_argument("--vbar", type=float)
    qitp.add_argument("--tau-max", type=float, dest="tau_max")
    qitp.add_argument("--tau-points", type=int, dest="tau_points")
    qitp.add_argument("--e0", type=float, help="energy shift (default: selected stabilizer energy)")
    qitp.add_argument("--json", help="also write rows as JSON to this path")
    common(qitp)
    qitp.set_defaults(run=run_qitp)

    adapt = sub.add_parser("adapt", help="adaptive ansatz growth trace to CSV")
    adapt.add_argument("--n", type=int)
    adapt.add_argument("--chi", type=float)
    adapt.add_argument("--vbar", type=float)
    adapt.add_argument("--reference", choices=("s1", "s2"))
    adapt.add_argument("--max-layers", type=int, dest="max_layers")
    adapt.add_argument("--grad-threshold", type=float, dest="grad_threshold")
    adapt.add_argument(
        "--vqe-tol",
        type=float,
        dest="vqe_tol",
        help="stop re-optimizing when one step lowers the energy by less than this (default 1e-12)",
    )
    adapt.add_argument("--json", help="also write rows as JSON to this path")
    common(adapt)
    adapt.set_defaults(run=run_adapt_cmd)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        cfg = _load_config(args.config) if args.config else {}
        return args.run(args, cfg)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
