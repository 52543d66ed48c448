"""CLI tests: flag handling, CSV schemas, golden determinism, exit codes."""

import hashlib
import importlib.util
import json
import os
import shlex
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import stabsplit.adapt as adapt_module
import stabsplit.cli as cli
import stabsplit.lmg as lmg
from stabsplit.cli import ADAPT_COLUMNS, COLUMNS, QITP_COLUMNS, main
from stabsplit.exact import dicke_to_statevector, fidelity, ground_state
from stabsplit.lmg import LmgParams, build_lmg, select_split
from stabsplit.metrics import n_tangle, one_spin_entropy
from stabsplit.pauli import PauliHamiltonian
from stabsplit.tableau import CliffordGate, apply_circuit
from test_lmg import reference_candidates


def run_cli(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def parse_csv(text):
    lines = text.strip().split("\n")
    header = lines[0].split(",")
    rows = [dict(zip(header, line.split(","))) for line in lines[1:]]
    return header, rows


def parse_circuit(line):
    gates = []
    for chunk in line.split(": ", 1)[1].split("; "):
        name, *qubits = chunk.split()
        gates.append(CliffordGate(name, tuple(int(q) for q in qubits)))
    return gates


class TestSweep:
    def test_header_and_two_spin_values(self, capsys):
        code, out, _ = run_cli(
            capsys, ["sweep", "--n", "2", "--chi", "-1", "--vbar", "1", "--jobs", "1"]
        )
        assert code == 0
        header, rows = parse_csv(out)
        assert header == list(COLUMNS)
        assert len(rows) == 1
        row = rows[0]
        assert row["N"] == "2" and row["chi"] == "-1" and row["vbar"] == "1"
        assert float(row["E_exact"]) == pytest.approx(-np.sqrt(2.0), abs=1e-10)
        assert row["E_s1"] == "-1" and row["E_s2"] == "-1"
        for col in ("fid_s1", "fid_s2", "fid_varjz", "fid_hf", "fid_hfproj"):
            assert 0.0 <= float(row[col]) <= 1.0 + 1e-12
        assert float(row["E_exact"]) <= min(float(row["E_s1"]), float(row["E_s2"])) + 1e-9

    def test_exact_state_from_the_odd_sector(self, capsys):
        # n = 8, chi = 0.5: the odd-k sector holds the multiplet's ground
        # level, so the even-sector s1, s2 and varjz states overlap it in 0.
        argv = ["sweep", "--n", "8", "--chi", "0.5", "--vbar", "1.4563484775012436",
                "--jobs", "1"]
        code, out, _ = run_cli(capsys, argv)
        assert code == 0
        _, (row,) = parse_csv(out)
        assert row["E_exact"] == "-4.29094205455"
        assert row["fid_s1"] == row["fid_s2"] == row["fid_varjz"] == "0"
        assert float(row["fid_hfproj"]) > 0.999

    def test_two_spin_odd_ground_state_bounds_the_stabilizer_energy(self, capsys):
        code, out, _ = run_cli(
            capsys, ["sweep", "--n", "2", "--chi", "0.5", "--vbar", "2", "--jobs", "1"]
        )
        assert code == 0
        _, (row,) = parse_csv(out)
        assert row["E_exact"] == "-1.5"
        assert float(row["E_exact"]) <= float(row["E_stab_sel"])
        assert row["fid_s2"] == "1"

    def test_varjz_never_above_s2(self, capsys):
        # varjz deforms the row's s2 state, and the deformation at theta = 0
        # is that state, so its energy cannot end above E_s2.
        argv = ["sweep", "--observables", "energies,varjz", "--jobs", "1"]
        argv += [arg for n in range(2, 7) for arg in ("--n", str(n))]
        argv += [arg for chi in ("-1", "-0.5", "0", "0.5", "1") for arg in ("--chi", chi)]
        code, out, _ = run_cli(capsys, argv)
        assert code == 0
        _, rows = parse_csv(out)
        assert len(rows) == 5 * 5 * 50
        for row in rows:
            assert float(row["E_varjz"]) <= float(row["E_s2"]) + 1e-12, row

    def test_s2_cells_describe_the_s2_candidate(self, capsys):
        # fid_s2, S1_s2 and tauN_s2 belong to the state of the group E_s2
        # scores, also at n = 2 with chi > 0, where that state is odd-sector.
        argv = ["sweep", "--n", "2", "--n", "3", "--n", "4", "--vbar", "0.5", "--vbar", "2",
                "--observables", "energies,fidelities,entropy,tangles", "--jobs", "1"]
        for chi in ("-1", "0", "0.5", "1"):
            argv += ["--chi", chi]
        code, out, _ = run_cli(capsys, argv)
        assert code == 0
        _, rows = parse_csv(out)
        assert len(rows) == 3 * 4 * 2
        for row in rows:
            params = LmgParams(int(row["N"]), float(row["vbar"]), float(row["chi"]))
            h = build_lmg(params)
            candidate = next(c for c in lmg.candidate_groups(h, params) if c.family == "s2")
            state = candidate.group.to_statevector()
            exact = dicke_to_statevector(ground_state(params)[1])
            assert float(row["E_s2"]) == pytest.approx(candidate.energy, abs=1e-11)
            assert float(row["fid_s2"]) == pytest.approx(fidelity(state, exact), abs=1e-11)
            assert float(row["S1_s2"]) == pytest.approx(one_spin_entropy(state), abs=1e-11)
            assert float(row["tauN_s2"]) == pytest.approx(n_tangle(state, params.n), abs=1e-11)

    def test_row_order(self, capsys):
        code, out, _ = run_cli(
            capsys,
            ["sweep", "--n", "3", "--n", "2", "--chi", "-1",
             "--vbar", "2", "--vbar", "0.5", "--jobs", "1"],
        )
        assert code == 0
        _, rows = parse_csv(out)
        keys = [(int(r["N"]), float(r["chi"]), float(r["vbar"])) for r in rows]
        assert keys == [(2, -1.0, 0.5), (2, -1.0, 2.0), (3, -1.0, 0.5), (3, -1.0, 2.0)]

    def test_grid_modes(self, capsys):
        code, out, _ = run_cli(
            capsys,
            ["sweep", "--n", "2", "--vbar-min", "0.1", "--vbar-max", "10",
             "--vbar-points", "3", "--jobs", "1", "--observables", "energies"],
        )
        assert code == 0
        _, rows = parse_csv(out)
        assert [float(r["vbar"]) for r in rows] == pytest.approx([0.1, 1.0, 10.0])
        code, out, _ = run_cli(
            capsys,
            ["sweep", "--n", "2", "--vbar-min", "0", "--vbar-max", "10",
             "--vbar-points", "3", "--linear", "--jobs", "1", "--observables", "energies"],
        )
        assert code == 0
        _, rows = parse_csv(out)
        assert [float(r["vbar"]) for r in rows] == pytest.approx([0.0, 5.0, 10.0])

    def test_log_grid_rejects_zero_min(self, capsys):
        code, _, err = run_cli(
            capsys, ["sweep", "--n", "2", "--vbar-min", "0", "--vbar-points", "3"]
        )
        assert code == 2
        assert "vbar-min" in err

    @pytest.mark.parametrize(
        "flags",
        [["--vbar-min", "5", "--vbar-max", "1"], ["--vbar", "1", "--observables", ""]],
    )
    def test_descending_bounds_and_empty_observables_rejected(self, capsys, flags):
        code, out, err = run_cli(capsys, ["sweep", "--n", "2", "--jobs", "1"] + flags)
        assert code == 2
        assert out == ""
        assert err.startswith("error: ")

    def test_equal_bounds_allowed(self, capsys):
        code, out, _ = run_cli(
            capsys,
            ["sweep", "--n", "2", "--vbar-min", "5", "--vbar-max", "5", "--vbar-points", "2",
             "--jobs", "1", "--observables", "energies"],
        )
        assert code == 0
        _, rows = parse_csv(out)
        assert [r["vbar"] for r in rows] == ["5", "5"]

    def test_observable_selection_leaves_others_empty(self, capsys):
        code, out, _ = run_cli(
            capsys,
            ["sweep", "--n", "2", "--vbar", "1", "--observables", "energies", "--jobs", "1"],
        )
        assert code == 0
        _, rows = parse_csv(out)
        row = rows[0]
        assert row["E_exact"] != "" and row["E_stab_sel"] != ""
        for col in ("fid_s1", "S1_exact", "tauN_s2", "M2_exact", "E_varjz", "E_hf"):
            assert row[col] == ""

    def test_unknown_observable_rejected(self, capsys):
        code, _, err = run_cli(
            capsys, ["sweep", "--n", "2", "--vbar", "1", "--observables", "spectra"]
        )
        assert code == 2
        assert "spectra" in err

    def test_magic_dropped_when_defaulted_above_limit(self, capsys):
        code, out, _ = run_cli(capsys, ["sweep", "--n", "11", "--vbar", "1", "--jobs", "1"])
        assert code == 0
        _, rows = parse_csv(out)
        assert rows[0]["M2_exact"] == ""
        assert rows[0]["E_exact"] != ""

    def test_pair_state_beyond_float_power_limit(self, capsys):
        # 2.0 ** (n - 1) overflows from N = 1025; the pair amplitudes do not.
        code, out, _ = run_cli(capsys, ["sweep", "--n", "1030", "--vbar", "5", "--jobs", "1"])
        assert code == 0
        _, rows = parse_csv(out)
        row = rows[0]
        assert row["M2_exact"] == ""
        assert all(row[col] not in ("", "ERROR") for col in COLUMNS if col != "M2_exact")
        assert float(row["E_s1"]) == pytest.approx(-515.0, rel=1e-9)
        assert float(row["E_s2"]) == pytest.approx(-1287.5, rel=1e-9)

    def test_magic_explicit_above_limit_rejected(self, capsys):
        code, _, err = run_cli(
            capsys, ["sweep", "--n", "11", "--vbar", "1", "--observables", "magic"]
        )
        assert code == 2
        assert "magic" in err

    def test_failed_point_marks_row_and_exit_one(self, capsys, monkeypatch):
        real = cli.ground_state

        def flaky(params):
            if params.vbar == 2.0:
                raise RuntimeError("synthetic failure")
            return real(params)

        monkeypatch.setattr(cli, "ground_state", flaky)
        code, out, err = run_cli(
            capsys,
            ["sweep", "--n", "2", "--vbar", "1", "--vbar", "2", "--jobs", "1",
             "--observables", "energies,fidelities"],
        )
        assert code == 1
        assert "synthetic failure" in err
        _, rows = parse_csv(out)
        good = next(r for r in rows if r["vbar"] == "1")
        bad = next(r for r in rows if r["vbar"] == "2")
        assert good["E_exact"] != "ERROR"
        assert bad["E_exact"] == "ERROR" and bad["fid_s2"] == "ERROR"
        assert bad["M2_exact"] == ""
        assert bad["N"] == "2"

    def test_jobs_and_reruns_byte_identical(self, capsys, tmp_path):
        argv = ["sweep", "--n", "3", "--chi", "-1", "--vbar-min", "0.5",
                "--vbar-max", "8", "--vbar-points", "4"]
        paths = [tmp_path / name for name in ("a.csv", "b.csv", "c.csv")]
        for path, jobs in zip(paths, ("1", "2", "2")):
            code, _, _ = run_cli(capsys, argv + ["--jobs", jobs, "--out", str(path)])
            assert code == 0
        first = paths[0].read_bytes()
        assert first == paths[1].read_bytes() == paths[2].read_bytes()

    def test_json_mirror(self, capsys, tmp_path):
        json_path = tmp_path / "rows.json"
        code, out, _ = run_cli(
            capsys,
            ["sweep", "--n", "2", "--vbar", "1", "--jobs", "1", "--json", str(json_path)],
        )
        assert code == 0
        _, rows = parse_csv(out)
        mirrored = json.loads(json_path.read_text())
        assert isinstance(mirrored, list) and len(mirrored) == 1
        assert list(mirrored[0].keys()) == list(COLUMNS)
        assert mirrored[0] == rows[0]

    def test_config_file_with_flag_precedence(self, capsys, tmp_path):
        config = tmp_path / "run.conf"
        config.write_text("n=2\nchi=-1\nvbar=1\nobservables=energies\njobs=1\n")
        code, out, _ = run_cli(capsys, ["sweep", "--config", str(config)])
        assert code == 0
        _, rows = parse_csv(out)
        assert len(rows) == 1 and rows[0]["vbar"] == "1"
        code, out, _ = run_cli(capsys, ["sweep", "--config", str(config), "--vbar", "3"])
        assert code == 0
        _, rows = parse_csv(out)
        assert len(rows) == 1 and rows[0]["vbar"] == "3"

    def test_config_unknown_key_rejected(self, capsys, tmp_path):
        config = tmp_path / "run.conf"
        config.write_text("vbar_pints=3\n")
        code, _, err = run_cli(capsys, ["sweep", "--config", str(config)])
        assert code == 2
        assert "vbar_pints" in err

    def test_spin_count_validated(self, capsys):
        code, _, _ = run_cli(capsys, ["sweep", "--n", "1", "--vbar", "1"])
        assert code == 2


class TestSweepEnergyPass:
    def test_one_candidate_pass_per_point(self, monkeypatch):
        calls = {"candidate_groups": 0, "split_around": 0}

        def counting(name, func):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return func(*args, **kwargs)

            return wrapper

        for module in (cli, lmg):
            for name in calls:
                monkeypatch.setattr(module, name, counting(name, getattr(module, name)))
        cli._sweep_cells(20, -1.0, 3.0, frozenset({"energies"}))
        assert calls == {"candidate_groups": 1, "split_around": 0}

    @pytest.mark.parametrize("chi", [-1.0, 0.0, 1.0])
    def test_selected_energy_matches_select_split(self, chi):
        # Both sides of the s1/s2 transition at vbar = 2, and the tie at it.
        for n in range(3, 13):
            for vbar in (0.5, 2.0 - 1e-9, 2.0, 2.0 + 1e-9, 6.0):
                params = LmgParams(n, vbar, chi)
                cells = cli._sweep_cells(n, chi, vbar, frozenset({"energies"}))
                want = select_split(build_lmg(params), params).stab_energy
                assert cells["E_stab_sel"] == cli._fmt(want), (n, vbar)

    def test_packed_build_skips_from_terms(self, monkeypatch):
        calls = []
        merge = PauliHamiltonian.from_terms.__func__

        def counting(cls, n, terms):
            calls.append(n)
            return merge(cls, n, terms)

        monkeypatch.setattr(PauliHamiltonian, "from_terms", classmethod(counting))
        cli._sweep_cells(200, -1.0, 10.0, frozenset({"energies"}))
        assert calls == []
        PauliHamiltonian.from_terms(2, [])
        assert calls == [2]

    @pytest.mark.parametrize("chi", [-1.0, 0.0, 0.5])
    def test_split_parts_match_tuple_filter(self, chi):
        # Every sign pattern of each family up to n = 6, the optimal groups above.
        for n in range(3, 13):
            params = LmgParams(n, 3.0, chi)
            h = build_lmg(params)
            candidates = reference_candidates if n <= 6 else lmg.candidate_groups
            for cand in candidates(h, params):
                split = lmg.split_around(h, params, cand)
                keep = [cand.group.expectation(s) != 0 for _, s in h.terms]
                stab = tuple(t for t, k in zip(h.terms, keep) if k)
                magic = tuple(t for t, k in zip(h.terms, keep) if not k)
                assert split.stab_part.n == split.magic_part.n == n
                assert split.stab_part.terms == stab, (n, cand.family)
                assert split.magic_part.terms == magic, (n, cand.family)


def count_calls(monkeypatch, names):
    """Count calls to each named function of ``lmg``, also through ``cli``."""
    calls = dict.fromkeys(names, 0)

    def counting(name, func):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return func(*args, **kwargs)

        return wrapper

    for module in (cli, lmg):
        for name in names:
            monkeypatch.setattr(module, name, counting(name, getattr(module, name)))
    return calls


class TestDecompose:
    def test_star_graph_split(self, capsys):
        code, out, _ = run_cli(capsys, ["decompose", "--n", "8", "--vbar", "5", "--chi", "-1"])
        assert code == 0
        lines = out.strip().split("\n")
        assert lines[0] == "family: s2"
        gen_block = lines[lines.index("generators:") + 1 : lines.index("generators:") + 9]
        assert gen_block == [f"+X{i}X8" for i in range(1, 8)] + ["+Z1Z2Z3Z4Z5Z6Z7Z8"]
        assert "stabilizer energy: -10" in lines
        circuit_line = next(line for line in lines if line.startswith("circuit: "))
        assert circuit_line == (
            "circuit: H 1; H 2; H 3; H 4; H 5; H 6; H 7; H 8; "
            "CZ 1 8; CZ 2 8; CZ 3 8; CZ 4 8; CZ 5 8; CZ 6 8; CZ 7 8; H 8"
        )
        magic_at = lines.index("magic part:")
        terms = lines[magic_at + 1 : lines.index(circuit_line)]
        assert "0.5 +Z1" in terms
        assert sum(1 for t in terms if "Y" in t) == 28

    def test_product_split_weak_coupling(self, capsys):
        code, out, _ = run_cli(capsys, ["decompose", "--n", "4", "--vbar", "0.5"])
        assert code == 0
        lines = out.strip().split("\n")
        assert lines[0] == "family: s1"
        assert lines[2:6] == ["-Z1", "-Z2", "-Z3", "-Z4"]
        assert "stabilizer energy: -2" in lines
        assert lines[-1] == "circuit: X 1; X 2; X 3; X 4"


class TestPrepare:
    def test_three_spin_pair_state(self, capsys):
        code, out, _ = run_cli(capsys, ["prepare", "--n", "3", "--family", "s2", "--emit-state"])
        assert code == 0
        lines = out.strip().split("\n")
        state_at = lines.index("state:")
        assert lines[state_at + 1 :] == [
            "001 0.5 0",
            "010 0.5 0",
            "100 0.5 0",
            "111 0.5 0",
        ]

    def test_printed_circuit_reproduces_emitted_state(self, capsys):
        for n in (2, 3, 4, 5):
            for family in ("s1", "s2"):
                code, out, _ = run_cli(
                    capsys,
                    ["prepare", "--n", str(n), "--vbar", "5", "--family", family,
                     "--emit-state"],
                )
                assert code == 0
                lines = out.strip().split("\n")
                circuit = parse_circuit(next(l for l in lines if l.startswith("circuit:")))
                emitted = np.zeros(1 << n, dtype=complex)
                for line in lines[lines.index("state:") + 1 :]:
                    bits, re_part, im_part = line.split()
                    emitted[int(bits, 2)] = float(re_part) + 1j * float(im_part)
                start = np.zeros(1 << n, dtype=complex)
                start[0] = 1.0
                built = apply_circuit(start, n, circuit)
                assert abs(np.vdot(built, emitted)) > 1.0 - 1e-12

    def test_family_defaults_to_selected(self, capsys):
        code, out, _ = run_cli(capsys, ["prepare", "--n", "4", "--vbar", "5"])
        assert code == 0 and out.startswith("family: s2")
        code, out, _ = run_cli(capsys, ["prepare", "--n", "4", "--vbar", "0.5"])
        assert code == 0 and out.startswith("family: s1")

    def test_two_spin_odd_parity_pair_state(self, capsys):
        # chi > 0 at n = 2 selects {+X1X2, -Z1Z2}: (|01> + |10>)/sqrt(2).
        code, out, _ = run_cli(
            capsys, ["prepare", "--n", "2", "--chi", "0.5", "--vbar", "2", "--emit-state"]
        )
        assert code == 0
        lines = out.strip().split("\n")
        assert "-Z1Z2" in lines
        assert "circuit: H 1; H 2; CZ 1 2; H 2; X 1" in lines
        assert [l.split()[0] for l in lines[lines.index("state:") + 1 :]] == ["01", "10"]

    def test_emit_state_guarded(self, capsys):
        code, _, _ = run_cli(capsys, ["prepare", "--n", "15", "--emit-state"])
        assert code == 2

    def test_bad_family_rejected_by_parser(self, capsys):
        with pytest.raises(SystemExit) as info:
            main(["prepare", "--n", "3", "--family", "s3"])
        assert info.value.code == 2


class TestQitp:
    def test_weak_coupling_initial_ordering(self, capsys):
        code, out, _ = run_cli(
            capsys, ["qitp", "--n", "8", "--vbar", "1.1", "--chi", "-1", "--tau-points", "4"]
        )
        assert code == 0
        header, rows = parse_csv(out)
        assert header == list(QITP_COLUMNS)
        assert len(rows) == 4
        first = rows[0]
        assert float(first["tau"]) == 0.0
        assert float(first["fidelity_s1_init"]) > float(first["fidelity_s2_init"])
        assert float(first["success_prob_s1"]) == pytest.approx(0.5, abs=1e-12)
        last = rows[-1]
        assert float(last["fidelity_s1_init"]) > 0.99

    def test_shift_default_is_selected_stab_energy(self, capsys):
        # At N=4, vbar=5 the selected stabilizer energy is -5, so an explicit
        # --e0 -5 must reproduce the default run exactly.
        base_args = ["qitp", "--n", "4", "--vbar", "5", "--tau-max", "2", "--tau-points", "3"]
        code, out_default, _ = run_cli(capsys, base_args)
        assert code == 0
        code, out_same, _ = run_cli(capsys, base_args + ["--e0", "-5"])
        assert code == 0
        assert out_same == out_default
        code, out_other, _ = run_cli(capsys, base_args + ["--e0", "-1.0"])
        assert code == 0
        _, rows_a = parse_csv(out_default)
        _, rows_b = parse_csv(out_other)
        for col in QITP_COLUMNS:
            assert rows_a[0][col] == rows_b[0][col]
        assert float(rows_a[1]["success_prob_s1"]) != pytest.approx(
            float(rows_b[1]["success_prob_s1"]), abs=1e-6
        )

    def test_size_guard(self, capsys):
        code, _, _ = run_cli(capsys, ["qitp", "--n", "11", "--vbar", "1"])
        assert code == 2

    def test_one_candidate_pass(self, capsys, monkeypatch):
        calls = count_calls(monkeypatch, ("candidate_groups", "split_around"))
        code, _, _ = run_cli(capsys, ["qitp", "--n", "4", "--vbar", "5", "--tau-points", "2"])
        assert code == 0
        assert calls == {"candidate_groups": 1, "split_around": 0}


class TestAdaptCommand:
    def test_three_spin_trace(self, capsys):
        argv = ["adapt", "--n", "3", "--vbar", "5", "--reference", "s2", "--max-layers", "12"]
        code, out, _ = run_cli(capsys, argv)
        assert code == 0
        header, rows = parse_csv(out)
        assert header == list(ADAPT_COLUMNS)
        assert rows[0]["layer"] == "0" and rows[0]["operator_label"] == ""
        assert all(r["operator_label"] for r in rows[1:])
        assert float(rows[-1]["rel_energy_error"]) < 1e-9
        assert float(rows[-1]["fidelity"]) > 1.0 - 1e-9
        code, again, _ = run_cli(capsys, argv)
        assert code == 0 and again == out

    def test_product_reference(self, capsys):
        code, out, _ = run_cli(
            capsys, ["adapt", "--n", "2", "--vbar", "3", "--reference", "s1"]
        )
        assert code == 0
        _, rows = parse_csv(out)
        assert float(rows[-1]["rel_energy_error"]) < 1e-10

    def test_cap_failure_keeps_partial_trace(self, capsys, monkeypatch, tmp_path):
        monkeypatch.setattr(adapt_module, "_BFGS_ITERS_PER_ANGLE", 1)
        argv = ["adapt", "--n", "6", "--vbar", "0.5", "--chi", "0", "--reference", "s1"]
        code, out, err = run_cli(capsys, argv)
        assert code == 1
        assert err == "error: AdaptError: angle re-optimization hit its cap of 1 BFGS iterations\n"
        header, rows = parse_csv(out)
        assert header == list(ADAPT_COLUMNS)
        assert rows and [r["layer"] for r in rows] == [str(k) for k in range(len(rows))]
        assert rows[0]["operator_label"] == "" and float(rows[0]["energy"]) == -3.0
        csv_path, json_path = tmp_path / "trace.csv", tmp_path / "trace.json"
        code, quiet, again = run_cli(
            capsys, argv + ["--out", str(csv_path), "--json", str(json_path)]
        )
        assert (code, quiet, again) == (1, "", err)
        assert csv_path.read_text() == out
        assert json.loads(json_path.read_text()) == rows

    def test_stationary_point_noted(self, capsys, tmp_path):
        # From s2 at N = 4 every pool gradient vanishes after 6 layers at
        # fidelity 0.966: the run stops as converged short of the ground state.
        argv = ["adapt", "--n", "4", "--chi", "-1", "--vbar", "2", "--reference", "s2"]
        code, out, err = run_cli(capsys, argv)
        assert code == 0
        _, rows = parse_csv(out)
        assert rows[-1]["layer"] == "6"
        assert float(rows[-1]["fidelity"]) == pytest.approx(0.9659, abs=1e-4)
        assert err.startswith("note: adapt stopped at layer 6 ") and err.count("\n") == 1
        # The note goes to stderr only, also when rows go to a file.
        path = tmp_path / "trace.csv"
        code, quiet, again = run_cli(capsys, argv + ["--out", str(path)])
        assert (code, quiet, again) == (0, "", err)
        assert path.read_text() == out

    def test_other_sector_ground_state_not_noted(self, capsys):
        # The exact ground state lies in the odd sector, which the pool cannot
        # reach; the run ends at the even sector's ground state, fidelity 1.
        argv = ["adapt", "--n", "6", "--chi", "0.5", "--vbar", "2", "--reference", "s2"]
        code, out, err = run_cli(capsys, argv)
        assert (code, err) == (0, "")
        _, rows = parse_csv(out)
        assert float(rows[-1]["fidelity"]) > 1.0 - 1e-6
        assert float(rows[-1]["rel_energy_error"]) > 1e-3

    def test_guards(self, capsys):
        code, _, _ = run_cli(capsys, ["adapt", "--n", "11", "--vbar", "1"])
        assert code == 2
        code, _, _ = run_cli(capsys, ["adapt", "--n", "3", "--max-layers", "0"])
        assert code == 2


class TestNonFiniteCoupling:
    """nan and inf couplings are usage errors before any work starts."""

    @pytest.mark.parametrize("value", ["nan", "inf"])
    @pytest.mark.parametrize(
        "argv",
        [
            ["decompose", "--n", "4"],
            ["sweep", "--n", "4", "--jobs", "1"],
            ["qitp", "--n", "4"],
            ["adapt", "--n", "4"],
        ],
    )
    def test_vbar_rejected(self, capsys, argv, value):
        code, out, err = run_cli(capsys, argv + ["--vbar", value])
        assert code == 2
        assert out == ""
        assert "finite" in err

    @pytest.mark.parametrize(
        "bounds",
        [["--vbar-min", "nan"], ["--vbar-max", "inf"], ["--linear", "--vbar-max", "nan"]],
    )
    def test_sweep_grid_bounds_rejected(self, capsys, bounds):
        code, out, err = run_cli(capsys, ["sweep", "--n", "4", "--jobs", "1"] + bounds)
        assert code == 2
        assert out == ""
        assert "finite" in err


class TestNumericFlags:
    """Non-finite or out-of-range numbers are usage errors, not NaN rows."""

    @pytest.mark.parametrize(
        "argv",
        [
            ["qitp", "--n", "4", "--e0", "nan"],
            ["qitp", "--n", "4", "--e0", "inf"],
            ["qitp", "--n", "4", "--tau-max", "nan"],
            ["qitp", "--n", "4", "--tau-max", "inf"],
            ["adapt", "--n", "3", "--vqe-tol", "nan"],
            ["adapt", "--n", "3", "--grad-threshold", "nan"],
            ["adapt", "--n", "3", "--grad-threshold", "inf"],
            ["sweep", "--n", "4", "--jobs", "1", "--vbar-points", "0"],
            ["sweep", "--n", "4", "--jobs", "1", "--vbar-points", "-2"],
        ],
    )
    def test_rejected(self, capsys, argv):
        code, out, err = run_cli(capsys, argv)
        assert code == 2
        assert out == ""
        assert err.startswith("error: ")


def setting_cases():
    for command, (_, _, settings) in cli.SETTINGS.items():
        for name, (kind, _, _) in settings.items():
            yield pytest.param(command, name, kind, id=f"{command}-{name}")


def flag_and_config_line(name, kind):
    """One non-default value as flag arguments and as a config line keyed
    by the flag name."""
    flag = name.replace("_", "-")
    if kind is bool:
        return [f"--{flag}"], f"{flag}=yes"
    if isinstance(kind, list):
        values = ["3", "4"] if kind[0] is int else ["0.25", "0.5"]
        return [arg for v in values for arg in (f"--{flag}", v)], f"{flag}={','.join(values)}"
    value = kind[0] if isinstance(kind, tuple) else {int: "3", float: "0.25", str: "x"}[kind]
    return [f"--{flag}", value], f"{flag}={value}"


class TestSettings:
    @pytest.mark.parametrize("command,name,kind", setting_cases())
    def test_flag_and_config_key_resolve_alike(self, monkeypatch, tmp_path, command, name, kind):
        _, summary, settings = cli.SETTINGS[command]
        seen = []
        monkeypatch.setitem(cli.SETTINGS, command, (seen.append, summary, settings))
        flag_args, line = flag_and_config_line(name, kind)
        config = tmp_path / "run.conf"
        config.write_text(line + "\n")
        main([command, *flag_args])
        main([command, "--config", str(config)])
        by_flag, by_config = seen
        assert by_flag == by_config
        assert by_flag[name] != settings[name][1]

    @pytest.mark.parametrize("command,key", [("prepare", "family"), ("adapt", "reference")])
    def test_config_choice_checked(self, capsys, tmp_path, command, key):
        config = tmp_path / "run.conf"
        config.write_text(f"{key}=s3\n")
        code, out, err = run_cli(capsys, [command, "--n", "3", "--config", str(config)])
        assert code == 2
        assert out == ""
        assert err.startswith("error: ") and key in err

    def test_readme_command_lines_parse(self):
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        block = readme.split("## Command line", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
        lines = [shlex.split(line, comments=True) for line in block.splitlines()]
        commands = [words[1:] for words in lines if words[:1] == ["stabsplit"]]
        assert {words[0] for words in commands} == set(cli.SETTINGS)
        parser = cli.build_parser()
        for words in commands:
            parser.parse_args(words)


class TestEntryPoints:
    def test_help_exits_zero(self):
        with pytest.raises(SystemExit) as info:
            main(["--help"])
        assert info.value.code == 0

    def test_missing_subcommand_is_usage_error(self):
        with pytest.raises(SystemExit) as info:
            main([])
        assert info.value.code == 2

    def test_import_loads_no_scipy(self):
        # scipy is a test-only dependency; the command must start without it.
        # Nor does it load the process pool, which only a sweep with
        # --jobs > 1 starts.
        src = str(Path(cli.__file__).resolve().parents[1])
        probe = (
            f"import sys; sys.path.insert(0, {src!r}); import stabsplit.cli; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy' "
            "or m in ('multiprocessing', 'concurrent.futures.process')))"
        )
        result = subprocess.run(
            [sys.executable, "-c", probe], capture_output=True, text=True, timeout=60, check=True
        )
        assert result.stdout.strip() == "[]"

    def test_parser_built_once_and_reused(self, capsys):
        assert cli.build_parser() is cli.build_parser()
        argv = ["decompose", "--n", "5", "--vbar", "3", "--chi", "0.5"]
        first = run_cli(capsys, argv)
        with pytest.raises(SystemExit) as info:
            main(["prepare", "--n", "3", "--family", "s3"])
        assert info.value.code == 2
        capsys.readouterr()
        assert run_cli(capsys, argv) == first
        assert first[0] == 0 and first[1].startswith("family: s2\n")


def load_benchmark_workloads():
    """perfbench/workloads.py, loaded by path (perfbench is not a package)."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("perfbench_workloads", path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


def run_fresh_single_thread(argvs):
    """Outputs of ``main`` for each argv, in one fresh process with one BLAS
    thread, as the benchmark runs them."""
    src = str(Path(cli.__file__).resolve().parents[1])
    probe = (
        "import contextlib, io, json, sys\n"
        f"sys.path.insert(0, {src!r})\n"
        "import stabsplit.cli as cli\n"
        "outputs = []\n"
        "for argv in json.loads(sys.argv[1]):\n"
        "    buffer = io.StringIO()\n"
        "    with contextlib.redirect_stdout(buffer):\n"
        "        assert cli.main(argv) == 0\n"
        "    outputs.append(buffer.getvalue())\n"
        "print(json.dumps(outputs))\n"
    )
    threads = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
    env = {**os.environ, **{name: "1" for name in threads}}
    result = subprocess.run(
        [sys.executable, "-c", probe, json.dumps(argvs)],
        capture_output=True, text=True, timeout=600, check=True, env=env,
    )
    return json.loads(result.stdout)


class TestFrozenPaperBytes:
    def test_paper_n8_outputs_match_benchmark_digests(self):
        # The benchmark's N = 8 outputs against its recorded digests.
        workloads = load_benchmark_workloads()
        argvs = workloads.build_workloads()["paper-n8"].argvs(0)
        outputs = run_fresh_single_thread(argvs)
        digests = {
            argv[0]: hashlib.sha256(text.encode()).hexdigest()
            for argv, text in zip(argvs, outputs)
        }
        assert digests == workloads.PAPER_N8_SHA256

    def test_collective_large_n_repeated_passes(self):
        # Three benchmark passes in one process: the first scores each
        # structure, the later two are served from its cached memo.
        # Recorded at 50acfa7, when only the last structure's scores were kept.
        argvs = load_benchmark_workloads().build_workloads()["collective-large-n"].argvs(0)
        outputs = run_fresh_single_thread(argvs * 3)
        assert len(argvs) == 1 and outputs[0] == outputs[1] == outputs[2]
        assert hashlib.sha256(outputs[0].encode()).hexdigest() == (
            "ad5dfed616a660852f41920a374fbf624fed1a670a50b618d739c884530da990"
        )

    def test_variational_columns_off_the_benchmark_grid(self):
        # The varjz and deformed mean-field columns at N = 2..10 and chi -1,
        # 0, 0.5 and 1, away from the benchmark's N = 8 grid. Recorded at
        # e5a6671, before the coarse scans were screened by batched energies.
        ns = [arg for n in range(2, 11) for arg in ("--n", str(n))]
        chis = [arg for chi in ("-1", "0", "0.5", "1") for arg in ("--chi", chi)]
        argv = ["sweep", *ns, *chis, "--observables", "varjz,hf", "--jobs", "1"]
        (text,) = run_fresh_single_thread([argv])
        assert text.count("\n") == 1801
        assert hashlib.sha256(text.encode()).hexdigest() == (
            "b8a707b90c96ad9b34897d02c73db42586ac1d68032fbba735bb0a9ecfd15c35"
        )

    def test_energies_and_magic_off_the_benchmark_grid(self):
        # E_exact and M2_exact at N = 2..10 and chi -1, 0, 0.5 and 1. The
        # second parity block is certified above at chi = -1 and diagonalized
        # where the sectors nearly tie (chi = 0, strong coupling) or the odd
        # one is lower (chi >= 0.5). Recorded at c299eb3, when both blocks
        # were always diagonalized.
        ns = [arg for n in range(2, 11) for arg in ("--n", str(n))]
        chis = [arg for chi in ("-1", "0", "0.5", "1") for arg in ("--chi", chi)]
        argv = ["sweep", *ns, *chis, "--observables", "energies,magic"]
        argv += ["--vbar-points", "8", "--jobs", "1"]
        (text,) = run_fresh_single_thread([argv])
        assert text.count("\n") == 289
        assert hashlib.sha256(text.encode()).hexdigest() == (
            "cc5f747c52201fbe0002644020a07995a1e776aeb6890681dd8581c60a6ecade"
        )

    def test_qitp_decompose_prepare_off_the_benchmark_grid(self):
        # qitp, decompose and prepare --emit-state at N = 3 and 6, chi -1, 0.5
        # and 1, vbar 0.5, 2 and 5. qitp's fidelity columns read the dense
        # exact state, which lies in the odd sector at five of these points.
        # qitp at N = 6, chi = 1, vbar = 5 is left out: it exits 1, as one
        # start's post-selection probability vanishes. Recorded at 671df27,
        # when dense_ground_state built its own Hamiltonian.
        argvs = []
        for n in ("3", "6"):
            for chi in ("-1", "0.5", "1"):
                for vbar in ("0.5", "2", "5"):
                    point = ["--n", n, "--chi", chi, "--vbar", vbar]
                    if (n, chi, vbar) != ("6", "1", "5"):
                        argvs.append(["qitp", *point, "--tau-points", "6"])
                    argvs += [["decompose", *point], ["prepare", *point, "--emit-state"]]
        outputs = run_fresh_single_thread(argvs)
        assert len(outputs) == 53
        assert hashlib.sha256("".join(outputs).encode()).hexdigest() == (
            "16f9d6414bcf27a73d7fcd983989cb95ebd94ab28c47ebbc0a262e98c2474cfe"
        )
