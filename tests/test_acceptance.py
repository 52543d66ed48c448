"""End-to-end acceptance gate.

Ten criteria covering family energies, state preparation, oracle agreement,
closed forms, magic, entanglement, variational deformation, projection
cooling, adaptive growth, and the sweep driver.  Each test prints a single
PASS/FAIL verdict line (visible with -s, or in captured output on failure).
"""

from contextlib import contextmanager

import numpy as np
import pytest

from stabsplit.adapt import AdaptConfig, apply_ansatz, gradient, pool, run_adapt
from stabsplit.cli import COLUMNS, main
from stabsplit.evolve import qitp_operators, qitp_postselect, qitp_unitary, variational_jz
from stabsplit.exact import (
    dense_ground_state,
    dicke_to_statevector,
    fidelity,
    ground_state,
)
from stabsplit.lmg import (
    LmgParams,
    _ladder_state,
    _star_route_state,
    best_family_energy,
    build_lmg,
    candidate_groups,
    pair_family_group,
    preparation_circuit,
    prepare_stab_state,
    product_family_group,
    select_split,
)
from stabsplit.metrics import n_tangle, one_spin_entropy, sre
from stabsplit.pauli import PauliString, canonical_phase
from stabsplit.tableau import apply_circuit, prepare_graph_state


@contextmanager
def verdict(num: int, label: str):
    try:
        yield
    except BaseException:
        print(f"criterion {num:02d} FAIL: {label}")
        raise
    print(f"criterion {num:02d} PASS: {label}")


def pair_state(n: int) -> np.ndarray:
    return pair_family_group(n, "X", (1,) * (n - 1)).to_statevector()


def all_down(n: int) -> np.ndarray:
    vec = np.zeros(1 << n, dtype=complex)
    vec[-1] = 1.0
    return vec


def test_criterion_01_family_energies_and_transition():
    with verdict(1, "family energies -N/2 and -N vbar/4 with the selection transition"):
        for n in range(2, 13):
            for vbar in (0.5, 1.0, 2.0, 5.0, 10.0, 100.0):
                params = LmgParams(n, vbar)
                h = build_lmg(params)
                candidates = candidate_groups(h, params)
                assert abs(best_family_energy(candidates, "s1") + n / 2.0) <= 1e-12
                pair_expected = -vbar if n == 2 else -n * vbar / 4.0
                assert abs(best_family_energy(candidates, "s2") - pair_expected) <= 1e-12
                transition = 1.0 if n == 2 else 2.0
                split = select_split(h, params)
                if vbar <= transition:
                    assert split.family == "s1"
                else:
                    assert split.family == "s2"


def test_criterion_02_pair_state_literals_and_route_agreement():
    with verdict(2, "pair-state amplitudes and pairwise preparation-route overlaps"):
        ref3 = np.zeros(8)
        ref3[[0b001, 0b010, 0b100, 0b111]] = 0.5
        ref4 = np.zeros(16)
        ref4[[0b0000, 0b0011, 0b0101, 0b0110, 0b1001, 0b1010, 0b1100, 0b1111]] = (
            1.0 / np.sqrt(8.0)
        )
        for n, ref in ((3, ref3), (4, ref4)):
            params = LmgParams(n, 5.0)
            split = select_split(build_lmg(params), params)
            assert split.family == "s2"
            prepared = canonical_phase(prepare_stab_state(split))
            assert np.max(np.abs(prepared - ref)) <= 1e-12
        for n in range(2, 11):
            params = LmgParams(n, 5.0)
            split = select_split(build_lmg(params), params)
            start = np.zeros(1 << n, dtype=complex)
            start[0] = 1.0
            routes = [
                apply_circuit(start, n, preparation_circuit(split)),
                split.group.to_statevector(),
                _ladder_state(n, seed_one=bool(n % 2)),
                _star_route_state(n),
            ]
            for i in range(len(routes)):
                for j in range(i + 1, len(routes)):
                    assert abs(np.vdot(routes[i], routes[j])) >= 1.0 - 1e-12


def test_criterion_03_collective_matches_dense_oracle():
    with verdict(3, "collective-sector ground states match dense diagonalization"):
        for n in range(2, 11):
            for chi in (-1.0, -0.5, -0.1):
                for vbar in (0.5, 1.0, 2.0, 5.0, 10.0):
                    params = LmgParams(n, vbar, chi)
                    energy_c, state_c = ground_state(params)
                    energy_d, state_d = dense_ground_state(build_lmg(params))
                    assert abs(energy_c - energy_d) <= 1e-9
                    overlap = fidelity(dicke_to_statevector(state_c), state_d)
                    assert overlap >= 1.0 - 1e-8


def test_criterion_04_closed_form_ground_energies():
    with verdict(4, "two- and three-spin closed-form ground energies"):
        for vbar in (0.5, 1.0, 2.0, 5.0, 10.0, 100.0):
            energy2, _ = ground_state(LmgParams(2, vbar))
            assert abs(energy2 + np.sqrt(1.0 + vbar**2)) <= 1e-10
            energy3, _ = ground_state(LmgParams(3, vbar))
            assert abs(energy3 + 0.5 + np.sqrt(1.0 + 0.75 * vbar**2)) <= 1e-10


def test_criterion_05_magic_zero_tstate_and_peak():
    with verdict(5, "zero stabilizer magic, T-state value, and the magic peak location"):
        for n in range(2, 11):
            assert abs(sre(all_down(n))) <= 1e-10
            assert abs(sre(pair_state(n))) <= 1e-10
        ring = np.zeros((4, 4))
        for i in range(4):
            ring[i, (i + 1) % 4] = ring[(i + 1) % 4, i] = 1.0
        assert abs(sre(prepare_graph_state(ring))) <= 1e-10
        t_state = np.array([1.0, np.exp(1j * np.pi / 4.0)]) / np.sqrt(2.0)
        assert abs(sre(t_state) - (2.0 - np.log2(3.0))) <= 1e-9
        grid = np.geomspace(0.1, 100.0, 50)
        magic = []
        for vbar in grid:
            _, vec = dense_ground_state(build_lmg(LmgParams(8, float(vbar))))
            magic.append(sre(vec))
        peak = float(grid[int(np.argmax(magic))])
        assert 1.5 <= peak <= 3.0


def rdm_entropy(vec: np.ndarray, n: int) -> float:
    mat = vec.reshape(2, 1 << (n - 1))
    evals = np.clip(np.linalg.eigvalsh(mat @ mat.conj().T), 0.0, 1.0)
    kept = evals[evals > 1e-15]
    return float(-(kept * np.log2(kept)).sum())


def test_criterion_06_entanglement_of_pair_state():
    with verdict(6, "pair-state entropy one, full tangle, vanishing sub-tangles"):
        for n in range(2, 11):
            vec = pair_state(n)
            assert abs(one_spin_entropy(vec) - 1.0) <= 1e-12
            full = n_tangle(vec, n)
            assert abs(full - (1.0 if n % 2 == 0 else 0.0)) <= 1e-12
            for m in range(2, n):
                assert abs(n_tangle(vec, m)) <= 1e-12
                tail = tuple(range(n - m + 1, n + 1))
                assert abs(n_tangle(vec, m, tail)) <= 1e-12
            assert abs(one_spin_entropy(vec) - rdm_entropy(vec, n)) <= 1e-10
        for n, vbar in ((4, 1.0), (6, 2.0), (8, 5.0)):
            _, vec = dense_ground_state(build_lmg(LmgParams(n, vbar)))
            assert abs(one_spin_entropy(vec) - rdm_entropy(vec, n)) <= 1e-10


def test_criterion_07_variational_deformation():
    with verdict(7, "deformation exact at small sizes and near-exact at eight spins"):
        for n in (2, 3):
            for vbar in (2.0, 3.0, 5.0, 10.0):
                params = LmgParams(n, vbar)
                exact_energy, _ = ground_state(params)
                res = variational_jz(params)
                assert res.fidelity >= 1.0 - 1e-8
                assert abs(res.energy - exact_energy) <= 1e-8
        res = variational_jz(LmgParams(8, 10.0, -0.1), order=2)
        assert res.fidelity >= 0.99


def test_criterion_08_projection_cooling():
    with verdict(8, "cooling kernel identities, post-selection, and initial-state orderings"):
        params = LmgParams(8, 5.0)
        h = build_lmg(params)
        dense = h.dense_real()
        eye = np.eye(1 << 8)
        split = select_split(h, params)
        for tau in (0.0, 0.5, 1.0, 2.0, 5.0):
            a_mat, q_mat = qitp_operators(h, tau, split.stab_energy)
            assert np.max(np.abs(a_mat @ a_mat + q_mat @ q_mat - eye)) <= 1e-10
            unitary = qitp_unitary(a_mat, q_mat)
            assert np.max(np.abs(unitary.conj().T @ unitary - np.eye(1 << 9))) <= 1e-10
        init = pair_state(8)
        for tau in (0.5, 1.0, 2.0):
            _, q_mat = qitp_operators(h, tau, split.stab_energy)
            direct = q_mat @ init
            direct = direct / np.linalg.norm(direct)
            [(state, _)] = qitp_postselect(h, [init], tau, split.stab_energy)
            assert fidelity(state, direct) >= 1.0 - 1e-10

        taus = np.linspace(0.0, 8.0, 17)
        for vbar in (5.0, 10.0, 1.1):
            case = LmgParams(8, vbar)
            h_case = build_lmg(case)
            eig = np.linalg.eigh(h_case.dense_real())
            _, exact_vec = dense_ground_state(build_lmg(case))
            shift = select_split(h_case, case).stab_energy
            curves = {}
            for key, vec in (("s1", all_down(8)), ("s2", pair_state(8))):
                fids = []
                for tau in taus:
                    [(out, _)] = qitp_postselect(h_case, [vec], float(tau), shift, eig=eig)
                    fids.append(fidelity(out, exact_vec))
                curve = np.array(fids)
                assert np.all(np.diff(curve) >= -1e-12)
                assert curve[-1] >= 0.999
                curves[key] = curve
            if vbar == 1.1:
                assert curves["s1"][0] > curves["s2"][0]
            else:
                live = 1.0 - curves["s1"] > 1e-10
                assert np.all(curves["s2"][live] > curves["s1"][live])
                assert np.all(curves["s2"] >= curves["s1"] - 1e-12)


def test_criterion_09_adaptive_growth_plateau():
    with verdict(9, "growth plateau from the pair state and late convergence of both references"):
        params = LmgParams(8, 5.0)
        h = build_lmg(params)
        config = AdaptConfig(max_layers=110)
        label_map = {op.label: op for op in pool(8)}
        breakers = [
            PauliString.from_ops(8, {1: "X", 2: "Z"}),
            PauliString.from_ops(8, {1: "Y", 2: "Z"}),
            PauliString.from_ops(8, {3: "X", 7: "Z"}),
            PauliString.from_ops(8, {4: "Y", 8: "Z"}),
        ]
        for name, reference in (("pair", pair_state(8)), ("product", all_down(8))):
            trace = run_adapt(h, reference, config)
            errors = trace.rel_energy_errors()
            if name == "pair":
                plateau = errors[1:21]
                assert max(plateau) / min(plateau) < 10.0
            assert errors[-1] <= 1e-3
            ref_real = np.real(reference)
            for layer in (0, 1, 5, 10, 20, 30, 50, 80, len(trace.layers) - 1):
                if layer >= len(trace.layers):
                    continue
                record = trace.layers[layer]
                ops = [label_map[trace.layers[k].label] for k in range(1, layer + 1)]
                state = apply_ansatz(ref_real, ops, record.angles)
                for breaker in breakers:
                    assert abs(gradient(state.astype(complex), breaker, h)) < 1e-10


def test_criterion_10_sweep_reproduction(tmp_path):
    with verdict(10, "sweep crossover structure and byte-identical regression"):
        out_a = tmp_path / "a.csv"
        argv = ["sweep", "--n", "8", "--chi", "-1", "--out", str(out_a), "--jobs", "1"]
        assert main(argv) == 0
        lines = out_a.read_text().strip().split("\n")
        assert lines[0] == ",".join(COLUMNS)
        rows = [dict(zip(COLUMNS, line.split(","))) for line in lines[1:]]
        assert len(rows) == 50
        vbars = np.array([float(r["vbar"]) for r in rows])
        fid_s1 = np.array([float(r["fid_s1"]) for r in rows])
        fid_s2 = np.array([float(r["fid_s2"]) for r in rows])
        assert np.all(np.diff(fid_s1) <= 1e-9)
        assert np.all(np.diff(fid_s2) >= -1e-9)
        assert fid_s2[-1] >= 0.98
        cross = vbars[np.argmax(fid_s2 >= fid_s1)]
        assert 1.0 <= cross <= 2.5
        assert all(r["M2_exact"] != "" for r in rows)
        e_exact = np.array([float(r["E_exact"]) for r in rows])
        e_s2 = np.array([float(r["E_s2"]) for r in rows])
        tail = vbars >= 10.0
        eps_s2 = np.abs((e_s2[tail] - e_exact[tail]) / e_exact[tail])
        assert np.all(eps_s2 < 0.05)
        assert eps_s2[-1] <= eps_s2[0] + 1e-12
        out_b = tmp_path / "b.csv"
        assert main(["sweep", "--n", "8", "--chi", "-1", "--out", str(out_b), "--jobs", "2"]) == 0
        out_c = tmp_path / "c.csv"
        assert main(["sweep", "--n", "8", "--chi", "-1", "--out", str(out_c), "--jobs", "1"]) == 0
        golden = out_a.read_bytes()
        assert golden == out_b.read_bytes() == out_c.read_bytes()
