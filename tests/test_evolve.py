"""Imaginary-time flows, projection operators, and variational deformations."""

import numpy as np
import pytest
from scipy.linalg import expm, inv, sqrtm

from stabsplit.adapt import PoolOperator
from stabsplit.evolve import (
    ItePlan,
    ite_curve,
    ite_evolve,
    parity_project,
    deformed_hf,
    qitp_operators,
    qitp_postselect,
    qitp_unitary,
    variational_jz,
)
from stabsplit.exact import (
    DickeVector,
    dense_ground_state,
    dicke_hamiltonian,
    dicke_hamiltonian_full,
    dicke_to_statevector,
    fidelity,
    ground_state,
    stab_state_dicke_amplitudes,
)
from stabsplit.lmg import LmgParams, build_lmg, pair_family_group, select_split
from stabsplit.metrics import n_tangle, parity_expectation
from stabsplit.pauli import PauliString, ResourceLimitError


def pair_statevector(n):
    """All-plus X-pair stabilizer state; coupling independent."""
    return pair_family_group(n, "X", (1,) * (n - 1)).to_statevector()


def all_down(n):
    vec = np.zeros(1 << n, dtype=complex)
    vec[-1] = 1.0
    return vec


class TestItePlan:
    def test_accepts_valid_grid(self):
        plan = ItePlan((0.0, 0.5, 1.0), all_down(2))
        assert plan.tau_grid == (0.0, 0.5, 1.0)

    def test_rejects_bad_grids(self):
        with pytest.raises(ValueError):
            ItePlan((0.5, 1.0), all_down(2))
        with pytest.raises(ValueError):
            ItePlan((0.0, 1.0, 1.0), all_down(2))
        with pytest.raises(ValueError):
            ItePlan((0.0, 1.0), "state")


class TestIteEvolve:
    def test_zero_time_is_identity(self):
        h = build_lmg(LmgParams(3, 2.0))
        vec = pair_statevector(3)
        out = ite_evolve(h, vec, 0.0)
        assert fidelity(out, vec) == pytest.approx(1.0, abs=1e-12)

    def test_matches_dense_exponential_oracle(self):
        params = LmgParams(4, 3.0)
        h = build_lmg(params)
        dense = h.dense_real()
        vec = pair_statevector(4)
        for tau in (0.3, 1.7):
            oracle = expm(-dense * tau) @ vec
            oracle /= np.linalg.norm(oracle)
            out = ite_evolve(h, vec, tau)
            assert fidelity(out, oracle) == pytest.approx(1.0, abs=1e-12)

    def test_collective_route_matches_dense_route(self):
        params = LmgParams(6, 4.0)
        h = build_lmg(params)
        start = stab_state_dicke_amplitudes(6, "s2")
        for tau in (0.5, 2.0):
            small = ite_evolve(dicke_hamiltonian(params), start, tau)
            big = ite_evolve(h, dicke_to_statevector(start), tau)
            assert fidelity(dicke_to_statevector(small), big) == pytest.approx(
                1.0, abs=1e-12
            )

    def test_long_time_reaches_ground_state(self):
        for n, vbar in ((4, 5.0), (6, 5.0)):
            params = LmgParams(n, vbar)
            h = build_lmg(params)
            evals = np.linalg.eigvalsh(h.dense_real())
            gap = evals[1] - evals[0]
            out = ite_evolve(h, pair_statevector(n), 50.0 / gap)
            _, exact_vec = dense_ground_state(params)
            assert fidelity(out, exact_vec) >= 1.0 - 1e-8

    def test_energy_monotone_in_tau(self):
        params = LmgParams(6, 3.0)
        h = build_lmg(params)
        dense = h.dense_real()
        eig = np.linalg.eigh(dense)
        vec = pair_statevector(6)
        energies = []
        for tau in np.linspace(0.0, 6.0, 25):
            out = ite_evolve(h, vec, float(tau), eig=eig)
            energies.append(float(np.real(np.vdot(out, dense @ out))))
        assert all(b <= a + 1e-10 for a, b in zip(energies, energies[1:]))

    def test_warns_without_ground_overlap(self):
        params = LmgParams(2, 1.0)
        h = build_lmg(params)
        odd = np.zeros(4, dtype=complex)
        odd[0b01] = 1.0
        with pytest.warns(UserWarning):
            out = ite_evolve(h, odd, 60.0)
        # Flow converged to the lowest eigenstate of the odd-parity sector.
        evals, evecs = np.linalg.eigh(h.dense_real())
        overlaps = np.abs(evecs.T @ odd)
        first = int(np.nonzero(overlaps > 1e-12)[0][0])
        assert fidelity(out, evecs[:, first].astype(complex)) >= 1.0 - 1e-8

    def test_pair_initial_dominates_product_initial(self):
        params = LmgParams(8, 5.0)
        h = build_lmg(params)
        eig = np.linalg.eigh(h.dense_real())
        _, exact_vec = dense_ground_state(params)
        taus = np.linspace(0.0, 8.0, 17)
        fid_pair, fid_prod = [], []
        for tau in taus:
            fid_pair.append(
                fidelity(ite_evolve(h, pair_statevector(8), float(tau), eig=eig), exact_vec)
            )
            fid_prod.append(
                fidelity(ite_evolve(h, all_down(8), float(tau), eig=eig), exact_vec)
            )
        # Strict dominance while the product curve is still resolvable from
        # unity; past saturation both sit within float rounding of 1.
        live = [(p, q) for p, q in zip(fid_pair, fid_prod) if 1.0 - q > 1e-10]
        assert len(live) >= 5
        assert all(p > q for p, q in live)
        assert all(p >= q - 1e-12 for p, q in zip(fid_pair, fid_prod))
        early = [f for f, t in zip(fid_pair, taus) if t <= 2.0]
        assert all(b > a for a, b in zip(early, early[1:]))
        assert all(b >= a - 1e-12 for a, b in zip(fid_pair, fid_pair[1:]))
        assert fid_pair[-1] >= 1.0 - 1e-12 and fid_prod[-1] >= 1.0 - 1e-12

    def test_curve_helper_matches_pointwise(self):
        params = LmgParams(3, 2.0)
        h = build_lmg(params)
        vec = pair_statevector(3)
        plan = ItePlan((0.0, 0.4, 1.1), vec)
        states = ite_curve(h, plan)
        for tau, state in zip(plan.tau_grid, states):
            assert fidelity(state, ite_evolve(h, vec, tau)) == pytest.approx(
                1.0, abs=1e-12
            )

    def test_rejects_negative_tau(self):
        h = build_lmg(LmgParams(2, 1.0))
        with pytest.raises(ValueError):
            ite_evolve(h, all_down(2), -0.1)

    def test_rejects_odd_y_hamiltonian(self):
        # X1 Y2 has an imaginary matrix; the flow needs a real one.
        h = PoolOperator(3, 1, 2, 1).as_hamiltonian()
        with pytest.raises(ValueError, match="odd Y count"):
            ite_evolve(h, all_down(3), 0.5)


class TestQitpOperators:
    def test_zero_time_gives_uniform_split(self):
        h = build_lmg(LmgParams(3, 2.0))
        a_mat, q_mat = qitp_operators(h, 0.0, -3.0)
        expect = np.eye(8) / np.sqrt(2.0)
        assert np.allclose(a_mat, expect, atol=1e-12)
        assert np.allclose(q_mat, expect, atol=1e-12)

    def test_completeness_and_unitarity(self):
        params = LmgParams(4, 3.0)
        h = build_lmg(params)
        split = select_split(h, params)
        exact_energy, _ = ground_state(params)
        for tau in (0.0, 0.5, 1.0, 2.0, 5.0):
            for e0 in (0.0, split.stab_energy, exact_energy - 3.0):
                a_mat, q_mat = qitp_operators(h, tau, e0)
                dim = a_mat.shape[0]
                assert np.max(np.abs(a_mat @ a_mat + q_mat @ q_mat - np.eye(dim))) <= 1e-10
                u_mat = qitp_unitary(a_mat, q_mat)
                assert np.max(np.abs(u_mat.T @ u_mat - np.eye(2 * dim))) <= 1e-10

    def test_matches_matrix_function_oracle(self):
        params = LmgParams(3, 1.5)
        dense = build_lmg(params).dense_real()
        tau, e0 = 0.7, -1.0
        kernel = expm(-2.0 * tau * (dense - e0 * np.eye(8)))
        a_oracle = inv(sqrtm(np.eye(8) + kernel))
        q_oracle = a_oracle @ expm(-tau * (dense - e0 * np.eye(8)))
        a_mat, q_mat = qitp_operators(build_lmg(params), tau, e0)
        assert np.allclose(a_mat, a_oracle, atol=1e-9)
        assert np.allclose(q_mat, q_oracle, atol=1e-9)

    def test_resource_guard(self):
        with pytest.raises(ResourceLimitError):
            qitp_operators(build_lmg(LmgParams(11, 1.0)), 1.0, 0.0)

    def test_huge_shift_stays_finite(self):
        # scale * (H - e0) alone overflows for e0 = 1e308; times tau = 0 it
        # must still give the uniform split.
        h = build_lmg(LmgParams(3, 2.0))
        a_mat, q_mat = qitp_operators(h, 0.0, 1e308)
        expect = np.eye(8) / np.sqrt(2.0)
        assert np.allclose(a_mat, expect, atol=1e-12)
        assert np.allclose(q_mat, expect, atol=1e-12)
        # At large tau (H - e0) tau overflows to -inf, which saturates A and Q.
        with np.errstate(over="ignore"):
            a_mat, q_mat = qitp_operators(h, 5.0, 1e308)
        assert np.array_equal(a_mat, np.zeros((8, 8)))
        assert np.allclose(q_mat, np.eye(8), atol=1e-12)


class TestQitpPostselect:
    def test_zero_time_returns_initial_at_half_probability(self):
        h = build_lmg(LmgParams(3, 2.0))
        vec = pair_statevector(3)
        out, prob = qitp_postselect(h, vec, 0.0, -1.5)
        assert prob == pytest.approx(0.5, abs=1e-12)
        assert fidelity(out, vec) == pytest.approx(1.0, abs=1e-12)

    def test_equals_direct_q_application(self):
        params = LmgParams(4, 3.0)
        h = build_lmg(params)
        vec = pair_statevector(4)
        for tau in (0.3, 1.0, 2.5):
            a_mat, q_mat = qitp_operators(h, tau, -3.0)
            direct = q_mat @ vec
            prob_direct = float(np.real(np.vdot(direct, direct)))
            direct /= np.linalg.norm(direct)
            out, prob = qitp_postselect(h, vec, tau, -3.0)
            assert fidelity(out, direct) >= 1.0 - 1e-10
            assert prob == pytest.approx(prob_direct, abs=1e-12)

    def test_long_time_success_amplitude(self):
        # With the shift at the exact energy, sqrt(prob) -> |<ground|init>|/sqrt(2).
        params = LmgParams(4, 3.0)
        h = build_lmg(params)
        vec = pair_statevector(4)
        energy, exact_vec = dense_ground_state(params)
        _, prob = qitp_postselect(h, vec, 60.0, energy)
        assert np.sqrt(prob) == pytest.approx(
            abs(np.vdot(exact_vec, vec)) / np.sqrt(2.0), abs=1e-8
        )

    def test_vanishing_probability_raises(self):
        params = LmgParams(3, 2.0)
        h = build_lmg(params)
        energy, _ = ground_state(params)
        with pytest.raises(ValueError):
            qitp_postselect(h, pair_statevector(3), 2.0, energy - 20.0)

    def test_matches_imaginary_time_flow_when_kernel_dominates(self):
        params = LmgParams(8, 5.0)
        h = build_lmg(params)
        eig = np.linalg.eigh(h.dense_real())
        energy, _ = ground_state(params)
        vec = pair_statevector(8)
        for tau in (0.5, 1.0, 2.0):
            shift = energy - 6.9 / tau
            out, _ = qitp_postselect(h, vec, tau, shift, eig=eig)
            flowed = ite_evolve(h, vec, tau, eig=eig)
            assert fidelity(out, flowed) >= 1.0 - 1e-10

    def test_initial_state_orderings_across_coupling(self):
        h_weak = build_lmg(LmgParams(8, 1.1))
        _, exact_weak = dense_ground_state(LmgParams(8, 1.1))
        fid_s1 = fidelity(all_down(8), exact_weak)
        fid_s2 = fidelity(pair_statevector(8), exact_weak)
        assert fid_s1 > fid_s2
        params = LmgParams(8, 5.0)
        h = build_lmg(params)
        eig = np.linalg.eigh(h.dense_real())
        split = select_split(h, params)
        _, exact_vec = dense_ground_state(params)
        pair_curve, prod_curve, pair_prob, prod_prob = [], [], [], []
        for tau in np.linspace(0.0, 12.0, 13):
            out_pair, prob_pair = qitp_postselect(
                h, pair_statevector(8), float(tau), split.stab_energy, eig=eig
            )
            out_prod, prob_prod = qitp_postselect(
                h, all_down(8), float(tau), split.stab_energy, eig=eig
            )
            pair_curve.append(fidelity(out_pair, exact_vec))
            prod_curve.append(fidelity(out_prod, exact_vec))
            pair_prob.append(prob_pair)
            prod_prob.append(prob_prod)
        live = [(p, q) for p, q in zip(pair_curve, prod_curve) if 1.0 - q > 1e-10]
        assert len(live) >= 3
        assert all(p > q for p, q in live)
        assert all(p >= q - 1e-12 for p, q in zip(pair_curve, prod_curve))
        assert pair_curve[-1] >= 0.999 and prod_curve[-1] >= 0.999
        assert all(b >= a - 1e-12 for a, b in zip(pair_curve, pair_curve[1:]))
        # Success probability settles at the squared initial ground overlap,
        # leaving the pair start a large postselection advantage.
        assert all(p > q for p, q in zip(pair_prob[1:], prod_prob[1:]))
        assert pair_prob[-1] == pytest.approx(
            fidelity(pair_statevector(8), exact_vec) ** 2, abs=1e-6
        )
        assert prod_prob[-1] == pytest.approx(
            fidelity(all_down(8), exact_vec) ** 2, abs=1e-6
        )


def postselect_by_block_unitary(h, initial, tau, e0_bar, eig):
    """Reference post-selection: the full block unitary on |0> (x) |initial>."""
    a_mat, q_mat = qitp_operators(h, tau, e0_bar, eig=eig)
    dim = len(initial)
    extended = np.concatenate([initial, np.zeros(dim, dtype=initial.dtype)])
    kept = (qitp_unitary(a_mat, q_mat) @ extended)[:dim]
    probability = float(np.real(np.vdot(kept, kept)))
    return kept / np.sqrt(probability), probability


class TestQitpPostselectBits:
    def test_matches_block_unitary_route_bit_for_bit(self):
        for n in range(2, 9):
            for vbar in (1.1, 5.0):
                params = LmgParams(n, vbar)
                h = build_lmg(params)
                eig = np.linalg.eigh(h.dense_real())
                e0 = select_split(h, params).stab_energy
                for initial in (pair_statevector(n), all_down(n)):
                    for tau in np.linspace(0.0, 5.0, 26):
                        state, prob = qitp_postselect(h, initial, float(tau), e0, eig=eig)
                        want, want_prob = postselect_by_block_unitary(
                            h, initial, float(tau), e0, eig
                        )
                        assert np.array_equal(state, want)
                        assert prob == want_prob

    def test_validation_shared_with_operators(self):
        with pytest.raises(ValueError):
            qitp_postselect(build_lmg(LmgParams(3, 1.0)), all_down(3), -0.1, 0.0)
        with pytest.raises(ResourceLimitError):
            qitp_postselect(build_lmg(LmgParams(11, 1.0)), all_down(11), 1.0, 0.0)


class TestVariationalJz:
    def test_two_spins_recover_exact(self):
        for vbar in (1.5, 2.0, 3.0, 5.0, 10.0):
            result = variational_jz(LmgParams(2, vbar))
            assert result.fidelity == pytest.approx(1.0, abs=1e-8)
            assert result.energy == pytest.approx(-np.sqrt(1 + vbar**2), abs=1e-8)

    def test_three_spins_recover_exact(self):
        for vbar in (2.0, 3.0, 5.0, 10.0):
            result = variational_jz(LmgParams(3, vbar))
            assert result.fidelity == pytest.approx(1.0, abs=1e-8)
            expect = -0.5 - np.sqrt(1 + 0.75 * vbar**2)
            assert result.energy == pytest.approx(expect, abs=1e-8)
        assert variational_jz(LmgParams(3, 3.0)).energy == pytest.approx(
            -3.283882, abs=1e-6
        )

    def test_variational_bounds(self):
        for n in (4, 8):
            for vbar in (0.5, 2.0, 10.0):
                params = LmgParams(n, vbar)
                result = variational_jz(params)
                exact_energy, _ = ground_state(params)
                pair_energy = -n * vbar / 4.0 if n > 2 else -vbar
                assert result.energy >= exact_energy - 1e-9
                assert result.energy <= pair_energy + 1e-12

    def test_preserves_parity(self):
        result = variational_jz(LmgParams(4, 3.0))
        vec = dicke_to_statevector(result.state)
        assert parity_expectation(vec) == pytest.approx(1.0, abs=1e-12)

    def test_second_order_improves(self):
        # Near the transition the ground state is broader than any exp(-t Jz)
        # reweighting can reach, so the quadratic term earns a real gain.
        first = variational_jz(LmgParams(8, 2.0), order=1)
        second = variational_jz(LmgParams(8, 2.0), order=2)
        assert second.energy < first.energy - 0.1
        assert second.fidelity > 0.999 > first.fidelity
        assert second.theta2 is not None and first.theta2 is None
        assert second.theta2 < 0.0

    def test_deformed_reference_beats_reference_energy(self):
        params = LmgParams(8, 10.0)
        result = variational_jz(params)
        assert result.theta_opt > 0.0
        assert result.fidelity > fidelity(
            stab_state_dicke_amplitudes(8, "s2"), ground_state(params)[1]
        )

    def test_validation(self):
        with pytest.raises(ValueError):
            variational_jz(LmgParams(4, 2.0), order=3)
        with pytest.raises(ValueError):
            variational_jz(
                LmgParams(4, 2.0),
                reference=DickeVector(4, (0, 1, 2, 3, 4), np.ones(5) / np.sqrt(5.0)),
            )


class TestDeformedHf:
    def test_normal_phase_keeps_bare_state(self):
        for n in (4, 8):
            for vbar in (0.3, 0.9):
                alpha, state = deformed_hf(LmgParams(n, vbar))
                assert abs(alpha) < 1e-6
                assert abs(state.full_amps()[0]) == pytest.approx(1.0, abs=1e-8)

    def test_rotation_matches_dense_oracle(self):
        params = LmgParams(4, 5.0)
        alpha, state = deformed_hf(params)
        assert alpha > 0.1
        jy = sum(
            0.5 * PauliString.from_ops(4, {q: "Y"}).dense() for q in range(1, 5)
        )
        dense_rotated = expm(-1j * alpha * jy) @ all_down(4)
        assert fidelity(dicke_to_statevector(state), dense_rotated) >= 1.0 - 1e-10

    def test_minimizes_energy_over_dense_scan(self):
        params = LmgParams(4, 5.0)
        alpha, state = deformed_hf(params)
        h_dense = build_lmg(params).dense_real()
        jy = sum(
            0.5 * PauliString.from_ops(4, {q: "Y"}).dense() for q in range(1, 5)
        )
        best = min(
            float(
                np.real(
                    np.vdot(expm(-1j * a * jy) @ all_down(4), h_dense @ (expm(-1j * a * jy) @ all_down(4)))
                )
            )
            for a in np.linspace(0.0, np.pi, 181)
        )
        vec = state.full_amps()
        energy = float(vec @ dicke_hamiltonian_full(params) @ vec)
        assert energy <= best + 1e-6

    def test_unprojected_state_has_no_tangles(self):
        _, state = deformed_hf(LmgParams(6, 5.0))
        vec = dicke_to_statevector(state)
        for order in range(2, 7):
            assert n_tangle(vec, order) <= 1e-10

    def test_projection_improves_fidelity(self):
        params = LmgParams(8, 10.0)
        _, state = deformed_hf(params)
        _, exact_state = ground_state(params)
        raw = fidelity(state, exact_state)
        projected = parity_project(state)
        assert fidelity(projected, exact_state) > raw


class TestParityProject:
    def test_collective_projection(self):
        state = DickeVector(4, (0, 1, 2, 3, 4), np.ones(5) / np.sqrt(5.0))
        projected = parity_project(state)
        full = projected.full_amps()
        assert np.allclose(full[1::2], 0.0)
        assert np.linalg.norm(full) == pytest.approx(1.0, abs=1e-12)

    def test_matches_statevector_projection(self):
        rng = np.random.default_rng(21)
        amps = rng.normal(size=6)
        amps /= np.linalg.norm(amps)
        state = DickeVector(5, (0, 1, 2, 3, 4, 5), amps)
        small = parity_project(state, sector=-1)
        big = parity_project(dicke_to_statevector(state), sector=-1)
        assert fidelity(dicke_to_statevector(small), big) == pytest.approx(
            1.0, abs=1e-12
        )

    def test_idempotent(self):
        state = DickeVector(4, (0, 1, 2, 3, 4), np.ones(5) / np.sqrt(5.0))
        once = parity_project(state)
        twice = parity_project(once)
        assert np.allclose(once.full_amps(), twice.full_amps(), atol=1e-14)

    def test_empty_sector_raises(self):
        pure = DickeVector(4, (0,), np.array([1.0]))
        with pytest.raises(ValueError):
            parity_project(pure, sector=-1)
