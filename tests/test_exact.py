"""Collective-sector exact diagonalization against dense and analytic oracles."""

import numpy as np
import pytest

from stabsplit.exact import (
    DickeVector,
    dense_ground_state,
    dicke_hamiltonian,
    dicke_hamiltonian_full,
    dicke_to_statevector,
    fidelity,
    ground_state,
    sector_ks,
    stab_state_dicke_amplitudes,
)
from stabsplit.lmg import LmgParams, build_lmg, prepare_stab_state, select_split
from stabsplit.metrics import parity_expectation, sre
from stabsplit.pauli import ResourceLimitError, _popcounts, canonical_phase


def two_spin_block(vbar):
    # H restricted to {|11>, (|00>+... )}: spin-up counts k = 0, 2 of J = 1.
    return np.array([[-1.0, -vbar], [-vbar, 1.0]])


def three_spin_block(vbar):
    return np.array(
        [[-1.5, -np.sqrt(3.0) * vbar / 2.0], [-np.sqrt(3.0) * vbar / 2.0, 0.5]]
    )


class TestSectorMatrix:
    def test_two_spins_matches_analytic_block(self):
        for vbar in (0.0, 0.3, 1.0, 4.0):
            mat = dicke_hamiltonian(LmgParams(2, vbar))
            assert np.allclose(mat, two_spin_block(vbar), atol=1e-14)

    def test_three_spins_matches_analytic_block(self):
        for vbar in (0.0, 0.7, 2.0, 9.0):
            mat = dicke_hamiltonian(LmgParams(3, vbar))
            assert np.allclose(mat, three_spin_block(vbar), atol=1e-14)

    def test_sector_dimension(self):
        for n in range(2, 12):
            assert dicke_hamiltonian(LmgParams(n, 1.0)).shape[0] == n // 2 + 1

    def test_sector_spectrum_inside_dense_spectrum(self):
        # Every collective-sector eigenvalue must appear in the 2^n spectrum.
        for n in (2, 3, 4, 5, 6):
            for chi in (-1.0, -0.5, 0.0, 0.5):
                params = LmgParams(n, 1.7, chi)
                small = np.linalg.eigvalsh(dicke_hamiltonian(params))
                big = np.linalg.eigvalsh(build_lmg(params).dense_real())
                for ev in small:
                    assert np.min(np.abs(big - ev)) < 1e-10

    def test_full_multiplet_contains_sector(self):
        for n in (3, 4, 7):
            params = LmgParams(n, 2.5)
            small = np.linalg.eigvalsh(dicke_hamiltonian(params))
            full = np.linalg.eigvalsh(dicke_hamiltonian_full(params))
            for ev in small:
                assert np.min(np.abs(full - ev)) < 1e-10


class TestGroundState:
    def test_two_spin_closed_form(self):
        for vbar in (0.0, 0.5, 1.0, 3.0, 20.0):
            energy, _ = ground_state(LmgParams(2, vbar))
            assert energy == pytest.approx(-np.sqrt(1.0 + vbar**2), abs=1e-12)

    def test_three_spin_closed_form(self):
        for vbar in (0.0, 0.5, 2.0, 10.0):
            energy, _ = ground_state(LmgParams(3, vbar))
            expect = -0.5 - np.sqrt(1.0 + 0.75 * vbar**2)
            assert energy == pytest.approx(expect, abs=1e-12)

    def test_uncoupled_limit_is_all_down(self):
        for n in (2, 3, 6, 11):
            energy, state = ground_state(LmgParams(n, 0.0))
            assert energy == pytest.approx(-n / 2.0, abs=1e-12)
            assert state.amps[0] == pytest.approx(1.0, abs=1e-12)

    def test_anchor_amplitude_positive(self):
        for n in (2, 5, 8):
            for vbar in (0.1, 1.0, 10.0):
                _, state = ground_state(LmgParams(n, vbar))
                assert state.amps[0] > 0.0
                assert state.norm == pytest.approx(1.0, abs=1e-12)

    def test_energy_decreases_with_coupling(self):
        for n in (3, 6, 9):
            grid = np.linspace(0.0, 8.0, 30)
            energies = [ground_state(LmgParams(n, v))[0] for v in grid]
            assert all(b <= a + 1e-12 for a, b in zip(energies, energies[1:]))

    def test_matches_dense_ground_energy(self):
        for n in range(2, 9):
            for chi in (-1.0, -0.5, 0.0):
                for vbar in (0.5, 1.0, 2.0, 5.0, 10.0):
                    params = LmgParams(n, vbar, chi)
                    e_sector, _ = ground_state(params)
                    e_dense, _ = dense_ground_state(params)
                    assert e_sector == pytest.approx(e_dense, abs=1e-10)

    def test_matches_dense_ground_vector(self):
        for n in (2, 3, 4, 6, 8, 10):
            for vbar in (0.5, 1.0, 2.0, 5.0, 10.0):
                params = LmgParams(n, vbar)
                _, state = ground_state(params)
                _, dense_vec = dense_ground_state(params)
                overlap = fidelity(dicke_to_statevector(state), dense_vec)
                assert overlap == pytest.approx(1.0, abs=1e-10)

    def test_variational_bound_against_stabilizer(self):
        for n in (3, 5, 8):
            for vbar in (0.5, 2.0, 7.0):
                params = LmgParams(n, vbar)
                split = select_split(build_lmg(params), params)
                energy, _ = ground_state(params)
                assert energy <= split.stab_energy + 1e-12

    def test_dense_guard(self):
        with pytest.raises(ResourceLimitError):
            dense_ground_state(LmgParams(13, 1.0))


def full_spectrum_reference(params):
    """The earlier dense route: one eigh of the whole 2^n matrix, with a
    quasi-degenerate ground level resolved by spin-flip parity toward the
    (-1)^n sector.  Returns the full spectrum and the canonical state."""
    n = params.n
    evals, evecs = np.linalg.eigh(build_lmg(params).dense_real())
    degenerate = np.nonzero(evals - evals[0] < 1e-8)[0]
    if len(degenerate) > 1:
        par = 1.0 - 2.0 * (_popcounts(n) & 1)
        block = evecs[:, degenerate]
        pvals, pvecs = np.linalg.eigh(block.T @ (par[:, None] * block))
        vec = block @ pvecs[:, int(np.argmin(np.abs(pvals - (-1.0) ** n)))]
    else:
        vec = evecs[:, 0]
    return evals, canonical_phase(vec.astype(complex))


PARITY_GRID_CHIS = (-1.0, -0.5, 0.0, 0.5, 1.0)
PARITY_GRID_VBARS = tuple(np.geomspace(0.1, 100.0, 12))
# N = 8, chi = 0.5: the odd block holds the ground level, against the
# (-1)^n = +1 preference.
ODD_WINNER = LmgParams(8, 1.4563484775012436, 0.5)


def parity_grid(n):
    points = [LmgParams(n, vbar, chi) for chi in PARITY_GRID_CHIS for vbar in PARITY_GRID_VBARS]
    return points + [ODD_WINNER] if n == ODD_WINNER.n else points


class TestParityBlocks:
    @pytest.mark.parametrize("n", range(2, 11))
    def test_cross_parity_blocks_are_zero(self, n):
        odd = (_popcounts(n) & 1).astype(bool)
        for params in parity_grid(n):
            h = build_lmg(params).dense_real()
            assert not np.any(h[np.ix_(odd, ~odd)])
            assert not np.any(h[np.ix_(~odd, odd)])

    @pytest.mark.parametrize("n", range(2, 11))
    def test_matches_full_spectrum_reference(self, n):
        odd = (_popcounts(n) & 1).astype(bool)
        for params in parity_grid(n):
            energy, vec = dense_ground_state(params)
            evals, ref_vec = full_spectrum_reference(params)
            assert abs(energy - evals[0]) <= 1e-10 * abs(evals[0])
            # One sector only, with exact zeros in the other.
            assert not np.any(vec[odd]) or not np.any(vec[~odd])
            assert sre(vec) == pytest.approx(sre(ref_vec), abs=1e-11)
            if evals[1] - evals[0] > 1e-6:
                assert fidelity(vec, ref_vec) >= 1.0 - 1e-10

    def test_odd_block_wins(self):
        energy, vec = dense_ground_state(ODD_WINNER)
        assert energy == pytest.approx(-4.29094205455, abs=1e-10)
        assert parity_expectation(vec) == pytest.approx(-1.0, abs=1e-12)
        even = (_popcounts(8) & 1) == 0
        assert not np.any(vec[even])

    def test_tie_takes_the_minus_one_to_the_n_sector(self):
        # n = 2, chi = 1, vbar = 1: |11> (even) and (|01> + |10>)/sqrt(2)
        # (odd) both sit at -1; the even sector, (-1)^2 = +1, wins.
        energy, vec = dense_ground_state(LmgParams(2, 1.0, 1.0))
        assert energy == pytest.approx(-1.0, abs=1e-12)
        assert parity_expectation(vec) == 1.0
        assert vec[0b11] == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("n", range(2, 11))
    def test_collective_route_matches_dense(self, n):
        for params in parity_grid(n):
            energy, state = ground_state(params)
            e_dense, vec = dense_ground_state(params)
            assert abs(energy - e_dense) <= 1e-10 * abs(e_dense)
            # k spin-ups carry parity (-1)^(n-k).
            assert (-1) ** (n - state.ks[0]) == round(parity_expectation(vec))
            levels = np.linalg.eigvalsh(dicke_hamiltonian_full(params))
            if levels[1] - levels[0] > 1e-6:
                assert fidelity(dicke_to_statevector(state), vec) >= 1.0 - 1e-10

    def test_collective_tie_takes_the_even_sector(self):
        energy, state = ground_state(LmgParams(2, 1.0, 1.0))
        assert energy == pytest.approx(-1.0, abs=1e-12)
        assert state.ks == (0, 2)
        assert state.amps[0] == pytest.approx(1.0, abs=1e-12)

    def test_collective_odd_sector_wins(self):
        energy, state = ground_state(ODD_WINNER)
        assert energy == pytest.approx(-4.29094205455, abs=1e-10)
        assert state.ks == (1, 3, 5, 7)
        # Even sector twofold degenerate at -4; the odd one lies below it.
        energy, state = ground_state(LmgParams(8, 7.0 / 6.0, 1.0))
        assert energy == pytest.approx(-25.0 / 6.0, abs=1e-10)
        assert state.ks == (1, 3, 5, 7)


class TestStatevectorExpansion:
    def test_pure_all_down(self):
        state = DickeVector(3, (0,), np.array([1.0]))
        vec = dicke_to_statevector(state)
        expect = np.zeros(8, dtype=complex)
        expect[0b111] = 1.0
        assert np.allclose(vec, expect)

    def test_uniform_pair_component(self):
        # k = 2 of n = 3: equal weight on the three one-one-zero strings.
        state = DickeVector(3, (2,), np.array([1.0]))
        vec = dicke_to_statevector(state)
        hot = [0b001, 0b010, 0b100]
        for b in range(8):
            want = 1.0 / np.sqrt(3.0) if b in hot else 0.0
            assert vec[b] == pytest.approx(want, abs=1e-14)

    def test_expansion_preserves_energy(self):
        rng = np.random.default_rng(11)
        for n in (2, 4, 5):
            params = LmgParams(n, 1.3)
            h = build_lmg(params).dense()
            ks = sector_ks(n)
            raw = rng.normal(size=len(ks))
            raw /= np.linalg.norm(raw)
            state = DickeVector(n, ks, raw)
            vec = dicke_to_statevector(state)
            collective = state.amps @ dicke_hamiltonian(params) @ state.amps
            dense = np.real(np.vdot(vec, h @ vec))
            assert collective == pytest.approx(dense, abs=1e-12)

    def test_guard(self):
        state = DickeVector(15, (0,), np.array([1.0]))
        with pytest.raises(ResourceLimitError):
            dicke_to_statevector(state)


class TestStabStateAmplitudes:
    def test_product_family_is_pure_all_down(self):
        state = stab_state_dicke_amplitudes(6, "s1")
        assert state.amps[0] == pytest.approx(1.0)
        assert np.allclose(state.amps[1:], 0.0)

    def test_pair_family_three_spins(self):
        state = stab_state_dicke_amplitudes(3, "s2")
        assert np.allclose(state.amps, [0.5, np.sqrt(3.0) / 2.0], atol=1e-14)

    def test_pair_family_four_spins(self):
        state = stab_state_dicke_amplitudes(4, "s2")
        expect = np.array([1.0, np.sqrt(6.0), 1.0]) / np.sqrt(8.0)
        assert np.allclose(state.amps, expect, atol=1e-14)

    def test_normalized(self):
        for n in range(2, 13):
            for family in ("s1", "s2"):
                assert stab_state_dicke_amplitudes(n, family).norm == pytest.approx(1.0)

    def test_matches_prepared_states(self):
        # The collective expansion must reproduce the tableau-prepared states.
        for n, vbar in ((2, 0.3), (3, 0.3), (4, 5.0), (5, 5.0), (6, 5.0), (7, 0.1)):
            params = LmgParams(n, vbar)
            split = select_split(build_lmg(params), params)
            prepared = prepare_stab_state(split)
            collective = dicke_to_statevector(
                stab_state_dicke_amplitudes(n, split.family)
            )
            assert fidelity(prepared, collective) == pytest.approx(1.0, abs=1e-12)

    def test_rejects_unknown_family(self):
        with pytest.raises(ValueError):
            stab_state_dicke_amplitudes(4, "s3")


class TestFidelity:
    def test_collective_alignment(self):
        a = DickeVector(4, (0, 2, 4), np.array([1.0, 0.0, 0.0]))
        b = DickeVector(4, (0, 1, 2, 3, 4), np.array([0.6, 0.0, 0.8, 0.0, 0.0]))
        assert fidelity(a, b) == pytest.approx(0.6)

    def test_statevector_pair(self):
        v = np.zeros(4, dtype=complex)
        v[0] = 1.0
        w = np.full(4, 0.5, dtype=complex)
        assert fidelity(v, w) == pytest.approx(0.5)

    def test_mixed_representations_rejected(self):
        state = DickeVector(2, (0, 2), np.array([1.0, 0.0]))
        with pytest.raises(TypeError):
            fidelity(state, np.zeros(4, dtype=complex))

    def test_size_mismatch_rejected(self):
        with pytest.raises(ValueError):
            fidelity(np.zeros(4, dtype=complex), np.zeros(8, dtype=complex))
        with pytest.raises(ValueError):
            fidelity(
                DickeVector(2, (0,), np.array([1.0])),
                DickeVector(4, (0,), np.array([1.0])),
            )

    def test_pair_state_overlap_with_exact_grows(self):
        # Strong coupling drives the exact state toward the pair state.
        n = 8
        weak = fidelity(
            ground_state(LmgParams(n, 0.5))[1], stab_state_dicke_amplitudes(n, "s2")
        )
        strong = fidelity(
            ground_state(LmgParams(n, 50.0))[1], stab_state_dicke_amplitudes(n, "s2")
        )
        assert strong > 0.95
        assert weak < strong


class TestDickeVectorValidation:
    def test_rejects_length_mismatch(self):
        with pytest.raises(ValueError):
            DickeVector(3, (0, 2), np.array([1.0]))

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            DickeVector(3, (0, 4), np.array([1.0, 0.0]))

    def test_rejects_unsorted(self):
        with pytest.raises(ValueError):
            DickeVector(3, (2, 0), np.array([1.0, 0.0]))
