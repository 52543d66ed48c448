"""Collective-sector exact diagonalization against dense and analytic oracles."""

from math import comb

import numpy as np
import pytest

import stabsplit.cli as cli
import stabsplit.evolve as evolve_module
import stabsplit.exact as exact_module
from stabsplit.exact import (
    DickeVector,
    dense_ground_state,
    dicke_hamiltonian,
    dicke_hamiltonian_full,
    dicke_to_statevector,
    fidelity,
    ground_state,
    s2_candidate_state,
    sector_ks,
    stab_state_dicke_amplitudes,
)
from stabsplit.lmg import LmgParams, _position_table, build_lmg, prepare_stab_state, select_split
from stabsplit.metrics import parity_expectation, sre
from stabsplit.pauli import (
    PauliHamiltonian,
    PauliString,
    ResourceLimitError,
    _popcounts,
    canonical_phase,
)


def two_spin_block(vbar):
    # H restricted to {|11>, (|00>+... )}: spin-up counts k = 0, 2 of J = 1.
    return np.array([[-1.0, -vbar], [-vbar, 1.0]])


def three_spin_block(vbar):
    return np.array(
        [[-1.5, -np.sqrt(3.0) * vbar / 2.0], [-np.sqrt(3.0) * vbar / 2.0, 0.5]]
    )


def loop_collective_matrix(params, ks):
    """The earlier per-k builder of H over the given spin-up counts."""
    n, vbar, chi = params.n, params.vbar, params.chi
    j = n / 2.0
    ks = list(ks)
    pos = {k: i for i, k in enumerate(ks)}
    shift = vbar * n * (1 + chi) / (4.0 * (n - 1))
    mat = np.zeros((len(ks), len(ks)))
    for i, k in enumerate(ks):
        m = k - j
        mat[i, i] = (
            m - (vbar / (n - 1)) * 0.5 * (1 + chi) * (j * (j + 1) - m * m) + shift
        )
        if k + 2 in pos:
            amp = np.sqrt((j - m) * (j + m + 1)) * np.sqrt((j - m - 1) * (j + m + 2))
            val = -(vbar / (n - 1)) * 0.25 * (1 - chi) * amp
            mat[i, pos[k + 2]] = val
            mat[pos[k + 2], i] = val
    return mat


def loop_jy_generator(n):
    """The earlier per-k builder of -i Jy over the full multiplet."""
    j = n / 2.0
    gen = np.zeros((n + 1, n + 1))
    for k in range(n):
        m = k - j
        step = 0.5 * np.sqrt((j - m) * (j + m + 1))
        gen[k, k + 1] = step
        gen[k + 1, k] = -step
    return gen


def assert_same_bits(got, want):
    assert got.shape == want.shape
    assert np.array_equal(got, want)
    assert np.array_equal(np.signbit(got), np.signbit(want))


class _Blocks(Exception):
    pass


def ground_state_blocks(params, monkeypatch):
    """The two sector matrices ``ground_state`` hands to ``_parity_ground``."""

    def capture(blocks):
        raise _Blocks(blocks)

    monkeypatch.setattr(exact_module, "_parity_ground", capture)
    with pytest.raises(_Blocks) as caught:
        ground_state(params)
    return caught.value.args[0]


BUILDER_NS = [*range(2, 13), 64, 200, 1000]


class TestSectorMatrix:
    @pytest.mark.parametrize("n", BUILDER_NS)
    def test_matches_loop_reference_bit_for_bit(self, n, monkeypatch):
        # Signed zeros included: vbar = 0 and chi = 1 give -0.0 bands.
        sectors = (sector_ks(n), tuple(range(1, n + 1, 2)))
        for chi in (-1.0, -0.3, 0.0, 0.5, 1.0):
            for vbar in (0.0, 5e-324, 1e-310, 0.1, 7.0 / 6.0, 5.0, 100.0):
                params = LmgParams(n, vbar, chi)
                full = loop_collective_matrix(params, range(n + 1))
                assert_same_bits(dicke_hamiltonian_full(params), full)
                assert_same_bits(dicke_hamiltonian(params), loop_collective_matrix(params, sectors[0]))
                for block, ks in zip(ground_state_blocks(params, monkeypatch), sectors):
                    assert_same_bits(block, loop_collective_matrix(params, ks))

    @pytest.mark.parametrize("n", BUILDER_NS)
    def test_jy_generator_matches_loop_reference(self, n):
        assert_same_bits(evolve_module._jy_generator(n), loop_jy_generator(n))

    def test_full_matrix_is_cached_and_read_only(self):
        params = LmgParams(6, 2.0, -0.3)
        mat = dicke_hamiltonian_full(params)
        assert dicke_hamiltonian_full(LmgParams(6, 2.0, -0.3)) is mat
        assert not mat.flags.writeable
        with pytest.raises(ValueError):
            mat[0, 0] = 1.0
        assert dicke_hamiltonian(params).flags.writeable

    def test_default_sweep_point_builds_once(self):
        # ground_state's two sectors, variational_jz's reference sector,
        # deformed_hf and the hf cells all read one build.
        dicke_hamiltonian_full.cache_clear()
        cli._sweep_cells(8, -1.0, 5.0, frozenset(cli.OBSERVABLES))
        assert dicke_hamiltonian_full.cache_info().misses == 1

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
                    e_dense, _ = dense_ground_state(build_lmg(params))
                    assert e_sector == pytest.approx(e_dense, abs=1e-10)

    def test_matches_dense_ground_vector(self):
        for n in (2, 3, 4, 6, 8, 10):
            for vbar in (0.5, 1.0, 2.0, 5.0, 10.0):
                params = LmgParams(n, vbar)
                _, state = ground_state(params)
                _, dense_vec = dense_ground_state(build_lmg(params))
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
            dense_ground_state(build_lmg(LmgParams(13, 1.0)))


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
            energy, vec = dense_ground_state(build_lmg(params))
            evals, ref_vec = full_spectrum_reference(params)
            assert abs(energy - evals[0]) <= 1e-10 * abs(evals[0])
            # One sector only, with exact zeros in the other.
            assert not np.any(vec[odd]) or not np.any(vec[~odd])
            assert sre(vec) == pytest.approx(sre(ref_vec), abs=1e-11)
            if evals[1] - evals[0] > 1e-6:
                assert fidelity(vec, ref_vec) >= 1.0 - 1e-10

    def test_odd_block_wins(self):
        energy, vec = dense_ground_state(build_lmg(ODD_WINNER))
        assert energy == pytest.approx(-4.29094205455, abs=1e-10)
        assert parity_expectation(vec) == pytest.approx(-1.0, abs=1e-12)
        even = (_popcounts(8) & 1) == 0
        assert not np.any(vec[even])

    def test_tie_takes_the_minus_one_to_the_n_sector(self):
        # n = 2, chi = 1, vbar = 1: |11> (even) and (|01> + |10>)/sqrt(2)
        # (odd) both sit at -1; the even sector, (-1)^2 = +1, wins.
        energy, vec = dense_ground_state(build_lmg(LmgParams(2, 1.0, 1.0)))
        assert energy == pytest.approx(-1.0, abs=1e-12)
        assert parity_expectation(vec) == 1.0
        assert vec[0b11] == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("n", range(2, 11))
    def test_collective_route_matches_dense(self, n):
        for params in parity_grid(n):
            energy, state = ground_state(params)
            e_dense, vec = dense_ground_state(build_lmg(params))
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


def two_eigh_parity_ground(blocks):
    """The earlier ``_parity_ground``: eigh of both blocks, the second wins
    only when lower by more than 1e-8."""
    sectors = [np.linalg.eigh(block) for block in blocks]
    lows = [float(evals[0]) for evals, _ in sectors]
    win = 1 if lows[1] < lows[0] - 1e-8 else 0
    return min(lows), win, [evecs[:, 0] for _, evecs in sectors]


def count_eighs(monkeypatch):
    sizes = []
    real_eigh = np.linalg.eigh

    def recording(mat):
        sizes.append(len(mat))
        return real_eigh(mat)

    monkeypatch.setattr(np.linalg, "eigh", recording)
    return sizes


TIE = LmgParams(2, 1.0, 1.0)


class TestCertifiedSecondBlock:
    """One Cholesky certifies the second block; the results must be those of
    two eighs bit for bit, and a block the test cannot clear is diagonalized."""

    @pytest.mark.parametrize("n", range(2, 11))
    def test_matches_two_eigh_reference(self, n, monkeypatch):
        points = parity_grid(n) + ([TIE] if n == TIE.n else [])
        got = [(dense_ground_state(build_lmg(p)), ground_state(p)) for p in points]
        monkeypatch.setattr(exact_module, "_parity_ground", two_eigh_parity_ground)
        for params, ((energy, vec), (c_energy, state)) in zip(points, got):
            ref_energy, ref_vec = dense_ground_state(build_lmg(params))
            assert energy == ref_energy
            assert vec.tobytes() == ref_vec.tobytes()
            ref_c_energy, ref_state = ground_state(params)
            assert c_energy == ref_c_energy
            assert state.ks == ref_state.ks
            assert state.amps.tobytes() == ref_state.amps.tobytes()

    @pytest.mark.parametrize("params", [ODD_WINNER, TIE, LmgParams(7, 100.0, 0.0)])
    def test_blocks_match_two_eigh_reference(self, params):
        h = build_lmg(params).dense_real()
        blocks = [h[np.ix_(b, b)] for b in exact_module._parity_blocks(params.n)]
        energy, win, vecs = exact_module._parity_ground(blocks)
        ref_energy, ref_win, ref_vecs = two_eigh_parity_ground(blocks)
        assert (energy, win) == (ref_energy, ref_win)
        assert vecs[0].tobytes() == ref_vecs[0].tobytes()
        # Each point needs the fallback: an odd winner, a tie, and sectors
        # degenerate to 4e-14 at chi = 0.
        assert vecs[1] is not None and vecs[1].tobytes() == ref_vecs[1].tobytes()

    @staticmethod
    def margin(second):
        return exact_module._CERTIFY_MARGIN * np.abs(second).sum(axis=1).max()

    def test_block_within_margin_falls_back(self, monkeypatch):
        first = np.diag([1.0, 3.0, 4.0])
        second = np.diag([5.0, 4.0, 1.0])
        second[2, 2] += 0.5 * self.margin(second)
        sizes = count_eighs(monkeypatch)
        energy, win, vecs = exact_module._parity_ground([first, second])
        assert sizes == [3, 3]
        assert (energy, win) == (1.0, 0)
        assert vecs[1] is not None

    def test_block_below_falls_back_and_wins(self, monkeypatch):
        first = np.diag([1.0, 3.0])
        second = np.array([[0.5, 0.1], [0.1, 2.0]])
        want = np.linalg.eigh(second)[0][0]
        sizes = count_eighs(monkeypatch)
        energy, win, vecs = exact_module._parity_ground([first, second])
        assert sizes == [2, 2]
        assert (energy, win) == (want, 1)

    def test_block_above_the_margin_is_certified(self, monkeypatch):
        first = np.diag([1.0, 3.0, 4.0])
        second = np.diag([5.0, 4.0, 1.0])
        second[2, 2] += 2.0 * self.margin(second)
        sizes = count_eighs(monkeypatch)
        energy, win, vecs = exact_module._parity_ground([first, second])
        assert sizes == [3]
        assert (energy, win) == (1.0, 0)
        assert vecs[1] is None

    def test_one_eigh_on_the_benchmark_grid(self, monkeypatch):
        sizes = count_eighs(monkeypatch)
        dense_ground_state(build_lmg(LmgParams(8, 5.0, -1.0)))
        assert sizes == [128]


def gathered_dense_ground_state(params):
    """The earlier ``dense_ground_state``: the full 2^n matrix from
    ``dense_real``, its two parity blocks gathered with ``np.ix_``."""
    n = params.n
    h = build_lmg(params).dense_real()
    blocks = exact_module._parity_blocks(n)
    energy, win, vecs = exact_module._parity_ground([h[np.ix_(b, b)] for b in blocks])
    vec = np.zeros(1 << n, dtype=complex)
    vec[blocks[win]] = vecs[win]
    return energy, canonical_phase(vec)


def assert_blocks_match_dense(h):
    dense = h.dense_real()
    blocks = h.parity_blocks()
    assert blocks.shape == (2, 1 << (h.n - 1), 1 << (h.n - 1))
    for block, b in zip(blocks, exact_module._parity_blocks(h.n)):
        assert_same_bits(block, dense[np.ix_(b, b)])


BLOCK_GRID = [
    (chi, vbar)
    for chi in (-1.0, -0.3, 0.0, 0.5, 1.0)
    for vbar in (0.0, 5e-324, 1e-310, 0.1, 7.0 / 6.0, 5.0, 100.0)
]


class TestDirectParityBlocks:
    """``parity_blocks`` against ``dense_real`` gathered with ``np.ix_``, and
    ``dense_ground_state`` against the route that gathered them."""

    @pytest.mark.parametrize("n", range(2, 12))
    def test_matches_gathered_dense_bit_for_bit(self, n):
        # Signed zeros included; one point at n = 11, where the dense route
        # takes seconds per point.
        for chi, vbar in BLOCK_GRID if n < 11 else [(0.5, 5.0)]:
            params = LmgParams(n, vbar, chi)
            h = build_lmg(params)
            assert_blocks_match_dense(h)
            energy, vec = dense_ground_state(h)
            ref_energy, ref_vec = gathered_dense_ground_state(params)
            assert energy == ref_energy
            assert vec.tobytes() == ref_vec.tobytes()

    def test_from_terms_with_y_phases(self):
        # Two, zero and four Y sites; every term flips an even number of spins.
        labels = ["+Y1Y2", "-X1Y2Y3X4", "+Z3", "+Y1Y2Y3Y4", "+X2X3Z4", "-Z1Z4"]
        terms = [(0.3 * (k + 1), PauliString.parse(t, 4)) for k, t in enumerate(labels)]
        assert_blocks_match_dense(PauliHamiltonian.from_terms(4, terms))

    @pytest.mark.parametrize("label", ["+X1", "+X1Y2Y3", "+Y2"])
    def test_odd_terms_raise(self, label):
        # An odd number of X/Y sites couples the blocks; an odd Y count
        # (the +Y2 term) makes the matrix imaginary.
        terms = [(1.0, PauliString.parse("+Z1Z2", 3)), (0.5, PauliString.parse(label, 3))]
        h = PauliHamiltonian.from_terms(3, terms)
        with pytest.raises(ValueError):
            h.parity_blocks()
        with pytest.raises(ValueError):
            dense_ground_state(h)

    def test_layout_read_only_and_built_once_per_sweep(self, monkeypatch, tmp_path):
        _position_table.cache_clear()
        built = []
        layout = PauliHamiltonian._parity_layout

        def counting(h):
            built.append(h.positions)
            return layout(h)

        monkeypatch.setattr(PauliHamiltonian, "_parity_layout", counting)
        argv = ["sweep", "--n", "8", "--chi", "-1", "--jobs", "1"]
        assert cli.main(argv + ["--out", str(tmp_path / "sweep.csv")]) == 0
        assert len(built) == 1
        h = build_lmg(LmgParams(8, 5.0, -1.0))
        assert built[0] is h.positions
        h.parity_blocks()
        assert len(built) == 1
        for array in layout(h):
            assert not array.flags.writeable


class TestDenseGroundStateOfAnyHamiltonian:
    """``dense_ground_state`` diagonalizes the Hamiltonian it is handed, not
    only one ``build_lmg`` built."""

    @staticmethod
    def assert_ground(h):
        energy, vec = dense_ground_state(h)
        dense = h.dense_real()
        want = np.linalg.eigvalsh(dense)[0]
        assert abs(energy - want) <= 1e-10 * abs(want)
        assert np.linalg.norm(dense @ vec - energy * vec) <= 1e-10

    def test_permuted_from_terms_copy(self):
        # The odd sector wins at this point.
        terms = list(build_lmg(ODD_WINNER).terms)
        order = np.random.default_rng(7).permutation(len(terms))
        self.assert_ground(PauliHamiltonian.from_terms(8, [terms[k] for k in order]))

    @pytest.mark.parametrize("vbar", [0.5, 5.0])
    def test_magic_part_of_the_split(self, vbar):
        params = LmgParams(8, vbar)
        self.assert_ground(select_split(build_lmg(params), params).magic_part)


def count_calls(monkeypatch, func, modules):
    """Calls of ``func`` through each module's binding of its name; a module
    without one gets it, so a call it might make is counted too."""
    calls = []

    def counting(*args):
        calls.append(args)
        return func(*args)

    for module in modules:
        monkeypatch.setattr(module, func.__name__, counting, raising=False)
    return calls


class TestOneBuildPerSweepRow:
    def test_hamiltonian(self, monkeypatch):
        # The energies and the dense magic column read one build.
        calls = count_calls(monkeypatch, build_lmg, (cli, exact_module))
        cli._sweep_cells(8, -1.0, 5.0, frozenset(cli.OBSERVABLES))
        assert calls == [(LmgParams(8, 5.0, -1.0),)]

    def test_pair_state(self, monkeypatch):
        # The fidelity, entropy and tangle columns and variational_jz's
        # reference read one build.
        calls = count_calls(monkeypatch, s2_candidate_state, (cli, evolve_module))
        cli._sweep_cells(8, -1.0, 5.0, frozenset(cli.OBSERVABLES))
        assert calls == [(LmgParams(8, 5.0, -1.0),)]


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

    @pytest.mark.parametrize("n", [*range(2, 65), 1023, 1024])
    def test_pair_family_matches_float_power_form(self, n):
        # The form used up to N = 1024, where 2.0 ** (n - 1) still fits.
        want = np.array([np.sqrt(comb(n, k) / 2.0 ** (n - 1)) for k in sector_ks(n)])
        assert stab_state_dicke_amplitudes(n, "s2").amps.tobytes() == want.tobytes()

    @pytest.mark.parametrize("n", [1025, 2000])
    def test_pair_family_normalized_beyond_float_power(self, n):
        assert stab_state_dicke_amplitudes(n, "s2").norm == pytest.approx(1.0, abs=1e-12)

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
