"""Magic, entanglement, and parity diagnostics against brute-force oracles."""

import itertools

import numpy as np
import pytest
from scipy.linalg import expm

from stabsplit.exact import DickeVector, dense_ground_state, dicke_to_statevector, sector_ks
from stabsplit.lmg import LmgParams, build_lmg, prepare_stab_state, select_split
from stabsplit.metrics import (
    n_tangle,
    n_tangle_dicke,
    one_spin_entropy,
    one_spin_entropy_dicke,
    parity_expectation,
    sre,
)
from stabsplit.pauli import PauliString, ResourceLimitError
from stabsplit.tableau import CliffordGate, apply_circuit

MATS = {
    "I": np.eye(2, dtype=complex),
    "X": np.array([[0, 1], [1, 0]], dtype=complex),
    "Y": np.array([[0, -1j], [1j, 0]], dtype=complex),
    "Z": np.array([[1, 0], [0, -1]], dtype=complex),
}

T_STATE = np.array([1.0, np.exp(1j * np.pi / 4)]) / np.sqrt(2.0)


def sre_oracle(state, alpha=2.0):
    # Direct 4^n enumeration with dense matrices.
    n = int(np.log2(len(state)))
    total = 0.0
    for letters in itertools.product("IXYZ", repeat=n):
        mat = np.array([[1.0]], dtype=complex)
        for letter in letters:
            mat = np.kron(mat, MATS[letter])
        expect = float(np.real(np.vdot(state, mat @ state)))
        total += (expect**2) ** alpha
    return -n + np.log2(total) / (1.0 - alpha) - alpha * n / (1.0 - alpha)


def random_state(rng, n):
    vec = rng.normal(size=1 << n) + 1j * rng.normal(size=1 << n)
    return vec / np.linalg.norm(vec)


def random_clifford_state(rng, n, depth=40):
    vec = np.zeros(1 << n, dtype=complex)
    vec[rng.integers(0, 1 << n)] = 1.0
    gates = []
    for _ in range(depth):
        kind = int(rng.integers(0, 7)) if n > 1 else int(rng.integers(0, 5))
        q = int(rng.integers(1, n + 1))
        if kind < 5:
            gates.append(CliffordGate(("H", "S", "X", "Y", "Z")[kind], (q,)))
        else:
            r = q
            while r == q:
                r = int(rng.integers(1, n + 1))
            gates.append(CliffordGate("CX" if kind == 5 else "CZ", (q, r)))
    return apply_circuit(vec, n, gates), gates


def random_symmetric_state(rng, n):
    ks = sector_ks(n)
    amps = rng.normal(size=len(ks))
    amps /= np.linalg.norm(amps)
    return DickeVector(n, ks, amps)


def pair_state(n):
    params = LmgParams(n, 5.0)
    split = select_split(build_lmg(params), params)
    assert split.family == "s2"
    return prepare_stab_state(split)


class TestSre:
    def test_t_state_value(self):
        assert sre(T_STATE) == pytest.approx(2.0 - np.log2(3.0), abs=1e-9)

    def test_matches_brute_force(self):
        rng = np.random.default_rng(5)
        for n in (1, 2, 3):
            for _ in range(4):
                state = random_state(rng, n)
                assert sre(state) == pytest.approx(sre_oracle(state), abs=1e-10)

    def test_generic_alpha_matches_brute_force(self):
        rng = np.random.default_rng(6)
        for alpha in (1.5, 3.0):
            state = random_state(rng, 2)
            assert sre(state, alpha) == pytest.approx(sre_oracle(state, alpha), abs=1e-10)

    def test_clifford_states_have_zero_magic(self):
        rng = np.random.default_rng(7)
        for n in (1, 2, 3, 4, 5):
            for _ in range(3):
                state, _ = random_clifford_state(rng, n)
                assert 0.0 <= sre(state) <= 1e-10

    def test_prepared_stabilizer_states_have_zero_magic(self):
        for n in (2, 3, 4, 6):
            assert sre(pair_state(n)) <= 1e-10
        ground = np.zeros(16, dtype=complex)
        ground[-1] = 1.0
        assert sre(ground) <= 1e-10

    def test_t_doped_states_have_magic(self):
        rng = np.random.default_rng(8)
        for n in (2, 3, 5):
            rest, _ = random_clifford_state(rng, n - 1)
            doped = np.kron(T_STATE, rest)
            assert sre(doped) > 0.1

    def test_invariant_under_clifford_circuits(self):
        rng = np.random.default_rng(9)
        for n in (2, 3, 4):
            state = random_state(rng, n)
            base = sre(state)
            _, gates = random_clifford_state(rng, n)
            rotated = apply_circuit(state, n, gates)
            assert sre(rotated) == pytest.approx(base, abs=1e-9)

    def test_additive_over_tensor_products(self):
        rng = np.random.default_rng(10)
        a = random_state(rng, 2)
        b = random_state(rng, 1)
        assert sre(np.kron(a, b)) == pytest.approx(sre(a) + sre(b), abs=1e-10)

    def test_guard_and_validation(self):
        with pytest.raises(ResourceLimitError):
            sre(np.zeros(1 << 11, dtype=complex))
        with pytest.raises(ValueError):
            sre(np.array([1.0, 1.0], dtype=complex))
        with pytest.raises(ValueError):
            sre(T_STATE, alpha=1.0)
        with pytest.raises(ValueError):
            sre(T_STATE, alpha=-2.0)

    def test_exact_ground_state_magic_peaks_near_transition(self):
        params_grid = np.geomspace(0.5, 20.0, 16)
        values = []
        for vbar in params_grid:
            _, vec = dense_ground_state(LmgParams(8, float(vbar)))
            values.append(sre(vec))
        peak = params_grid[int(np.argmax(values))]
        assert 1.5 <= peak <= 3.0


def sre_stack_reference(state, alpha=2.0):
    """Reference ``sre``: complex cross matrix in (x, b) rows and a
    last-axis Walsh-Hadamard transform that stacks each stage's halves."""
    n = int(np.log2(len(state)))
    d = 1 << n
    idx = np.arange(d)
    a = np.conj(state)[idx[:, None] ^ idx[None, :]] * state[None, :]
    h = 1
    while h < d:
        a = a.reshape((d, d // (2 * h), 2, h))
        top = a[..., 0, :] + a[..., 1, :]
        bot = a[..., 0, :] - a[..., 1, :]
        a = np.stack((top, bot), axis=-2).reshape((d, d))
        h *= 2
    total = float(np.sum((np.abs(a) ** 2) ** alpha))
    result = -n + np.log2(total) / (1.0 - alpha) - alpha * n / (1.0 - alpha)
    if -1e-12 < result < 0.0:
        result = 0.0
    return float(result)


class TestSreKernel:
    """The leading-axis transform and the real-state shortcut must give the
    same float as the stacked complex reference, not merely a close one."""

    def test_complex_states_bit_identical(self):
        rng = np.random.default_rng(43)
        for n in range(1, 11):
            state = random_state(rng, n)
            for alpha in (2.0, 3.0):
                assert sre(state, alpha) == sre_stack_reference(state, alpha)

    def test_real_states_bit_identical(self):
        rng = np.random.default_rng(47)
        for n in range(1, 11):
            vec = rng.normal(size=1 << n)
            states = [vec / np.linalg.norm(vec), (vec / np.linalg.norm(vec)).astype(complex)]
            if n >= 2:
                states += [
                    dense_ground_state(LmgParams(n, vbar, chi))[1]
                    for vbar, chi in ((0.3, -1.0), (1.1, -1.0), (5.0, 0.5))
                ]
            for state in states:
                for alpha in (2.0, 3.0):
                    assert sre(state, alpha) == sre_stack_reference(state, alpha)

    def test_stabilizer_states_bit_identical(self):
        rng = np.random.default_rng(53)
        for n in (2, 5, 8):
            state, _ = random_clifford_state(rng, n)
            assert sre(state) == sre_stack_reference(state)
            assert abs(sre(state)) < 1e-12


class TestOneSpinEntropy:
    def entropy_oracle(self, state, n):
        block = state.reshape(2, 1 << (n - 1))
        rho = block @ block.conj().T
        evals = np.linalg.eigvalsh(rho)
        return float(-sum(v * np.log2(v) for v in evals if v > 1e-15))

    def test_product_state_zero(self):
        vec = np.zeros(16, dtype=complex)
        vec[-1] = 1.0
        assert one_spin_entropy(vec) == 0.0

    def test_pair_state_maximal(self):
        for n in range(2, 9):
            assert one_spin_entropy(pair_state(n)) == pytest.approx(1.0, abs=1e-12)

    def test_two_spin_ground_state_analytic(self):
        _, vec = dense_ground_state(LmgParams(2, 1.0))
        amp = np.sqrt(2.0) - 1.0
        p_up = amp**2 / (1.0 + amp**2)
        expect = -p_up * np.log2(p_up) - (1 - p_up) * np.log2(1 - p_up)
        assert one_spin_entropy(vec) == pytest.approx(expect, abs=1e-10)
        assert one_spin_entropy(vec) == pytest.approx(self.entropy_oracle(vec, 2), abs=1e-10)

    def test_matches_partial_trace_on_symmetric_states(self):
        rng = np.random.default_rng(12)
        for n in (2, 3, 5, 8):
            for _ in range(3):
                state = random_symmetric_state(rng, n)
                vec = dicke_to_statevector(state)
                oracle = self.entropy_oracle(vec, n)
                assert one_spin_entropy(vec) == pytest.approx(oracle, abs=1e-10)
                assert one_spin_entropy_dicke(state) == pytest.approx(oracle, abs=1e-10)

    def test_rejects_non_symmetric(self):
        vec = np.zeros(4, dtype=complex)
        vec[0b00] = 1.0 / np.sqrt(2.0)
        vec[0b01] = 1.0 / np.sqrt(2.0)
        with pytest.raises(ValueError):
            one_spin_entropy(vec)


class TestNTangle:
    def test_bell_state(self):
        bell = np.zeros(4, dtype=complex)
        bell[0b00] = bell[0b11] = 1.0 / np.sqrt(2.0)
        assert n_tangle(bell, 2) == pytest.approx(1.0, abs=1e-12)

    def test_pair_state_full_tangle(self):
        for n in (2, 4, 6, 8):
            assert n_tangle(pair_state(n), n) == pytest.approx(1.0, abs=1e-12)
        for n in (3, 5, 7):
            assert n_tangle(pair_state(n), n) == pytest.approx(0.0, abs=1e-12)

    def test_pair_state_partial_tangles_vanish(self):
        for n in (4, 6):
            vec = pair_state(n)
            for order in range(1, n):
                assert n_tangle(vec, order) == pytest.approx(0.0, abs=1e-12)

    def test_all_down_state(self):
        vec = np.zeros(16, dtype=complex)
        vec[-1] = 1.0
        assert n_tangle(vec, 4) == 0.0

    def test_subset_choice_immaterial_on_symmetric_states(self):
        rng = np.random.default_rng(13)
        for n in (4, 5, 6):
            vec = dicke_to_statevector(random_symmetric_state(rng, n))
            base = n_tangle(vec, 3)
            for subset in ((2, 3, 4), (1, 3, n), (n - 2, n - 1, n)):
                assert n_tangle(vec, 3, subset) == pytest.approx(base, abs=1e-12)

    def test_invariant_under_collective_y_rotation(self):
        rng = np.random.default_rng(14)
        for n in (4, 6):
            vec = dicke_to_statevector(random_symmetric_state(rng, n))
            jy = sum(
                0.5 * PauliString.from_ops(n, {q: "Y"}).dense() for q in range(1, n + 1)
            )
            for alpha in (0.3, 1.1):
                rotated = expm(-1j * alpha * jy) @ vec
                for order in (2, n):
                    assert n_tangle(rotated, order) == pytest.approx(
                        n_tangle(vec, order), abs=1e-9
                    )

    def test_dicke_formula_matches_statevector(self):
        rng = np.random.default_rng(15)
        for n in range(2, 9):
            state = random_symmetric_state(rng, n)
            vec = dicke_to_statevector(state)
            assert n_tangle_dicke(state) == pytest.approx(n_tangle(vec, n), abs=1e-12)

    def test_validation(self):
        bell = np.zeros(4, dtype=complex)
        bell[0] = 1.0
        with pytest.raises(ValueError):
            n_tangle(bell, 3)
        with pytest.raises(ValueError):
            n_tangle(bell, 2, (1, 1))


class TestParity:
    def test_basis_and_superposition_examples(self):
        down = np.zeros(4, dtype=complex)
        down[0b11] = 1.0
        assert parity_expectation(down) == pytest.approx(1.0)
        plus = np.array([1.0, 1.0], dtype=complex) / np.sqrt(2.0)
        assert parity_expectation(plus) == pytest.approx(0.0)

    def test_three_spin_pair_state_is_odd(self):
        assert parity_expectation(pair_state(3)) == pytest.approx(-1.0, abs=1e-12)

    def test_exact_ground_states(self):
        for n in range(2, 9):
            for vbar in (0.5, 2.0, 5.0):
                _, vec = dense_ground_state(LmgParams(n, vbar))
                assert parity_expectation(vec) == pytest.approx(
                    (-1.0) ** n, abs=1e-12
                )
