"""Adaptive-ansatz tests: pool structure, kernels, gradients, growth runs."""

import numpy as np
import pytest
from scipy.linalg import expm

import stabsplit.adapt as adapt_module
from stabsplit.adapt import (
    ADAPT_QUBIT_LIMIT,
    AdaptConfig,
    AdaptError,
    AdaptTrace,
    PoolOperator,
    _energy_and_gradient,
    apply_ansatz,
    gradient,
    pool,
    run_adapt,
)
from stabsplit.exact import dense_ground_state, fidelity
from stabsplit.lmg import LmgParams, build_lmg, pair_family_group
from stabsplit.metrics import parity_expectation
from stabsplit.pauli import PauliString, ResourceLimitError


def pair_state(n):
    return pair_family_group(n, "X", (1,) * (n - 1)).to_statevector()


def all_down(n):
    vec = np.zeros(1 << n)
    vec[-1] = 1.0
    return vec


def parity_dense(n):
    signs = [(-1) ** bin(v).count("1") for v in range(1 << n)]
    return np.diag(np.array(signs, dtype=float))


class TestPool:
    def test_sizes(self):
        for n in range(2, 7):
            assert len(pool(n)) == n * (n - 1)

    def test_two_spin_labels(self):
        assert [op.label for op in pool(2)] == ["X1Y2+Y1X2", "X1Y2-Y1X2"]

    def test_ordering(self):
        keys = [(op.i, op.j, -op.sign) for op in pool(5)]
        assert keys == sorted(keys)
        assert all(op.i < op.j for op in pool(5))

    def test_elements_hermitian(self):
        for n in (2, 3, 4):
            for op in pool(n):
                dense = op.as_hamiltonian().dense()
                assert np.allclose(dense, dense.conj().T, atol=1e-12)

    def test_commutes_with_parity(self):
        for n in (2, 3, 4):
            prod_z = parity_dense(n)
            for op in pool(n):
                dense = op.as_hamiltonian().dense()
                assert np.max(np.abs(dense @ prod_z - prod_z @ dense)) < 1e-12

    def test_validation(self):
        with pytest.raises(ValueError):
            pool(1)
        with pytest.raises(ValueError):
            PoolOperator(3, 2, 2, 1)
        with pytest.raises(ValueError):
            PoolOperator(3, 1, 2, 0)


class TestKernel:
    def test_matches_matrix_exponential(self):
        rng = np.random.default_rng(11)
        for op in pool(3):
            t_dense = op.as_hamiltonian().dense()
            for theta in rng.uniform(-2.0, 2.0, size=3):
                exact = expm(1j * theta * t_dense)
                mine = op.rotated(np.eye(8), float(theta))
                assert np.max(np.abs(exact - mine)) < 1e-12

    def test_orthogonal_and_real(self):
        op = PoolOperator(4, 2, 3, -1)
        kernel = op.rotated(np.eye(16), 0.37)
        assert kernel.dtype == np.float64
        assert np.allclose(kernel.T @ kernel, np.eye(16), atol=1e-12)

    def test_period_pi(self):
        rng = np.random.default_rng(5)
        vec = rng.normal(size=16)
        op = PoolOperator(4, 1, 4, 1)
        assert np.allclose(op.rotated(vec, 0.3), op.rotated(vec, 0.3 + np.pi), atol=1e-12)

    def test_composition_adds_angles(self):
        rng = np.random.default_rng(6)
        vec = rng.normal(size=8)
        op = PoolOperator(3, 1, 3, 1)
        double = op.rotated(op.rotated(vec, 0.4), 0.25)
        assert np.allclose(double, op.rotated(vec, 0.65), atol=1e-12)

    def test_conjugation_routes_agree(self):
        rng = np.random.default_rng(7)
        mat = rng.normal(size=(16, 16))
        mat = mat + mat.T
        op = PoolOperator(4, 1, 3, -1)
        kernel = op.rotated(np.eye(16), 0.81)
        expected = kernel.T @ mat @ kernel
        inplace = mat.copy()
        op.conjugate_inplace(inplace, 0.81)
        assert np.allclose(inplace, expected, atol=1e-12)


class TestGradient:
    def test_matches_finite_differences(self):
        rng = np.random.default_rng(23)
        delta = 1e-5
        for n in range(2, 7):
            h = build_lmg(LmgParams(n, 2.5))
            dense = h.dense_real()
            vec = rng.normal(size=1 << n)
            vec /= np.linalg.norm(vec)
            ops = pool(n)
            for pos in rng.choice(len(ops), size=min(6, len(ops)), replace=False):
                op = ops[int(pos)]
                plus = op.rotated(vec, delta)
                minus = op.rotated(vec, -delta)
                fd = (plus @ dense @ plus - minus @ dense @ minus) / (2 * delta)
                assert gradient(vec, op, h) == pytest.approx(fd, abs=1e-6)

    @pytest.mark.parametrize("n, layers", [(4, 3), (5, 5), (6, 8)])
    def test_adjoint_matches_finite_differences(self, n, layers):
        # Every component of the adjoint gradient against central differences
        # of the apply_ansatz energy; the last layer repeats the first operator.
        rng = np.random.default_rng(100 + n)
        dense = build_lmg(LmgParams(n, 2.5)).dense_real()
        reference = pair_state(n).real
        ops = pool(n)
        chosen = [ops[int(k)] for k in rng.choice(len(ops), size=layers - 1, replace=False)]
        chosen.append(chosen[0])
        angles = rng.uniform(-np.pi, np.pi, size=layers)

        def energy(thetas):
            state = apply_ansatz(reference, chosen, thetas)
            return float(state @ dense @ state)

        value, grad = _energy_and_gradient(dense, reference, chosen, angles)
        assert value == pytest.approx(energy(angles), abs=1e-12)
        delta = 1e-5
        for k in range(layers):
            step = np.zeros(layers)
            step[k] = delta
            fd = (energy(angles + step) - energy(angles - step)) / (2 * delta)
            assert grad[k] == pytest.approx(fd, abs=1e-7)

    def test_complex_state(self):
        rng = np.random.default_rng(29)
        h = build_lmg(LmgParams(3, 4.0))
        dense = h.dense()
        vec = rng.normal(size=8) + 1j * rng.normal(size=8)
        vec /= np.linalg.norm(vec)
        delta = 1e-5
        op = pool(3)[4]
        plus = op.rotated(vec, delta)
        minus = op.rotated(vec, -delta)
        fd = np.real(np.vdot(plus, dense @ plus) - np.vdot(minus, dense @ minus)) / (2 * delta)
        assert gradient(vec, op, h) == pytest.approx(fd, abs=1e-6)

    def test_eigenstate_gradients_vanish(self):
        params = LmgParams(4, 2.0)
        h = build_lmg(params)
        _, ground = dense_ground_state(params)
        for op in pool(4):
            assert abs(gradient(ground, op, h)) < 1e-9

    def test_requires_normalized(self):
        h = build_lmg(LmgParams(2, 1.0))
        with pytest.raises(ValueError):
            gradient(np.array([1.0, 0.0, 0.0, 1.0]), pool(2)[0], h)

    def test_symmetry_breaking_gradients_vanish(self):
        # Single X or Y factors flip parity, so their gradients are exactly
        # zero from any definite-parity state and they can never be selected.
        params = LmgParams(4, 5.0)
        h = build_lmg(params)
        breakers = [
            PauliString.from_ops(4, {1: "X", 2: "Z"}),
            PauliString.from_ops(4, {1: "Y", 2: "Z"}),
            PauliString.from_ops(4, {3: "X", 4: "Z"}),
            PauliString.from_ops(4, {2: "Y", 3: "Z"}),
        ]
        states = [pair_state(4).real]
        trace = run_adapt(h, pair_state(4), AdaptConfig(max_layers=4))
        states.append(trace.state)
        for state in states:
            for breaker in breakers:
                assert abs(gradient(state.astype(complex), breaker, h)) < 1e-10


class TestRunAdapt:
    def test_exact_reference_terminates_at_layer_zero(self):
        params = LmgParams(4, 2.0)
        h = build_lmg(params)
        energy, ground = dense_ground_state(params)
        trace = run_adapt(h, ground)
        assert trace.converged
        assert len(trace.layers) == 1
        assert abs(trace.layers[0].gradient) < 1e-6
        assert trace.layers[0].energy == pytest.approx(energy, abs=1e-10)
        assert trace.layers[0].label == ""

    def test_two_spins_exact(self):
        params = LmgParams(2, 3.0)
        h = build_lmg(params)
        trace = run_adapt(h, pair_state(2))
        energy, ground = dense_ground_state(params)
        assert trace.converged
        assert len(trace.layers) - 1 <= 2
        assert trace.layers[-1].energy == pytest.approx(energy, abs=1e-10)
        assert trace.layers[-1].fidelity > 1.0 - 1e-10

    def test_three_spins_exact(self):
        params = LmgParams(3, 5.0)
        h = build_lmg(params)
        trace = run_adapt(h, pair_state(3))
        energy, _ = dense_ground_state(params)
        assert trace.converged
        assert trace.layers[-1].energy == pytest.approx(energy, abs=1e-9)
        assert trace.layers[-1].fidelity > 1.0 - 1e-9

    def test_trace_records_and_invariants(self):
        params = LmgParams(4, 5.0)
        h = build_lmg(params)
        dense = h.dense_real()
        reference = pair_state(4)
        trace = run_adapt(h, reference, AdaptConfig(max_layers=10))
        assert len(trace.layers) == 11 or trace.converged
        energies = trace.energies
        assert all(b <= a + 1e-8 for a, b in zip(energies, energies[1:]))
        ref_parity = parity_expectation(reference)
        label_map = {op.label: op for op in pool(4)}
        ops_so_far = []
        _, exact_vec = dense_ground_state(params)
        for record in trace.layers[1:]:
            ops_so_far.append(label_map[record.label])
            assert record.layer == len(ops_so_far)
            assert len(record.angles) == record.layer
            state = apply_ansatz(reference.real, ops_so_far, record.angles)
            assert np.isrealobj(state)
            assert np.linalg.norm(state) == pytest.approx(1.0, abs=1e-10)
            assert parity_expectation(state.astype(complex)) == pytest.approx(
                ref_parity, abs=1e-10
            )
            assert float(state @ dense @ state) == pytest.approx(record.energy, abs=1e-9)
            assert fidelity(state.astype(complex), exact_vec) == pytest.approx(
                record.fidelity, abs=1e-9
            )

    def test_rel_energy_errors(self):
        params = LmgParams(3, 5.0)
        h = build_lmg(params)
        trace = run_adapt(h, pair_state(3))
        errors = trace.rel_energy_errors()
        assert len(errors) == len(trace.layers)
        assert errors[-1] < 1e-9
        assert errors[0] > errors[-1]

    def test_deterministic(self):
        params = LmgParams(4, 5.0)
        h = build_lmg(params)
        first = run_adapt(h, pair_state(4), AdaptConfig(max_layers=8))
        second = run_adapt(h, pair_state(4), AdaptConfig(max_layers=8))
        assert [r.label for r in first.layers] == [r.label for r in second.layers]
        assert [r.angles for r in first.layers] == [r.angles for r in second.layers]
        assert first.energies == second.energies

    def test_pair_reference_plateau_gradients_small(self):
        # Growth from the pair state stalls once the four disjoint two-spin
        # operators are used up (layer 5 on): its selection gradients drop
        # under a tenth of the product-state run's, which keeps descending.
        params = LmgParams(8, 5.0)
        h = build_lmg(params)
        pair_run = run_adapt(h, pair_state(8), AdaptConfig(max_layers=8))
        prod_run = run_adapt(h, all_down(8), AdaptConfig(max_layers=8))
        for k in range(5, 9):
            assert abs(pair_run.layers[k].gradient) < 0.1 * abs(
                prod_run.layers[k].gradient
            )

    def test_resource_guard(self):
        h = build_lmg(LmgParams(ADAPT_QUBIT_LIMIT + 1, 1.0))
        ref = np.zeros(1 << (ADAPT_QUBIT_LIMIT + 1))
        ref[-1] = 1.0
        with pytest.raises(ResourceLimitError):
            run_adapt(h, ref)

    def test_reference_validation(self):
        h = build_lmg(LmgParams(2, 1.0))
        with pytest.raises(ValueError):
            run_adapt(h, np.array([1.0, 1.0, 0.0, 0.0]))
        with pytest.raises(ValueError):
            run_adapt(h, np.array([1j, 0.0, 0.0, 0.0]))

    def test_config_validation(self):
        with pytest.raises(ValueError):
            AdaptConfig(max_layers=0)
        with pytest.raises(ValueError):
            AdaptConfig(grad_threshold=0.0)
        with pytest.raises(ValueError):
            AdaptConfig(vqe_tol=-1e-8)
        with pytest.raises(ValueError):
            AdaptConfig(reference="s3")

    @pytest.mark.parametrize("value", [float("nan"), float("inf")])
    def test_thresholds_must_be_finite(self, value):
        with pytest.raises(ValueError, match="finite"):
            AdaptConfig(grad_threshold=value)
        with pytest.raises(ValueError, match="finite"):
            AdaptConfig(vqe_tol=value)

    def test_iteration_cap_raises_with_partial_trace(self, monkeypatch):
        monkeypatch.setattr(adapt_module, "_BFGS_ITERS_PER_ANGLE", 1)
        h = build_lmg(LmgParams(8, 5.0))
        with pytest.raises(AdaptError, match="cap") as info:
            run_adapt(h, all_down(8), AdaptConfig(max_layers=20))
        trace = info.value.trace
        assert trace is not None
        assert trace.layers[0].energy == pytest.approx(-4.0, abs=1e-12)
        assert [record.layer for record in trace.layers] == list(range(len(trace.layers)))
        assert trace.state is not None
        assert np.linalg.norm(trace.state) == pytest.approx(1.0, abs=1e-10)

    def test_error_carries_trace(self):
        err = AdaptError("stalled", AdaptTrace(exact_energy=-1.0))
        assert isinstance(err, RuntimeError)
        assert err.trace.exact_energy == -1.0
