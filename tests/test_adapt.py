"""Adaptive-ansatz tests: pool structure, kernels, gradients, growth runs."""

import math

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
from stabsplit.cli import main
from stabsplit.exact import dense_ground_state, fidelity
from stabsplit.lmg import LmgParams, build_lmg, pair_family_group
from stabsplit.metrics import parity_expectation
from stabsplit.pauli import PauliHamiltonian, PauliString, ResourceLimitError, _popcounts


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

    def test_integer_input_is_promoted(self):
        # An integer basis state rotates like its float copy, bit for bit,
        # instead of being truncated into its own integer dtype.
        ops = pool(3)[:3]
        angles = [0.3, -1.1, 0.7]
        for index in range(8):
            basis = np.zeros(8, dtype=np.int64)
            basis[index] = 1
            matrix = np.eye(8, dtype=np.int64)
            for op, theta in zip(ops, angles):
                assert same_bits(op.rotated(basis, theta), op.rotated(basis.astype(float), theta))
                assert same_bits(op.rotated(matrix, theta), op.rotated(np.eye(8), theta))
            assert same_bits(
                apply_ansatz(basis, ops, angles),
                apply_ansatz(basis.astype(float), ops, angles),
            )
        assert np.any(pool(2)[0].rotated(np.array([1, 0, 0, 0]), 0.3))

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
        _, ground = dense_ground_state(h)
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
        energy, ground = dense_ground_state(h)
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
        energy, ground = dense_ground_state(h)
        assert trace.converged
        assert len(trace.layers) - 1 <= 2
        assert trace.layers[-1].energy == pytest.approx(energy, abs=1e-10)
        assert trace.layers[-1].fidelity > 1.0 - 1e-10

    def test_three_spins_exact(self):
        params = LmgParams(3, 5.0)
        h = build_lmg(params)
        trace = run_adapt(h, pair_state(3))
        energy, _ = dense_ground_state(h)
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
        _, exact_vec = dense_ground_state(h)
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


# The fancy-index kernels and loops that preceded the table-driven kernel,
# kept as bit-identity references.


def reference_generator_action(op, state):
    sel, par = op._indices
    out = np.zeros_like(state)
    if op.sign > 0:
        out[sel] = -2.0 * state[par]
        out[par] = 2.0 * state[sel]
    else:
        out[sel] = 2.0 * state[par]
        out[par] = -2.0 * state[sel]
    return out


def reference_rotated(op, state, theta):
    sel, par = op._indices
    c = math.cos(2.0 * theta)
    s = math.sin(2.0 * theta)
    out = np.array(state, copy=True)
    a = state[sel]
    b = state[par]
    if op.sign > 0:
        out[sel] = c * a + s * b
        out[par] = c * b - s * a
    else:
        out[sel] = c * a - s * b
        out[par] = c * b + s * a
    return out


def reference_select(dense, state, ops):
    h_psi = dense @ state
    best_idx, best_val = 0, 0.0
    for pos, op in enumerate(ops):
        value = -2.0 * float(np.dot(reference_generator_action(op, state), h_psi))
        if abs(value) > abs(best_val) + 1e-15:
            best_idx, best_val = pos, value
    return best_idx, best_val


def reference_energy_and_gradient(dense, reference, chosen, angles):
    states = [reference]
    for op, theta in zip(chosen, angles):
        states.append(reference_rotated(op, states[-1], theta))
    lam = dense @ states[-1]
    energy = float(states[-1] @ lam)
    grad = np.empty(len(chosen))
    for level in reversed(range(len(chosen))):
        op = chosen[level]
        grad[level] = -2.0 * float(lam @ reference_generator_action(op, states[level + 1]))
        lam = reference_rotated(op, lam, -angles[level])
    return energy, grad


def reference_reoptimize(dense, reference, chosen, angles, vqe_tol, carried=None):
    """The BFGS loop with a gradient at every trial, carrying the previous
    layer's inverse Hessian under the same reset rule; returns the energy,
    the final inverse Hessian and the numbers of accepted and rejected
    line-search trials and of resets."""
    accepted = rejected = resets = 0
    x = np.array(angles, dtype=float)
    energy, grad = reference_energy_and_gradient(dense, reference, chosen, x)
    size = len(x)
    if carried is None:
        inv_hess = np.eye(size)
        fresh = 0  # the iteration whose update rescales the identity
    else:
        inv_hess = np.zeros((size, size))
        inv_hess[: size - 1, : size - 1] = carried
        inv_hess[size - 1, size - 1] = np.mean(np.diag(carried))
        fresh = None
    for iteration in range(adapt_module._BFGS_ITERS_PER_ANGLE * size):
        direction = -inv_hess @ grad
        slope = float(grad @ direction)
        if not slope < 0.0:
            break
        step = 1.0
        while step >= 1e-10:
            trial = x + step * direction
            trial_energy, trial_grad = reference_energy_and_gradient(
                dense, reference, chosen, trial
            )
            if trial_energy <= energy + 1e-4 * step * slope:
                accepted += 1
                break
            rejected += 1
            step *= 0.5
        else:
            break
        s_vec = trial - x
        y_vec = trial_grad - grad
        drop = energy - trial_energy
        x, energy, grad = trial, trial_energy, trial_grad
        if drop < vqe_tol:
            break
        sy = float(s_vec @ y_vec)
        if fresh is None and (sy <= 1e-16 or drop < 1e-3 * (-step * slope)):
            inv_hess = np.eye(size)
            fresh = iteration + 1
            resets += 1
            continue
        if sy > 1e-16:
            if iteration == fresh:
                inv_hess *= sy / float(y_vec @ y_vec)
            h_y = inv_hess @ y_vec
            inv_hess += (sy + float(y_vec @ h_y)) / sy**2 * np.outer(s_vec, s_vec)
            inv_hess -= (np.outer(h_y, s_vec) + np.outer(s_vec, h_y)) / sy
    angles[:] = x.tolist()
    return energy, inv_hess, accepted, rejected, resets


SPECIAL_ANGLES = (0.0, -0.0, np.pi / 4, -np.pi / 4, np.pi, -np.pi)


def random_angles(rng, size):
    # Mostly uniform draws, with zero, +-pi/4 and +-pi mixed in.
    angles = rng.uniform(-np.pi, np.pi, size=size)
    special = rng.random(size) < 0.3
    angles[special] = rng.choice(SPECIAL_ANGLES, size=int(special.sum()))
    return angles


def random_reference(rng, n):
    # A random real unit vector, a pair state or the all-down state.
    kind = rng.integers(3)
    if kind == 0:
        vec = rng.normal(size=1 << n)
        return vec / np.linalg.norm(vec)
    return pair_state(n).real if kind == 1 else all_down(n)


def same_bits(first, second):
    first, second = np.asarray(first), np.asarray(second)
    return (
        first.dtype == second.dtype
        and np.array_equal(first, second, equal_nan=True)
        and np.array_equal(np.signbit(first.real), np.signbit(second.real))
        and np.array_equal(np.signbit(first.imag), np.signbit(second.imag))
    )


class TestTableKernel:
    """The table-driven kernel does the reference's floating-point operations."""

    @pytest.mark.parametrize("n", range(2, 9))
    def test_energy_and_gradient_bits(self, n):
        rng = np.random.default_rng(900 + n)
        ops = pool(n)
        for _ in range(45):
            params = LmgParams(n, float(rng.uniform(0.0, 6.0)), float(rng.uniform(-1.0, 1.0)))
            dense = build_lmg(params).dense_real()
            reference = random_reference(rng, n)
            layers = int(rng.integers(1, 41))
            # Drawn with replacement, and the first operator repeated at the
            # end, so operators recur within one ansatz.
            chosen = [ops[int(k)] for k in rng.integers(len(ops), size=layers)]
            chosen[-1] = chosen[0]
            angles = random_angles(rng, layers)
            energy, grad = _energy_and_gradient(dense, reference, chosen, angles)
            ref_energy, ref_grad = reference_energy_and_gradient(dense, reference, chosen, angles)
            assert energy == ref_energy
            assert math.copysign(1.0, energy) == math.copysign(1.0, ref_energy)
            assert same_bits(grad, ref_grad)

    def test_results_do_not_depend_on_earlier_calls(self):
        rng = np.random.default_rng(17)
        dense = build_lmg(LmgParams(6, 3.0)).dense_real()
        ops = pool(6)
        draws = [
            ([ops[int(k)] for k in rng.integers(len(ops), size=size)], random_angles(rng, size))
            for size in (12, 3, 12)
        ]
        reference = pair_state(6).real
        first = _energy_and_gradient(dense, reference, *draws[0])
        _energy_and_gradient(dense, reference, *draws[1])
        _energy_and_gradient(dense, all_down(6), *draws[2])
        again = _energy_and_gradient(dense, reference, *draws[0])
        assert first[0] == again[0] and same_bits(first[1], again[1])

    @pytest.mark.parametrize("n", range(2, 9))
    def test_select_bits(self, n):
        rng = np.random.default_rng(950 + n)
        ops = pool(n)
        dense = build_lmg(LmgParams(n, 5.0)).dense_real()
        # The bare references tie many pool gradients exactly.
        states = [pair_state(n).real, all_down(n)]
        for _ in range(8):
            layers = int(rng.integers(1, 41))
            chosen = [ops[int(k)] for k in rng.integers(len(ops), size=layers)]
            states.append(apply_ansatz(random_reference(rng, n), chosen, random_angles(rng, layers)))
        for state in states:
            index, value = adapt_module._select(dense, state, ops)
            ref_index, ref_value = reference_select(dense, state, ops)
            assert index == ref_index
            assert value == ref_value and math.copysign(1.0, value) == math.copysign(1.0, ref_value)

    def test_rotated_and_generator_action_bits(self):
        rng = np.random.default_rng(31)
        for n in range(2, 7):
            dim = 1 << n
            inputs = [
                rng.normal(size=dim),
                np.eye(dim),
                rng.normal(size=(dim, 3)),
                rng.normal(size=dim) + 1j * rng.normal(size=dim),
                rng.normal(size=(dim, 2)) + 1j * rng.normal(size=(dim, 2)),
            ]
            for op in pool(n):
                for state in inputs:
                    assert same_bits(op.generator_action(state), reference_generator_action(op, state))
                    for theta in (*SPECIAL_ANGLES, float(rng.uniform(-np.pi, np.pi))):
                        assert same_bits(op.rotated(state, theta), reference_rotated(op, state, theta))


class TestLineSearchCalls:
    def test_backward_pass_only_on_accepted_steps(self, monkeypatch):
        # Replays every re-optimization of an N = 6 growth, carrying the
        # inverse Hessian from layer to layer: one backward pass at the start
        # and one per accepted step, a forward pass per trial, and the
        # reference loop's angles, energy and inverse Hessian bit for bit.
        calls = {"forward": 0, "backward": 0}

        def counted(name, func):
            def wrapper(*args):
                calls[name] += 1
                return func(*args)

            return wrapper

        monkeypatch.setattr(adapt_module, "_forward", counted("forward", adapt_module._forward))
        monkeypatch.setattr(adapt_module, "_backward", counted("backward", adapt_module._backward))
        h = build_lmg(LmgParams(6, 5.0))
        dense = h.dense_real()
        reference = all_down(6)
        trace = run_adapt(h, reference, AdaptConfig(max_layers=6))
        label_map = {op.label: op for op in pool(6)}
        chosen = []
        inv_hess = ref_inv_hess = None
        total_rejected = 0
        for before, record in zip(trace.layers, trace.layers[1:]):
            chosen.append(label_map[record.label])
            angles = list(before.angles) + [0.0]
            ref_angles = list(angles)
            ref_energy, ref_inv_hess, accepted, rejected, _ = reference_reoptimize(
                dense, reference, chosen, ref_angles, 1e-12, ref_inv_hess
            )
            calls.update(forward=0, backward=0)
            energy, inv_hess = adapt_module._reoptimize(
                dense, reference, chosen, angles, 1e-12, inv_hess
            )
            assert calls == {"forward": 1 + accepted + rejected, "backward": 1 + accepted}
            assert energy == ref_energy == record.energy
            assert angles == ref_angles == list(record.angles)
            assert same_bits(inv_hess, ref_inv_hess)
            total_rejected += rejected
        assert total_rejected > 0


class TestWarmStart:
    """Each growth step starts BFGS from the inverse Hessian of the step
    before, and falls back to the identity when that matrix misleads."""

    @pytest.mark.parametrize("n", [4, 5, 6])
    def test_no_cap_at_the_risk_points(self, n):
        # Without the reset rule, N = 6, chi = 0, vbar = 0.5 from the
        # product state hits the iteration cap.
        for chi in (-1.0, 0.0, 0.5):
            for vbar in (0.5, 2.0, 5.0):
                h = build_lmg(LmgParams(n, vbar, chi))
                for reference in (pair_state(n), all_down(n)):
                    energies = run_adapt(h, reference, AdaptConfig(max_layers=40)).energies
                    # Layer 0's energy is summed in another order.
                    assert energies[1] <= energies[0] + 1e-12
                    assert all(b <= a for a, b in zip(energies[1:], energies[2:]))

    def test_reset_recovers_from_a_bad_carried_matrix(self):
        h = build_lmg(LmgParams(6, 5.0))
        dense = h.dense_real()
        reference = all_down(6)
        trace = run_adapt(h, reference, AdaptConfig(max_layers=10))
        label_map = {op.label: op for op in pool(6)}
        chosen = [label_map[record.label] for record in trace.layers[1:]]
        start = list(trace.layers[-2].angles) + [0.0]
        cold, _ = adapt_module._reoptimize(dense, reference, chosen, list(start), 1e-12)
        bad = 1e6 * np.eye(len(start) - 1)
        angles, ref_angles = list(start), list(start)
        energy, _ = adapt_module._reoptimize(dense, reference, chosen, angles, 1e-12, bad)
        ref_energy, _, _, _, resets = reference_reoptimize(
            dense, reference, chosen, ref_angles, 1e-12, bad
        )
        assert resets == 1
        assert energy == ref_energy and angles == ref_angles
        assert abs(energy - cold) <= 1e-10 * abs(cold)

    def test_forward_pass_budget(self, monkeypatch, capsys):
        # The adapt-n8 benchmark command: 714 forward passes from a cold
        # start at every layer, 285 with the carried inverse Hessian.
        calls = []
        forward = adapt_module._forward

        def counted(*args):
            calls.append(None)
            return forward(*args)

        monkeypatch.setattr(adapt_module, "_forward", counted)
        argv = ["adapt", "--n", "8", "--vbar", "5", "--reference", "s2", "--max-layers", "24"]
        assert main(argv) == 0
        assert capsys.readouterr().out.count("\n") == 26
        assert len(calls) <= 400


def full_eigh_exact_target(dense, n, reference):
    """The earlier target: the ground energy from one eigh of the whole 2^n
    matrix, then a second eigh of the reference's parity block."""
    evals, evecs = np.linalg.eigh(dense)
    ground_energy = float(evals[0])
    signs = 1.0 - 2.0 * (_popcounts(n) & 1)
    plus = signs > 0
    minus = ~plus
    conserves = np.max(np.abs(dense[np.ix_(plus, minus)])) < 1e-12
    ref_parity = float(np.dot(reference, signs * reference))
    if conserves and abs(abs(ref_parity) - 1.0) < 1e-8:
        mask = plus if ref_parity > 0 else minus
        sub_vals, sub_vecs = np.linalg.eigh(dense[np.ix_(mask, mask)])
        target = np.zeros(len(signs))
        target[mask] = sub_vecs[:, 0]
        return ground_energy, target
    return ground_energy, evecs[:, 0].astype(float)


class TestExactTarget:
    @pytest.mark.parametrize("n", range(2, 9))
    def test_matches_full_eigh_reference(self, n):
        one_flip = np.zeros(1 << n)
        one_flip[-2] = 1.0
        references = (pair_state(n), all_down(n), one_flip)
        for params in (LmgParams(n, 5.0), LmgParams(n, 1.4563484775012436, 0.5)):
            h = build_lmg(params)
            dense = h.dense_real()
            for reference in map(adapt_module._as_real_state, references):
                energy, target = adapt_module._exact_target(h, reference)
                ref_energy, ref_target = full_eigh_exact_target(dense, n, reference)
                assert np.array_equal(target, ref_target)
                assert energy == pytest.approx(ref_energy, abs=1e-12)

    @pytest.mark.parametrize("n", (3, 6, 8))
    def test_matches_two_eigh_parity_ground(self, n, monkeypatch):
        # Bit for bit what diagonalizing both parity blocks gives, with the
        # reference on either sector.
        one_flip = np.zeros(1 << n)
        one_flip[-2] = 1.0
        references = [adapt_module._as_real_state(r) for r in (pair_state(n), one_flip)]
        cases = []
        for params in (LmgParams(n, 5.0), LmgParams(n, 1.4563484775012436, 0.5)):
            h = build_lmg(params)
            for reference in references:
                cases.append((h, reference, adapt_module._exact_target(h, reference)))

        def two_eighs(blocks):
            sectors = [np.linalg.eigh(block) for block in blocks]
            lows = [float(evals[0]) for evals, _ in sectors]
            return min(lows), None, [evecs[:, 0] for _, evecs in sectors]

        monkeypatch.setattr(adapt_module, "_parity_ground", two_eighs)
        for h, reference, (energy, target) in cases:
            ref_energy, ref_target = adapt_module._exact_target(h, reference)
            assert energy == ref_energy
            assert target.tobytes() == ref_target.tobytes()

    def test_no_full_eigh_for_a_definite_parity_reference(self, monkeypatch):
        sizes = []
        real_eigh = np.linalg.eigh

        def recording(mat):
            sizes.append(len(mat))
            return real_eigh(mat)

        monkeypatch.setattr(np.linalg, "eigh", recording)
        adapt_module._exact_target(build_lmg(LmgParams(4, 5.0)), all_down(4))
        # The other block is certified above by one Cholesky, not diagonalized.
        assert sizes == [8]

    def test_reference_on_both_sectors_raises(self):
        mixed = (all_down(4) + np.eye(16)[-2]) / np.sqrt(2.0)
        with pytest.raises(ValueError, match="one spin-flip parity sector"):
            adapt_module._exact_target(build_lmg(LmgParams(4, 5.0)), mixed)
        with pytest.raises(ValueError, match="one spin-flip parity sector"):
            run_adapt(build_lmg(LmgParams(4, 5.0)), mixed)

    def test_parity_flipping_hamiltonian_raises(self):
        # X1 flips the spin-flip parity, so the parity blocks do not hold H.
        terms = [(1.0, PauliString.from_ops(4, {1: "Z"})), (0.5, PauliString.from_ops(4, {1: "X"}))]
        h = PauliHamiltonian.from_terms(4, terms)
        with pytest.raises(ValueError, match="couples the parity blocks"):
            run_adapt(h, all_down(4))
