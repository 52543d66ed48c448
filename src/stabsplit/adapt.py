"""Adaptive variational ansatz growth over a symmetry-preserving pool.

The pool holds the two-spin generators T = X_i Y_j + sign Y_i X_j (both
signs, all i < j). Each commutes with the global parity product Z_1..Z_n,
and exp(i theta T) is real orthogonal in the computational basis, so an
ansatz grown from a real reference stays real and never leaves the
reference parity sector. Layers are selected by largest energy gradient
and all angles are re-optimized after every addition.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .exact import _parity_ground
from .pauli import PauliHamiltonian, PauliString, ResourceLimitError
from .pauli import _indices, _parity_blocks, _popcounts

ADAPT_QUBIT_LIMIT = 10


class AdaptError(RuntimeError):
    """Optimizer failure during ansatz growth; carries the partial trace."""

    def __init__(self, message: str, trace: "AdaptTrace | None" = None):
        super().__init__(message)
        self.trace = trace


@dataclass(frozen=True)
class PoolOperator:
    """Generator T = X_i Y_j + sign * Y_i X_j on qubits i < j.

    T is nonzero only between |00> and |11> of the pair (sign +1) or
    between |01> and |10> (sign -1), so exp(i theta T) is an exact
    two-qubit kernel: a plane rotation by 2 theta in that pair of
    amplitudes, identity elsewhere.
    """

    n: int
    i: int
    j: int
    sign: int

    def __post_init__(self):
        if not 1 <= self.i < self.j <= self.n:
            raise ValueError("need 1 <= i < j <= n")
        if self.sign not in (1, -1):
            raise ValueError("sign must be +1 or -1")

    @property
    def label(self) -> str:
        middle = "+" if self.sign > 0 else "-"
        return f"X{self.i}Y{self.j}{middle}Y{self.i}X{self.j}"

    @cached_property
    def strings(self) -> tuple[PauliString, PauliString]:
        first = PauliString.from_ops(self.n, {self.i: "X", self.j: "Y"})
        second = PauliString.from_ops(self.n, {self.i: "Y", self.j: "X"})
        return first, second

    def as_hamiltonian(self) -> PauliHamiltonian:
        first, second = self.strings
        return PauliHamiltonian.from_terms(self.n, [(1.0, first), (float(self.sign), second)])

    def apply(self, state: np.ndarray) -> np.ndarray:
        """T|psi> via the two Pauli strings."""
        first, second = self.strings
        return first.apply(state) + self.sign * second.apply(state)

    @cached_property
    def _indices(self) -> tuple[np.ndarray, np.ndarray]:
        # sel holds the pair states (00 for sign +, 01 for sign -) and par
        # their bit-flipped partners (11 and 10). idx is pauli's shared
        # read-only basis index array.
        bit_i = self.n - self.i
        bit_j = self.n - self.j
        idx = _indices(self.n)
        want_j = 0 if self.sign > 0 else 1
        mask = (((idx >> bit_i) & 1) == 0) & (((idx >> bit_j) & 1) == want_j)
        sel = idx[mask]
        par = sel ^ ((1 << bit_i) | (1 << bit_j))
        return sel, par

    @cached_property
    def _tables(self) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        # touched = [sel, par] and partner = [par, sel]. A layer rewrites the
        # touched amplitudes as c * psi[touched] + (s * rot) * psi[partner],
        # with rot = +sign on sel and -sign on par, and R psi = gen *
        # psi[partner] there. (-s) * a is -(s * a) and x - y is x + (-y) in
        # IEEE arithmetic, so this is bit for bit the c*a +- s*b pair update.
        sel, par = self._indices
        touched = np.concatenate((sel, par))
        partner = np.concatenate((par, sel))
        rot = np.repeat([float(self.sign), -float(self.sign)], len(sel))
        return touched, partner, rot, -2.0 * rot

    def _rotate(self, out: np.ndarray, src: np.ndarray, theta: float) -> None:
        """Write exp(i theta T) src into out at the touched entries (rows of a
        matrix); the rest of out is left alone, and out may be src."""
        touched, partner, rot, _ = self._tables
        s_rot = _along_rows(math.sin(2.0 * theta) * rot, src)
        out[touched] = math.cos(2.0 * theta) * src[touched] + s_rot * src[partner]

    def generator_action(self, state: np.ndarray) -> np.ndarray:
        """R|psi> with R = -iT, a real antisymmetric matrix."""
        touched, partner, _, gen = self._tables
        out = np.zeros(state.shape, state.dtype)
        out[touched] = _along_rows(gen, state) * state[partner]
        return out

    def rotated(self, state: np.ndarray, theta: float) -> np.ndarray:
        """exp(i theta T) applied along the first axis of state.

        Works on vectors and on matrices (each column rotates); integer
        input is promoted to float.
        """
        state = np.asarray(state)
        out = state.astype(np.result_type(state, float))
        self._rotate(out, state, theta)
        return out

    def conjugate_inplace(self, mat: np.ndarray, theta: float) -> None:
        """K(theta)^T mat K(theta), overwriting mat (must be symmetric).

        Congruence mixes rows and columns with the same coefficient
        pattern, so only the four affected blocks are touched.
        """
        sel, par = self._indices
        c = math.cos(2.0 * theta)
        s = math.sin(2.0 * theta) * (1.0 if self.sign > 0 else -1.0)
        rows_a = mat[sel].copy()
        rows_b = mat[par].copy()
        mat[sel] = c * rows_a - s * rows_b
        mat[par] = s * rows_a + c * rows_b
        cols_a = mat[:, sel].copy()
        cols_b = mat[:, par].copy()
        mat[:, sel] = c * cols_a - s * cols_b
        mat[:, par] = s * cols_a + c * cols_b


def _along_rows(coef: np.ndarray, like: np.ndarray) -> np.ndarray:
    """coef shaped to scale the rows of like (one entry per row)."""
    return coef if like.ndim == 1 else coef.reshape((-1,) + (1,) * (like.ndim - 1))


def pool(n: int) -> list[PoolOperator]:
    """All n(n-1) two-spin generators, (i, j, sign) ascending, + before -."""
    if n < 2:
        raise ValueError("pool needs at least two qubits")
    ops = []
    for i in range(1, n):
        for j in range(i + 1, n + 1):
            ops.append(PoolOperator(n, i, j, 1))
            ops.append(PoolOperator(n, i, j, -1))
    return ops


def gradient(state: np.ndarray, t, h: PauliHamiltonian) -> float:
    """dE/dtheta at theta = 0 for the layer exp(i theta T) appended to state.

    Equals -i <[T, H]> = -2 Im <H psi | T psi>; analytic, no finite
    differences. t may be a PoolOperator, PauliString, or PauliHamiltonian
    (anything exposing apply).
    """
    norm = np.linalg.norm(state)
    if abs(norm - 1.0) > 1e-10:
        raise ValueError("state must be normalized")
    h_psi = h.apply(np.asarray(state, dtype=complex))
    t_psi = t.apply(np.asarray(state, dtype=complex))
    return float(-2.0 * np.imag(np.vdot(h_psi, t_psi)))


@dataclass(frozen=True)
class AdaptConfig:
    """Growth and convergence knobs.

    vqe_tol ends each angle re-optimization: stop when one step lowers the
    energy by less than vqe_tol.
    """

    max_layers: int = 120
    grad_threshold: float = 1e-6
    vqe_tol: float = 1e-12

    def __post_init__(self):
        if self.max_layers < 1:
            raise ValueError("max_layers must be positive")
        if not all(math.isfinite(t) and t > 0 for t in (self.grad_threshold, self.vqe_tol)):
            raise ValueError("thresholds must be finite and positive")


@dataclass(frozen=True)
class AdaptLayer:
    """One trace row; layer 0 is the bare reference (empty label)."""

    layer: int
    label: str
    gradient: float
    energy: float
    fidelity: float
    angles: tuple[float, ...]


@dataclass
class AdaptTrace:
    exact_energy: float
    layers: list[AdaptLayer] = field(default_factory=list)
    converged: bool = False
    state: np.ndarray | None = None

    @property
    def energies(self) -> list[float]:
        return [record.energy for record in self.layers]

    def rel_energy_errors(self) -> list[float]:
        scale = abs(self.exact_energy)
        return [abs(record.energy - self.exact_energy) / scale for record in self.layers]


def apply_ansatz(reference: np.ndarray, operators, angles) -> np.ndarray:
    """Layered state K_L(theta_L) ... K_1(theta_1)|reference>; integer input
    is promoted to float."""
    state = np.asarray(reference)
    state = state.astype(np.result_type(state, float))
    for op, theta in zip(operators, angles):
        state = op.rotated(state, theta)
    return state


def _as_real_state(state: np.ndarray) -> np.ndarray:
    vec = np.asarray(state)
    if np.iscomplexobj(vec):
        if np.max(np.abs(vec.imag)) > 1e-10:
            raise ValueError("reference must be a real vector for this ansatz")
        vec = vec.real
    vec = vec.astype(float)
    if abs(np.linalg.norm(vec) - 1.0) > 1e-10:
        raise ValueError("reference must be normalized")
    return vec


def _exact_target(h: PauliHamiltonian, reference: np.ndarray):
    """Ground energy plus the comparison eigenvector for fidelity rows.

    ``h.parity_blocks()`` go through ``_parity_ground`` with the reference's
    sector first: the ground energy is the lower level, and the comparison
    state is the lowest eigenvector in the reference's sector; the pool
    cannot leave it, and near-degenerate opposite-parity doublets would
    otherwise make the fidelity column meaningless.  A reference on both
    sectors, or a term of ``h`` that couples them, raises ValueError.
    """
    n = h.n
    signs = 1.0 - 2.0 * (_popcounts(n) & 1)
    ref_parity = float(np.dot(reference, signs * reference))
    if abs(abs(ref_parity) - 1.0) >= 1e-8:
        raise ValueError("reference must lie in one spin-flip parity sector")
    sectors, blocks = _parity_blocks(n), h.parity_blocks()
    # Both list the (-1)^n sector first.
    if ref_parity * (-1) ** n < 0:
        sectors, blocks = sectors[::-1], blocks[::-1]
    ground_energy, _, vecs = _parity_ground(blocks)
    target = np.zeros(len(signs))
    target[sectors[0]] = vecs[0]
    return ground_energy, target


def _select(dense: np.ndarray, state: np.ndarray, ops) -> tuple[int, float]:
    """Index and signed gradient of the max-|gradient| pool element.

    Ties resolve to the earliest pool position, i.e. lowest (i, j, sign).
    """
    h_psi = dense @ state
    best_idx, best_val = 0, 0.0
    for pos, op in enumerate(ops):
        value = -2.0 * float(np.dot(op.generator_action(state), h_psi))
        if abs(value) > abs(best_val) + 1e-15:
            best_idx, best_val = pos, value
    return best_idx, best_val


def _forward(reference, chosen, angles) -> np.ndarray:
    """Rows psi_0 = reference and psi_l = K_l(theta_l) psi_{l-1}."""
    states = np.empty((len(chosen) + 1, len(reference)), np.result_type(reference, 1.0))
    states[0] = reference
    for level, (op, theta) in enumerate(zip(chosen, angles)):
        states[level + 1] = states[level]
        op._rotate(states[level + 1], states[level], theta)
    return states


def _energy(dense, states) -> tuple[float, np.ndarray]:
    """<psi_L|H|psi_L> and H psi_L, the start of the backward pass."""
    lam = dense @ states[-1]
    return float(states[-1] @ lam), lam


def _backward(lam, states, chosen, angles) -> np.ndarray:
    """dE/dtheta_l = -2 lam_l . R_l psi_l, carrying lam back in place.

    Each derivative is a full-length dot against R_l psi_l, which is zero
    off the touched entries: a dot over the touched entries alone would sum
    in another order and change the last bits.
    """
    grad = np.empty(len(chosen))
    for level in reversed(range(len(chosen))):
        op = chosen[level]
        grad[level] = -2.0 * float(lam @ op.generator_action(states[level + 1]))
        op._rotate(lam, lam, -angles[level])
    return grad


def _energy_and_gradient(dense, reference, chosen, angles) -> tuple[float, np.ndarray]:
    """Energy and all angle derivatives from one forward and one backward pass.

    The forward pass keeps the states psi_l after each layer. The backward
    pass carries lam_l = K_{l+1}^T ... K_L^T H psi_L, which gives
    dE/dtheta_l = -2 lam_l . R_l psi_l for every layer in O(L 2^n). Both
    passes do the same floating-point operations as PoolOperator.rotated
    and generator_action, so the results are bit-identical to composing
    those calls.
    """
    states = _forward(reference, chosen, angles)
    energy, lam = _energy(dense, states)
    return energy, _backward(lam, states, chosen, angles)


# BFGS iterations allowed per angle. With the carried inverse Hessian, growth
# at n = 8, vbar = 5 to 110 layers peaks at about 5.5 per angle, and 40-layer
# runs at n = 4..6 (chi in {-1, 0, 0.5}, vbar in {0.5, 2, 5}) at about 9, so
# reaching the cap means the optimizer broke down.
_BFGS_ITERS_PER_ANGLE = 50
# A curvature pair with s.y at or below this is skipped by the update.
_MIN_CURVATURE = 1e-16
# A carried inverse Hessian is replaced by the identity when an accepted step
# lowers the energy by less than this fraction of its linear prediction.
_RESET_DROP_RATIO = 1e-3


def _reoptimize(
    dense, reference, chosen, angles, vqe_tol: float, carried: np.ndarray | None = None
) -> tuple[float, np.ndarray]:
    """BFGS over all angles; updates angles in place, returns the energy
    and the final inverse Hessian.

    A dense inverse Hessian with a backtracking Armijo line search; stops
    when an accepted step lowers the energy by less than vqe_tol, or when
    no step lowers it at all. Every accepted step lowers the energy, so the
    result never lies above the starting point. Raises AdaptError at the
    iteration cap.

    carried is the inverse Hessian the previous growth step ended with, one
    angle short, or None. None is the cold start: the identity, rescaled by
    s.y / y.y at the first update. A carried matrix is extended by the new
    angle with zero off-diagonal entries and the mean of its diagonal. While
    it is in use, an accepted step with s.y <= _MIN_CURVATURE, or one that
    lowers the energy by less than _RESET_DROP_RATIO of -step * slope,
    replaces it by the identity and skips that update, so the next update
    rescales as in the cold start; this happens at most once per call.

    A line-search trial runs the forward pass and the energy only; the
    backward pass runs once at the start and once per accepted step, never
    for a rejected trial. The gradients that are computed are the same bits
    as _energy_and_gradient's.
    """
    x = np.array(angles, dtype=float)
    energy, grad = _energy_and_gradient(dense, reference, chosen, x)
    if not math.isfinite(energy):
        raise AdaptError("angle re-optimization produced a non-finite energy")
    if carried is None:
        inv_hess = np.eye(len(x))
    else:
        inv_hess = np.zeros((len(x), len(x)))
        inv_hess[:-1, :-1] = carried
        inv_hess[-1, -1] = np.mean(np.diag(carried))
    rescale = carried is None
    cap = _BFGS_ITERS_PER_ANGLE * len(x)
    for _ in range(cap):
        direction = -inv_hess @ grad
        slope = float(grad @ direction)
        if not slope < 0.0:
            break  # zero gradient: already stationary
        step = 1.0
        while step >= 1e-10:
            trial = x + step * direction
            states = _forward(reference, chosen, trial)
            trial_energy, lam = _energy(dense, states)
            if trial_energy <= energy + 1e-4 * step * slope:
                trial_grad = _backward(lam, states, chosen, trial)
                break
            step *= 0.5
        else:
            break  # no step lowers the energy: rounding floor reached
        s_vec = trial - x
        y_vec = trial_grad - grad
        drop = energy - trial_energy
        x, energy, grad = trial, trial_energy, trial_grad
        if drop < vqe_tol:
            break
        sy = float(s_vec @ y_vec)
        if carried is not None and (
            sy <= _MIN_CURVATURE or drop < _RESET_DROP_RATIO * -step * slope
        ):
            inv_hess = np.eye(len(x))
            carried = None
            rescale = True
            continue
        if sy > _MIN_CURVATURE:
            if rescale:
                inv_hess *= sy / float(y_vec @ y_vec)
            h_y = inv_hess @ y_vec
            inv_hess += (sy + float(y_vec @ h_y)) / sy**2 * np.outer(s_vec, s_vec)
            inv_hess -= (np.outer(h_y, s_vec) + np.outer(s_vec, h_y)) / sy
        rescale = False
    else:
        angles[:] = x.tolist()
        raise AdaptError(f"angle re-optimization hit its cap of {cap} BFGS iterations")
    angles[:] = x.tolist()
    return energy, inv_hess


def run_adapt(
    h: PauliHamiltonian, reference: np.ndarray, config: AdaptConfig | None = None
) -> AdaptTrace:
    """Grow the ansatz until gradients vanish or the layer budget runs out.

    Loop: score every pool element by its gradient, add the largest in
    magnitude as a new layer at angle zero, re-optimize all angles (BFGS
    started from the inverse Hessian the previous layer ended with), record
    energy and fidelity against the exact ground state of the reference's
    parity sector, which must be definite (``_exact_target``).
    """
    if config is None:
        config = AdaptConfig()
    n = h.n
    if n > ADAPT_QUBIT_LIMIT:
        raise ResourceLimitError(f"adaptive ansatz capped at {ADAPT_QUBIT_LIMIT} qubits")
    ref = _as_real_state(reference)
    exact_energy, target = _exact_target(h, ref)
    dense = h.dense_real()
    ops = pool(n)
    trace = AdaptTrace(exact_energy=exact_energy)
    chosen: list[PoolOperator] = []
    angles: list[float] = []
    state = ref
    inv_hess = None

    def record(label: str, grad: float, energy: float):
        trace.layers.append(
            AdaptLayer(
                layer=len(chosen),
                label=label,
                gradient=grad,
                energy=energy,
                fidelity=float(abs(np.dot(target, state))),
                angles=tuple(angles),
            )
        )

    sel_idx, sel_grad = _select(dense, state, ops)
    record("", sel_grad, float(state @ dense @ state))
    trace.converged = abs(sel_grad) < config.grad_threshold
    while not trace.converged and len(chosen) < config.max_layers:
        op = ops[sel_idx]
        chosen.append(op)
        angles.append(0.0)
        try:
            energy, inv_hess = _reoptimize(dense, ref, chosen, angles, config.vqe_tol, inv_hess)
        except AdaptError as err:
            trace.state = apply_ansatz(ref, chosen, angles)
            err.trace = trace
            raise
        state = apply_ansatz(ref, chosen, angles)
        record(op.label, sel_grad, energy)
        sel_idx, sel_grad = _select(dense, state, ops)
        trace.converged = abs(sel_grad) < config.grad_threshold
    trace.state = state
    return trace
