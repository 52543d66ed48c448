"""Magic injection: imaginary-time flows and variational deformations.

Non-stabilizerness is pumped into a stabilizer reference state four ways:
exact imaginary-time evolution, the measurement-based projection pair (A, Q)
embedded in a block unitary on one ancilla, variational exp(-theta Jz)
reweighting (with an optional second-order Jz^2 factor), and a deformed
mean-field rotation exp(-i alpha Jy) with parity projection.  Collective
states live in the (N + 1)-dimensional Dicke basis, where Jz is diagonal and
H is tridiagonal within one parity sector, so their cost grows polynomially
in N rather than as 2^N.  The projection pair built from a
``PauliHamiltonian`` is dense and guarded at n <= ``QITP_QUBIT_LIMIT``.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .exact import (
    DickeVector,
    dicke_hamiltonian,
    dicke_hamiltonian_full,
    fidelity,
    ground_state,
    sector_ks,
    stab_state_dicke_amplitudes,
)
from .lmg import LmgParams
from .pauli import PauliHamiltonian, ResourceLimitError, _popcounts

QITP_QUBIT_LIMIT = 10
_GOLDEN = (np.sqrt(5.0) - 1.0) / 2.0


@dataclass(frozen=True)
class ItePlan:
    """Imaginary-time schedule: tau grid from 0, start state."""

    tau_grid: tuple[float, ...]
    initial: object

    def __post_init__(self):
        grid = tuple(float(t) for t in self.tau_grid)
        object.__setattr__(self, "tau_grid", grid)
        if not grid or grid[0] != 0.0:
            raise ValueError("tau grid must start at 0")
        if any(b <= a for a, b in zip(grid, grid[1:])):
            raise ValueError("tau grid must be strictly increasing")
        if not isinstance(self.initial, (np.ndarray, DickeVector)):
            raise ValueError("initial state must be a statevector or DickeVector")


@dataclass(frozen=True)
class VariationalResult:
    """Optimized deformation: angle(s), energy, state, fidelity vs exact."""

    theta_opt: float
    energy: float
    state: DickeVector
    fidelity: float
    theta2: float | None = None


def _hermitian_matrix(h) -> np.ndarray:
    """``h`` itself if it is a matrix, else its real dense matrix."""
    if isinstance(h, np.ndarray):
        return h
    return h.dense_real()


def _eigensystem(h, eig):
    if eig is not None:
        return eig
    return np.linalg.eigh(_hermitian_matrix(h))


def ite_evolve(h, initial, tau: float, eig=None):
    """Normalized imaginary-time flow exp(-H tau) |initial>.

    ``h`` is a PauliHamiltonian or a Hermitian matrix over the same basis as
    ``initial``; passing a DickeVector with the matching collective-sector
    matrix evolves in O(N) dimensions.  An energy shift would only rescale
    the unnormalized state, so there is none; it matters only for the
    projection operators below.  ``eig`` takes a precomputed (values, vectors)
    eigensystem to amortize repeated calls.
    """
    if tau < 0:
        raise ValueError("tau must be non-negative")
    collective = isinstance(initial, DickeVector)
    vec = initial.amps if collective else initial
    evals, evecs = _eigensystem(h, eig)
    coeffs = evecs.conj().T @ vec
    ground = np.abs(evals - evals[0]) < 1e-12
    if np.linalg.norm(coeffs[ground]) < 1e-12:
        warnings.warn(
            "initial state has no ground-state overlap; the flow converges "
            "to the lowest eigenstate it does overlap",
            stacklevel=2,
        )
    # Shift by the smallest eigenvalue so weights never overflow.
    weights = np.exp(-(evals - evals[0]) * tau)
    out = evecs @ (weights * coeffs)
    norm = np.linalg.norm(out)
    if norm < 1e-300:
        raise ValueError("evolved state vanished; no eigenstate overlap")
    out = out / norm
    if collective:
        return DickeVector(initial.n, initial.ks, np.real(out))
    return out


def ite_curve(h, plan: ItePlan, eig=None) -> list:
    """States of the plan's tau grid, sharing one eigendecomposition."""
    eig = _eigensystem(h, eig)
    return [ite_evolve(h, plan.initial, tau, eig=eig) for tau in plan.tau_grid]


def _projection_matrices(h, tau: float, e0_bar: float, eig, scales) -> list[np.ndarray]:
    """(1 + e^(scale (H-e0) tau))^(-1/2) for each scale in ``scales``, by
    eigendecomposition with log-domain weights; scale -2 gives A, +2 gives Q."""
    if tau < 0:
        raise ValueError("tau must be non-negative")
    if isinstance(h, PauliHamiltonian) and h.n > QITP_QUBIT_LIMIT:
        raise ResourceLimitError(f"projection operators guarded at n <= {QITP_QUBIT_LIMIT}")
    evals, evecs = _eigensystem(h, eig)
    shifted = evals - e0_bar
    return [
        (evecs * np.exp(-0.5 * np.logaddexp(0.0, scale * (shifted * tau)))) @ evecs.conj().T
        for scale in scales
    ]


def qitp_operators(h, tau: float, e0_bar: float, eig=None) -> tuple[np.ndarray, np.ndarray]:
    """Projection pair A = (1 + e^(-2(H-e0)tau))^(-1/2), Q = A e^(-(H-e0)tau).

    Computed by eigendecomposition with log-domain weights, so large shifts
    and times stay finite.  A^2 + Q^2 = identity exactly.
    """
    a_mat, q_mat = _projection_matrices(h, tau, e0_bar, eig, (-2.0, 2.0))
    return a_mat, q_mat


def qitp_unitary(a_mat: np.ndarray, q_mat: np.ndarray) -> np.ndarray:
    """Block unitary [[Q, A], [A, -Q]] on the ancilla-extended space."""
    return np.block([[q_mat, a_mat], [a_mat, -q_mat]])


def qitp_postselect(h, initial: np.ndarray, tau: float, e0_bar: float, eig=None):
    """Apply the block unitary to |0> (x) |initial> and keep the |0> ancilla.

    The kept half of ``qitp_unitary(A, Q) @ [initial, 0]`` is Q |initial>,
    so only Q is built and applied.  Returns the renormalized collapsed
    state and the post-selection probability |Q |initial>|^2.
    """
    (q_mat,) = _projection_matrices(h, tau, e0_bar, eig, (2.0,))
    kept = q_mat @ initial
    probability = float(np.real(np.vdot(kept, kept)))
    if probability < 1e-14:
        raise ValueError("post-selection probability vanished")
    return kept / np.sqrt(probability), probability


def _golden_section(func, lo: float, hi: float, tol: float = 1e-10):
    """Golden-section minimum of a unimodal bracket, to width tol.

    Returns the best evaluated point rather than the final midpoint, so a
    minimum sitting on the bracket boundary is not nudged inward.
    """
    a, b = lo, hi
    c = b - _GOLDEN * (b - a)
    d = a + _GOLDEN * (b - a)
    fc, fd = func(c), func(d)
    best_x, best_f = (c, fc) if fc <= fd else (d, fd)
    while b - a > tol:
        if fc < fd:
            b, d, fd = d, c, fc
            c = b - _GOLDEN * (b - a)
            fc = func(c)
            if fc < best_f:
                best_x, best_f = c, fc
        else:
            a, c, fc = c, d, fd
            d = a + _GOLDEN * (b - a)
            fd = func(d)
            if fd < best_f:
                best_x, best_f = d, fd
    return best_x, best_f


def _scan_then_refine(func, lo: float, hi: float, points: int = 81):
    grid = np.linspace(lo, hi, points)
    values = [func(x) for x in grid]
    best = int(np.argmin(values))
    left = grid[max(best - 1, 0)]
    right = grid[min(best + 1, points - 1)]
    x, fx = _golden_section(func, left, right)
    if values[best] < fx:
        return float(grid[best]), values[best]
    return x, fx


def _normalized(amps: np.ndarray) -> np.ndarray:
    return amps / np.linalg.norm(amps)


def variational_jz(
    params: LmgParams, order: int = 1, reference: DickeVector | None = None
) -> VariationalResult:
    """Minimize <H> over exp(-theta Jz) (order 1, times exp(-theta2 Jz^2) at
    order 2) applied to the pair stabilizer state.

    Jz is diagonal in the collective basis, so the deformation is an
    amplitude reweighting exp(-theta M - theta2 M^2); optimization is a
    coarse scan followed by golden-section refinement.
    """
    if order not in (1, 2):
        raise ValueError("order must be 1 or 2")
    n = params.n
    ks = sector_ks(n)
    if reference is None:
        reference = stab_state_dicke_amplitudes(n, "s2")
    if reference.ks != ks:
        raise ValueError("reference must live on the even-k, (-1)^N sector")
    m_vals = np.array(ks, dtype=float) - n / 2.0
    h_mat = dicke_hamiltonian(params)
    _, exact_state = ground_state(params)

    def deformed(theta1: float, theta2: float) -> np.ndarray:
        # Rescale by the largest exponent so wide theta2 scans cannot overflow.
        expo = -theta1 * m_vals - theta2 * m_vals**2
        return _normalized(reference.amps * np.exp(expo - expo.max()))

    def energy_at(theta1: float, theta2: float) -> float:
        amps = deformed(theta1, theta2)
        return float(amps @ h_mat @ amps)

    theta1, current = _scan_then_refine(lambda t: energy_at(t, 0.0), 0.0, 4.0)
    theta2 = 0.0
    if order == 2:
        # Alternating one-dimensional descents; a candidate is kept only if
        # it lowers the energy, so order 2 never ends above order 1.
        for _ in range(50):
            start = current
            cand, value = _scan_then_refine(lambda t: energy_at(theta1, t), -4.0, 4.0)
            if value < current:
                theta2, current = cand, value
            cand, value = _scan_then_refine(lambda t: energy_at(t, theta2), 0.0, 4.0)
            if value < current:
                theta1, current = cand, value
            if start - current < 1e-12:
                break
    amps = deformed(theta1, theta2)
    state = DickeVector(n, ks, amps)
    return VariationalResult(
        theta_opt=theta1,
        energy=float(amps @ h_mat @ amps),
        state=state,
        fidelity=fidelity(state, exact_state),
        theta2=theta2 if order == 2 else None,
    )


def _jy_generator(n: int) -> np.ndarray:
    """-i Jy over the full collective multiplet: real antisymmetric."""
    j = n / 2.0
    gen = np.zeros((n + 1, n + 1))
    for k in range(n):
        m = k - j
        step = 0.5 * np.sqrt((j - m) * (j + m + 1))
        gen[k, k + 1] = step
        gen[k + 1, k] = -step
    return gen


def deformed_hf(params: LmgParams) -> tuple[float, DickeVector]:
    """Mean-field rotation exp(-i alpha Jy)|1...1> minimizing the energy.

    Runs on the full (N+1)-dimensional collective multiplet (the rotation
    mixes both parity sectors); returns the optimal angle and state.
    """
    n = params.n
    h_full = dicke_hamiltonian_full(params)
    gen = _jy_generator(n)
    herm = 1j * gen
    evals, evecs = np.linalg.eigh(herm)
    base = evecs.conj().T[:, 0]

    def rotated(alpha: float) -> np.ndarray:
        return np.real(evecs @ (np.exp(-1j * alpha * evals) * base))

    def energy_at(alpha: float) -> float:
        vec = rotated(alpha)
        return float(vec @ h_full @ vec)

    alpha, _ = _scan_then_refine(energy_at, 0.0, np.pi)
    state = DickeVector(n, tuple(range(n + 1)), rotated(alpha))
    return alpha, state


def parity_project(state, sector: int | None = None):
    """Project onto a spin-flip-parity sector and renormalize.

    Basis states with k up-spins carry parity (-1)^(N-k); the default sector
    is (-1)^N, the even-k one.
    """
    if isinstance(state, DickeVector):
        n = state.n
        sector = (-1) ** n if sector is None else sector
        keep = np.array([(-1) ** (n - k) == sector for k in state.ks])
        projected = np.where(keep, state.amps, 0.0)
        norm = np.linalg.norm(projected)
        if norm < 1e-14:
            raise ValueError("state has no weight in the requested parity sector")
        return DickeVector(n, state.ks, projected / norm)
    n = int(np.log2(len(state)))
    sector = (-1) ** n if sector is None else sector
    projected = np.where((-1.0) ** _popcounts(n) == sector, state, 0.0)
    norm = np.linalg.norm(projected)
    if norm < 1e-14:
        raise ValueError("state has no weight in the requested parity sector")
    return projected / norm
