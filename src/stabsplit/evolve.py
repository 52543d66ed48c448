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

import math
import warnings
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .exact import (
    DickeVector,
    _ladder,
    dicke_hamiltonian_full,
    fidelity,
    ground_state,
    s2_candidate_state,
)
from .lmg import LmgParams
from .pauli import PauliHamiltonian, ResourceLimitError, _popcounts, num_qubits

QITP_QUBIT_LIMIT = 10
_GOLDEN = (np.sqrt(5.0) - 1.0) / 2.0


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
    if not (math.isfinite(tau) and tau >= 0):
        raise ValueError("tau must be finite and non-negative")
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


def _projection_matrices(h, tau: float, e0_bar: float, eig, scales) -> list[np.ndarray]:
    """(1 + e^(scale (H-e0) tau))^(-1/2) for each scale in ``scales``, by
    eigendecomposition with log-domain weights; scale -2 gives A, +2 gives Q."""
    if not (math.isfinite(tau) and tau >= 0):
        raise ValueError("tau must be finite and non-negative")
    if isinstance(h, PauliHamiltonian) and h.n > QITP_QUBIT_LIMIT:
        raise ResourceLimitError(f"projection operators guarded at n <= {QITP_QUBIT_LIMIT}")
    evals, evecs = _eigensystem(h, eig)
    shifted = evals - e0_bar
    # conj() of a real array would only copy it.
    adjoint = evecs.conj().T if np.iscomplexobj(evecs) else evecs.T
    return [
        (evecs * np.exp(-0.5 * np.logaddexp(0.0, scale * (shifted * tau)))) @ adjoint
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


def qitp_postselect(
    h, initials, tau: float, e0_bar: float, eig=None
) -> list[tuple[np.ndarray, float]]:
    """Apply the block unitary to |0> (x) |initial> for each of ``initials``
    and keep the |0> ancilla.

    The kept half of ``qitp_unitary(A, Q) @ [initial, 0]`` is Q |initial>,
    so only Q is built, once, and applied to each state as its own
    matrix-vector product.  Q is cast once to the states' common type, as
    each product would cast it.  Returns, per state, the renormalized
    collapsed state and the post-selection probability |Q |initial>|^2.
    """
    (q_mat,) = _projection_matrices(h, tau, e0_bar, eig, (2.0,))
    q_mat = q_mat.astype(np.result_type(q_mat, *initials), copy=False)
    out = []
    for initial in initials:
        kept = q_mat @ initial
        probability = float(np.real(np.vdot(kept, kept)))
        if probability < 1e-14:
            raise ValueError("post-selection probability vanished")
        out.append((kept / np.sqrt(probability), probability))
    return out


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


def _scan_then_refine(func, batch, lo: float, hi: float, window: float, points: int = 81):
    """Minimize ``func`` over [lo, hi]: the lowest point of an evenly spaced
    grid, then golden section between that point's grid neighbours.

    ``batch`` maps the whole grid to approximate values in one array
    evaluation and only screens it.  Every grid point whose batched value lies
    within ``window`` of the batched minimum, and every non-finite one, is
    evaluated again with ``func``, and the pick is the lowest-index minimum of
    those values.  When ``batch`` is within window / 2 of ``func`` at each
    grid point, no point outside the window can reach the scalar minimum, so
    the pick is ``np.argmin`` over ``func`` on the whole grid.  Every returned
    number comes from ``func``; its arithmetic must stay as it is, because the
    golden section's last comparisons are between values that differ only by
    rounding, and a reordered product moves the optimum in the last bits.
    """
    grid = np.linspace(lo, hi, points)
    screen = np.asarray(batch(grid), dtype=float)
    finite = np.isfinite(screen)
    floor = screen[finite].min() if finite.any() else np.inf
    recheck = np.flatnonzero(~finite | (screen <= floor + window))
    values = [func(grid[i]) for i in recheck]
    pick = int(np.argmin(values))
    best, best_value = int(recheck[pick]), values[pick]
    left = grid[max(best - 1, 0)]
    right = grid[min(best + 1, points - 1)]
    x, fx = _golden_section(func, left, right)
    if best_value < fx:
        return float(grid[best]), best_value
    return x, fx


# A grid point is re-checked by the scalar energy when its batched energy is
# within _SCREEN_WINDOW * sum|H_ij| of the batched minimum.  Both routes
# compute a Rayleigh quotient of a d x d matrix, each with a rounding error
# of at most about d * eps * sum|H_ij|, 2.2e-13 of sum|H_ij| at d = 1001, so
# for d <= 1001 the window is hundreds of times wider than any gap between
# them.
_SCREEN_WINDOW = 1e-10


def _screen_window(h_mat: np.ndarray) -> float:
    return _SCREEN_WINDOW * float(np.abs(h_mat).sum())


def _rayleigh_rows(rows: np.ndarray, h_mat: np.ndarray) -> np.ndarray:
    """<w|H|w> / <w|w> for each row w of ``rows``, in one array evaluation."""
    return ((rows @ h_mat) * rows).sum(1) / (rows * rows).sum(1)


def _normalized(amps: np.ndarray) -> np.ndarray:
    # What np.linalg.norm computes for a real 1-D array, without its checks.
    return amps / math.sqrt(amps.dot(amps))


def variational_jz(
    params: LmgParams,
    order: int = 1,
    reference: DickeVector | None = None,
    exact_state: DickeVector | None = None,
) -> VariationalResult:
    """Minimize <H> over exp(-theta Jz) (order 1, times exp(-theta2 Jz^2) at
    order 2) applied to a reference, by default the X-pair candidate's state
    (``s2_candidate_state``).  The fidelity is taken against ``exact_state``,
    by default ``ground_state(params)``'s state.

    Jz is diagonal in the collective basis, so the deformation is an
    amplitude reweighting exp(-theta M - theta2 M^2) that keeps the
    reference's parity sector.  Each one-dimensional optimization is an
    81-point coarse scan, screened by one batched evaluation of all its
    reweighted states (``_scan_then_refine``), followed by golden-section
    refinement on the scalar energy, which alone gives the returned numbers.
    """
    if order not in (1, 2):
        raise ValueError("order must be 1 or 2")
    n = params.n
    if reference is None:
        reference = s2_candidate_state(params)
    ks = reference.ks
    if reference.n != n or len({k % 2 for k in ks}) != 1:
        raise ValueError("reference must hold n spins on one parity sector, k all even or all odd")
    m_vals = np.array(ks, dtype=float) - n / 2.0
    m_sq = m_vals**2
    h_mat = dicke_hamiltonian_full(params)[np.ix_(ks, ks)]
    window = _screen_window(h_mat)
    if exact_state is None:
        _, exact_state = ground_state(params)

    def weights(theta1, theta2) -> np.ndarray:
        # Rescale by the largest exponent so wide theta2 scans cannot overflow.
        # Angles given as (g, 1) columns give one row per grid point.
        expo = -theta1 * m_vals - theta2 * m_sq
        return reference.amps * np.exp(expo - expo.max(axis=-1, keepdims=True))

    def deformed(theta1: float, theta2: float) -> np.ndarray:
        return _normalized(weights(theta1, theta2))

    def energy_at(theta1: float, theta2: float) -> float:
        amps = deformed(theta1, theta2)
        return float(amps @ h_mat @ amps)

    def energies(theta1, theta2) -> np.ndarray:
        return _rayleigh_rows(weights(theta1, theta2), h_mat)

    theta1, current = _scan_then_refine(
        lambda t: energy_at(t, 0.0), lambda g: energies(g[:, None], 0.0), 0.0, 4.0, window
    )
    theta2 = 0.0
    if order == 2:
        # Alternating one-dimensional descents; a candidate is kept only if
        # it lowers the energy, so order 2 never ends above order 1.
        for _ in range(50):
            start = current
            cand, value = _scan_then_refine(
                lambda t: energy_at(theta1, t),
                lambda g: energies(theta1, g[:, None]),
                -4.0,
                4.0,
                window,
            )
            if value < current:
                theta2, current = cand, value
            cand, value = _scan_then_refine(
                lambda t: energy_at(t, theta2),
                lambda g: energies(g[:, None], theta2),
                0.0,
                4.0,
                window,
            )
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
    """-i Jy = (J_- - J_+) / 2 over the full collective multiplet: real
    antisymmetric, its band half of each ``_ladder`` coefficient."""
    step = 0.5 * _ladder(n)
    return np.diag(step, 1) - np.diag(step, -1)


@lru_cache(maxsize=4)
def _jy_eigensystem(n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Eigenvalues and eigenvectors of Jy = i (-i Jy) over the full
    multiplet, and the conjugated first row of the vectors: the |1...1>
    state's coefficients in that eigenbasis.  All three are read-only."""
    evals, evecs = np.linalg.eigh(1j * _jy_generator(n))
    base = evecs[0].conj()
    for arr in (evals, evecs, base):
        arr.setflags(write=False)
    return evals, evecs, base


def deformed_hf(params: LmgParams) -> tuple[float, DickeVector]:
    """Mean-field rotation exp(-i alpha Jy)|1...1> minimizing the energy.

    Runs on the full (N+1)-dimensional collective multiplet (the rotation
    mixes both parity sectors); returns the optimal angle and state.
    """
    n = params.n
    h_full = dicke_hamiltonian_full(params)
    evals, evecs, base = _jy_eigensystem(n)

    def rotated(alpha: float) -> np.ndarray:
        return np.real(evecs @ (np.exp(-1j * alpha * evals) * base))

    def energy_at(alpha: float) -> float:
        vec = rotated(alpha)
        return float(vec @ h_full @ vec)

    def energies(alphas: np.ndarray) -> np.ndarray:
        rows = np.real((np.exp(-1j * alphas[:, None] * evals) * base) @ evecs.T)
        return _rayleigh_rows(rows, h_full)

    alpha, _ = _scan_then_refine(energy_at, energies, 0.0, np.pi, _screen_window(h_full))
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
    n = num_qubits(state)
    sector = (-1) ** n if sector is None else sector
    projected = np.where((-1.0) ** _popcounts(n) == sector, state, 0.0)
    norm = np.linalg.norm(projected)
    if norm < 1e-14:
        raise ValueError("state has no weight in the requested parity sector")
    return projected / norm
