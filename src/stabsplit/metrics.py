"""Complexity diagnostics: magic, collective entanglement, and parity.

Magic is measured by the stabilizer Renyi entropy, zero exactly on
stabilizer states.  Entanglement diagnostics target permutation-symmetric
states: the one-spin entropy uses the diagonal reduced density matrix valid
in a definite parity sector, and the n-tangle measures multipartite
spin-flip correlations.  Dicke-basis variants keep both available for large
collective systems where no statevector exists.
"""

from __future__ import annotations

import numpy as np

from .exact import DickeVector
from .pauli import PauliString, ResourceLimitError, _indices, _popcounts, num_qubits

SRE_QUBIT_LIMIT = 10


def _require_normalized(state: np.ndarray):
    if abs(np.linalg.norm(state) - 1.0) > 1e-10:
        raise ValueError("state is not normalized")


def _walsh_leading_axis(a: np.ndarray, spare: np.ndarray) -> np.ndarray:
    """Unnormalized Walsh-Hadamard transform along the leading axis.

    Each butterfly stage adds and subtracts contiguous row blocks, writing
    from ``a`` into ``spare`` and then swapping the two; both buffers are
    overwritten and the one holding the result is returned.
    """
    d = a.shape[0]
    rest = a.shape[1:]
    h = 1
    while h < d:
        src = a.reshape((d // (2 * h), 2, h) + rest)
        dst = spare.reshape(src.shape)
        np.add(src[:, 0], src[:, 1], out=dst[:, 0])
        np.subtract(src[:, 0], src[:, 1], out=dst[:, 1])
        a, spare = spare, a
        h *= 2
    return a


def sre(state: np.ndarray, alpha: float = 2.0) -> float:
    """Stabilizer Renyi entropy of order alpha, in bits.

    M_alpha = -log2(d) + log2(sum_P Xi_P^alpha) / (1 - alpha) with
    Xi_P = <P>^2 / d over all 4^n phase-free Pauli strings.  The sum is
    taken by bit-indexed traversal: for each X-part x the amplitudes
    w_b = conj(psi_{b xor x}) psi_b are Walsh-Hadamard transformed, which
    yields <P(x, z)> for every Z-part z at once.
    """
    n = num_qubits(state)
    if n > SRE_QUBIT_LIMIT:
        raise ResourceLimitError(f"Pauli sum guarded at n <= {SRE_QUBIT_LIMIT}")
    if alpha <= 0 or alpha == 1:
        raise ValueError("alpha must be positive and different from 1")
    _require_normalized(state)
    if not np.any(np.imag(state)):
        # Real amplitudes: every product, sum and abs below has the same
        # real part in complex arithmetic, so the result is bit-identical.
        state = np.real(state)
    idx = _indices(n)
    # Column x holds conj(psi[b ^ x]) * psi[b]; the Y phase i^|x&z| drops
    # out because each expectation is real and enters through an even power.
    cross = np.conj(state)[idx[:, None] ^ idx[None, :]]
    cross *= state[:, None]
    expect = _walsh_leading_axis(cross, np.empty_like(cross))
    # Back to (x, z) row order, so the pairwise sum adds in the same order.
    expect_sq = np.ascontiguousarray((np.abs(expect) ** 2).T)
    total = float(np.sum(expect_sq**alpha))
    result = -n + np.log2(total) / (1.0 - alpha) - alpha * n / (1.0 - alpha)
    if -1e-12 < result < 0.0:
        result = 0.0
    return float(result)


def _single_qubit_rdm(state: np.ndarray, n: int, qubit: int) -> np.ndarray:
    block = state.reshape(1 << (qubit - 1), 2, 1 << (n - qubit))
    return np.einsum("abc,adc->bd", block, np.conj(block))


def _binary_entropy(p: float) -> float:
    p = min(max(p, 0.0), 1.0)
    out = 0.0
    for q in (p, 1.0 - p):
        if q > 0.0:
            out -= q * np.log2(q)
    return out


def one_spin_entropy(state: np.ndarray) -> float:
    """Single-spin von Neumann entropy of a permutation-symmetric state.

    Uses the diagonal reduced density matrix diag(1 - p, p) with
    p = <N_up>/N = 1/2 + <J_z>/N, the form valid for symmetric states of
    definite spin-flip parity.  Symmetry is checked by comparing the
    one-qubit reduced density matrices of the first and last spins.
    """
    n = num_qubits(state)
    _require_normalized(state)
    if n > 1:
        gap = np.max(
            np.abs(_single_qubit_rdm(state, n, 1) - _single_qubit_rdm(state, n, n))
        )
        if gap > 1e-8:
            raise ValueError("state is not permutation-symmetric")
    jz = float(np.sum(np.abs(state) ** 2 * (n / 2.0 - _popcounts(n))))
    return _binary_entropy(0.5 + jz / n)


def one_spin_entropy_dicke(state: DickeVector) -> float:
    """One-spin entropy from collective amplitudes (symmetric by construction)."""
    weights = np.abs(state.amps) ** 2
    p_up = float(np.dot(weights, np.array(state.ks)) / state.n)
    return _binary_entropy(p_up)


def n_tangle(state: np.ndarray, n: int, qubits: tuple[int, ...] | None = None) -> float:
    """n-tangle tau_n = |<psi| Y^(x n) |psi*>|^2.

    Acts on the first n qubits unless an explicit qubit subset is given;
    conjugation is taken in the computational basis.
    """
    total = num_qubits(state)
    if not 1 <= n <= total:
        raise ValueError(f"tangle order {n} outside 1..{total}")
    if qubits is None:
        qubits = tuple(range(1, n + 1))
    if len(set(qubits)) != n:
        raise ValueError("qubit subset size must match the tangle order")
    flip = PauliString.from_ops(total, {q: "Y" for q in qubits})
    return float(abs(np.vdot(state, flip.apply(np.conj(state)))) ** 2)


def n_tangle_dicke(state: DickeVector) -> float:
    """Full-system tangle tau_N from collective amplitudes.

    For real symmetric states tau_N = |sum_k (-1)^(N-k) a_k a_(N-k)|^2;
    it vanishes identically for odd N.
    """
    full = state.full_amps()
    signs = np.array([(-1.0) ** (state.n - k) for k in range(state.n + 1)])
    return float(np.dot(signs * full, full[::-1]) ** 2)


def parity_expectation(state: np.ndarray) -> float:
    """Expectation of the spin-flip parity operator, the product of all Z."""
    n = num_qubits(state)
    flip = PauliString.from_ops(n, {q: "Z" for q in range(1, n + 1)})
    return float(np.real(np.vdot(state, flip.apply(state))))
