"""Exact reference results in the fully symmetric collective sector.

The Hamiltonian conserves total spin and spin-flip parity, and its ground
state lives in the maximal J = N/2 multiplet.  States there are held as real
amplitude vectors over the spin-up counts k, giving O(N) scaling.  The
multiplet splits into two parity sectors: even k, the (-1)^N sector connected
to M = -N/2 (all spins down, i.e. |1...1>), and odd k.  The even sector is
diagonalized, one Cholesky factorization certifies when the odd sector lies
above its ground level, and only otherwise is the odd sector diagonalized
too; it wins only when it is lower by more than 1e-8.  For small N the
dense 2^N Pauli matrix is diagonalized as an independent cross-check.  That
route uses only the spin-flip parity: it splits the matrix into its two
2^(N-1) parity blocks under the same rule, so it also finds ground states
outside the collective sector.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from math import comb, sqrt

import numpy as np

from .lmg import LmgParams, negated_pair_completion
from .pauli import PauliHamiltonian, ResourceLimitError, _parity_blocks, _popcounts, canonical_phase
from .tableau import STATEVECTOR_QUBIT_LIMIT

DENSE_GROUND_LIMIT = 12


@dataclass(frozen=True)
class DickeVector:
    """Real amplitudes over collective |J = n/2, M = k - n/2> states.

    ``ks`` lists the spin-up counts carrying amplitude, ascending.  A
    parity sector uses even k only (the (-1)^n sector) or odd k only; the
    full multiplet uses all k = 0..n.
    """

    n: int
    ks: tuple[int, ...]
    amps: np.ndarray

    def __post_init__(self):
        amps = np.asarray(self.amps, dtype=float)
        object.__setattr__(self, "amps", amps)
        object.__setattr__(self, "ks", tuple(int(k) for k in self.ks))
        if len(self.ks) != len(amps):
            raise ValueError("ks and amplitudes length mismatch")
        if any(not 0 <= k <= self.n for k in self.ks):
            raise ValueError("spin-up counts outside 0..n")
        if sorted(set(self.ks)) != list(self.ks):
            raise ValueError("ks must be strictly ascending")

    @property
    def norm(self) -> float:
        return float(np.linalg.norm(self.amps))

    def full_amps(self) -> np.ndarray:
        out = np.zeros(self.n + 1)
        out[list(self.ks)] = self.amps
        return out


def sector_ks(n: int) -> tuple[int, ...]:
    """Spin-up counts of the even-k, (-1)^n parity sector."""
    return tuple(range(0, n + 1, 2))


def _ladder(n: int) -> np.ndarray:
    """J_+ coefficients <M + 1|J_+|M> = sqrt((j - m)(j + m + 1)) for
    M = k - n/2, k = 0..n-1."""
    j = n / 2.0
    m = np.arange(n) - j
    return np.sqrt((j - m) * (j + m + 1))


@lru_cache(maxsize=4)
def dicke_hamiltonian_full(params: LmgParams) -> np.ndarray:
    """H over the whole J = n/2 multiplet, both parity sectors, (n+1)^2:

    H = J_z - vbar/(n-1) [ (1+chi)/2 (J^2 - J_z^2)
                           + (1-chi)/4 (J_+^2 + J_-^2) ]
        + vbar n (1+chi) / (4 (n-1)),

    the constant arising from sum_{i<j} X_i X_j = 2 J_x^2 - n/2 (and likewise
    for Y).  The J_+^2 band is the product of neighbouring ``_ladder``
    coefficients.  Read-only and cached per ``params``; every sector matrix
    is an ``np.ix_`` slice of it.
    """
    n, vbar, chi = params.n, params.vbar, params.chi
    j = n / 2.0
    m = np.arange(n + 1) - j
    shift = vbar * n * (1 + chi) / (4.0 * (n - 1))
    # Scalar factors first, left to right, then the arrays: the bits of a per-k build.
    mat = np.diag(m - (vbar / (n - 1)) * 0.5 * (1 + chi) * (j * (j + 1) - m * m) + shift)
    ladder = _ladder(n)
    band = -(vbar / (n - 1)) * 0.25 * (1 - chi) * (ladder[:-1] * ladder[1:])
    k = np.arange(n - 1)
    mat[k, k + 2] = mat[k + 2, k] = band
    mat.setflags(write=False)
    return mat


def dicke_hamiltonian(params: LmgParams) -> np.ndarray:
    """H restricted to the even-k, (-1)^n sector of the J = n/2 multiplet."""
    ks = sector_ks(params.n)
    return dicke_hamiltonian_full(params)[np.ix_(ks, ks)]


# Margin of the Cholesky test in _parity_ground, relative to the max row sum
# r of |second block B|, which bounds its 2-norm.  A factorization of
# A = B - s I that succeeds is the exact one of A + E with
# ||E||_2 <~ d eps ||A||_2 (Higham, Accuracy and Stability of Numerical
# Algorithms, Thm 10.3).  For s >= -2r, success needs s <~ r, so
# ||A||_2 <= 3r and every level of B lies above s - 3 d eps r; for s < -2r
# every level of B (>= -r) lies far above s anyway.  eigh's lowest level is
# within about d eps r of the exact one.  At d = 2^11, the largest dense
# block, both errors together stay below 2e-12 r, so a margin of 1e-10 r
# leaves every certified block's eigh level above the first block's: the
# result is the one two eighs give.
_CERTIFY_MARGIN = 1e-10


def _parity_ground(blocks) -> tuple[float, int, list[np.ndarray | None]]:
    """Ground level of a parity-block-diagonal matrix from its two blocks.

    ``blocks`` holds the (-1)^n sector's block first.  The first block is
    diagonalized; one Cholesky factorization of the second, shifted to just
    above the first's lowest level, certifies that none of its levels lies
    below, and then the first block wins.  Only when the certificate fails
    is the second block diagonalized, and it wins only when its lowest level
    is below the first's by more than 1e-8, so ties go to the first.
    Returns the lower ground level, the index of the winning block and each
    block's lowest eigenvector, None for a certified second block.
    """
    first, second = blocks
    evals, evecs = np.linalg.eigh(first)
    low = float(evals[0])
    shift = low + _CERTIFY_MARGIN * float(np.abs(second).sum(axis=1).max())
    try:
        np.linalg.cholesky(second - shift * np.eye(len(second)))
    except np.linalg.LinAlgError:
        pass
    else:
        return low, 0, [evecs[:, 0], None]
    evals2, evecs2 = np.linalg.eigh(second)
    lows = [low, float(evals2[0])]
    win = 1 if lows[1] < lows[0] - 1e-8 else 0
    return min(lows), win, [evecs[:, 0], evecs2[:, 0]]


def ground_state(params: LmgParams) -> tuple[float, DickeVector]:
    """Ground energy and state of the J = n/2 multiplet.

    The even-k and odd-k sectors are searched separately
    (``_parity_ground``), and ``ks`` of the returned state are those of the
    winning sector.  The amplitude of the sector's lowest k (M = -n/2 for
    even k) is made positive, or, when it is below 1e-12, the largest one.
    """
    n = params.n
    sectors = (sector_ks(n), tuple(range(1, n + 1, 2)))
    full = dicke_hamiltonian_full(params)
    energy, win, vecs = _parity_ground([full[np.ix_(ks, ks)] for ks in sectors])
    vec = vecs[win]
    anchor = vec[0] if abs(vec[0]) > 1e-12 else vec[np.argmax(np.abs(vec))]
    if anchor < 0:
        vec = -vec
    return energy, DickeVector(n, sectors[win], vec)


def dense_ground_state(h: PauliHamiltonian) -> tuple[float, np.ndarray]:
    """Ground energy and state of ``h`` from its dense 2^n matrix (independent route).

    ``h`` must conserve the spin-flip parity of Z_1..Z_n, as every LMG term
    does: a term with an odd number of X/Y sites raises ValueError.  The two
    2^(n-1) parity blocks (``PauliHamiltonian.parity_blocks``) go through
    ``_parity_ground``: the (-1)^n block is diagonalized, and the other only
    when a Cholesky test cannot show its levels lie above; the lower ground
    level wins, and levels within 1e-8 resolve to the (-1)^n sector.  The
    state is exactly zero in the other sector.  None of the permutation
    symmetry of the collective route is used.
    """
    n = h.n
    if n > DENSE_GROUND_LIMIT:
        raise ResourceLimitError(f"dense diagonalization guarded at n <= {DENSE_GROUND_LIMIT}")
    energy, win, vecs = _parity_ground(h.parity_blocks())
    vec = np.zeros(1 << n, dtype=complex)
    vec[_parity_blocks(n)[win]] = vecs[win]
    return energy, canonical_phase(vec)


def dicke_to_statevector(state: DickeVector) -> np.ndarray:
    """Expand collective amplitudes over the 2^n computational basis.

    |J, M = k - n/2> is the normalized uniform superposition of the basis
    states with k spin-ups (k zero bits).
    """
    n = state.n
    if n > STATEVECTOR_QUBIT_LIMIT:
        raise ResourceLimitError(
            f"statevector expansion guarded at n <= {STATEVECTOR_QUBIT_LIMIT}"
        )
    k_of_b = n - _popcounts(n)
    out = np.zeros(1 << n, dtype=complex)
    for k, amp in zip(state.ks, state.amps):
        mask = k_of_b == k
        out[mask] = amp / np.sqrt(comb(n, k))
    return out


def stab_state_dicke_amplitudes(n: int, family: str) -> DickeVector:
    """Collective amplitudes of the selected stabilizer states.

    The product state is pure k = 0.  The pair state weights each allowed k
    by sqrt(C(n, k) / 2^(n-1)).
    """
    ks = sector_ks(n)
    if family == "s1":
        amps = np.zeros(len(ks))
        amps[0] = 1.0
    elif family == "s2":
        amps = np.array([sqrt(comb(n, k) / 2 ** (n - 1)) for k in ks])
    else:
        raise ValueError(f"no collective amplitudes for family {family!r}")
    return DickeVector(n, ks, amps)


def s2_candidate_state(params: LmgParams) -> DickeVector:
    """Collective amplitudes of the X-pair candidate selected at ``params``.

    The even-sector pair state, except where the group completes with -Z1Z2
    (``negated_pair_completion``, only at n = 2): there the state is
    (|01> + |10>)/sqrt(2) = |J = 1, M = 0>, in the odd sector.
    """
    if negated_pair_completion(params):
        return DickeVector(2, (1,), [1.0])
    return stab_state_dicke_amplitudes(params.n, "s2")


def fidelity(a, b) -> float:
    """|<a|b>| for two statevectors or two collective vectors.

    Collective vectors are aligned on spin-up counts, so sector and full
    multiplet vectors compare directly.  Mixing representations raises.
    """
    if isinstance(a, DickeVector) and isinstance(b, DickeVector):
        if a.n != b.n:
            raise ValueError("qubit count mismatch")
        return float(abs(np.dot(a.full_amps(), b.full_amps())))
    if isinstance(a, np.ndarray) and isinstance(b, np.ndarray):
        if a.shape != b.shape:
            raise ValueError("statevector length mismatch")
        return float(abs(np.vdot(a, b)))
    raise TypeError("fidelity needs two statevectors or two collective vectors")
