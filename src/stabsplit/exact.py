"""Exact reference results in the fully symmetric collective sector.

The Hamiltonian conserves total spin and spin-flip parity, and its ground
state lives in the maximal J = N/2 multiplet.  States there are held as real
amplitude vectors over the spin-up counts k, giving O(N) scaling.  The
multiplet splits into two parity sectors: even k, the (-1)^N sector connected
to M = -N/2 (all spins down, i.e. |1...1>), and odd k.  Each sector is
diagonalized on its own and the lower ground level wins; the odd sector
wins only when it is lower by more than 1e-8.  For small N the dense 2^N
Pauli matrix is diagonalized as an independent cross-check.  That route uses
only the spin-flip parity: it splits the matrix into its two 2^(N-1) parity
blocks under the same rule, so it also finds ground states outside the
collective sector.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import comb

import numpy as np

from .lmg import LmgParams, build_lmg
from .pauli import ResourceLimitError, _popcounts, canonical_phase
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


def _collective_matrix(params: LmgParams, ks) -> np.ndarray:
    """Matrix of H over |J, M = k - J> for the given spin-up counts.

    H = J_z - vbar/(n-1) [ (1+chi)/2 (J^2 - J_z^2)
                           + (1-chi)/4 (J_+^2 + J_-^2) ]
        + vbar n (1+chi) / (4 (n-1)),

    the constant arising from sum_{i<j} X_i X_j = 2 J_x^2 - n/2 (and likewise
    for Y).
    """
    n, vbar, chi = params.n, params.vbar, params.chi
    j = n / 2.0
    ks = list(ks)
    dim = len(ks)
    pos = {k: i for i, k in enumerate(ks)}
    shift = vbar * n * (1 + chi) / (4.0 * (n - 1))
    mat = np.zeros((dim, dim))
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


def dicke_hamiltonian(params: LmgParams) -> np.ndarray:
    """H restricted to the even-k, (-1)^n sector of the J = n/2 multiplet."""
    return _collective_matrix(params, sector_ks(params.n))


def dicke_hamiltonian_full(params: LmgParams) -> np.ndarray:
    """H over the whole J = n/2 multiplet, both parity sectors, (n+1)^2."""
    return _collective_matrix(params, range(params.n + 1))


def _parity_ground(blocks) -> tuple[float, int, list[np.ndarray]]:
    """Ground level of a parity-block-diagonal matrix from its two blocks.

    ``blocks`` holds the (-1)^n sector's block first.  Each block is
    diagonalized on its own; the second wins only when its lowest level is
    below the first's by more than 1e-8, so ties go to the (-1)^n sector.
    Returns the lower ground level, the index of the winning block and each
    block's lowest eigenvector.
    """
    sectors = [np.linalg.eigh(block) for block in blocks]
    lows = [float(evals[0]) for evals, _ in sectors]
    win = 1 if lows[1] < lows[0] - 1e-8 else 0
    return min(lows), win, [evecs[:, 0] for _, evecs in sectors]


def ground_state(params: LmgParams) -> tuple[float, DickeVector]:
    """Ground energy and state of the J = n/2 multiplet.

    The even-k and odd-k sectors are diagonalized separately, and ``ks`` of
    the returned state are those of the winning sector.  The amplitude of
    the sector's lowest k (M = -n/2 for even k) is made positive.
    """
    n = params.n
    sectors = (sector_ks(n), tuple(range(1, n + 1, 2)))
    energy, win, vecs = _parity_ground(
        (dicke_hamiltonian(params), _collective_matrix(params, sectors[1]))
    )
    vec = vecs[win]
    anchor = vec[0] if abs(vec[0]) > 1e-12 else vec[np.argmax(np.abs(vec))]
    if anchor < 0:
        vec = -vec
    return energy, DickeVector(n, sectors[win], vec)


def _parity_blocks(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Basis indices of the (-1)^n spin-flip parity sector, then the other."""
    flipped = (_popcounts(n) & 1) != n % 2
    return np.flatnonzero(~flipped), np.flatnonzero(flipped)


def dense_ground_state(params: LmgParams) -> tuple[float, np.ndarray]:
    """Ground energy and state from the full 2^n matrix (independent route).

    Every pair term flips two spins, so the matrix is block-diagonal in the
    spin-flip parity sectors of Z_1..Z_n.  Each 2^(n-1) block is diagonalized
    on its own and the lower ground level wins; levels within 1e-8 resolve
    to the (-1)^n sector.  The state is exactly zero in the other sector.
    Only the parity symmetry of the Pauli matrix is used, none of the
    permutation symmetry of the collective route.
    """
    n = params.n
    if n > DENSE_GROUND_LIMIT:
        raise ResourceLimitError(f"dense diagonalization guarded at n <= {DENSE_GROUND_LIMIT}")
    h = build_lmg(params).dense_real()
    blocks = _parity_blocks(n)
    energy, win, vecs = _parity_ground([h[np.ix_(b, b)] for b in blocks])
    vec = np.zeros(1 << n, dtype=complex)
    vec[blocks[win]] = vecs[win]
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
        amps = np.array([np.sqrt(comb(n, k) / 2.0 ** (n - 1)) for k in ks])
    else:
        raise ValueError(f"no collective amplitudes for family {family!r}")
    return DickeVector(n, ks, amps)


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
