"""Symplectic Pauli strings and real Pauli-sum Hamiltonians.

Conventions used throughout the package:

* Qubits are numbered 1..n.  Qubit j maps to bit position (n - j) of the
  ``x_bits`` / ``z_bits`` integers, so qubit 1 is the most significant bit.
* A computational basis label ``b1 b2 ... bn`` (qubit 1 leftmost) therefore
  corresponds to statevector index ``int(label, 2)``, and dense matrices are
  Kronecker products taken in qubit order, ``kron(op_1, kron(op_2, ...))``.
* A string is the operator ``i**phase_exp * prod_j sigma(x_j, z_j)`` where
  ``sigma(1,0) = X``, ``sigma(0,1) = Z`` and ``sigma(1,1) = Y``.  The factor
  ``Y = i X Z`` is absorbed into the phase bookkeeping, which stays in pure
  integer arithmetic: the phase is always exactly one of {1, i, -1, -i}.
* Bit rows are Python ints, so there is no fixed word-size qubit limit; the
  practical caps live on dense-vector operations (``dense`` guards n <= 14).
  A ``PauliHamiltonian`` stores each term as the positions of its set bits,
  z bits first, then x bits, 64 * ``_words(n)`` positions per half.
"""

from __future__ import annotations

import re
from collections import OrderedDict
from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np

_SINGLE = {
    (0, 0): np.eye(2, dtype=complex),
    (1, 0): np.array([[0, 1], [1, 0]], dtype=complex),
    (0, 1): np.array([[1, 0], [0, -1]], dtype=complex),
    (1, 1): np.array([[0, -1j], [1j, 0]], dtype=complex),
}

_LETTER_TO_BITS = {"I": (0, 0), "X": (1, 0), "Z": (0, 1), "Y": (1, 1)}
_BITS_TO_LETTER = {v: k for k, v in _LETTER_TO_BITS.items()}
_SIGN_TEXT = {0: "+", 1: "+i", 2: "-", 3: "-i"}

DENSE_QUBIT_LIMIT = 14

_TOKEN_RE = re.compile(r"([IXYZ])(\d+)")
_LABEL_RE = re.compile(r"^([+-])(i)?((?:[IXYZ]\d+)+|I)$")


class ResourceLimitError(ValueError):
    """Raised when an operation would exceed its dense-resource guard."""


@lru_cache(maxsize=32)
def _indices(n: int) -> np.ndarray:
    idx = np.arange(1 << n, dtype=np.int64)
    idx.setflags(write=False)
    return idx


@lru_cache(maxsize=32)
def _popcounts(n: int) -> np.ndarray:
    """Number of one bits of every basis index 0 .. 2^n - 1."""
    counts = np.bitwise_count(_indices(n)).astype(np.int64)
    counts.setflags(write=False)
    return counts


def _sign_vector(mask, n: int) -> np.ndarray:
    """(-1)**popcount(b & mask) for every basis index b, as a float array.

    An int array of masks broadcasts against the indices, so a column of
    masks gives one sign row per mask."""
    return 1.0 - 2.0 * (np.bitwise_count(_indices(n) & mask) & 1).astype(np.int64)


def _parity_blocks(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Basis indices of the (-1)^n spin-flip parity sector, then the other."""
    flipped = (_popcounts(n) & 1) != n % 2
    return np.flatnonzero(~flipped), np.flatnonzero(flipped)


# Work that depends only on a position table: id(table) -> (table, named
# entries) for at most four tables, as many as ``lmg._position_table``
# caches, least recently used first.  Holding the table keeps its id.  Used
# by ``lmg._scored`` and ``PauliHamiltonian.parity_blocks``.
_STRUCTURES: OrderedDict = OrderedDict()


def _structure_memo(positions: np.ndarray) -> dict:
    """The named, read-only entries kept for this very table object; another
    table, even an equal copy, gets a fresh dict and may evict the oldest."""
    held = _STRUCTURES.get(id(positions))
    if held is None or held[0] is not positions:
        held = _STRUCTURES[id(positions)] = (positions, {})
        if len(_STRUCTURES) > 4:
            _STRUCTURES.popitem(last=False)
    _STRUCTURES.move_to_end(id(positions))
    return held[1]


def clear_structure_memo() -> None:
    """Forget every entry of every table (see ``_structure_memo``)."""
    _STRUCTURES.clear()


def _words(bits: int) -> int:
    """64-bit words that hold ``bits`` bits."""
    return (bits + 63) // 64


def _bit_positions(value: int):
    """Positions of the one bits of a nonnegative int, lowest first."""
    while value:
        low = value & -value
        yield low.bit_length() - 1
        value ^= low


def _xz_exponent(p: "PauliString") -> int:
    """The exponent e with p = i^e X^x Z^z; Y = iXZ puts |x & z| into it."""
    return (p.phase_exp + (p.x_bits & p.z_bits).bit_count()) % 4


def _product_exponent(e1: int, z1: int, e2: int, x2: int) -> int:
    """Exponent of (i^e1 X^x1 Z^z1)(i^e2 X^x2 Z^z2) = i^e X^(x1^x2) Z^(z1^z2).

    Moving Z^z1 past X^x2 gives (-1)^|z1 & x2|, so e = e1 + e2 + 2 |z1 & x2|
    mod 4: integer arithmetic on the bit rows, with no ``PauliString``.
    """
    return (e1 + e2 + 2 * (z1 & x2).bit_count()) % 4


def canonical_phase(vec: np.ndarray, tol: float = 1e-12) -> np.ndarray:
    """Rescale a state so its first nonzero amplitude is real and positive."""
    for a in vec:
        if abs(a) > tol:
            return vec * (abs(a) / a)
    return vec


def num_qubits(vec: np.ndarray) -> int:
    n = int(round(np.log2(len(vec))))
    if 1 << n != len(vec):
        raise ValueError("statevector length is not a power of two")
    return n


@dataclass(frozen=True)
class PauliString:
    """An n-qubit Pauli operator in symplectic (x|z) form with an i**k phase.

    Immutable.  ``phase_exp`` is the exponent k in i**k, always reduced
    mod 4.  Hermitian strings have even ``phase_exp``.
    """

    n: int
    x_bits: int
    z_bits: int
    phase_exp: int = 0

    def __post_init__(self):
        if self.n < 1:
            raise ValueError("need at least one qubit")
        limit = 1 << self.n
        if not (0 <= self.x_bits < limit and 0 <= self.z_bits < limit):
            raise ValueError("bit rows out of range for qubit count")
        object.__setattr__(self, "phase_exp", self.phase_exp % 4)

    # -- constructors ------------------------------------------------------

    @classmethod
    def identity(cls, n: int) -> "PauliString":
        return cls(n, 0, 0, 0)

    @classmethod
    def from_ops(cls, n: int, ops: dict[int, str], phase_exp: int = 0) -> "PauliString":
        """Build from a {qubit: letter} map, qubits 1-based.

        Example: from_ops(3, {1: "X", 3: "Y"}) is X1 Y3 on three qubits.
        """
        x = z = 0
        for qubit, letter in ops.items():
            if not 1 <= qubit <= n:
                raise ValueError(f"qubit {qubit} outside 1..{n}")
            xb, zb = _LETTER_TO_BITS[letter]
            pos = n - qubit
            if (x >> pos) & 1 or (z >> pos) & 1:
                raise ValueError(f"qubit {qubit} assigned twice")
            x |= xb << pos
            z |= zb << pos
        return cls(n, x, z, phase_exp)

    @classmethod
    def parse(cls, text: str, n: int) -> "PauliString":
        """Parse labels like '+X1X2', '-Z1Z2Z3', '+iY2', '-I'."""
        m = _LABEL_RE.match(text.strip())
        if not m:
            raise ValueError(f"unparseable Pauli label: {text!r}")
        sign, imag, body = m.groups()
        k = (2 if sign == "-" else 0) + (1 if imag else 0)
        ops: dict[int, str] = {}
        if body != "I":
            for letter, idx in _TOKEN_RE.findall(body):
                qubit = int(idx)
                if letter == "I":
                    if not 1 <= qubit <= n:
                        raise ValueError(f"qubit {qubit} outside 1..{n}")
                    continue
                ops[qubit] = letter
        return cls.from_ops(n, ops, k)

    # -- presentation ------------------------------------------------------

    def letter(self, qubit: int) -> str:
        pos = self.n - qubit
        return _BITS_TO_LETTER[((self.x_bits >> pos) & 1, (self.z_bits >> pos) & 1)]

    def render(self) -> str:
        body = "".join(
            f"{self.letter(q)}{q}" for q in range(1, self.n + 1) if self.letter(q) != "I"
        )
        return _SIGN_TEXT[self.phase_exp] + (body or "I")

    def __str__(self) -> str:
        return self.render()

    # -- algebra -----------------------------------------------------------

    @property
    def phase(self) -> complex:
        return 1j ** self.phase_exp

    @property
    def is_hermitian(self) -> bool:
        return self.phase_exp % 2 == 0

    def __mul__(self, other: "PauliString") -> "PauliString":
        if self.n != other.n:
            raise ValueError("qubit counts differ")
        x3 = self.x_bits ^ other.x_bits
        z3 = self.z_bits ^ other.z_bits
        # Per qubit: sigma(x1,z1) sigma(x2,z2) = i**d sigma(x1^x2, z1^z2) with
        # d = x1 z1 + x2 z2 + 2 z1 x2 - x3 z3, summed here via popcounts.
        d = (
            (self.x_bits & self.z_bits).bit_count()
            + (other.x_bits & other.z_bits).bit_count()
            + 2 * (self.z_bits & other.x_bits).bit_count()
            - (x3 & z3).bit_count()
        )
        return PauliString(self.n, x3, z3, self.phase_exp + other.phase_exp + d)

    def commutes(self, other: "PauliString") -> bool:
        if self.n != other.n:
            raise ValueError("qubit counts differ")
        overlap = (self.x_bits & other.z_bits) ^ (self.z_bits & other.x_bits)
        return overlap.bit_count() % 2 == 0

    def negate(self) -> "PauliString":
        return PauliString(self.n, self.x_bits, self.z_bits, self.phase_exp + 2)

    def unsigned(self) -> "PauliString":
        return PauliString(self.n, self.x_bits, self.z_bits, 0)

    # -- dense realizations --------------------------------------------------

    def dense(self) -> np.ndarray:
        """Dense 2^n x 2^n matrix; equals phase times the Kronecker product of
        single-qubit Pauli matrices in qubit order."""
        if self.n > DENSE_QUBIT_LIMIT:
            raise ResourceLimitError(f"dense matrix guarded at n <= {DENSE_QUBIT_LIMIT}")
        out = np.array([[self.phase]], dtype=complex)
        for q in range(1, self.n + 1):
            pos = self.n - q
            out = np.kron(out, _SINGLE[((self.x_bits >> pos) & 1, (self.z_bits >> pos) & 1)])
        return out

    def apply(self, vec: np.ndarray) -> np.ndarray:
        """Apply to a statevector of length 2^n without forming the matrix."""
        if len(vec) != 1 << self.n:
            raise ValueError("statevector length mismatch")
        factor = 1j ** ((self.phase_exp + (self.x_bits & self.z_bits).bit_count()) % 4)
        signed = vec * _sign_vector(self.z_bits, self.n)
        if self.x_bits:
            signed = signed[_indices(self.n) ^ self.x_bits]
        return factor * signed


@dataclass(frozen=True, eq=False)
class PauliHamiltonian:
    """A real linear combination of Hermitian, phase +1 Pauli strings.

    Stored as ``coeffs``, one float64 coefficient per term, and
    ``positions``, a read-only int32 table with one row per term: the
    positions of the term's set bits, ascending.  A position counts through
    the z bits, then the x bits, 64 * ``_words(n)`` per half, with the bit
    layout of ``PauliString.z_bits`` / ``x_bits``.  Rows are padded to a
    common width of at least one column with 128 * ``_words(n)``, one past
    the last position.  The unsigned strings must be unique; ``from_terms``
    builds them from (coefficient, string) pairs.  ``terms`` is the same
    data as (coefficient, string) pairs, decoded on first access.
    Instances compare by identity.
    """

    n: int
    coeffs: np.ndarray
    positions: np.ndarray

    def __post_init__(self):
        coeffs = np.asarray(self.coeffs, dtype=np.float64).reshape(-1)
        positions = np.asarray(self.positions, dtype=np.int32)
        if positions.ndim != 2 or positions.shape[0] != len(coeffs) or positions.shape[1] < 1:
            raise ValueError("need one row of at least one position per coefficient")
        for name, array in (("coeffs", coeffs), ("positions", positions)):
            array.setflags(write=False)
            object.__setattr__(self, name, array)

    @classmethod
    def from_terms(cls, n: int, terms) -> "PauliHamiltonian":
        """Sum (coefficient, string) pairs: signs fold into the coefficients,
        repeated strings merge in first-seen order, and zero sums drop."""
        merged: dict[tuple[int, int], float] = {}
        for coeff, string in terms:
            if string.n != n:
                raise ValueError("string qubit count differs from Hamiltonian")
            if not string.is_hermitian:
                raise ValueError(f"non-Hermitian term {string.render()} in Hamiltonian")
            if abs(complex(coeff).imag) > 0:
                raise ValueError("Hamiltonian coefficients must be real")
            c = float(np.real(coeff)) * (1.0 if string.phase_exp == 0 else -1.0)
            key = (string.x_bits, string.z_bits)
            merged[key] = merged.get(key, 0.0) + c
        kept = [(key, c) for key, c in merged.items() if c != 0.0]
        shift = 64 * _words(n)
        rows = [list(_bit_positions((x << shift) | z)) for (x, z), _ in kept]
        counts = np.array([len(row) for row in rows], dtype=np.int64)
        positions = np.full((len(rows), counts.max(initial=1)), 2 * shift, dtype=np.int32)
        filled = np.arange(positions.shape[1]) < counts[:, None]
        positions[filled] = [p for row in rows for p in row]
        return cls(n, [c for _, c in kept], positions)

    @cached_property
    def terms(self) -> tuple[tuple[float, PauliString], ...]:
        """(coefficient, string) pairs in storage order."""
        return tuple(zip(self.coeffs.tolist(), self._strings()))

    def _strings(self):
        """The terms' unsigned strings, decoded from the position table."""
        shift = 64 * _words(self.n)
        for row in self.positions.tolist():
            vec = sum(1 << p for p in row if p < 2 * shift)
            yield PauliString(self.n, vec >> shift, vec & ((1 << shift) - 1))

    @cached_property
    def y_counts(self) -> np.ndarray:
        """|x & z| of every term, its number of Y sites, as read-only int32.

        A term has a Y at z position p exactly when it also holds the x
        position p + 64 * ``_words(n)``, which, rows being ascending, lies in
        a later column.  Only z positions are looked up: the x position of
        qubit n plus the half width is the pad, not a partner.
        """
        shift = 64 * _words(self.n)
        pos = self.positions
        counts = np.zeros(len(self), dtype=np.int32)
        for a in range(pos.shape[1] - 1):
            partner = (pos[:, a + 1 :] == (pos[:, a] + shift)[:, None]).any(axis=1)
            counts += partner & (pos[:, a] < shift)
        counts.setflags(write=False)
        return counts

    def subset(self, keep: np.ndarray) -> "PauliHamiltonian":
        """The terms where the boolean mask ``keep`` is true, in order."""
        return PauliHamiltonian(self.n, self.coeffs[keep], self.positions[keep])

    def __len__(self) -> int:
        return len(self.coeffs)

    def _dense_parts(self):
        """Per-term x bits, z bits and Y count, read from the position table.

        With n <= DENSE_QUBIT_LIMIT < 64 each half is one word: z positions
        lie below 64, x positions from 64 up to the pad, 128.
        """
        if self.n > DENSE_QUBIT_LIMIT:
            raise ResourceLimitError(f"dense matrix guarded at n <= {DENSE_QUBIT_LIMIT}")
        pos = self.positions.astype(np.int64)
        ones = np.left_shift(1, pos % 64)
        x = np.where((64 <= pos) & (pos < 128), ones, 0).sum(axis=1)
        z = np.where(pos < 64, ones, 0).sum(axis=1)
        return x, z, self.y_counts

    def _real_parts(self):
        """Per-term x bits, z bits and real phase (-1)^(Y count / 2): a
        Hermitian phase +1 string with an even number of Y sites is a real
        matrix.  Raises if any term is odd in Y."""
        x, z, w = self._dense_parts()
        if np.any(w % 2):
            raise ValueError("term with odd Y count has an imaginary matrix")
        return x, z, 1.0 - 2.0 * (w // 2 % 2)

    def _layout(self, x: np.ndarray, z: np.ndarray, place=None):
        """Flat indices and signs of the terms' matrices X^x_t Z^z_t: term t
        puts (-1)^|b & z_t| at row place[b ^ x_t], column place[b] mod the
        width (2^n for the identity place; 2^(n-1) for a place that lays two
        blocks end to end, each entry having both ends in one block)."""
        dim = 1 << self.n
        idx = _indices(self.n)
        place, width = (idx, dim) if place is None else (place, dim >> 1)
        return place[idx ^ x[:, None]] * width + place % width, _sign_vector(z[:, None], self.n)

    @staticmethod
    def _scatter(flat: np.ndarray, signs: np.ndarray, scale: np.ndarray, shape) -> np.ndarray:
        """Sum over terms of scale_t * signs_t at flat_t; ``np.add.at`` adds the
        terms in storage order from +0.0, as adding one matrix after another."""
        out = np.zeros(shape, dtype=scale.dtype)
        np.add.at(out.reshape(-1), flat.ravel(), (scale[:, None] * signs).ravel())
        return out

    def parity_blocks(self) -> np.ndarray:
        """The two spin-flip parity blocks of ``dense_real()``, stacked in
        ``_parity_blocks`` order, with its bits but without the 2^n x 2^n
        matrix.  The layout, most of the work, is kept per position table."""
        memo = _structure_memo(self.positions)
        if ("parity", self.n) not in memo:
            memo["parity", self.n] = self._parity_layout()
        flat, signs, phase = memo["parity", self.n]
        half = 1 << (self.n - 1)
        return self._scatter(flat, signs, self.coeffs * phase, (2, half, half))

    def _parity_layout(self):
        """Read-only int32 flat indices (2^(2n-1) <= 2^27 entries), int8 signs
        and real phases of ``parity_blocks``.  Raises if a term is odd in Y, or
        odd in X/Y sites and so couples the blocks."""
        x, z, phase = self._real_parts()
        if np.any(np.bitwise_count(x) & 1):
            raise ValueError("term with an odd number of X/Y sites couples the parity blocks")
        flat, signs = self._layout(x, z, np.argsort(np.concatenate(_parity_blocks(self.n))))
        layout = (flat.astype(np.int32), signs.astype(np.int8), phase)
        for array in layout:
            array.setflags(write=False)
        return layout

    def dense(self) -> np.ndarray:
        x, z, w = self._dense_parts()
        phases = np.array([1j**k for k in range(4)])
        return self._scatter(*self._layout(x, z), self.coeffs * phases[w % 4], (1 << self.n,) * 2)

    def dense_real(self) -> np.ndarray:
        """Real float64 dense matrix (phases from ``_real_parts``); real
        coefficients keep the sum real.  Raises if any term is odd in Y."""
        x, z, phase = self._real_parts()
        return self._scatter(*self._layout(x, z), self.coeffs * phase, (1 << self.n,) * 2)

    def apply(self, vec: np.ndarray) -> np.ndarray:
        if len(vec) != 1 << self.n:
            raise ValueError("statevector length mismatch")
        out = np.zeros(len(vec), dtype=complex)
        for coeff, string in zip(self.coeffs.tolist(), self._strings()):
            out += coeff * string.apply(vec)
        return out

    def expectation(self, vec: np.ndarray) -> float:
        val = np.vdot(vec, self.apply(vec))
        return float(val.real)
