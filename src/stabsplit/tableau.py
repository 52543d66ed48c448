"""Signed stabilizer tableaux: expectations, Clifford conjugation, states.

A stabilizer group on n qubits is held as n signed, pairwise commuting,
independent Hermitian Pauli generators.  Membership queries run over GF(2)
with exact sign tracking, so Pauli expectations in a stabilizer state are
returned exactly as -1, 0, or +1, one string at a time or for every term of
a Hamiltonian in one batched numpy pass.  Statevector extraction multiplies the
projectors (1 + g)/2 onto a compatible computational basis state, and the
graph-state reduction brings the generator matrix to (identity | adjacency)
form with tracked local Cliffords.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .pauli import (
    PauliString,
    PauliHamiltonian,
    ResourceLimitError,
    canonical_phase,
    _indices,
    _pack,
    _words,
)

STATEVECTOR_QUBIT_LIMIT = 14

_H2 = np.array([[1, 1], [1, -1]], dtype=complex) / np.sqrt(2)
_S2 = np.array([[1, 0], [0, 1j]], dtype=complex)
_LOCAL_MATS = {
    "I": np.eye(2, dtype=complex),
    "H": _H2,
    "S": _S2,
    "X": np.array([[0, 1], [1, 0]], dtype=complex),
    "Y": np.array([[0, -1j], [1j, 0]], dtype=complex),
    "Z": np.array([[1, 0], [0, -1]], dtype=complex),
}
_SINGLE_QUBIT_GATES = frozenset("HSXYZ")
_TWO_QUBIT_GATES = frozenset({"CX", "CZ"})


@dataclass(frozen=True)
class CliffordGate:
    """A gate from the generating set {H, S, X, Y, Z, CX, CZ}, 1-based qubits."""

    name: str
    qubits: tuple[int, ...]

    def __post_init__(self):
        if self.name in _SINGLE_QUBIT_GATES:
            if len(self.qubits) != 1:
                raise ValueError(f"{self.name} takes one qubit")
        elif self.name in _TWO_QUBIT_GATES:
            if len(self.qubits) != 2 or self.qubits[0] == self.qubits[1]:
                raise ValueError(f"{self.name} takes two distinct qubits")
        else:
            raise ValueError(f"unknown gate {self.name!r}")

    def render(self) -> str:
        return " ".join([self.name, *map(str, self.qubits)])


def conjugate_pauli(p: PauliString, gate: CliffordGate) -> PauliString:
    """Return U p U^dag for a generating-set Clifford gate U."""
    n = p.n
    x, z, k = p.x_bits, p.z_bits, p.phase_exp
    if gate.name in _SINGLE_QUBIT_GATES:
        t = 1 << (n - gate.qubits[0])
        xt, zt = bool(x & t), bool(z & t)
        if gate.name == "H":
            k += 2 * (xt and zt)
            if xt != zt:
                x ^= t
                z ^= t
        elif gate.name == "S":
            k += 2 * (xt and zt)
            if xt:
                z ^= t
        elif gate.name == "X":
            k += 2 * zt
        elif gate.name == "Y":
            k += 2 * (xt != zt)
        elif gate.name == "Z":
            k += 2 * xt
    else:
        c = 1 << (n - gate.qubits[0])
        t = 1 << (n - gate.qubits[1])
        xc, zc, xt, zt = bool(x & c), bool(z & c), bool(x & t), bool(z & t)
        if gate.name == "CX":
            k += 2 * (xc and zt and (xt == zc))
            if xc:
                x ^= t
            if zt:
                z ^= c
        else:  # CZ
            k += 2 * (xc and xt and (zc != zt))
            if xc:
                z ^= t
            if xt:
                z ^= c
    return PauliString(n, x, z, k)


def _apply_single_qubit(vec: np.ndarray, n: int, qubit: int, mat: np.ndarray) -> np.ndarray:
    shaped = vec.reshape(1 << (qubit - 1), 2, 1 << (n - qubit))
    return np.einsum("ab,hbl->hal", mat, shaped).reshape(-1)


def apply_gate(vec: np.ndarray, n: int, gate: CliffordGate) -> np.ndarray:
    """Dense statevector action of a generating-set Clifford gate."""
    if gate.name in _SINGLE_QUBIT_GATES:
        return _apply_single_qubit(vec, n, gate.qubits[0], _LOCAL_MATS[gate.name])
    idx = _indices(n)
    cbit = (idx >> (n - gate.qubits[0])) & 1
    tmask = 1 << (n - gate.qubits[1])
    if gate.name == "CX":
        return vec[idx ^ (cbit * tmask)]
    tbit = (idx >> (n - gate.qubits[1])) & 1
    return vec * (1.0 - 2.0 * (cbit & tbit))


def apply_circuit(vec: np.ndarray, n: int, gates) -> np.ndarray:
    for gate in gates:
        vec = apply_gate(vec, n, gate)
    return vec


def apply_local_label(vec: np.ndarray, n: int, qubit: int, label: str) -> np.ndarray:
    """Apply a single-qubit operator written as a letter product, for example
    "HZ" meaning the matrix H @ Z (Z acts first)."""
    mat = np.eye(2, dtype=complex)
    for letter in label:
        mat = mat @ _LOCAL_MATS[letter]
    return _apply_single_qubit(vec, n, qubit, mat)


# Terms are evaluated this many at a time, which bounds the
# temporaries of ``StabilizerGroup.expectations`` at any Hamiltonian size.
_TERM_BLOCK = 4096
# Rows per block of the pairwise overlap products in ``_odd_overlaps``.
_ROW_BLOCK = 64


def _bit_positions(value: int):
    """Positions of the one bits of a nonnegative int, lowest first."""
    while value:
        low = value & -value
        yield low.bit_length() - 1
        value ^= low


def _set_bits(packed: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(row, bit position) of every one bit of packed rows, ordered by row."""
    row, word = np.nonzero(packed)
    values = packed[row, word]
    rows, bits = [row[:0]], [word[:0]]
    while len(values):
        rows.append(row)
        # values ^ (values - 1) is the lowest one bit and the zeros below it.
        bits.append(64 * word + np.bitwise_count(values ^ (values - np.uint64(1))) - 1)
        values = values & (values - np.uint64(1))
        left = values != 0
        row, word, values = row[left], word[left], values[left]
    row, bit = np.concatenate(rows), np.concatenate(bits)
    order = np.argsort(row, kind="stable")
    return row[order], bit[order]


def _odd_overlaps(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Parity of |a_i & b_j| for every pair of packed rows, as a uint8 matrix."""
    out = np.empty((len(a), len(b)), dtype=np.uint8)
    for start in range(0, len(a), _ROW_BLOCK):
        both = a[start : start + _ROW_BLOCK, None, :] & b[None, :, :]
        out[start : start + _ROW_BLOCK] = np.bitwise_count(
            np.bitwise_xor.reduce(both, axis=-1)
        ) & 1
    return out


@dataclass(frozen=True)
class StabilizerGroup:
    """n independent, commuting, Hermitian generators with signs +/-1."""

    n: int
    generators: tuple[PauliString, ...]

    def __post_init__(self):
        gens = tuple(self.generators)
        object.__setattr__(self, "generators", gens)
        if len(gens) != self.n:
            raise ValueError(f"need exactly {self.n} generators, got {len(gens)}")
        for g in gens:
            if g.n != self.n:
                raise ValueError("generator qubit count mismatch")
            if g.phase_exp % 2:
                raise ValueError(f"generator {g.render()} is not Hermitian")
            if g.x_bits == 0 and g.z_bits == 0:
                raise ValueError("identity cannot be a generator")
        words = _words(self.n)
        x = _pack([g.x_bits for g in gens], words)
        z = _pack([g.z_bits for g in gens], words)
        overlaps = _odd_overlaps(x, z)
        anticommuting = np.argwhere(np.triu(overlaps ^ overlaps.T, 1))
        if len(anticommuting):
            i, j = anticommuting[0]
            raise ValueError(
                f"generators {gens[i].render()} and {gens[j].render()} anticommute"
            )
        # Independence: the reduced basis construction fails on dependence.
        self._basis  # noqa: B018

    @classmethod
    def from_labels(cls, labels, n: int) -> "StabilizerGroup":
        return cls(n, tuple(PauliString.parse(s, n) for s in labels))

    def render_lines(self) -> str:
        return "\n".join(g.render() for g in self.generators)

    @classmethod
    def parse_lines(cls, text: str, n: int) -> "StabilizerGroup":
        labels = [line.strip() for line in text.splitlines() if line.strip()]
        return cls.from_labels(labels, n)

    # -- GF(2) machinery -----------------------------------------------------

    @cached_property
    def _basis(self) -> dict[int, tuple[int, PauliString]]:
        """Fully reduced (Gauss-Jordan) symplectic basis: pivot bit -> (vector,
        group element).

        Vectors pack (x_bits << 64 w) | z_bits with w = ``_words(n)``, so as
        uint64 words they are the z row followed by the x row (see
        ``expectations``).  Each vector has a one at its own pivot and zeros at
        every other pivot, so a vector in the span is the XOR of the rows at its
        set pivot bits.  Each stored element is the exact signed product of
        original generators whose vectors XOR to ``vector``.
        """
        basis: dict[int, tuple[int, PauliString]] = {}
        shift = 64 * _words(self.n)
        for g in self.generators:
            vec, prod = (g.x_bits << shift) | g.z_bits, g
            for bit in _bit_positions(vec):
                if bit in basis:
                    bvec, bprod = basis[bit]
                    vec ^= bvec
                    prod = prod * bprod
            if not vec:
                raise ValueError("generators are not independent")
            pivot = vec.bit_length() - 1
            for other, (bvec, bprod) in list(basis.items()):
                if (bvec >> pivot) & 1:
                    basis[other] = (bvec ^ vec, bprod * prod)
            basis[pivot] = (vec, prod)
        return basis

    def expectation(self, p: PauliString) -> int:
        """Exact expectation of a Hermitian Pauli in the stabilized state.

        Returns +1 or -1 when +/-p lies in the group, else 0.  The single-query
        path; ``expectations`` answers a whole Hamiltonian at once.
        """
        if p.n != self.n:
            raise ValueError("qubit count mismatch")
        if not p.is_hermitian:
            raise ValueError("expectation needs a Hermitian string")
        vec = (p.x_bits << 64 * _words(self.n)) | p.z_bits
        acc, prod = 0, PauliString.identity(self.n)
        for bit in _bit_positions(vec):
            if bit in self._basis:
                bvec, bprod = self._basis[bit]
                acc ^= bvec
                prod = prod * bprod
        if acc != vec:
            return 0
        return 1 if prod.phase_exp == p.phase_exp else -1

    def expectations(self, h: PauliHamiltonian) -> np.ndarray:
        """Exact expectations of every term of ``h``, as int8 -1, 0 or +1.

        Batched form of ``expectation`` on the same reduced basis.  A term's
        decomposition is the set of basis rows at its set pivot bits; it lies
        in the group when those rows XOR to it.  The product of the rows, each
        written i^e_k X^x_k Z^z_k, is i^(sum e_k + 2 sum_{a<b} |z_a & x_b|)
        X^x Z^z, and the term is i^|x & z| X^x Z^z, so the sign is read from
        that exponent minus |x & z|, mod 4 (Aaronson and Gottesman, PRA 70,
        052328 (2004)).  The terms are read from ``h.x`` and ``h.z`` one
        fixed-size block at a time.
        """
        if h.n != self.n:
            raise ValueError("qubit count mismatch")
        n, half = self.n, _words(self.n)
        words = 2 * half
        vecs, elems = zip(*self._basis.values())
        # Basis row n is padding: a zero row with no phase and no overlaps.
        row_vecs = np.zeros((n + 1, words), dtype=np.uint64)
        row_vecs[:n] = _pack(vecs, words)
        row_phase = np.zeros(n + 1, dtype=np.int64)
        row_phase[:n] = [g.phase_exp + (g.x_bits & g.z_bits).bit_count() for g in elems]
        zx = np.zeros((n + 1, n + 1), dtype=np.int64)
        zx[:n, :n] = _odd_overlaps(
            _pack([g.z_bits for g in elems], half), _pack([g.x_bits for g in elems], half)
        )
        row_at = np.full(64 * words, -1, dtype=np.intp)
        row_at[list(self._basis)] = np.arange(n)

        out = np.empty(len(h), dtype=np.int8)
        for start in range(0, len(h), _TERM_BLOCK):
            x, z = h.x[start : start + _TERM_BLOCK], h.z[start : start + _TERM_BLOCK]
            term_vecs = np.concatenate([z, x], axis=1)
            term, bit = _set_bits(term_vecs)
            row = row_at[bit]
            term, row = term[row >= 0], row[row >= 0]
            counts = np.bincount(term, minlength=len(x))
            slot = np.arange(len(term)) - (np.cumsum(counts) - counts)[term]
            chosen = np.full((len(x), counts.max(initial=0)), n)
            chosen[term, slot] = row
            acc = np.zeros_like(term_vecs)
            phase = -np.bitwise_count(x & z).sum(axis=1, dtype=np.int64)
            for a in range(chosen.shape[1]):
                acc ^= row_vecs[chosen[:, a]]
                phase += row_phase[chosen[:, a]]
                for b in range(a):
                    phase += 2 * zx[chosen[:, b], chosen[:, a]]
            member = (acc == term_vecs).all(axis=1)
            out[start : start + len(x)] = np.where(member, 1 - phase % 4, 0)
        return out

    def energy(self, h: PauliHamiltonian) -> float:
        """Stabilizer energy: coefficients times exact expectations.

        The products are added left to right in term order, starting from
        +0.0, with ``np.cumsum``.  Builtin ``sum`` would leave the order to the
        interpreter: from Python 3.12 on it uses compensated summation for
        floats, so the energies (and the sweep bytes and selection ties built
        on them) would depend on the Python version.
        """
        if h.n != self.n:
            raise ValueError("qubit count mismatch")
        products = h.coeffs * self.expectations(h)
        return float(np.cumsum(np.concatenate(([0.0], products)))[-1])

    # -- Clifford action -----------------------------------------------------

    def conjugate(self, gate: CliffordGate) -> "StabilizerGroup":
        return StabilizerGroup(self.n, tuple(conjugate_pauli(g, gate) for g in self.generators))

    def conjugate_circuit(self, gates) -> "StabilizerGroup":
        """Conjugate the generators through every gate in order.

        Clifford conjugation keeps the generators commuting and independent,
        so the group is built and checked once, on the result.
        """
        gens = self.generators
        for gate in gates:
            gens = tuple(conjugate_pauli(g, gate) for g in gens)
        return StabilizerGroup(self.n, gens)

    # -- states ----------------------------------------------------------------

    def to_statevector(self) -> np.ndarray:
        """The unique stabilized state, global phase canonicalized."""
        if self.n > STATEVECTOR_QUBIT_LIMIT:
            raise ResourceLimitError(
                f"statevector extraction guarded at n <= {STATEVECTOR_QUBIT_LIMIT}"
            )
        b = self._compatible_basis_state()
        vec = np.zeros(1 << self.n, dtype=complex)
        vec[b] = 1.0
        for g in self.generators:
            vec = (vec + g.apply(vec)) / 2.0
        norm = np.linalg.norm(vec)
        if norm < 1e-9:
            raise ValueError("projector product annihilated the seed state")
        return canonical_phase(vec / norm)

    def _compatible_basis_state(self) -> int:
        """A basis index with nonzero amplitude, read off the reduced basis.

        Rows pivoted in the z half have x = 0, and together they are the fully
        reduced basis of the Z-only subgroup.  Each demands (-1)^(z.b) equal
        its sign; setting b to one exactly at the pivots of the negative rows
        meets every demand, since each row's z has a one at its own pivot and
        zeros at the other rows' pivots.
        """
        shift = 64 * _words(self.n)
        b = 0
        for pivot, (_, elem) in self._basis.items():
            if pivot < shift and elem.phase_exp == 2:
                b |= 1 << pivot
        return b

    def to_graph_state(self) -> "GraphStateForm":
        return _reduce_to_graph(self)


@dataclass
class GraphStateForm:
    """A graph-state presentation of a stabilizer state.

    ``adjacency`` is the symmetric zero-diagonal edge matrix of the graph,
    and ``local_cliffords[q]`` is a single-qubit operator written as a letter
    product (leftmost letter outermost) such that applying them to the graph
    state recovers the original stabilizer state.
    """

    n: int
    adjacency: np.ndarray
    local_cliffords: tuple[str, ...]

    def to_statevector(self) -> np.ndarray:
        vec = prepare_graph_state(self.adjacency)
        for qubit, label in enumerate(self.local_cliffords, start=1):
            if label != "I":
                vec = apply_local_label(vec, self.n, qubit, label)
        return canonical_phase(vec)


_INVERSE_LETTERS = {"H": "H", "Z": "Z", "X": "X", "Y": "Y", "S": "SZ"}


def _rref_x(rows: list[PauliString], n: int) -> tuple[list[PauliString], list[int]]:
    """Gauss-Jordan over the X block; row operations are group products."""
    rows = list(rows)
    pivots = []
    r = 0
    for qubit in range(1, n + 1):
        mask = 1 << (n - qubit)
        hit = next((i for i in range(r, len(rows)) if rows[i].x_bits & mask), None)
        if hit is None:
            continue
        rows[r], rows[hit] = rows[hit], rows[r]
        for i in range(len(rows)):
            if i != r and rows[i].x_bits & mask:
                rows[i] = rows[i] * rows[r]
        pivots.append(qubit)
        r += 1
    return rows, pivots

def _reduce_to_graph(group: StabilizerGroup) -> GraphStateForm:
    n = group.n
    rows = list(group.generators)
    applied: list[tuple[str, int]] = []

    for _ in range(n + 1):
        rows, pivots = _rref_x(rows, n)
        if len(pivots) == n:
            break
        deficient = rows[len(pivots)]
        free = [q for q in range(1, n + 1) if q not in pivots]
        target = next(
            (q for q in free if deficient.z_bits & (1 << (n - q))), None
        )
        if target is None:
            raise ValueError("generator matrix cannot be completed to a graph form")
        gate = CliffordGate("H", (target,))
        rows = [conjugate_pauli(g, gate) for g in rows]
        applied.append(("H", target))
    else:
        raise ValueError("graph reduction failed to reach full X rank")

    # Clear the Z diagonal with S; with X = identity, S on qubit q only
    # touches row q.
    for qubit in range(1, n + 1):
        if rows[qubit - 1].z_bits & (1 << (n - qubit)):
            gate = CliffordGate("S", (qubit,))
            rows = [conjugate_pauli(g, gate) for g in rows]
            applied.append(("S", qubit))

    # Fix signs with Z; Z on qubit q flips exactly row q.
    for qubit in range(1, n + 1):
        if rows[qubit - 1].phase_exp == 2:
            gate = CliffordGate("Z", (qubit,))
            rows = [conjugate_pauli(g, gate) for g in rows]
            applied.append(("Z", qubit))

    if any(row.x_bits != 1 << (n - q) for q, row in enumerate(rows, start=1)):
        raise AssertionError("graph reduction left a non-identity X block")
    adjacency = np.array(
        [[(row.z_bits >> (n - q)) & 1 for q in range(1, n + 1)] for row in rows],
        dtype=np.int8,
    )
    if not np.array_equal(adjacency, adjacency.T) or adjacency.diagonal().any():
        raise AssertionError("graph reduction left an invalid adjacency block")
    if any(row.phase_exp for row in rows):
        raise AssertionError("graph reduction left unresolved signs")

    # The applied gates U map the input group onto the graph group, so the
    # original state is U^dag applied to the graph state.
    inverses: list[str] = ["" for _ in range(n)]
    for name, qubit in applied:
        inverses[qubit - 1] = inverses[qubit - 1] + _INVERSE_LETTERS[name]
    labels = tuple(lbl.replace("SS", "Z") if lbl else "I" for lbl in inverses)
    return GraphStateForm(n, adjacency, labels)


def prepare_graph_state(adjacency: np.ndarray) -> np.ndarray:
    """|G> = prod_edges CZ applied to the uniform |+...+> state."""
    adjacency = np.asarray(adjacency)
    n = adjacency.shape[0]
    if adjacency.shape != (n, n):
        raise ValueError("adjacency must be square")
    if not np.array_equal(adjacency, adjacency.T) or adjacency.diagonal().any():
        raise ValueError("adjacency must be symmetric with zero diagonal")
    if n > STATEVECTOR_QUBIT_LIMIT:
        raise ResourceLimitError(f"graph state guarded at n <= {STATEVECTOR_QUBIT_LIMIT}")
    vec = np.full(1 << n, 1.0 / np.sqrt(1 << n), dtype=complex)
    for i in range(n):
        for j in range(i + 1, n):
            if adjacency[i, j]:
                vec = apply_gate(vec, n, CliffordGate("CZ", (i + 1, j + 1)))
    return vec


def graph_state_group(adjacency: np.ndarray) -> StabilizerGroup:
    """The stabilizer group X_i prod_{j in neighborhood(i)} Z_j of a graph."""
    adjacency = np.asarray(adjacency)
    n = adjacency.shape[0]
    gens = []
    for i in range(n):
        ops = {i + 1: "X"}
        for j in range(n):
            if adjacency[i, j]:
                ops[j + 1] = "Z"
        gens.append(PauliString.from_ops(n, ops))
    return StabilizerGroup(n, tuple(gens))
