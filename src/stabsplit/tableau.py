"""Signed stabilizer tableaux: expectations, Clifford conjugation, states.

A stabilizer group on n qubits is held as n signed, pairwise commuting,
independent Hermitian Pauli generators.  Membership queries run over GF(2)
with exact sign tracking, so Pauli expectations in a stabilizer state are
returned exactly as -1, 0, or +1, one string at a time or for every term of
a Hamiltonian at once.  The reduced basis is eliminated on int rows with int
phase exponents; the batched path reads the Hamiltonian's position table and
gathers anticommutation columns, basis-row phases and pairwise overlaps at
each term's set bits, a fixed number per term.  Statevector extraction
multiplies the projectors (1 + g)/2 onto a compatible computational basis
state, and the graph-state reduction brings the generator matrix to
(identity | adjacency) form with tracked local Cliffords.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property, reduce

import numpy as np

from .pauli import (
    PauliString,
    PauliHamiltonian,
    ResourceLimitError,
    canonical_phase,
    _bit_positions,
    _indices,
    _product_exponent,
    _words,
    _xz_exponent,
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

# ``StabilizerGroup.expectations`` evaluates terms this many at a time, which
# bounds the temporaries at any Hamiltonian size.
_TERM_BLOCK = 4096


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


def hamiltonian_energy(h: PauliHamiltonian, expectations: np.ndarray) -> float:
    """Coefficients of ``h`` times per-term expectations, summed.

    The products are added left to right in term order, starting from +0.0,
    with ``np.cumsum``.  Builtin ``sum`` would leave the order to the
    interpreter: from Python 3.12 on it uses compensated summation for
    floats, so the energies (and the sweep bytes and selection ties built on
    them) would depend on the Python version.
    """
    products = h.coeffs * expectations
    return float(np.cumsum(np.concatenate(([0.0], products)))[-1])


def _pack(values, words: int) -> np.ndarray:
    """Python-int bit rows as a (len(values), words) array of uint64 words,
    least significant word first."""
    data = b"".join(v.to_bytes(8 * words, "little") for v in values)
    return np.frombuffer(data, dtype="<u8").reshape(-1, words)


def _columns(rows: list[int]) -> dict[int, int]:
    """The nonzero bit columns of int rows: bit c -> mask of the rows holding
    it."""
    columns: dict[int, int] = {}
    for i, row in enumerate(rows):
        for c in _bit_positions(row):
            columns[c] = columns.get(c, 0) | 1 << i
    return columns


def _odd_overlaps(a: list[int], b: list[int]) -> np.ndarray:
    """Parity of |a_i & b_j| for every pair of int rows, as a uint8 matrix.

    Row j of the transposed result is the XOR of the columns of ``a`` at the
    set bits of ``b_j``, so the work follows the one bits.
    """
    columns = _columns(a)
    rows = []
    for row in b:
        acc = 0
        for c in _bit_positions(row):
            acc ^= columns.get(c, 0)
        rows.append(acc)
    bits = np.unpackbits(_pack(rows, _words(len(a))).view(np.uint8), axis=1, bitorder="little")
    return bits[:, : len(a)].T


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
        overlaps = _odd_overlaps([g.x_bits for g in gens], [g.z_bits for g in gens])
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

    # -- GF(2) machinery -----------------------------------------------------

    @cached_property
    def _basis(self) -> dict[int, tuple[int, PauliString]]:
        """Fully reduced (Gauss-Jordan) symplectic basis: pivot bit -> (vector,
        group element).

        Vectors pack (x_bits << 64 w) | z_bits with w = ``_words(n)``, so as
        uint64 words they are the z row followed by the x row, the layout of
        ``PauliHamiltonian.positions``.  Each vector has a one at its own
        pivot, its highest bit, and zeros at every other pivot, so a vector in
        the span is the XOR of the rows at its set pivot bits.  Each stored
        element is the exact signed product of original generators whose
        vectors XOR to ``vector``.

        The elimination runs on int rows: each row is i^e X^x Z^z with an int
        exponent e, and a product of rows is one ``_product_exponent``.  The
        rows holding a bit are read from a per-bit mask over the pivots, so
        clearing a new pivot touches only those rows.  The elements become
        ``PauliString``s once, at the end.
        """
        shift = 64 * _words(self.n)
        low = (1 << shift) - 1
        vecs: dict[int, int] = {}  # pivot -> vector
        exps: dict[int, int] = {}  # pivot -> exponent e of i^e X^x Z^z
        holders: dict[int, int] = {}  # bit -> mask of the pivots whose rows hold it
        pivots = 0
        for g in self.generators:
            vec, e = (g.x_bits << shift) | g.z_bits, _xz_exponent(g)
            for p in _bit_positions(vec & pivots):
                e = _product_exponent(e, vec & low, exps[p], vecs[p] >> shift)
                vec ^= vecs[p]
            if not vec:
                raise ValueError("generators are not independent")
            pivot = vec.bit_length() - 1
            hit = holders.get(pivot, 0)
            for p in _bit_positions(hit):
                exps[p] = _product_exponent(exps[p], vecs[p] & low, e, vec >> shift)
                vecs[p] ^= vec
            # The rows in ``hit`` took on vec's bits, and the new row holds them.
            for bit in _bit_positions(vec):
                holders[bit] = holders.get(bit, 0) ^ hit ^ (1 << pivot)
            vecs[pivot], exps[pivot] = vec, e
            pivots |= 1 << pivot
        basis = {}
        for pivot, vec in vecs.items():
            x, z = vec >> shift, vec & low
            basis[pivot] = (vec, PauliString(self.n, x, z, exps[pivot] - (x & z).bit_count()))
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

        Batched form of ``expectation``, one block of ``_TERM_BLOCK`` rows of
        ``h.positions`` at a time, each step a fixed-width gather over the
        block.

        Membership: the group has n independent commuting generators on n
        qubits, so a Pauli lies in it up to sign exactly when it commutes with
        every generator.  Column b of the anticommutation table marks the
        generators that anticommute with the single bit b; a term's syndrome
        is the XOR of the columns at its set bits and must be all zero.

        Sign: a member is the product of the reduced basis rows at its set
        pivot bits.  The product of rows i^e_k X^x_k Z^z_k is
        i^(sum e_k + 2 sum_{a<b} |z_a & x_b|) X^x Z^z, and the term is
        i^|x & z| X^x Z^z, so the sign is read from that exponent minus
        |x & z|, mod 4 (Aaronson and Gottesman, PRA 70, 052328 (2004)).
        """
        if h.n != self.n:
            raise ValueError("qubit count mismatch")
        n, half = self.n, _words(self.n)
        # Row b marks the generators that anticommute with the single bit b;
        # row 128 half, the table's pad, is zero.
        anti = _columns([(g.z_bits << 64 * half) | g.x_bits for g in self.generators])
        columns = np.zeros((128 * half + 1, half), dtype=np.uint64)
        columns[list(anti)] = _pack(anti.values(), half)

        elems = [elem for _, elem in self._basis.values()]
        # Basis row n is padding: no phase and no overlaps.  Every position
        # that is not a pivot, the table's pad included, reads it.
        row_at = np.full(128 * half + 1, n, dtype=np.intp)
        row_at[list(self._basis)] = np.arange(n)
        row_phase = np.zeros(n + 1, dtype=np.int32)
        row_phase[:n] = [_xz_exponent(g) for g in elems]
        zx = np.zeros((n + 1, n + 1), dtype=np.uint8)
        zx[:n, :n] = _odd_overlaps([g.z_bits for g in elems], [g.x_bits for g in elems])
        zx = zx.ravel()

        out = np.zeros(len(h), dtype=np.int8)
        for start in range(0, len(h), _TERM_BLOCK):
            bits = h.positions[start : start + _TERM_BLOCK]
            syndrome = np.take(columns, bits[:, 0], axis=0)
            for a in range(1, bits.shape[1]):
                syndrome ^= np.take(columns, bits[:, a], axis=0)
            member = np.flatnonzero(reduce(np.bitwise_or, syndrome.T) == 0)
            rows = row_at[bits[member]]
            phase = -h.y_counts[start + member]
            for a in range(rows.shape[1]):
                phase += row_phase[rows[:, a]]
                for b in range(a):
                    phase += 2 * zx[rows[:, b] * (n + 1) + rows[:, a]]
            out[start + member] = 1 - (phase & 2)
        return out

    def energy(self, h: PauliHamiltonian) -> float:
        """Stabilizer energy: ``hamiltonian_energy`` of the exact expectations."""
        return hamiltonian_energy(h, self.expectations(h))

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
