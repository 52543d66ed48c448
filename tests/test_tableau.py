"""Tableau engine tests against dense linear-algebra oracles."""

import numpy as np
import pytest
from hypothesis import given, strategies as st

from stabsplit.lmg import LmgParams, build_lmg, candidate_groups, symmetry_breaking_group
from test_lmg import reference_candidates, reference_terms
from stabsplit.pauli import PauliHamiltonian, PauliString, _words, canonical_phase
from stabsplit.tableau import (
    CliffordGate,
    StabilizerGroup,
    _odd_overlaps,
    apply_circuit,
    apply_gate,
    conjugate_pauli,
    graph_state_group,
    prepare_graph_state,
)


def pair_group_xx(n):
    """<X_i X_n for i < n, (-1)^n Z_1..Z_n> on n qubits."""
    gens = [PauliString.from_ops(n, {i: "X", n: "X"}) for i in range(1, n)]
    gens.append(
        PauliString.from_ops(n, {q: "Z" for q in range(1, n + 1)}, phase_exp=0 if n % 2 == 0 else 2)
    )
    return StabilizerGroup(n, tuple(gens))


def random_clifford_circuit(rng, n, depth):
    gates = []
    for _ in range(depth):
        kind = rng.integers(0, 7) if n > 1 else rng.integers(0, 5)
        q = int(rng.integers(1, n + 1))
        if kind <= 4:
            gates.append(CliffordGate("HSXYZ"[kind], (q,)))
        else:
            r = int(rng.integers(1, n + 1))
            while r == q:
                r = int(rng.integers(1, n + 1))
            gates.append(CliffordGate("CX" if kind == 5 else "CZ", (q, r)))
    return gates


def random_group(rng, n, depth=20):
    gens = tuple(
        PauliString.from_ops(n, {q: "Z"}, phase_exp=2 * int(rng.integers(0, 2)))
        for q in range(1, n + 1)
    )
    return StabilizerGroup(n, gens).conjugate_circuit(random_clifford_circuit(rng, n, depth))


class TestValidation:
    def test_rejects_anticommuting(self):
        with pytest.raises(ValueError):
            StabilizerGroup.from_labels(["+X1", "+Z1"], 1)

    def test_names_first_anticommuting_pair(self):
        # (1, 3) and (2, 3) anticommute; the message names the first in (i, j) order.
        with pytest.raises(ValueError, match=r"\+X3 and \+X1Z3 anticommute"):
            StabilizerGroup.from_labels(["+X3", "+Z1", "+X1Z3"], 3)

    def test_anticommuting_pair_across_words(self):
        # 65 qubits span two 64-bit words; Z1 and X1 sit in the high word.
        labels = [f"+Z{q}" for q in range(1, 65)] + ["+X1"]
        with pytest.raises(ValueError, match=r"\+Z1 and \+X1 anticommute"):
            StabilizerGroup.from_labels(labels, 65)

    def test_rejects_dependent(self):
        with pytest.raises(ValueError):
            StabilizerGroup.from_labels(["+Z1", "+Z2", "+Z1Z2"], 3)

    def test_rejects_non_hermitian_sign(self):
        with pytest.raises(ValueError):
            StabilizerGroup(1, (PauliString.parse("+iZ1", 1),))

    def test_rejects_wrong_count(self):
        with pytest.raises(ValueError):
            StabilizerGroup.from_labels(["+Z1"], 2)


class TestExpectation:
    def test_all_down_state(self):
        g = StabilizerGroup.from_labels(["-Z1", "-Z2"], 2)
        assert g.expectation(PauliString.parse("+Z1", 2)) == -1
        assert g.expectation(PauliString.parse("+Z1Z2", 2)) == 1
        assert g.expectation(PauliString.parse("+X1", 2)) == 0

    def test_bell_state(self):
        g = StabilizerGroup.from_labels(["+X1X2", "+Z1Z2"], 2)
        assert g.expectation(PauliString.parse("+Y1Y2", 2)) == -1
        assert g.expectation(PauliString.parse("+X1X2", 2)) == 1
        assert g.expectation(PauliString.parse("+Z1", 2)) == 0

    def test_identity_expectation(self):
        g = StabilizerGroup.from_labels(["-Z1"], 1)
        assert g.expectation(PauliString.identity(1)) == 1

    def test_against_statevector_oracle(self):
        rng = np.random.default_rng(42)
        for n in (2, 3, 4, 5):
            for _ in range(8):
                g = random_group(rng, n)
                psi = g.to_statevector()
                for _ in range(12):
                    p = PauliString(
                        n,
                        int(rng.integers(0, 1 << n)),
                        int(rng.integers(0, 1 << n)),
                        2 * int(rng.integers(0, 2)),
                    )
                    want = np.vdot(psi, p.dense() @ psi)
                    assert abs(g.expectation(p) - want) < 1e-10

    def test_spectrum_of_expectations(self):
        # Over all 4^n unsigned strings exactly 2^n expectations are nonzero,
        # each exactly +/-1.
        rng = np.random.default_rng(9)
        for n in (2, 3, 4):
            g = random_group(rng, n)
            values = [
                g.expectation(PauliString(n, x, z, 0))
                for x in range(1 << n)
                for z in range(1 << n)
            ]
            nonzero = [v for v in values if v != 0]
            assert len(nonzero) == 1 << n
            assert all(v in (-1, 1) for v in nonzero)


class TestEnergy:
    def test_two_spin_example(self):
        # 0.5 Z1 + 0.5 Z2 - X1X2 + Y1Y2 on the <X1X2, -Y1Y2> group gives -2.
        n = 2
        h = PauliHamiltonian.from_terms(
            n,
            [
                (0.5, PauliString.parse("+Z1", n)),
                (0.5, PauliString.parse("+Z2", n)),
                (-1.0, PauliString.parse("+X1X2", n)),
                (1.0, PauliString.parse("+Y1Y2", n)),
            ],
        )
        g = StabilizerGroup.from_labels(["+X1X2", "-Y1Y2"], n)
        assert g.energy(h) == pytest.approx(-2.0, abs=1e-14)

    def test_against_dense_oracle(self):
        rng = np.random.default_rng(4)
        n = 4
        for _ in range(6):
            g = random_group(rng, n)
            psi = g.to_statevector()
            terms = []
            for _ in range(7):
                p = PauliString(n, int(rng.integers(0, 1 << n)), int(rng.integers(0, 1 << n)), 0)
                terms.append((float(rng.normal()), p))
            h = PauliHamiltonian.from_terms(n, terms)
            dense_val = np.vdot(psi, h.dense() @ psi).real
            assert g.energy(h) == pytest.approx(dense_val, abs=1e-10)


def scalar_energy(group, h):
    """Left-to-right sum of coefficients times scalar expectations."""
    total = 0.0
    for coeff, s in h.terms:
        total += coeff * group.expectation(s)
    return total


def assert_batched_matches_scalar(group, h):
    got = group.expectations(h)
    assert got.dtype == np.int8
    assert list(got) == [group.expectation(s) for _, s in h.terms]
    assert group.energy(h) == scalar_energy(group, h)


@st.composite
def conjugated_graph_states(draw, max_n=8):
    """A random graph state's group conjugated by a random Clifford circuit."""
    n = draw(st.integers(1, max_n))
    adjacency = np.zeros((n, n), dtype=np.int8)
    for i in range(n):
        for j in range(i + 1, n):
            adjacency[i, j] = adjacency[j, i] = draw(st.booleans())
    single = st.builds(
        lambda name, q: CliffordGate(name, (q,)), st.sampled_from("HSXYZ"), st.integers(1, n)
    )
    gate = single
    if n > 1:
        pair = st.permutations(range(1, n + 1)).map(lambda p: p[:2])
        gate = st.one_of(single, st.builds(CliffordGate, st.sampled_from(["CX", "CZ"]), pair))
    return graph_state_group(adjacency).conjugate_circuit(draw(st.lists(gate, max_size=24)))


@st.composite
def groups_with_hamiltonians(draw):
    """A group and a Pauli sum mixing random strings with signed group elements."""
    group = draw(conjugated_graph_states())
    n = group.n
    coeff = st.floats(-2.0, 2.0, allow_nan=False)
    bits = st.integers(0, (1 << n) - 1)
    terms = [
        (draw(coeff), PauliString(n, x, z, 0))
        for x, z in draw(st.lists(st.tuples(bits, bits), max_size=30))
    ]
    for subset in draw(st.lists(st.lists(st.booleans(), min_size=n, max_size=n), max_size=12)):
        element = PauliString.identity(n)
        for g, used in zip(group.generators, subset):
            if used:
                element = element * g
        terms.append((draw(coeff), element))
    order = draw(st.permutations(range(len(terms))))
    return group, PauliHamiltonian.from_terms(n, [terms[i] for i in order])


class TestBatchedExpectations:
    @given(groups_with_hamiltonians())
    def test_matches_scalar_oracle(self, case):
        assert_batched_matches_scalar(*case)

    @pytest.mark.parametrize("n", [63, 64, 65, 128, 129])
    def test_lmg_candidates_at_word_boundaries(self, n):
        params = LmgParams(n, 3.0, -1.0)
        h = build_lmg(params)
        for cand in candidate_groups(h, params):
            assert_batched_matches_scalar(cand.group, h)

    @pytest.mark.parametrize("n", [64, 65, 100])
    def test_dense_strings_across_words(self, n):
        rng = np.random.default_rng(n)
        group = random_group(rng, n, depth=6 * n)
        terms = []
        for _ in range(40):
            element = PauliString.identity(n)
            for g in group.generators:
                if rng.integers(0, 2):
                    element = element * g
            terms.append((float(rng.normal()), element))
            x, z = (int.from_bytes(rng.bytes(17), "little") % (1 << n) for _ in range(2))
            terms.append((float(rng.normal()), PauliString(n, x, z, 0)))
        h = PauliHamiltonian.from_terms(n, terms)
        assert (group.expectations(h) != 0).sum() >= 40
        assert_batched_matches_scalar(group, h)

    def test_identity_and_empty_hamiltonians(self):
        g = StabilizerGroup.from_labels(["-Z1", "+X2"], 2)
        h = PauliHamiltonian.from_terms(2, [(0.5, PauliString.identity(2))])
        assert list(g.expectations(h)) == [1]
        assert g.energy(h) == 0.5
        empty = PauliHamiltonian.from_terms(2, ())
        assert g.expectations(empty).shape == (0,)
        assert g.energy(empty) == 0.0


def reference_basis(group):
    """The reduced basis by Gauss-Jordan on ``PauliString`` products: pivot
    bit -> (vector, signed element), pivots in the order they appear.  Each
    generator is reduced by the rows at its set pivot bits; its highest
    remaining bit becomes a pivot, and every earlier row holding that bit
    takes the new row in, as a vector XOR and a group product."""
    basis = {}
    shift = 64 * _words(group.n)
    for g in group.generators:
        vec, prod = (g.x_bits << shift) | g.z_bits, g
        for bit in [b for b in range(vec.bit_length()) if (vec >> b) & 1]:
            if bit in basis:
                bvec, bprod = basis[bit]
                vec ^= bvec
                prod = prod * bprod
        assert vec, "generators are independent"
        pivot = vec.bit_length() - 1
        for other, (bvec, bprod) in list(basis.items()):
            if (bvec >> pivot) & 1:
                basis[other] = (bvec ^ vec, bprod * prod)
        basis[pivot] = (vec, prod)
    return basis


def assert_basis_matches_reference(group):
    assert list(group._basis.items()) == list(reference_basis(group).items())


class TestBasisMatchesReference:
    """The int-row elimination against ``PauliString`` products: the same
    pivots in the same order, the same vectors and the same signed elements."""

    @given(conjugated_graph_states())
    def test_random_groups(self, group):
        assert_basis_matches_reference(group)

    @pytest.mark.parametrize("n", [63, 64, 65, 100])
    def test_dense_groups_across_words(self, n):
        rng = np.random.default_rng(700 + n)
        assert_basis_matches_reference(random_group(rng, n, depth=6 * n))

    @pytest.mark.parametrize("n", [63, 64, 65, 128, 129, 200])
    def test_lmg_candidates_and_guard(self, n):
        for chi in (-1.0, 0.5):
            params = LmgParams(n, 3.0, chi)
            for cand in candidate_groups(build_lmg(params), params):
                assert_basis_matches_reference(cand.group)
        assert_basis_matches_reference(symmetry_breaking_group(n))


INT_ROWS = st.lists(st.integers(0, (1 << 192) - 1), min_size=1, max_size=12)


class TestOddOverlaps:
    @given(INT_ROWS, INT_ROWS)
    def test_matches_int_popcounts(self, a, b):
        got = _odd_overlaps(a, b)
        want = [[(ai & bj).bit_count() % 2 for bj in b] for ai in a]
        assert got.tolist() == want


class TestTermBits:
    """Each Hamiltonian's table of set-bit positions and its Y counts."""

    @pytest.mark.parametrize("n", [5, 64, 65, 100])
    def test_matches_strings(self, n):
        # n = 100 gives 10,000 terms: three blocks of ``expectations``, the
        # last one partial.
        params = LmgParams(n, 2.0, 0.5)
        h = build_lmg(params)
        pad = 128 * _words(n)
        strings = [s for c, s in reference_terms(params) if c != 0.0]
        assert h.positions.dtype == h.y_counts.dtype == np.int32
        assert h.positions.shape == (len(strings), 4)
        for s, row, count in zip(strings, h.positions.tolist(), h.y_counts.tolist(), strict=True):
            vec = (s.x_bits << pad // 2) | s.z_bits
            bits = [b for b in range(vec.bit_length()) if (vec >> b) & 1]
            assert row == bits + [pad] * (len(row) - len(bits))
            assert count == (s.x_bits & s.z_bits).bit_count()

    def test_identity_only_block_has_one_pad_column(self):
        h = PauliHamiltonian.from_terms(3, [(1.0, PauliString.identity(3))])
        assert h.positions.tolist() == [[128]] and h.y_counts.tolist() == [0]
        assert PauliHamiltonian.from_terms(3, []).positions.shape == (0, 1)


class TestConjugation:
    def test_single_qubit_rules(self):
        x, y, z = (PauliString.parse(f"+{c}1", 1) for c in "XYZ")
        h, s = CliffordGate("H", (1,)), CliffordGate("S", (1,))
        assert conjugate_pauli(x, h) == z
        assert conjugate_pauli(z, h) == x
        assert conjugate_pauli(y, h) == y.negate()
        assert conjugate_pauli(x, s) == y
        assert conjugate_pauli(y, s) == x.negate()
        assert conjugate_pauli(z, s) == z

    def test_cx_cz_rules(self):
        n = 2
        cx, cz = CliffordGate("CX", (1, 2)), CliffordGate("CZ", (1, 2))
        assert conjugate_pauli(PauliString.parse("+X1", n), cx) == PauliString.parse("+X1X2", n)
        assert conjugate_pauli(PauliString.parse("+Z2", n), cx) == PauliString.parse("+Z1Z2", n)
        assert conjugate_pauli(PauliString.parse("+X1", n), cz) == PauliString.parse("+X1Z2", n)
        assert conjugate_pauli(PauliString.parse("+X1X2", n), cz) == PauliString.parse("+Y1Y2", n)

    def test_conjugation_matches_dense(self):
        rng = np.random.default_rng(31)
        for n in (1, 2, 3):
            for _ in range(60):
                p = PauliString(
                    n, int(rng.integers(0, 1 << n)), int(rng.integers(0, 1 << n)),
                    int(rng.integers(0, 4)),
                )
                gates = random_clifford_circuit(rng, n, 1)
                gate = gates[0]
                u = np.eye(1 << n, dtype=complex)
                u = np.array([apply_gate(col.astype(complex), n, gate) for col in u.T]).T
                got = conjugate_pauli(p, gate)
                assert np.allclose(got.dense(), u @ p.dense() @ u.conj().T)

    def test_group_conjugation_matches_state_action(self):
        rng = np.random.default_rng(8)
        for n in (2, 3, 4):
            for _ in range(10):
                g = random_group(rng, n, depth=12)
                circuit = random_clifford_circuit(rng, n, 6)
                lhs = g.conjugate_circuit(circuit).to_statevector()
                rhs = canonical_phase(apply_circuit(g.to_statevector(), n, circuit))
                assert np.allclose(lhs, rhs, atol=1e-10)

    @pytest.mark.parametrize("n, depth", [(1, 20), (2, 30), (5, 60), (8, 80), (100, 200)])
    def test_circuit_matches_gate_by_gate(self, n, depth):
        # conjugate_circuit builds one group at the end; the reference builds
        # and checks one group per gate.  Generators and signs must agree.
        rng = np.random.default_rng(100 + n)
        for _ in range(5 if n <= 8 else 1):
            start = StabilizerGroup(
                n,
                tuple(
                    PauliString.from_ops(n, {q: "Z"}, phase_exp=2 * int(rng.integers(0, 2)))
                    for q in range(1, n + 1)
                ),
            )
            circuit = random_clifford_circuit(rng, n, depth)
            stepwise = start
            for gate in circuit:
                stepwise = stepwise.conjugate(gate)
            assert start.conjugate_circuit(circuit).generators == stepwise.generators
        assert start.conjugate_circuit([]).generators == start.generators


class TestToStatevector:
    def test_all_down(self):
        g = StabilizerGroup.from_labels(["-Z1", "-Z2"], 2)
        v = np.zeros(4)
        v[0b11] = 1.0
        assert np.allclose(g.to_statevector(), v)

    def test_three_qubit_pair_state(self):
        # (|111> + |100> + |010> + |001>)/2 stabilized by X-pairs and -Z1Z2Z3.
        psi = pair_group_xx(3).to_statevector()
        want = np.zeros(8)
        for label in ("111", "100", "010", "001"):
            want[int(label, 2)] = 0.5
        assert np.allclose(psi, want, atol=1e-12)

    def test_four_qubit_pair_state(self):
        psi = pair_group_xx(4).to_statevector()
        want = np.zeros(16)
        for label in ("0000", "0011", "0101", "0110", "1001", "1010", "1100", "1111"):
            want[int(label, 2)] = 1 / np.sqrt(8)
        assert np.allclose(psi, want, atol=1e-12)

    def test_stabilizes_its_state(self):
        rng = np.random.default_rng(77)
        for n in (2, 3, 5):
            g = random_group(rng, n)
            psi = g.to_statevector()
            for gen in g.generators:
                assert np.allclose(gen.apply(psi), psi, atol=1e-10)


def reference_basis_state(group):
    """The seed index by two separate eliminations: Gauss-Jordan over the X
    block, then over the Z-only rows left below it.  It must equal the index
    ``_compatible_basis_state`` reads off the reduced basis."""
    n = group.n
    rows = list(group.generators)
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
        r += 1
    solved = {}
    for g in rows[r:]:
        zmask, rhs = g.z_bits, g.phase_exp // 2
        for pivot, (pz, prhs) in solved.items():
            if (zmask >> pivot) & 1:
                zmask ^= pz
                rhs ^= prhs
        assert zmask, "Z-only rows are independent"
        pivot = zmask.bit_length() - 1
        for other in list(solved):
            oz, orhs = solved[other]
            if (oz >> pivot) & 1:
                solved[other] = (oz ^ zmask, orhs ^ rhs)
        solved[pivot] = (zmask, rhs)
    return sum(1 << pivot for pivot, (_, rhs) in solved.items() if rhs)


def reference_statevector(group):
    """``to_statevector`` seeded by ``reference_basis_state``."""
    vec = np.zeros(1 << group.n, dtype=complex)
    vec[reference_basis_state(group)] = 1.0
    for g in group.generators:
        vec = (vec + g.apply(vec)) / 2.0
    return canonical_phase(vec / np.linalg.norm(vec))


def assert_seed_matches_reference(group):
    assert group._compatible_basis_state() == reference_basis_state(group)
    if group.n <= 12:
        assert group.to_statevector().tobytes() == reference_statevector(group).tobytes()


class TestSeedFromReducedBasis:
    @given(conjugated_graph_states())
    def test_matches_reference_on_random_groups(self, group):
        assert_seed_matches_reference(group)

    @pytest.mark.parametrize("n", range(2, 13))
    def test_matches_reference_on_lmg_candidates(self, n):
        # Every sign pattern of each family up to n = 6, the optimal groups above.
        candidates = reference_candidates if n <= 6 else candidate_groups
        for chi in (-1.0, 0.0, 0.5, 1.0):
            params = LmgParams(n, 1.0, chi)
            for cand in candidates(build_lmg(params), params):
                assert_seed_matches_reference(cand.group)

    @pytest.mark.parametrize("n", [63, 64, 65, 100])
    def test_matches_reference_across_words(self, n):
        rng = np.random.default_rng(500 + n)
        for _ in range(3):
            assert_seed_matches_reference(random_group(rng, n, depth=6 * n))


class TestGraphState:
    def test_prepare_single_edge(self):
        adj = np.array([[0, 1], [1, 0]])
        want = np.array([1, 1, 1, -1]) / 2.0
        assert np.allclose(prepare_graph_state(adj), want)

    def test_graph_group_roundtrip(self):
        adj = np.array([[0, 1, 0], [1, 0, 1], [0, 1, 0]])
        g = graph_state_group(adj)
        assert np.allclose(g.to_statevector(), prepare_graph_state(adj), atol=1e-12)

    def test_pair_group_reduces_to_star(self):
        for n in (3, 4, 5, 6, 8):
            form = pair_group_xx(n).to_graph_state()
            star = np.zeros((n, n), dtype=np.int8)
            star[: n - 1, n - 1] = 1
            star[n - 1, : n - 1] = 1
            assert np.array_equal(form.adjacency, star), n
            # Hadamard lands on the hub qubit; odd n needs a sign correction.
            assert form.local_cliffords[n - 1].startswith("H")
            assert all(lbl == "I" for lbl in form.local_cliffords[: n - 1])

    def test_all_down_reduces_to_empty_graph(self):
        form = StabilizerGroup.from_labels(["-Z1", "-Z2"], 2).to_graph_state()
        assert not form.adjacency.any()
        # Each local operator must map |+> to |1>.
        plus = np.array([1, 1]) / np.sqrt(2)
        from stabsplit.tableau import _LOCAL_MATS

        for lbl in form.local_cliffords:
            mat = np.eye(2, dtype=complex)
            for letter in lbl:
                mat = mat @ _LOCAL_MATS[letter]
            got = canonical_phase(mat @ plus)
            assert np.allclose(got, [0, 1], atol=1e-12)

    def test_graph_form_reproduces_state(self):
        rng = np.random.default_rng(123)
        for n in (2, 3, 4, 5, 6):
            for _ in range(8):
                g = random_group(rng, n)
                form = g.to_graph_state()
                assert np.allclose(form.to_statevector(), g.to_statevector(), atol=1e-10)


class TestHadamardColumnExchange:
    def test_h_on_last_qubit_gives_graph_generators(self):
        # Conjugating the n=4 pair group by H on qubit 4 exchanges that
        # column's X and Z entries, leaving the star-graph generators.
        g = pair_group_xx(4).conjugate(CliffordGate("H", (4,)))
        want = StabilizerGroup.from_labels(["+X1Z4", "+X2Z4", "+X3Z4", "+Z1Z2Z3X4"], 4)
        assert set(g.generators) == set(want.generators)
