"""Pauli algebra tests, checked against dense-matrix oracles."""

import numpy as np
import pytest
from hypothesis import given, strategies as st

from stabsplit.adapt import pool
from stabsplit.lmg import LmgParams, build_lmg
from stabsplit.pauli import (
    PauliHamiltonian,
    PauliString,
    ResourceLimitError,
    _popcounts,
    _product_exponent,
    _sign_vector,
    _words,
    _xz_exponent,
    canonical_phase,
)

I2 = np.eye(2)
X = np.array([[0, 1], [1, 0]], dtype=complex)
Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
Z = np.array([[1, 0], [0, -1]], dtype=complex)
MATS = {"I": I2, "X": X, "Y": Y, "Z": Z}


def dense_oracle(letters, phase=1.0):
    """Independent dense build: phase times kron over qubit-ordered letters."""
    out = np.array([[phase]], dtype=complex)
    for c in letters:
        out = np.kron(out, MATS[c])
    return out


def random_string(rng, n):
    return PauliString(
        n, int(rng.integers(0, 1 << n)), int(rng.integers(0, 1 << n)), int(rng.integers(0, 4))
    )


class TestSingleQubitConvention:
    def test_letters_match_dense(self):
        for letter in "IXYZ":
            p = PauliString.from_ops(1, {} if letter == "I" else {1: letter})
            assert np.allclose(p.dense(), MATS[letter]), letter

    def test_y_is_ixz(self):
        x = PauliString.from_ops(1, {1: "X"})
        z = PauliString.from_ops(1, {1: "Z"})
        ixz = PauliString(1, 0, 0, 1) * x * z
        assert np.allclose(ixz.dense(), Y)
        assert ixz == PauliString.from_ops(1, {1: "Y"})

    def test_products_xy_yz_zx(self):
        x = PauliString.from_ops(1, {1: "X"})
        y = PauliString.from_ops(1, {1: "Y"})
        z = PauliString.from_ops(1, {1: "Z"})
        assert (x * y).render() == "+iZ1"
        assert (y * x).render() == "-iZ1"
        assert (y * z).render() == "+iX1"
        assert (z * x).render() == "+iY1"
        assert (x * x).render() == "+I"


class TestDense:
    def test_kron_order_puts_qubit_one_first(self):
        p = PauliString.from_ops(2, {1: "X", 2: "Z"})
        assert np.allclose(p.dense(), np.kron(X, Z))

    def test_phase_included(self):
        p = PauliString.from_ops(2, {1: "X"}, phase_exp=3)
        assert np.allclose(p.dense(), -1j * np.kron(X, I2))

    def test_guard(self):
        with pytest.raises(ResourceLimitError):
            PauliString.identity(15).dense()


class TestMultiplication:
    def test_zzz_times_xx_dense_oracle(self):
        # 8x8 matrix-product oracle for a three-qubit product with sign.
        a = PauliString.parse("+Z1Z2Z3", 3)
        b = PauliString.parse("+X1X3", 3)
        prod = a * b
        assert np.allclose(prod.dense(), dense_oracle("ZZZ") @ dense_oracle("XIX"))
        # ZX = iY on qubits 1 and 3, so the product is (iY)(Z)(iY) = -Y1 Z2 Y3.
        assert prod.render() == "-Y1Z2Y3"

    def test_random_products_match_dense(self):
        rng = np.random.default_rng(7)
        for n in (1, 2, 3, 4):
            for _ in range(40):
                a, b = random_string(rng, n), random_string(rng, n)
                assert np.allclose((a * b).dense(), a.dense() @ b.dense())

    def test_associativity_and_identity(self):
        rng = np.random.default_rng(11)
        e = PauliString.identity(3)
        for _ in range(30):
            a, b, c = (random_string(rng, 3) for _ in range(3))
            assert (a * b) * c == a * (b * c)
            assert a * e == a and e * a == a

    def test_hermitian_square_is_identity(self):
        rng = np.random.default_rng(13)
        for _ in range(30):
            a = random_string(rng, 4)
            if a.is_hermitian:
                assert (a * a) == PauliString.identity(4)


class TestCommutation:
    def test_against_dense_commutator(self):
        rng = np.random.default_rng(3)
        for n in (1, 2, 3):
            for _ in range(50):
                a, b = random_string(rng, n), random_string(rng, n)
                comm = a.dense() @ b.dense() - b.dense() @ a.dense()
                assert a.commutes(b) == np.allclose(comm, 0)

    def test_examples(self):
        n = 2
        assert PauliString.parse("+X1", n).commutes(PauliString.parse("+X1X2", n))
        assert not PauliString.parse("+Z1", n).commutes(PauliString.parse("+X1X2", n))


def strings(n):
    """Any Pauli string on n qubits, with any of the four phases."""
    bits = st.integers(0, (1 << n) - 1)
    return st.builds(PauliString, st.just(n), bits, bits, st.integers(0, 3))


def string_pairs(min_n, max_n):
    return st.integers(min_n, max_n).flatmap(lambda n: st.tuples(strings(n), strings(n)))


class TestAlgebraProperties:
    """Products, phases and commutation against dense matrices, and the
    integer phase rule of the tableau elimination against ``__mul__``."""

    @given(strings(1) | strings(2) | strings(3) | strings(4))
    def test_dense_is_phase_times_letters(self, p):
        letters = "".join(p.letter(q) for q in range(1, p.n + 1))
        assert p.phase == 1j**p.phase_exp
        assert np.array_equal(p.dense(), dense_oracle(letters, p.phase))
        assert p.is_hermitian == np.array_equal(p.dense(), p.dense().conj().T)

    @given(string_pairs(1, 4))
    def test_product_matches_dense(self, pair):
        a, b = pair
        assert np.array_equal((a * b).dense(), a.dense() @ b.dense())
        assert 0 <= (a * b).phase_exp < 4

    @given(string_pairs(1, 4))
    def test_commutes_matches_dense(self, pair):
        a, b = pair
        ab, ba = a.dense() @ b.dense(), b.dense() @ a.dense()
        assert a.commutes(b) == np.array_equal(ab, ba)
        assert a.commutes(b) != np.array_equal(ab, -ba)

    @given(string_pairs(63, 129))
    def test_integer_phase_rule_matches_product(self, pair):
        a, b = pair
        e = _product_exponent(_xz_exponent(a), a.z_bits, _xz_exponent(b), b.x_bits)
        product = a * b
        assert (product.x_bits, product.z_bits) == (a.x_bits ^ b.x_bits, a.z_bits ^ b.z_bits)
        assert product.phase_exp == (e - (product.x_bits & product.z_bits).bit_count()) % 4


class TestParseRender:
    def test_roundtrip_random(self):
        rng = np.random.default_rng(5)
        for n in (1, 2, 5, 9):
            for _ in range(40):
                p = random_string(rng, n)
                assert PauliString.parse(p.render(), n) == p

    def test_examples(self):
        assert PauliString.parse("-Z1Z2Z3", 3).render() == "-Z1Z2Z3"
        assert PauliString.parse("+iY2", 3).render() == "+iY2"
        assert PauliString.parse("+X1X2", 2).phase_exp == 0
        assert PauliString.parse("+I", 4) == PauliString.identity(4)

    def test_rejects_garbage(self):
        for bad in ("X1", "+Q1", "+X0", "+X5", ""):
            with pytest.raises(ValueError):
                PauliString.parse(bad, 4)


class TestApply:
    def test_apply_matches_dense(self):
        rng = np.random.default_rng(17)
        for n in (1, 2, 3, 4):
            for _ in range(25):
                p = random_string(rng, n)
                v = rng.normal(size=1 << n) + 1j * rng.normal(size=1 << n)
                assert np.allclose(p.apply(v), p.dense() @ v)

    def test_basis_convention(self):
        # X on qubit 1 of two flips the most significant index bit.
        p = PauliString.from_ops(2, {1: "X"})
        v = np.zeros(4, dtype=complex)
        v[0b00] = 1.0
        assert np.allclose(p.apply(v)[0b10], 1.0)


class TestPauliHamiltonian:
    def test_merges_and_folds_signs(self):
        n = 2
        h = PauliHamiltonian.from_terms(
            n,
            [
                (0.5, PauliString.parse("+Z1", n)),
                (0.25, PauliString.parse("-Z1", n)),
                (1.0, PauliString.parse("+X1X2", n)),
            ],
        )
        coeffs = {s.render(): c for c, s in h.terms}
        assert coeffs == {"+Z1": 0.25, "+X1X2": 1.0}

    def test_rejects_non_hermitian(self):
        with pytest.raises(ValueError):
            PauliHamiltonian.from_terms(1, [(1.0, PauliString.parse("+iY1", 1))])

    def test_dense_and_apply_agree(self):
        rng = np.random.default_rng(23)
        n = 3
        terms = [(float(rng.normal()), random_string(rng, n).unsigned()) for _ in range(6)]
        h = PauliHamiltonian.from_terms(n, terms)
        hd = h.dense()
        assert np.allclose(hd, hd.conj().T)
        v = rng.normal(size=8) + 1j * rng.normal(size=8)
        assert np.allclose(h.apply(v), hd @ v)

    def test_dense_real_even_y(self):
        n = 2
        h = PauliHamiltonian.from_terms(
            n, [(0.7, PauliString.parse("+Y1Y2", n)), (-0.2, PauliString.parse("+Z1", n))]
        )
        assert np.allclose(h.dense_real(), h.dense().real)
        assert np.allclose(h.dense().imag, 0)

    def test_dense_real_rejects_odd_y(self):
        h = PauliHamiltonian.from_terms(1, [(1.0, PauliString.parse("+Y1", 1))])
        with pytest.raises(ValueError):
            h.dense_real()


def hermitian_sums(n):
    """Unique Hermitian strings on n qubits, either sign, up to 12 of them."""
    bits = st.integers(0, (1 << n) - 1)
    string = st.builds(PauliString, st.just(n), bits, bits, st.sampled_from((0, 2)))
    return st.lists(string, max_size=12, unique_by=lambda p: (p.x_bits, p.z_bits))


class TestPositionTable:
    """``from_terms`` stores each term's set-bit positions; ``terms``,
    ``y_counts`` and ``dense`` read them back."""

    @pytest.mark.parametrize("n", [1, 2, 3, 63, 64, 65, 129])
    @given(data=st.data())
    def test_round_trip(self, n, data):
        strings = data.draw(hermitian_sums(n))
        coeffs = [(k + 1) * (-1.0 if p.phase_exp else 1.0) for k, p in enumerate(strings)]
        h = PauliHamiltonian.from_terms(n, [(k + 1, p) for k, p in enumerate(strings)])
        assert h.terms == tuple((c, p.unsigned()) for c, p in zip(coeffs, strings))
        assert h.y_counts.tolist() == [(p.x_bits & p.z_bits).bit_count() for p in strings]
        half = 64 * _words(n)
        counts = [(p.x_bits << half | p.z_bits).bit_count() for p in strings]
        assert h.positions.shape == (len(strings), max(counts, default=1) or 1)
        for row, p in zip(h.positions.tolist(), strings):
            vec = p.x_bits << half | p.z_bits
            bits = [b for b in range(2 * half) if (vec >> b) & 1]
            assert row == bits + [2 * half] * (len(row) - len(bits))
        if n <= 3:
            want = np.zeros((1 << n, 1 << n), dtype=complex)
            for c, p in zip(coeffs, strings):
                want += c * p.unsigned().dense()
            assert np.allclose(h.dense(), want, rtol=0, atol=1e-12)

    @pytest.mark.parametrize("n", [1, 2, 63, 64, 65, 129])
    def test_x_and_y_on_the_last_qubit(self, n):
        # Qubit n is bit 0: its x position is the half width, and that plus
        # the half width is the pad, which is not a Y partner.
        half = 64 * _words(n)
        x_n, y_n = (PauliString.from_ops(n, {n: letter}) for letter in "XY")
        h = PauliHamiltonian.from_terms(n, [(1.0, x_n), (2.0, y_n)])
        assert h.positions.tolist() == [[half, 2 * half], [0, half]]
        assert h.y_counts.tolist() == [0, 1]
        assert h.terms == ((1.0, x_n), (2.0, y_n))
        if n <= 2:
            assert np.array_equal(h.dense(), x_n.dense() + 2.0 * y_n.dense())


class TestBitCounts:
    def test_popcounts_and_sign_vectors_match_bit_loops(self):
        rng = np.random.default_rng(29)
        for n in range(1, 13):
            idx = np.arange(1 << n)
            bits = [(idx >> p) & 1 for p in range(n)]
            assert np.array_equal(_popcounts(n), sum(bits))
            assert _popcounts(n).dtype == np.int64
            for mask in (0, (1 << n) - 1, *rng.integers(0, 1 << n, 8).tolist()):
                parity = np.zeros(1 << n, dtype=np.int64)
                for p in range(n):
                    if (mask >> p) & 1:
                        parity ^= bits[p]
                assert _sign_vector(mask, n).tobytes() == (1.0 - 2.0 * parity).tobytes()


def dense_by_terms(h):
    """Reference ``dense``: one scatter-add per decoded term, in order."""
    dim = 1 << h.n
    idx = np.arange(dim)
    out = np.zeros((dim, dim), dtype=complex)
    for coeff, s in h.terms:
        w = (s.x_bits & s.z_bits).bit_count()
        vals = (coeff * 1j**w) * _sign_vector(s.z_bits, h.n)
        out[idx ^ s.x_bits, idx] += vals
    return out


def dense_real_by_terms(h):
    """Reference ``dense_real``: one scatter-add per decoded term, in order."""
    dim = 1 << h.n
    idx = np.arange(dim)
    out = np.zeros((dim, dim), dtype=float)
    for coeff, s in h.terms:
        w = (s.x_bits & s.z_bits).bit_count()
        vals = (coeff * (-1.0) ** (w // 2)) * _sign_vector(s.z_bits, h.n)
        out[idx ^ s.x_bits, idx] += vals
    return out


def apply_by_terms(h, vec):
    """Reference ``apply``: the sum of the decoded strings' actions, in order."""
    out = np.zeros(len(vec), dtype=complex)
    for coeff, s in h.terms:
        out += coeff * s.apply(vec)
    return out


def lmg_hamiltonians():
    for n in range(2, 11):
        for chi in (-1.0, 0.0, 0.5, 1.0):
            for vbar in (0.0, 0.3, 5.0):
                yield build_lmg(LmgParams(n, vbar, chi))


def assert_same_bits(got, want):
    assert got.dtype == want.dtype and got.shape == want.shape
    assert got.tobytes() == want.tobytes()


class TestDenseFromRows:
    """``dense``, ``dense_real`` and ``apply`` read the position table; every
    entry must be the same float sum as the per-term loops over ``terms``."""

    def test_lmg_matrices_bit_identical(self):
        for h in lmg_hamiltonians():
            dense, dense_real = h.dense(), h.dense_real()
            assert_same_bits(dense, dense_by_terms(h))
            assert_same_bits(dense_real, dense_real_by_terms(h))

    def test_lmg_apply_bit_identical(self):
        rng = np.random.default_rng(31)
        for h in lmg_hamiltonians():
            dim = 1 << h.n
            vecs = (rng.normal(size=dim) + 1j * rng.normal(size=dim), rng.normal(size=dim))
            got = [h.apply(v) for v in vecs]
            for out, v in zip(got, vecs):
                assert_same_bits(out, apply_by_terms(h, v))

    def test_adapt_pool_odd_y_bit_identical(self):
        rng = np.random.default_rng(37)
        for n in range(2, 8):
            vec = rng.normal(size=1 << n) + 1j * rng.normal(size=1 << n)
            for op in pool(n):
                h = op.as_hamiltonian()
                with pytest.raises(ValueError):
                    h.dense_real()
                dense, applied = h.dense(), h.apply(vec)
                assert_same_bits(dense, dense_by_terms(h))
                assert_same_bits(applied, apply_by_terms(h, vec))

    def test_random_sums_bit_identical(self):
        # Many terms share each x word here, so an entry adds four or more
        # unequal coefficients and the order of the additions shows.
        rng = np.random.default_rng(41)
        for n, count in ((1, 8), (2, 40), (3, 120), (6, 200)):
            terms = [(float(rng.normal()), random_string(rng, n).unsigned()) for _ in range(count)]
            h = PauliHamiltonian.from_terms(n, terms)
            vec = rng.normal(size=1 << n) + 1j * rng.normal(size=1 << n)
            dense, applied = h.dense(), h.apply(vec)
            assert_same_bits(dense, dense_by_terms(h))
            assert_same_bits(applied, apply_by_terms(h, vec))

    def test_terms_never_decoded(self):
        h = build_lmg(LmgParams(6, 1.5, 0.5))
        vec = np.ones(1 << 6, dtype=complex) / 8.0
        h.dense_real()
        h.dense()
        h.apply(vec)
        h.expectation(vec)
        assert "terms" not in h.__dict__

    def test_empty_hamiltonian_is_zero(self):
        h = PauliHamiltonian.from_terms(3, ())
        assert_same_bits(h.dense(), np.zeros((8, 8), dtype=complex))
        assert_same_bits(h.dense_real(), np.zeros((8, 8)))
        assert_same_bits(h.apply(np.ones(8)), np.zeros(8, dtype=complex))

    def test_guards(self):
        h = PauliHamiltonian.from_terms(15, ())
        with pytest.raises(ResourceLimitError):
            h.dense()
        with pytest.raises(ResourceLimitError):
            h.dense_real()
        with pytest.raises(ValueError):
            build_lmg(LmgParams(3, 1.0)).apply(np.ones(4))


def test_canonical_phase():
    v = np.array([0.0, -1j, 1.0]) / np.sqrt(2)
    w = canonical_phase(v)
    assert w[1].real > 0 and abs(w[1].imag) < 1e-15
    assert np.allclose(abs(w), abs(v))
