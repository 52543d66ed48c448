"""Model construction, family energies, selection, and preparation tests."""

from functools import lru_cache
from itertools import product

import numpy as np
import pytest

import stabsplit.cli as cli
import stabsplit.lmg as lmg
from stabsplit.cli import main
from stabsplit.lmg import (
    LmgCandidate,
    LmgParams,
    build_lmg,
    best_family_energy,
    candidate_groups,
    pair_family_group,
    parity_string,
    preparation_circuit,
    prepare_stab_state,
    product_family_group,
    select_candidate,
    select_split,
    split_around,
    symmetry_breaking_energy,
    symmetry_breaking_group,
)
from stabsplit.pauli import PauliHamiltonian, PauliString
from stabsplit.tableau import StabilizerGroup, apply_circuit


class TestParams:
    def test_validation(self):
        with pytest.raises(ValueError):
            LmgParams(1, 1.0)
        with pytest.raises(ValueError):
            LmgParams(4, -0.5)
        with pytest.raises(ValueError):
            LmgParams(4, 1.0, chi=1.5)

    def test_rejects_non_finite_vbar(self):
        for vbar in (float("nan"), float("inf"), float("-inf")):
            with pytest.raises(ValueError):
                LmgParams(4, vbar)


class TestBuildLmg:
    def test_three_spin_coefficients(self):
        h = build_lmg(LmgParams(3, 1.0, -1.0))
        by_label = {s.render(): c for c, s in h.terms}
        for q in (1, 2, 3):
            assert by_label[f"+Z{q}"] == pytest.approx(0.5)
        for pair in ("X1X2", "X1X3", "X2X3"):
            assert by_label["+" + pair] == pytest.approx(-0.25)
        for pair in ("Y1Y2", "Y1Y3", "Y2Y3"):
            assert by_label["+" + pair] == pytest.approx(0.25)
        assert len(h.terms) == 9

    def test_zero_coupling_drops_pair_terms(self):
        h = build_lmg(LmgParams(4, 0.0, -1.0))
        assert len(h.terms) == 4
        assert all(s.render().startswith("+Z") for _, s in h.terms)

    def test_isotropy_zero_drops_yy(self):
        h = build_lmg(LmgParams(3, 2.0, 0.0))
        labels = {s.render() for _, s in h.terms}
        assert not any("Y" in lbl for lbl in labels)


def reference_terms(params):
    """The term-by-term construction: one from_ops string per term."""
    n = params.n
    terms = [(0.5, PauliString.from_ops(n, {q: "Z"})) for q in range(1, n + 1)]
    coupling = -params.vbar / (2.0 * (n - 1))
    if params.vbar > 0:
        for i in range(1, n + 1):
            for j in range(i + 1, n + 1):
                terms.append((coupling, PauliString.from_ops(n, {i: "X", j: "X"})))
                if params.chi != 0.0:
                    terms.append(
                        (params.chi * coupling, PauliString.from_ops(n, {i: "Y", j: "Y"}))
                    )
    return terms


class TestPackedBuild:
    """``build_lmg`` writes the position table that ``from_terms`` builds."""

    @pytest.mark.parametrize("n", [*range(2, 13), 31, 32, 33, 63, 64, 65, 128, 129])
    def test_matches_term_by_term_construction(self, n):
        for chi in (-1.0, -0.5, 0.0, -0.0, 0.5, 1.0):
            for vbar in (0.0, 0.3, 10.0):
                h = build_lmg(LmgParams(n, vbar, chi))
                terms = reference_terms(LmgParams(n, vbar, chi))
                ref = PauliHamiltonian.from_terms(n, terms)
                assert h.n == n and len(h) == len(ref)
                assert h.coeffs.dtype == np.float64 and h.positions.dtype == np.int32
                assert h.coeffs.tolist() == ref.coeffs.tolist()
                assert h.positions.tolist() == ref.positions.tolist()
                assert h.y_counts.tolist() == ref.y_counts.tolist()
                # The decoded view: same order, same strings, coefficients ==.
                assert h.terms == tuple((c, s) for c, s in terms if c != 0.0)

    def test_arrays_reject_writes(self):
        h = build_lmg(LmgParams(4, 1.0, -1.0))
        with pytest.raises(ValueError):
            h.coeffs[0] = 1.0
        with pytest.raises(ValueError):
            h.positions[0, 0] = 1
        with pytest.raises(ValueError):
            h.y_counts[0] = 1

    def test_large_n_storage(self):
        # 10^6 terms at N = 1000: 8 MB of coefficients and 16 MB of positions
        # (four int32 columns, 24 * 10^6 bytes), where packed x/z rows of 16
        # words each would take 256 MB.  Nothing else is stored.
        h = build_lmg(LmgParams(1000, 3.0, 0.5))
        arrays = [v for v in vars(h).values() if isinstance(v, np.ndarray)]
        assert sum(a.nbytes for a in arrays) < 24 * 2**20


@lru_cache(maxsize=None)
def _reference_groups(n):
    """(family, group) for every generator sign pattern of each family,
    including the Y-pair family "s3", which ``candidate_groups`` leaves out
    because it never scores below the X-pair family."""
    groups = [("s1", product_family_group(n, signs)) for signs in product((1, -1), repeat=n)]
    for signs in product((1, -1), repeat=n - 1):
        for completion in (parity_string(n), parity_string(n).negate()):
            groups.append(("s2", pair_family_group(n, "X", signs, completion)))
            if n > 2:
                groups.append(("s3", pair_family_group(n, "Y", signs, completion)))
    return tuple(groups)


def reference_candidates(h, params):
    """The exhaustive sign search: every sign pattern of each family, with
    its energy, in enumeration order (the product family's signs, then the
    pair signs with both parity completions).  ``candidate_groups`` must
    return the first minimum of each family."""
    return [
        LmgCandidate(family, group, group.energy(h), group.expectations(h))
        for family, group in _reference_groups(params.n)
    ]


REFERENCE_CHIS = (-1.0, -0.5, -0.1, -0.0, 0.0, 0.1, 0.5, 1.0)
REFERENCE_VBARS = (0.0, 0.1, 1 - 1e-9, 1.0, 1 + 1e-9, 2 - 1e-9, 2.0, 2 + 1e-9, 5.0, 100.0)


class TestClosedFormCandidates:
    @pytest.mark.parametrize("n", range(2, 9))
    def test_match_sign_search(self, n):
        # The search scores 2^n to 4 * 2^(n-1) groups per point, so n = 7
        # and 8 (past the old search limit of 6) use a coarser grid.
        chis = REFERENCE_CHIS if n <= 6 else (-1.0, -0.0, 0.5)
        vbars = REFERENCE_VBARS if n <= 6 else (0.0, 2 - 1e-9, 2.0, 2 + 1e-9, 100.0)
        for chi in chis:
            for vbar in vbars:
                params = LmgParams(n, vbar, chi)
                h = build_lmg(params)
                got = candidate_groups(h, params)
                ref = reference_candidates(h, params)
                for cand in got:
                    first_min = min(
                        (c for c in ref if c.family == cand.family), key=lambda c: c.energy
                    )
                    assert cand.energy == first_min.energy, (chi, vbar, cand.family)
                    assert cand.group == first_min.group, (chi, vbar, cand.family)
                # ref holds every Y-pair group too, so no selection moves
                # without them.
                chosen = select_candidate(h, params, got)
                want = select_candidate(h, params, ref)
                assert chosen.family == want.family, (chi, vbar)
                assert chosen.group.generators == want.group.generators, (chi, vbar)
                assert chosen.energy.hex() == want.energy.hex(), (chi, vbar)

    @pytest.mark.parametrize("n", [*range(2, 13), 63, 64, 65])
    def test_one_candidate_per_family_in_order(self, n):
        for chi in (-1.0, 0.0, 0.5):
            for vbar in (0.0, 2.0, 5.0):
                params = LmgParams(n, vbar, chi)
                families = [c.family for c in candidate_groups(build_lmg(params), params)]
                assert families == ["s1", "s2"]


def y_pair_energy(h, params):
    """Energy of the energy-optimal Y-pair group on h, for n > 2.

    For chi >= 0 every Y_i Y_n is positive; for chi < 0 the n - 1 generator
    signs split as evenly as the parity completion allows.
    """
    n = params.n
    if params.chi >= 0:
        signs = (1,) * (n - 1)
    else:
        plus = (n - 2) // 2 if n % 2 == 0 else (n - 1) // 2
        signs = (1,) * plus + (-1,) * (n - 1 - plus)
    return pair_family_group(n, "Y", signs).energy(h)


class TestCandidateEnergies:
    def test_two_spin_sign_enumeration(self):
        vbar = 1.7
        h = build_lmg(LmgParams(2, vbar, -1.0))
        cands = reference_candidates(h, LmgParams(2, vbar, -1.0))
        s1 = sorted(c.energy for c in cands if c.family == "s1")
        s2 = sorted(c.energy for c in cands if c.family == "s2")
        assert s1 == pytest.approx([-1.0, 0.0, 0.0, 1.0])
        assert s2 == pytest.approx([-vbar, 0.0, 0.0, vbar])
        assert not any(c.family == "s3" for c in cands)

    @pytest.mark.parametrize("n", [3, 4, 5, 6, 7, 8, 12, 30])
    @pytest.mark.parametrize("vbar", [0.5, 2.0, 5.0])
    def test_family_formulas(self, n, vbar):
        params = LmgParams(n, vbar, -1.0)
        h = build_lmg(params)
        cands = candidate_groups(h, params)
        assert best_family_energy(cands, "s1") == pytest.approx(-n / 2, abs=1e-12)
        assert best_family_energy(cands, "s2") == pytest.approx(-n * vbar / 4, abs=1e-12)
        want_s3 = -n * vbar / (4 * (n - 1)) if n % 2 == 0 else -vbar / 4
        e_s3 = y_pair_energy(h, params)
        assert e_s3 == pytest.approx(want_s3, abs=1e-12)
        e_s2 = best_family_energy(cands, "s2")
        assert e_s3 >= e_s2 - 1e-12 * abs(e_s2)

    def test_two_spin_pair_energy(self):
        # With the YY operator inside the pair group the n = 2 energy is -vbar.
        vbar = 3.0
        params = LmgParams(2, vbar, -1.0)
        cands = candidate_groups(build_lmg(params), params)
        assert best_family_energy(cands, "s2") == pytest.approx(-vbar, abs=1e-12)

    def test_eight_spin_example(self):
        params = LmgParams(8, 5.0, -1.0)
        cands = candidate_groups(build_lmg(params), params)
        assert best_family_energy(cands, "s1") == pytest.approx(-4.0, abs=1e-12)
        assert best_family_energy(cands, "s2") == pytest.approx(-10.0, abs=1e-12)

    def test_energies_match_dense_expectation(self):
        rng = np.random.default_rng(2)
        for n in (3, 4, 6):
            params = LmgParams(n, float(rng.uniform(0.2, 6.0)), -1.0)
            h = build_lmg(params)
            hd = h.dense()
            for cand in reference_candidates(h, params)[::7]:
                psi = cand.group.to_statevector()
                assert cand.energy == pytest.approx(np.vdot(psi, hd @ psi).real, abs=1e-10)

    def test_positive_chi_y_family(self):
        # For chi > 0 all pair expectations can reach +1, so the Y family
        # tracks the X family scaled by chi.
        params = LmgParams(5, 2.0, 0.5)
        h = build_lmg(params)
        e_s2 = best_family_energy(candidate_groups(h, params), "s2")
        e_s3 = y_pair_energy(h, params)
        assert e_s3 == pytest.approx(0.5 * e_s2, abs=1e-12)
        assert e_s3 >= e_s2 - 1e-12 * abs(e_s2)


class TestSelection:
    def test_transition_at_two(self):
        for n in (3, 5, 8):
            eps = 1e-9
            assert select_split(build_lmg(LmgParams(n, 2 - eps)), LmgParams(n, 2 - eps)).family == "s1"
            assert select_split(build_lmg(LmgParams(n, 2 + eps)), LmgParams(n, 2 + eps)).family == "s2"
            assert select_split(build_lmg(LmgParams(n, 2.0)), LmgParams(n, 2.0)).family == "s1"

    def test_two_spin_transition_at_one(self):
        eps = 1e-9
        for vbar, family in ((1 - eps, "s1"), (1 + eps, "s2"), (1.0, "s1")):
            params = LmgParams(2, vbar, -1.0)
            assert select_split(build_lmg(params), params).family == family

    def test_chi_plus_one_degeneracy_resolves_to_s2(self):
        params = LmgParams(4, 5.0, 1.0)
        split = select_split(build_lmg(params), params)
        assert split.family == "s2"

    def test_split_partition(self):
        params = LmgParams(3, 3.0, -1.0)
        h = build_lmg(params)
        split = select_split(h, params)
        assert split.family == "s2"
        stab_labels = {s.render() for _, s in split.stab_part.terms}
        magic_labels = {s.render() for _, s in split.magic_part.terms}
        assert stab_labels == {"+X1X2", "+X1X3", "+X2X3"}
        assert magic_labels == {"+Z1", "+Z2", "+Z3", "+Y1Y2", "+Y1Y3", "+Y2Y3"}
        assert len(split.stab_part.terms) + len(split.magic_part.terms) == len(h.terms)
        # The stabilizer part carries the whole stabilizer energy.
        assert split.group.energy(split.stab_part) == pytest.approx(split.stab_energy)
        assert split.group.energy(split.magic_part) == pytest.approx(0.0, abs=1e-14)

    @pytest.mark.parametrize("n", [3, 8, 20])
    def test_three_expectation_passes_per_split(self, n, monkeypatch):
        # Two candidates and the guard; the split reuses the chosen
        # candidate's expectations instead of scoring its group again.  A
        # second point with the same structure and key reuses all three.
        calls = count_expectation_passes(monkeypatch)
        lmg._position_table.cache_clear()
        params = LmgParams(n, 3.0, -1.0)
        select_split(build_lmg(params), params)
        assert len(calls) == 3
        params = LmgParams(n, 0.7, -0.4)
        split = select_split(build_lmg(params), params)
        assert len(calls) == 3
        assert split.family == "s1"

    def test_selected_energy_upper_bounds_exact(self):
        for n in (2, 4, 6):
            for vbar in (0.5, 2.5, 8.0):
                params = LmgParams(n, vbar, -1.0)
                h = build_lmg(params)
                split = select_split(h, params)
                exact = np.linalg.eigvalsh(h.dense_real())[0]
                assert split.stab_energy >= exact - 1e-10


def count_expectation_passes(monkeypatch) -> list:
    """The groups ``StabilizerGroup.expectations`` scores from now on."""
    calls = []
    batched = StabilizerGroup.expectations

    def counting(group, h):
        calls.append(group)
        return batched(group, h)

    monkeypatch.setattr(StabilizerGroup, "expectations", counting)
    return calls


def assert_same_candidates(got, want):
    assert [c.group for c in got] == [c.group for c in want]
    assert [c.energy for c in got] == [c.energy for c in want]
    for a, b in zip(got, want):
        assert np.array_equal(a.expectations, b.expectations)
        assert a.expectations.dtype == b.expectations.dtype


def fresh_candidates(h, params, monkeypatch):
    """``candidate_groups`` on an emptied memo, which scores both groups."""
    h.memo.clear()
    calls = count_expectation_passes(monkeypatch)
    got = candidate_groups(h, params)
    assert len(calls) == 2
    return got


class TestScoreCache:
    """The expectations of the structures ``_position_table`` holds are
    reused, and only where they are the same arrays a fresh scoring would
    give."""

    def test_alternating_structures_scored_once(self, monkeypatch):
        lmg._position_table.cache_clear()
        calls = count_expectation_passes(monkeypatch)
        passes = []
        for _ in range(3):
            for n in (5, 6):
                params = LmgParams(n, 2.0, -1.0)
                before = len(calls)
                select_split(build_lmg(params), params)
                passes.append(len(calls) - before)
        # Two candidates and the guard per structure, in the first round only.
        assert passes == [3, 3, 0, 0, 0, 0]

    @pytest.mark.parametrize(
        "grid",
        [
            # chi = 0 drops the Y pair terms: tables (5, 2 kinds), (5, 1), (5, 2).
            ["--chi", "-1", "--chi", "0", "--chi", "1", "--vbar", "2"],
            # vbar = 0 drops every pair term: (5, 0), (5, 2), then both again.
            ["--chi", "-1", "--chi", "1", "--linear", "--vbar-min", "0", "--vbar-max", "2"],
        ],
    )
    def test_sweep_returning_to_a_structure_scores_it_once(self, grid, monkeypatch, tmp_path):
        lmg._position_table.cache_clear()
        calls = count_expectation_passes(monkeypatch)
        argv = ["sweep", "--n", "5", *grid, "--observables", "energies", "--jobs", "1"]
        assert main(argv + ["--vbar-points", "3", "--out", str(tmp_path / "s.csv")]) == 0
        # Two candidates and the guard for each of the two structures.
        assert len(calls) == 6

    def test_one_memo_per_table_kept_after_eviction(self, monkeypatch):
        lmg._position_table.cache_clear()
        params = LmgParams(5, 2.0, -0.5)
        h = build_lmg(params)
        # Every point of one (N, kinds) shares one memo object.
        for vbar, chi in ((0.3, -1.0), (7.0, 0.5), (2.0, -0.5)):
            assert build_lmg(LmgParams(5, vbar, chi)).memo is h.memo
        assert build_lmg(LmgParams(5, 2.0, 0.0)).memo is not h.memo
        cached = candidate_groups(h, params)
        calls = count_expectation_passes(monkeypatch)
        # Another table starts with an empty memo and is scored afresh.
        others = [h.subset(np.ones(len(h), dtype=bool)), PauliHamiltonian.from_terms(5, h.terms)]
        lmg._position_table.cache_clear()
        others.append(build_lmg(params))
        for other in others:
            assert other.memo == {}
            before = len(calls)
            assert_same_candidates(candidate_groups(other, params), cached)
            assert len(calls) == before + 2
        # h outlived its table's cache entry and keeps its memo.
        before = len(calls)
        assert_same_candidates(candidate_groups(h, params), cached)
        assert len(calls) == before

    def test_rebuilt_position_table_misses(self, monkeypatch):
        params = LmgParams(5, 2.0, 0.5)
        h = build_lmg(params)
        cached = candidate_groups(h, params)
        # Four other structures push the table out of _position_table.
        for n in (6, 7, 8, 9):
            build_lmg(LmgParams(n, 2.0, 0.5))
        rebuilt = build_lmg(params)
        assert rebuilt.positions is not h.positions
        assert np.array_equal(rebuilt.positions, h.positions)
        calls = count_expectation_passes(monkeypatch)
        got = candidate_groups(rebuilt, params)
        assert len(calls) == 2
        assert_same_candidates(got, cached)
        assert_same_candidates(got, fresh_candidates(rebuilt, params, monkeypatch))
        # The evicted table's Hamiltonian still holds its scores.
        before = len(calls)
        assert_same_candidates(candidate_groups(h, params), cached)
        assert len(calls) == before

    def test_permuted_from_terms_scored_fresh(self, monkeypatch):
        params = LmgParams(5, 2.0, -0.5)
        h = build_lmg(params)
        cached = candidate_groups(h, params)
        calls = count_expectation_passes(monkeypatch)
        order = np.random.default_rng(3).permutation(len(h))
        permuted = PauliHamiltonian.from_terms(5, [h.terms[k] for k in order])
        fresh = candidate_groups(permuted, params)
        assert len(calls) == 2
        for a, b in zip(cached, fresh):
            assert a.group == b.group
            assert np.array_equal(b.expectations, a.expectations[order])
            assert b.energy == pytest.approx(a.energy, rel=1e-14)

    def test_cached_arrays_read_only(self):
        params = LmgParams(6, 2.0, 0.5)
        h = build_lmg(params)
        select_candidate(h, params, candidate_groups(h, params))
        for cand in candidate_groups(build_lmg(LmgParams(6, 3.0, 0.5)), params):
            with pytest.raises(ValueError):
                cand.expectations[0] = 0
        # The guard's array too, served from the memo without a new build.
        _, guard = lmg._scored(h, params, "guard", lambda: pytest.fail("guard rebuilt"))
        assert not guard.flags.writeable
        with pytest.raises(ValueError):
            guard[0] = 0

    def test_one_table_per_structure(self):
        tables = {
            vbar: build_lmg(LmgParams(4, vbar, -0.3)).positions
            for vbar in (0.0, 5e-324, 1e-310, 2.0, 9.0)
        }
        # 5e-324 / 6 underflows to zero: no pair terms, the vbar = 0 table.
        assert tables[5e-324] is tables[0.0]
        assert tables[1e-310] is tables[2.0] is tables[9.0]
        assert tables[2.0] is not tables[0.0]
        assert build_lmg(LmgParams(4, 2.0, 0.0)).positions is not tables[2.0]

    def test_hits_equal_fresh_scoring(self, monkeypatch):
        # Consecutive points share a table but differ in chi's sign, which no
        # group depends on, or, at n = 2, in the completion's sign.
        calls = count_expectation_passes(monkeypatch)
        points = [
            (n, chi, vbar)
            for n in (2, 3, 6)
            for vbar in (0.0, 5e-324, 1e-310, 2.0)
            for chi in (-0.3, 0.5, 0.0, -1.0, 1.0)
        ]
        for n, chi, vbar in points:
            params = LmgParams(n, vbar, chi)
            h = build_lmg(params)
            got = candidate_groups(h, params)
            guard = symmetry_breaking_energy(h, params) if n >= 3 else None
            h.memo.clear()
            before = len(calls)
            assert_same_candidates(got, candidate_groups(h, params))
            if n >= 3:
                assert guard == symmetry_breaking_energy(h, params)
            assert len(calls) == before + (3 if n >= 3 else 2)

    def test_mixed_key_sweep_matches_fresh_scoring(self, monkeypatch, tmp_path):
        # Points differ in chi's sign (no key does), in the n = 2 completion
        # (vbar = 5e-324 negates it without adding terms) and in the table
        # (vbar = 0).
        argv = ["sweep", "--n", "2", "--n", "6", "--chi", "0.5", "--chi", "-0.3"]
        for vbar in ("0", "5e-324", "1e-310", "2"):
            argv += ["--vbar", vbar]
        outputs = []
        for jobs in ("1", "2"):
            path = tmp_path / f"jobs{jobs}.csv"
            assert main(argv + ["--jobs", jobs, "--out", str(path)]) == 0
            outputs.append(path.read_bytes())
        scored = cli._sweep_cells
        calls = count_expectation_passes(monkeypatch)

        def fresh(n, *args):
            # A new table comes with an empty memo: both candidates and, for
            # n >= 3, the guard are scored again.
            lmg._position_table.cache_clear()
            before = len(calls)
            cells = scored(n, *args)
            assert len(calls) == before + (3 if n >= 3 else 2)
            return cells

        monkeypatch.setattr(cli, "_sweep_cells", fresh)
        path = tmp_path / "fresh.csv"
        assert main(argv + ["--jobs", "1", "--out", str(path)]) == 0
        outputs.append(path.read_bytes())
        assert outputs[0] == outputs[1] == outputs[2]
        assert outputs[0].count(b"\n") == 17


class TestSymmetryBreakingGuard:
    @pytest.mark.parametrize("n", [3, 4, 6, 9])
    def test_formula(self, n):
        for vbar, chi in ((1.0, -1.0), (4.0, -0.3), (2.0, 0.7)):
            params = LmgParams(n, vbar, chi)
            got = symmetry_breaking_energy(build_lmg(params), params)
            want = -(n - 2) / 2 - vbar * (1 - chi) / (2 * (n - 1))
            assert got == pytest.approx(want, abs=1e-12)


class TestLargeN:
    """Closed forms at N = 200 and N = 257 (five words per row)."""

    @pytest.mark.parametrize("n", [200, 257])
    @pytest.mark.parametrize("chi", [-1.0, 0.0, 0.5])
    def test_closed_form_energies(self, n, chi):
        vbar = 10.0
        params = LmgParams(n, vbar, chi)
        h = build_lmg(params)
        energies = {c.family: c.energy for c in candidate_groups(h, params)}
        assert energies["s1"] == pytest.approx(-n / 2, rel=1e-12)
        assert energies["s2"] == pytest.approx(-n * vbar / 4, rel=1e-12)
        guard = -(n - 2) / 2 - vbar * (1 - chi) / (2 * (n - 1))
        assert symmetry_breaking_energy(h, params) == pytest.approx(guard, rel=1e-12)

    def test_subset_reads_its_own_term_table(self):
        # Each Hamiltonian derives its own Y counts: scoring the subset first
        # or second gives the full expectations at the kept terms.
        params = LmgParams(200, 10.0, 0.5)
        keep = np.random.default_rng(5).random(len(build_lmg(params))) < 0.3
        groups = [c.group for c in candidate_groups(build_lmg(params), params)]
        for g in [*groups, symmetry_breaking_group(200)]:
            h = build_lmg(params)
            sub = h.subset(keep)
            first = g.expectations(sub)
            assert np.array_equal(first, g.expectations(h)[keep])
            assert np.array_equal(g.expectations(h.subset(keep)), first)


class TestPreparation:
    def test_product_state(self):
        params = LmgParams(3, 0.5, -1.0)
        split = select_split(build_lmg(params), params)
        psi = prepare_stab_state(split)
        want = np.zeros(8)
        want[0b111] = 1.0
        assert np.allclose(psi, want, atol=1e-12)

    def test_three_spin_pair_state(self):
        params = LmgParams(3, 4.0, -1.0)
        split = select_split(build_lmg(params), params)
        psi = prepare_stab_state(split)
        want = np.zeros(8)
        for label in ("111", "100", "010", "001"):
            want[int(label, 2)] = 0.5
        assert np.allclose(psi, want, atol=1e-12)

    def test_four_spin_pair_state(self):
        params = LmgParams(4, 4.0, -1.0)
        split = select_split(build_lmg(params), params)
        psi = prepare_stab_state(split)
        want = np.zeros(16)
        for label in ("0000", "0011", "0101", "0110", "1001", "1010", "1100", "1111"):
            want[int(label, 2)] = 1 / np.sqrt(8)
        assert np.allclose(psi, want, atol=1e-12)

    def test_two_spin_bell(self):
        params = LmgParams(2, 2.0, -1.0)
        split = select_split(build_lmg(params), params)
        psi = prepare_stab_state(split)
        want = np.zeros(4)
        want[0b00] = want[0b11] = 1 / np.sqrt(2)
        assert np.allclose(psi, want, atol=1e-12)

    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6, 7, 8, 9, 10])
    def test_routes_agree(self, n):
        # prepare_stab_state raises internally if any two routes disagree.
        for vbar in (1.0, 5.0):
            params = LmgParams(n, vbar, -1.0)
            split = select_split(build_lmg(params), params)
            psi = prepare_stab_state(split)
            assert np.linalg.norm(psi) == pytest.approx(1.0, abs=1e-12)

    def test_circuit_matches_state(self):
        params = LmgParams(5, 6.0, -1.0)
        split = select_split(build_lmg(params), params)
        start = np.zeros(32, dtype=complex)
        start[0] = 1.0
        via_circuit = apply_circuit(start, 5, preparation_circuit(split))
        assert np.allclose(via_circuit, prepare_stab_state(split), atol=1e-12)

    @pytest.mark.parametrize("n", range(2, 13))
    def test_circuits_prepare_their_groups(self, n):
        # The selected split and the best split of each family, as `prepare`
        # builds them.  At n = 2 with chi > 0 the sign search completes the
        # X-pair family with -Z1Z2, so the final X cannot follow n alone.
        start = np.zeros(1 << n, dtype=complex)
        start[0] = 1.0
        for chi in (-1.0, 0.0, 0.5, 1.0):
            for vbar in (0.5, 2.0, 5.0):
                params = LmgParams(n, vbar, chi)
                h = build_lmg(params)
                candidates = candidate_groups(h, params)
                splits = [select_split(h, params)]
                for family in ("s1", "s2"):
                    best = min(
                        (c for c in candidates if c.family == family), key=lambda c: c.energy
                    )
                    splits.append(split_around(h, params, best))
                for split in splits:
                    built = apply_circuit(start, n, preparation_circuit(split))
                    overlap = abs(np.vdot(built, split.group.to_statevector()))
                    assert overlap >= 1.0 - 1e-12, (chi, vbar, split.family)

    def test_pair_state_parity(self):
        for n in (3, 4, 5, 6):
            group = pair_family_group(n, "X", (1,) * (n - 1))
            assert group.expectation(parity_string(n).unsigned()) == (-1) ** n


def test_product_family_reads_signs():
    group = product_family_group(3, (1, -1, 1))
    assert group.expectation(PauliString.parse("+Z1", 3)) == 1
    assert group.expectation(PauliString.parse("+Z2", 3)) == -1
