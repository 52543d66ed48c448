"""Collective spin-1/2 Hamiltonian, its stabilizer families, and preparation.

The model on N spins, with pair couplings uniformly rescaled by 1/(N - 1):

    H = (1/2) sum_i Z_i - vbar/(2(N-1)) sum_{i<j} (X_i X_j + chi Y_i Y_j)

Spin up maps to |0> and spin down to |1>, so the vbar = 0 ground state is
|1...1>.  Two stabilizer families compete for the lowest stabilizer energy:
the product family (single-qubit Z generators) and the X-pair family,
completed by the parity string Z_1..Z_N.  The energy-optimal group of each
family is known in closed form at every N, so each family contributes
exactly one candidate.  (The Y-pair family never scores below the X-pair
family, since |chi| <= 1, so it is not a candidate.)
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .pauli import PauliHamiltonian, PauliString, _words, canonical_phase
from .tableau import (
    CliffordGate,
    StabilizerGroup,
    apply_circuit,
    hamiltonian_energy,
    prepare_graph_state,
)

_ROUTE_TOL = 1e-12


@dataclass(frozen=True)
class LmgParams:
    """Model parameters: spin count n, finite coupling vbar >= 0, anisotropy chi."""

    n: int
    vbar: float
    chi: float = -1.0

    def __post_init__(self):
        if not isinstance(self.n, (int, np.integer)) or self.n < 2:
            raise ValueError("n must be an integer >= 2")
        if not (math.isfinite(self.vbar) and self.vbar >= 0):
            raise ValueError("vbar must be finite and nonnegative")
        if not -1.0 <= self.chi <= 1.0:
            raise ValueError("chi must lie in [-1, 1]")


@dataclass(frozen=True)
class LmgCandidate:
    """A family's group with its energy and the expectation of every term of
    the Hamiltonian it was scored on (``StabilizerGroup.expectations``)."""

    family: str
    group: StabilizerGroup
    energy: float
    expectations: np.ndarray = field(compare=False, repr=False)


@dataclass(frozen=True)
class HamiltonianSplit:
    """An energy-optimal stabilizer part plus the leftover coupling terms."""

    params: LmgParams
    family: str
    group: StabilizerGroup
    stab_energy: float
    stab_part: PauliHamiltonian
    magic_part: PauliHamiltonian


def build_lmg(params: LmgParams) -> PauliHamiltonian:
    """Pauli-sum form of the Hamiltonian; zero-coefficient terms are omitted.

    Built as a position table, in the order Z_1 .. Z_N, then X_i X_j
    followed by Y_i Y_j for each pair i < j in ``np.triu_indices`` order.
    The terms are unique by construction.  Only the coefficients depend on
    vbar and chi beyond which terms exist, so every Hamiltonian with the same
    n and number of pair-term kinds shares one table and one memo
    (``_position_table``).
    """
    n = params.n
    coupling = -params.vbar / (2.0 * (n - 1))
    # Per pair: X_i X_j, then Y_i Y_j unless its coefficient is zero.
    kinds = []
    if params.vbar > 0 and coupling != 0.0:
        kinds.append(coupling)
        if params.chi * coupling != 0.0:
            kinds.append(params.chi * coupling)
    positions, memo = _position_table(n, len(kinds))
    coeffs = np.full(len(positions), 0.5)
    for k, c in enumerate(kinds):
        coeffs[n + k :: len(kinds)] = c
    return PauliHamiltonian(n, coeffs, positions, memo)


@lru_cache(maxsize=4)
def _position_table(n: int, kinds: int) -> tuple[np.ndarray, dict]:
    """Read-only position table of ``build_lmg``'s terms with ``kinds`` pair
    terms (none, X_i X_j, or X_i X_j then Y_i Y_j) per pair, and the memo of
    the work that depends only on it (``PauliHamiltonian.memo``)."""
    total = n + kinds * n * (n - 1) // 2
    shift = 64 * _words(n)
    # Qubit q is bit n - q; X_i X_j holds two positions, Y_i Y_j four.
    positions = np.full((total, 2 * kinds or 1), 2 * shift, dtype=np.int32)
    positions[:n, 0] = np.arange(n - 1, -1, -1)
    if kinds:
        i, j = np.triu_indices(n, 1)
        bits = np.stack([n - 1 - j, n - 1 - i], axis=1)
        positions[n::kinds, :2] = shift + bits
        if kinds == 2:
            positions[n + 1 :: 2] = np.concatenate([bits, shift + bits], axis=1)
    positions.setflags(write=False)
    return positions, {}


# -- family builders ---------------------------------------------------------


def parity_string(n: int) -> PauliString:
    """(-1)^n Z_1 .. Z_n, the parity completion of the pair families."""
    return PauliString.from_ops(n, {q: "Z" for q in range(1, n + 1)}, phase_exp=(n % 2) * 2)


def product_family_group(n: int, signs) -> StabilizerGroup:
    gens = tuple(
        PauliString.from_ops(n, {q: "Z"}, phase_exp=0 if s > 0 else 2)
        for q, s in zip(range(1, n + 1), signs)
    )
    return StabilizerGroup(n, gens)


def pair_family_group(
    n: int, letter: str, pair_signs, completion: PauliString | None = None
) -> StabilizerGroup:
    """<s_i L_i L_n for i < n> completed by an n-th commuting generator.

    The default completion is the parity string (-1)^n Z_1..Z_n.
    """
    if letter not in ("X", "Y"):
        raise ValueError("pair family letter must be X or Y")
    pair_signs = tuple(pair_signs)
    if len(pair_signs) != n - 1:
        raise ValueError("need n - 1 pair signs")
    gens = [
        PauliString.from_ops(n, {i: letter, n: letter}, phase_exp=0 if s > 0 else 2)
        for i, s in zip(range(1, n), pair_signs)
    ]
    gens.append(parity_string(n) if completion is None else completion)
    return StabilizerGroup(n, tuple(gens))


def negated_pair_completion(params: LmgParams) -> bool:
    """Whether the energy-optimal X-pair group completes with -Z1Z2.

    Only at n = 2: there Z1Z2 is in the X-pair group and Y1Y2 = -X1X2 Z1Z2,
    so the completion is -Z1Z2, and the state (|01> + |10>)/sqrt(2), exactly
    when the Y1Y2 coefficient is negative (chi > 0 and vbar > 0).  For n > 2
    no term of H detects the completion's sign.
    """
    return params.n == 2 and params.chi > 0 and params.vbar > 0


def candidate_groups(h: PauliHamiltonian, params: LmgParams) -> list[LmgCandidate]:
    """The energy-optimal group of each family with its energy, in family order.

    The product family puts every spin down, and the X-pair family makes
    every X_i X_n positive and completes with ``negated_pair_completion``'s
    sign.  The groups and their expectations come from ``_scored``; the
    energies are summed afresh from ``h``'s coefficients.
    """
    n = params.n
    completion = parity_string(2).negate() if negated_pair_completion(params) else None
    builders = [
        ("s1", lambda: product_family_group(n, (-1,) * n)),
        ("s2", lambda: pair_family_group(n, "X", (1,) * (n - 1), completion)),
    ]
    candidates = []
    for family, build in builders:
        group, values = _scored(h, params, family, build)
        candidates.append(LmgCandidate(family, group, hamiltonian_energy(h, values), values))
    return candidates


def _scored(h: PauliHamiltonian, params: LmgParams, name: str, build):
    """The group ``build()`` makes, under ``name``, and its read-only int8
    expectations of every term of ``h``, kept in ``h.memo``.

    Expectations depend only on the position table and the group, and each
    named group only on n and ``negated_pair_completion``.  Every
    ``build_lmg`` point of one structure shares one memo, so a process that
    returns to a structure ``_position_table`` still holds does not score it
    again.
    """
    key = (name, h.n, params.n, negated_pair_completion(params))
    if key not in h.memo:
        group = build()
        values = group.expectations(h)
        values.setflags(write=False)
        h.memo[key] = (group, values)
    return h.memo[key]


def best_family_energy(candidates, family: str) -> float:
    return min(c.energy for c in candidates if c.family == family)


def symmetry_breaking_group(n: int) -> StabilizerGroup:
    """The single-pair group {X_1 X_2, -Y_1 Y_2, -Z_k for k > 2}."""
    if n < 3:
        raise ValueError("the single-pair family needs n >= 3")
    gens = [
        PauliString.from_ops(n, {1: "X", 2: "X"}),
        PauliString.from_ops(n, {1: "Y", 2: "Y"}, phase_exp=2),
    ]
    gens += [PauliString.from_ops(n, {q: "Z"}, phase_exp=2) for q in range(3, n + 1)]
    return StabilizerGroup(n, tuple(gens))


def symmetry_breaking_energy(h: PauliHamiltonian, params: LmgParams) -> float:
    """Energy of ``symmetry_breaking_group``, its expectations from ``_scored``.

    Breaks permutation symmetry; serves as a guard that the symmetric
    families are never beaten by it.  Equals
    -(n-2)/2 - vbar (1 - chi) / (2 (n-1)).
    """
    _, values = _scored(h, params, "guard", lambda: symmetry_breaking_group(params.n))
    return hamiltonian_energy(h, values)


def select_candidate(
    h: PauliHamiltonian, params: LmgParams, candidates: list[LmgCandidate]
) -> LmgCandidate:
    """The lowest-energy candidate among ``candidates`` (from ``candidate_groups``).

    Candidates within 1e-12 relative energy count as tied and resolve toward
    the earlier one; ``candidate_groups`` lists the families in order, so the
    product family wins a tie with the X-pair family.  The tolerance keeps
    the selection transition exact: at the degenerate coupling the pair
    energy sums n(n-1)/2 copies of vbar/(2(n-1)), whose rounding (well under
    1e-13 relative) must not pick the winner, while a genuine coupling
    offset of 1e-9 still flips the selection.  The sums run
    left to right in term order (see ``hamiltonian_energy``), so ties
    resolve the same way on every Python version.  For n >= 3 the
    symmetry-breaking pair group must not beat the choice.
    """
    floor = min(c.energy for c in candidates)
    tol = 1e-12 * max(1.0, abs(floor))
    chosen = next(c for c in candidates if c.energy <= floor + tol)
    if params.n >= 3:
        guard = symmetry_breaking_energy(h, params)
        if guard < chosen.energy - 1e-9:
            raise AssertionError(
                "symmetry-breaking pair group beat every symmetric candidate"
            )
    return chosen


def select_split(h: PauliHamiltonian, params: LmgParams) -> HamiltonianSplit:
    """Pick the lowest-energy candidate group (``select_candidate``) and split
    H around it."""
    return split_around(h, params, select_candidate(h, params, candidate_groups(h, params)))


def split_around(h: PauliHamiltonian, params: LmgParams, chosen: LmgCandidate) -> HamiltonianSplit:
    """Split H around one candidate group.

    Terms with a nonzero expectation in the group's state (read from
    ``chosen.expectations``, so ``chosen`` must have been scored on ``h``)
    form the stabilizer part; the rest form the magic part.  Both keep H's
    term order.
    """
    nonzero = chosen.expectations != 0
    return HamiltonianSplit(
        params=params,
        family=chosen.family,
        group=chosen.group,
        stab_energy=chosen.energy,
        stab_part=h.subset(nonzero),
        magic_part=h.subset(~nonzero),
    )


# -- preparation -------------------------------------------------------------


def preparation_circuit(split: HamiltonianSplit) -> list[CliffordGate]:
    """Gate list preparing the selected stabilizer state from |0...0>.

    The product family is a layer of X gates.  The pair family follows the
    star-graph route: Hadamards, the star of CZ gates onto the hub qubit n,
    a final Hadamard on the hub, and an X on qubit 1 when the group has odd
    parity (``_odd_parity``).
    """
    n = split.params.n
    group = split.group
    if split.family == "s1":
        return [
            CliffordGate("X", (q,))
            for q in range(1, n + 1)
            if group.expectation(PauliString.from_ops(n, {q: "Z"})) == -1
        ]
    if split.family == "s2":
        for i in range(1, n):
            if group.expectation(PauliString.from_ops(n, {i: "X", n: "X"})) != 1:
                raise ValueError("preparation supports the energy-optimal pair family")
        gates = [CliffordGate("H", (q,)) for q in range(1, n + 1)]
        gates += [CliffordGate("CZ", (i, n)) for i in range(1, n)]
        gates.append(CliffordGate("H", (n,)))
        if _odd_parity(group):
            gates.append(CliffordGate("X", (1,)))
        return gates
    raise ValueError(f"no preparation circuit for family {split.family!r}")


def _odd_parity(group: StabilizerGroup) -> bool:
    """Whether the group's state has Z_1..Z_n expectation -1.

    True for the default parity completion exactly when n is odd; at n = 2
    ``candidate_groups`` can also pick the negated completion.
    """
    return group.expectation(parity_string(group.n).unsigned()) == -1


def _ladder_state(n: int, seed_one: bool) -> np.ndarray:
    """CNOT-ladder construction: the gates CX(j -> i) over all pairs i < j,
    applied to |seed> on qubit 1 and |+> elsewhere."""
    vec = np.zeros(2, dtype=complex)
    vec[1 if seed_one else 0] = 1.0
    for _ in range(n - 1):
        vec = np.kron(vec, np.array([1.0, 1.0], dtype=complex) / np.sqrt(2))
    pairs = [(i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1)]
    for i, j in reversed(pairs):
        vec = apply_circuit(vec, n, [CliffordGate("CX", (j, i))])
    return vec


def _star_route_state(n: int, flip_first: bool | None = None) -> np.ndarray:
    """Star graph state with a Hadamard on the hub qubit n, then an X on
    qubit 1 if ``flip_first``; by default when n is odd, the parity of the
    default completion."""
    if flip_first is None:
        flip_first = bool(n % 2)
    star = np.zeros((n, n), dtype=np.int8)
    star[: n - 1, n - 1] = 1
    star[n - 1, : n - 1] = 1
    vec = prepare_graph_state(star)
    vec = apply_circuit(vec, n, [CliffordGate("H", (n,))])
    if flip_first:
        vec = apply_circuit(vec, n, [CliffordGate("X", (1,))])
    return vec


def prepare_stab_state(split: HamiltonianSplit) -> np.ndarray:
    """Prepare the selected stabilizer state and cross-check all routes.

    The circuit route, the projector route (tableau extraction), and for the
    pair family the CNOT-ladder and star-graph routes must agree pairwise to
    overlap >= 1 - 1e-12, else a RuntimeError is raised.
    """
    n = split.params.n
    dim = 1 << n
    start = np.zeros(dim, dtype=complex)
    start[0] = 1.0
    routes = {
        "circuit": apply_circuit(start, n, preparation_circuit(split)),
        "projector": split.group.to_statevector(),
    }
    if split.family == "s2":
        odd = _odd_parity(split.group)
        routes["ladder"] = _ladder_state(n, seed_one=odd)
        routes["graph"] = _star_route_state(n, flip_first=odd)
    names = list(routes)
    for a in range(len(names)):
        for b in range(a + 1, len(names)):
            overlap = abs(np.vdot(routes[names[a]], routes[names[b]]))
            if overlap < 1.0 - _ROUTE_TOL:
                raise RuntimeError(
                    f"preparation routes {names[a]} and {names[b]} disagree "
                    f"(overlap {overlap:.15f})"
                )
    return canonical_phase(routes["circuit"])
