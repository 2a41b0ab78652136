"""Builders for concrete chiral walk models.

Each builder returns a fully validated :class:`ChiralPair`. Basis
orderings are fixed and documented so the matrices are reproducible:

* search operator on n qubits: position-major over the ordered basis
  |x, +>, |x, -> for x = 0 .. 2^n - 1, so coordinate 2x carries the +
  coin component of position x and coordinate 2x + 1 the - component;
* edge walk on a graph: the listed edges first (in input order), then
  their inverses (in input order);
* split-step walk on a cycle: site-major, coordinate 2x + s for site x
  and spin component s in {0, 1}.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .chiral import ChiralPair, make_pair
from .errors import GraphInvalid, OutOfRange, ParamInvariantViolated
from .linalg import DEFAULT_TOL, Tolerance

# Beyond dimension 2^13 a search pair gets silently slow. Its report makes
# no n x n eigensolve, but make_pair's eight n x n products and the
# projection-pair route's two eigvalsh of (Gamma -+ C)/2 still cost O(n^3).
MAX_SEARCH_QUBITS = 12


@dataclass(frozen=True)
class Graph:
    """A connected undirected multigraph given by an edge list.

    Vertices are 0-based indices; ``edges`` lists one direction of each
    undirected edge (multiple edges and self-loops allowed). Every listed
    edge implicitly carries its reversal, and the degree of a vertex
    counts directed edges originating there, so a self-loop contributes
    two.
    """

    vertex_count: int
    edges: tuple[tuple[int, int], ...]

    def __post_init__(self) -> None:
        if self.vertex_count < 1:
            raise GraphInvalid("graph must have at least one vertex")
        for o, t in self.edges:
            if not (0 <= o < self.vertex_count and 0 <= t < self.vertex_count):
                raise GraphInvalid(
                    f"edge ({o}, {t}) leaves the vertex range "
                    f"[0, {self.vertex_count})"
                )
        deg = self.degrees()
        isolated = [v for v in range(self.vertex_count) if deg[v] == 0]
        if isolated:
            raise GraphInvalid(f"vertices {isolated} have degree zero")
        # connectivity via union-find over the undirected edges
        parent = list(range(self.vertex_count))

        def find(v: int) -> int:
            while parent[v] != v:
                parent[v] = parent[parent[v]]
                v = parent[v]
            return v

        for o, t in self.edges:
            parent[find(o)] = find(t)
        roots = {find(v) for v in range(self.vertex_count)}
        if len(roots) > 1:
            raise GraphInvalid(
                f"graph is disconnected ({len(roots)} components)"
            )

    @property
    def edge_count(self) -> int:
        return len(self.edges)

    def directed_edges(self) -> list[tuple[int, int]]:
        """Listed edges followed by their reversals, preserving input order."""
        return list(self.edges) + [(t, o) for o, t in self.edges]

    def degrees(self) -> np.ndarray:
        deg = np.zeros(self.vertex_count, dtype=int)
        for o, _ in self.edges:
            deg[o] += 1
        for _, t in self.edges:
            deg[t] += 1
        return deg


@dataclass(frozen=True)
class SplitStepParams:
    """Parameters of the split-step walk on a cycle.

    ``sites`` is the cycle length; ``p`` (real) and ``q`` (complex)
    weight the shift and must satisfy p^2 + |q|^2 = 1; ``coin_angles``
    holds one angle per site, parameterizing the real symmetric
    involution coin at that site.
    """

    sites: int
    p: float
    q: complex
    coin_angles: tuple[float, ...]


def grover_search(qubits: int, target: int, tol: Tolerance = DEFAULT_TOL) -> ChiralPair:
    """Search-operator pair on n qubits plus a 2-dim oracle register.

    The coin flips the sign of the marked state |target, ->; the grading
    reflects positions about the uniform superposition and acts as the
    identity on the oracle register. The evolution is grading times coin,
    which is the grading with its marked column negated. All three are
    real.
    """
    if qubits < 1:
        raise OutOfRange(f"qubit count must be at least 1, got {qubits}")
    if qubits > MAX_SEARCH_QUBITS:
        raise OutOfRange(
            f"qubit count {qubits} exceeds the supported maximum "
            f"{MAX_SEARCH_QUBITS}"
        )
    n_positions = 2**qubits
    if not 0 <= target < n_positions:
        raise OutOfRange(
            f"target {target} outside position range [0, {n_positions})"
        )
    uniform = np.full(n_positions, 1.0 / math.sqrt(n_positions))
    reflect = 2.0 * np.outer(uniform, uniform) - np.eye(n_positions)
    gamma = np.kron(reflect, np.eye(2))
    u = gamma.copy()
    u[:, 2 * target + 1] *= -1.0
    return make_pair(u, gamma, tol)


def _search_initial_state(qubits: int) -> np.ndarray:
    # Real, like the search evolution, so no step casts the evolution to complex.
    n_positions = 2**qubits
    state = np.zeros(2 * n_positions)
    state[1::2] = 1.0 / math.sqrt(n_positions)  # uniform positions, - coin
    return state


def search_probability_table(
    qubits: int,
    target: int,
    steps: int,
    measure: int | None = None,
    tol: Tolerance = DEFAULT_TOL,
) -> list[tuple[int, float, float]]:
    """Rows (step, probability at the measured position, total probability).

    Starts from the uniform superposition tensored with the - oracle
    state and applies the search evolution step by step.
    """
    if steps < 0:
        raise OutOfRange(f"step count must be nonnegative, got {steps}")
    # The measured position is checked before the dense pair is built;
    # grover_search rejects a qubit count or target out of range.
    if measure is not None and 1 <= qubits <= MAX_SEARCH_QUBITS and not 0 <= measure < 2**qubits:
        raise OutOfRange(f"measured position {measure} outside [0, {2**qubits})")
    pair = grover_search(qubits, target, tol)
    x = target if measure is None else measure
    state = _search_initial_state(qubits)
    rows = []
    for step in range(steps + 1):
        prob = float(abs(state[2 * x]) ** 2 + abs(state[2 * x + 1]) ** 2)
        total = float(np.vdot(state, state).real)
        rows.append((step, prob, total))
        if step < steps:
            state = pair.u @ state
    return rows


def grover_walk(graph: Graph, tol: Tolerance = DEFAULT_TOL) -> ChiralPair:
    """Edge-reversal walk pair on the directed edges of a graph.

    The grading swaps each directed edge with its reversal; the coin is
    built from the coisometry that averages edge amplitudes at their
    origin vertex with degree weights.
    """
    directed = graph.directed_edges()
    dim = len(directed)
    if dim == 0:
        raise GraphInvalid("graph has no edges")
    ne = graph.edge_count
    shift = np.zeros((dim, dim))
    for i in range(ne):
        shift[i, ne + i] = 1.0
        shift[ne + i, i] = 1.0
    deg = graph.degrees()
    d = np.zeros((graph.vertex_count, dim))
    for j, (origin, _) in enumerate(directed):
        d[origin, j] = 1.0 / math.sqrt(deg[origin])
    coin = 2.0 * d.T @ d - np.eye(dim)
    return make_pair(shift @ coin, shift, tol)


def split_step_cycle(params: SplitStepParams, tol: Tolerance = DEFAULT_TOL) -> ChiralPair:
    """Split-step walk pair on a cycle.

    The grading couples neighbouring sites through the cyclic shift and
    is a unitary involution whenever p^2 + |q|^2 = 1; the coin applies an
    independent real symmetric involution at each site.
    """
    m = params.sites
    if m < 1:
        raise ParamInvariantViolated(f"cycle length must be positive, got {m}")
    if len(params.coin_angles) != m:
        raise ParamInvariantViolated(
            f"expected {m} coin angles, got {len(params.coin_angles)}"
        )
    p = float(params.p)
    q = complex(params.q)
    residual = abs(p * p + abs(q) ** 2 - 1.0)
    if residual > tol.structural:
        raise ParamInvariantViolated(
            f"p^2 + |q|^2 deviates from 1 by {residual:.6e}"
        )
    dim = 2 * m
    shift = np.zeros((dim, dim), dtype=np.complex128)
    for x in range(m):
        shift[2 * x, 2 * x] = p
        shift[2 * x, 2 * ((x - 1) % m) + 1] = np.conj(q)
        shift[2 * x + 1, 2 * ((x + 1) % m)] = q
        shift[2 * x + 1, 2 * x + 1] = -p
    coin = np.zeros((dim, dim), dtype=np.complex128)
    for x, angle in enumerate(params.coin_angles):
        c, s = math.cos(angle), math.sin(angle)
        coin[2 * x: 2 * x + 2, 2 * x: 2 * x + 2] = [[c, s], [s, -c]]
    return make_pair(shift @ coin, shift, tol)


def toy_two_dim(beta: float, gamma_phase: float, tol: Tolerance = DEFAULT_TOL) -> ChiralPair:
    """Two-dimensional toy pair with diagonal phase evolution.

    The evolution is diag(e^{i beta}, e^{-i beta}); the grading is the
    phase swap with angle ``gamma_phase``, so the coin is the phase swap
    with angle ``gamma_phase - beta``.
    """
    u = np.diag([np.exp(1j * beta), np.exp(-1j * beta)])
    gamma = np.array(
        [[0.0, np.exp(1j * gamma_phase)], [np.exp(-1j * gamma_phase), 0.0]],
        dtype=np.complex128,
    )
    return make_pair(u, gamma, tol)


_TOY_FOUR_GRADINGS = {
    1: [-1, -1, -1, -1],
    2: [1, -1, -1, -1],
    3: [1, 1, -1, -1],
    4: [1, -1, 1, 1],
    5: [1, 1, 1, 1],
}


def toy_four_dim(variant: int, tol: Tolerance = DEFAULT_TOL) -> ChiralPair:
    """Four-dimensional pair showing the index depends on the grading.

    The evolution diag(1, 1, 1, -1) is fixed; ``variant`` 1..5 selects a
    diagonal sign grading, giving indices -4, -2, 0, 2, 4 in turn.
    """
    if variant not in _TOY_FOUR_GRADINGS:
        raise OutOfRange(f"variant must be 1..5, got {variant}")
    u = np.diag([1.0, 1.0, 1.0, -1.0]).astype(np.complex128)
    gamma = np.diag(_TOY_FOUR_GRADINGS[variant]).astype(np.complex128)
    return make_pair(u, gamma, tol)
