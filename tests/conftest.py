"""Shared builders for the test suite."""

from __future__ import annotations

import random

from hypothesis import strategies as st

from listdefect import ColoredGraph, LdcInstance
from listdefect.conflict import TypeTable, color_mask, masks_conflict, shifted_masks


def count_validations(monkeypatch) -> list[LdcInstance]:
    """Record every LdcInstance that ``__post_init__`` validates from now on."""
    seen: list[LdcInstance] = []
    real = LdcInstance.__post_init__

    def counting(self):
        seen.append(self)
        real(self)

    monkeypatch.setattr(LdcInstance, "__post_init__", counting)
    return seen


def complete_graph(n: int) -> ColoredGraph:
    return ColoredGraph.build(n, [(u, v) for u in range(n) for v in range(u + 1, n)])


def ring_graph(n: int, oriented: bool = False) -> ColoredGraph:
    edges = [(i, (i + 1) % n) for i in range(n)]
    return ColoredGraph.build(n, edges, orientation=edges if oriented else None)


def random_dag(n: int, max_out: int, p: float, seed: int) -> ColoredGraph:
    """Random DAG with outdegree capped at max_out, oriented low-to-high."""
    rng = random.Random(seed)
    edges = []
    outdeg = [0] * n
    for u in range(n):
        for v in range(u + 1, n):
            if outdeg[u] < max_out and rng.random() < p:
                edges.append((u, v))
                outdeg[u] += 1
    return ColoredGraph.build(n, edges, orientation=edges)


# bit budgets of the differential tests; None is LOCAL mode
BUDGETS = st.sampled_from([None, 3, 8, 32])


@st.composite
def graphs(draw, oriented=None):
    """Up to 40 nodes, some of them isolated, ids shuffled; oriented or not."""
    n = draw(st.integers(0, 40))
    core = n - draw(st.integers(0, min(n, 6)))
    p = draw(st.floats(0.0, 0.5))
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    ids = list(range(n))
    rng.shuffle(ids)
    edges = [(ids[u], ids[v]) for u in range(core) for v in range(u + 1, core) if rng.random() < p]
    if oriented is None:
        oriented = draw(st.booleans())
    orientation = [(u, v) if rng.random() < 0.5 else (v, u) for u, v in edges]
    return ColoredGraph.build(n, edges, orientation=orientation if oriented else None)


def uniform_instance(
    graph: ColoredGraph,
    space_size: int,
    list_size: int,
    defect: int,
    seed: int,
    flavor: str = "oriented",
    g: int = 0,
) -> LdcInstance:
    rng = random.Random(seed)
    space = list(range(space_size))
    lists = [sorted(rng.sample(space, list_size)) for _ in range(graph.n)]
    return LdcInstance.build(
        space, lists, [{x: defect for x in l} for l in lists], flavor=flavor, g=g
    )


def blockspread_instance(graph: ColoredGraph, seed: int) -> LdcInstance:
    """|C| = 256 split into 16 blocks of 16; each list takes one color per
    block, every defect is 7.  Satisfies the space-reduction condition with
    kappa = 4 at every level for outdegrees up to 2."""
    rng = random.Random(seed)
    space = list(range(256))
    lists = [
        sorted(16 * b + rng.randrange(16) for b in range(16)) for _ in range(graph.n)
    ]
    return LdcInstance.build(
        space, lists, [{x: 7 for x in l} for l in lists], flavor="oriented", g=0
    )


# -- audit references for the type table ------------------------------------------


def psi_g_member(k1, k2, tau_prime: int, tau: int, g: int) -> bool:
    """Directed family-level conflict (K_1, K_2) in Psi_g(tau', tau).

    True iff at least tau' distinct members of K_1 each tau&g-conflict
    with some member of K_2.  Not symmetric.
    """
    masks2 = [color_mask(c2) for c2 in k2]
    hits = 0
    for c1 in k1:
        shifted = shifted_masks(color_mask(c1), g)
        if any(masks_conflict(shifted, m2, tau) for m2 in masks2):
            hits += 1
            if hits >= tau_prime:
                return True
    return False


def verify_table(table: TypeTable) -> bool:
    """The TypeTable invariant, checked exhaustively: no assigned type's
    family is in Psi_g(tau', tau) against the family of another type of
    the same or a lower class."""
    tau, tp, g = table.params.tau, table.params.tau_prime, table.params.g
    for i, ti in enumerate(table.types):
        for j, tj in enumerate(table.types):
            if i == j:
                continue
            if tj.gamma_class <= ti.gamma_class and psi_g_member(
                table.families[i], table.families[j], tp, tau, g
            ):
                return False
    return True
