"""Frozen reference: instance generation as it was before the draw helper.

``make_instance`` here draws each list with ``random.Random.sample`` and
each defect with ``randrange(4)``, reads degrees through
``ColoredGraph.degree`` and re-sums the whole defect map after every
raise.  Tests compare the library's ``make_instance`` with this copy by
the bytes ``instance_to_json`` writes, or by the error class and
message of an infeasible input.
"""

from __future__ import annotations

import math
import random

from listdefect.conflict import tau_of
from listdefect.errors import InfeasibleParams
from listdefect.generate import LIST_MODELS
from listdefect.graphs import ColoredGraph, LdcInstance


def _target_threshold(
    target: str, graph: ColoredGraph, v: int, space_size: int, g: int, alpha: float
) -> tuple[int, int]:
    deg = graph.degree(v)
    if target in ("eq1", "eq2"):
        return 1, deg + 1
    if target not in ("eq5", "eq6"):
        raise InfeasibleParams(f"unknown target {target!r}")
    beta = graph.beta(v) if graph.out_neighbors is not None else max(1, deg)
    h = max(1, beta.bit_length())
    tau = tau_of(h, space_size, graph.m)
    if target == "eq5":
        return 2, math.ceil(alpha * beta**2 * tau * h * (2 * g + 1))
    hp = max(1, math.ceil(math.log2(8 * h)))
    taubar = tau_of(hp, h, graph.m)
    return 2, math.ceil(alpha**2 * beta**2 * tau * taubar * hp**2)


def make_instance(
    graph: ColoredGraph,
    list_model: str,
    seed: int,
    space_size: int = 32,
    k: int = 4,
    flavor: str = "defective",
    g: int = 0,
    target: str = "eq1",
    alpha: float = 1.0,
) -> LdcInstance:
    rng = random.Random(("inst", list_model, seed, space_size, k, flavor, g, target).__repr__())
    if list_model not in LIST_MODELS:
        raise InfeasibleParams(f"unknown list model {list_model!r}")
    if space_size < 1:
        raise InfeasibleParams("empty color space")
    space = list(range(space_size))
    lists: list[list[int]] = []
    defects: list[dict[int, int]] = []
    for v in range(graph.n):
        if list_model == "degree-plus-one":
            size = graph.degree(v) + 1
            if size > space_size:
                raise InfeasibleParams(
                    f"degree+1 = {size} exceeds the color space at node {v}"
                )
            lst = sorted(rng.sample(space, size))
            dv = dict.fromkeys(lst, 0)
        elif list_model == "uniform-k":
            if k > space_size:
                raise InfeasibleParams("k exceeds the color space")
            lst = sorted(rng.sample(space, k))
            dv = dict.fromkeys(lst, 0)
        else:
            size = min(space_size, max(1, k))
            lst = sorted(rng.sample(space, size))
            dv = {x: rng.randrange(4) for x in lst}
            exponent, need = _target_threshold(target, graph, v, space_size, g, alpha)
            double = 2 if target == "eq2" else 1

            def total() -> int:
                return sum((double * d + 1) ** exponent for d in dv.values())

            guard = 0
            while total() < need:
                x = lst[guard % len(lst)]
                dv[x] += 1
                guard += 1
                if guard > 10_000_000:
                    raise InfeasibleParams("defect budget did not converge")
        lists.append(lst)
        defects.append(dv)
    return LdcInstance._trusted(tuple(space), tuple(map(tuple, lists)), tuple(defects), flavor, g)
