"""Single-defect OLDC against its frozen reference (``reference_single_defect``).

Both copies run on the same small DAG, lists, defects, g, predecided
nodes, h and scaled config, under the same bit budget, with every
message recorded.  They must give equal colors, per-round bits and
message records, or raise the same exception class with the same
message, node, round, edge and size.  A type outweighs every later
message, so a budget that passes round 1 passes the rest; some draws
therefore price the candidate-set or color messages 64 bits higher, so
that a budget also stops a run in those rounds.
"""

from __future__ import annotations

import random
from collections import Counter
from unittest import mock

from hypothesis import event, given, settings
from hypothesis import strategies as st

import reference_single_defect
from listdefect import OldcConfig, network, oldc_basic, runtime
from listdefect.errors import BudgetViolation, FailFast, NodeFailure

from conftest import random_dag

SPACE = range(48)


@st.composite
def single_defect_cases(draw):
    """Up to 12 nodes with outdegree <= 4, lists of 1 to 20 colors, defects
    0-3, maybe some predecided nodes, and an h that may exceed every
    realized class, so that some color rounds have no member."""
    n = draw(st.integers(1, 12))
    graph = random_dag(
        n, draw(st.integers(1, 4)), draw(st.sampled_from([0.2, 0.4, 0.7])),
        draw(st.integers(0, 2**16)),
    )
    rng = random.Random(draw(st.integers(0, 2**16)))
    lists = [sorted(rng.sample(SPACE, draw(st.integers(1, 20)))) for _ in range(n)]
    defects = draw(st.lists(st.integers(0, 3), min_size=n, max_size=n))
    predecided = {v: lists[v][0] for v in range(n) if draw(st.integers(0, 4)) == 0}
    config = OldcConfig(
        alpha=draw(st.sampled_from([0.1, 0.25, 1.0])),
        scale_override=(draw(st.integers(1, 2)), 2),
    )
    h_arg = draw(st.sampled_from([None, 1, 3, 5]))
    budget = draw(st.sampled_from([None, 6, 16, 64]))
    heavy = draw(st.sampled_from([None, "cset", "color"]))
    return graph, lists, defects, draw(st.integers(0, 1)), config, h_arg, predecided, budget, heavy


def _outcome(solve, graph, lists, defects, g, config, h_arg, predecided, budget, heavy):
    real = runtime.message_bits

    def message_bits(msg):  # a message with the field ``heavy`` costs 64 bits more
        return real(msg) + (64 if heavy in msg else 0)

    with network(bits_per_message=budget, record_messages=True), \
            mock.patch.object(runtime, "message_bits", message_bits):
        try:
            out, trace = solve(graph, SPACE, lists, defects, g, config, h_arg, predecided)
        except FailFast as exc:
            fields = [getattr(exc, f, None) for f in ("node", "round_no", "edge", "size")]
            return type(exc), str(exc), fields
    return out.colors, trace.max_message_bits, trace.messages


def test_single_defect_runs_as_on_the_reference():
    kinds: Counter = Counter()

    def seen(kind):
        event(kind)
        kinds[kind] += 1

    # derandomized: the counts below must not depend on the run's seed
    @settings(max_examples=800, deadline=None, derandomize=True)
    @given(single_defect_cases())
    def check(case):
        got = _outcome(oldc_basic._run_single_defect, *case)
        assert got == _outcome(reference_single_defect.run_single_defect, *case)
        if len(got) == 3 and isinstance(got[0], type):
            kind, round_no = got[0].__name__, got[2][1]
            seen(f"abort: {kind}" + (" in a color round" if (round_no or 0) >= 3 else ""))
            return
        colors, per_round, messages = got
        if len(per_round) >= 3:
            seen("ok: a color round")
        if set(range(1, len(per_round) + 1)) - {row[0] for row in messages}:
            seen("ok: a silent round between sending rounds")

    check()
    # the draws reach color rounds and silent middle rounds, and budgets
    # stop runs there: not only the checks before the first round are compared
    for kind in ("ok: a color round", "ok: a silent round between sending rounds",
                 "abort: BudgetViolation in a color round"):
        assert kinds[kind] >= 5, kinds


def test_a_failing_node_comes_after_an_earlier_sender_over_budget():
    # node 5 fails its round-2 check; node 0 sends its index in round 2
    # before node 5 steps, so an over-budget index is named first
    rng = random.Random(63)
    n = rng.randint(3, 10)
    graph = random_dag(n, rng.randint(2, 4), 0.5, 63)
    lists = [sorted(rng.sample(SPACE, rng.randint(8, 14))) for _ in range(n)]
    defects = [rng.randint(1, 3) for _ in range(n)]
    config = OldcConfig(alpha=0.25, scale_override=(2, 2))
    outcomes = {}
    for budget, heavy in [(None, None), (64, "cset")]:
        case = (graph, lists, defects, 0, config, None, {}, budget, heavy)
        outcomes[heavy] = _outcome(oldc_basic._run_single_defect, *case)
        assert outcomes[heavy] == _outcome(reference_single_defect.run_single_defect, *case)
    assert outcomes[None][0] is NodeFailure and outcomes[None][2][:2] == [5, 2]
    assert outcomes["cset"][0] is BudgetViolation
    assert outcomes["cset"][2][1:3] == [2, (0, 1)]
