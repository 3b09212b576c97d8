import pytest

from listdefect import (
    BudgetViolation,
    ColoredGraph,
    ColorListField,
    IndexField,
    Pow2DefectField,
    RawField,
    RoundLimitExceeded,
    message_bits,
    network,
    run,
)
from listdefect import runtime
from listdefect.errors import NodeFailure

from conftest import ring_graph


PATH3 = ColoredGraph.build(3, [(0, 1), (1, 2)], init_colors=[0, 1, 0], m=2)


class ZeroRound:
    def init(self, view):
        return None, view.node

    def step(self, state, inbox, rnd):  # pragma: no cover
        raise AssertionError("zero-round program must not step")


class FloodIds:
    def __init__(self, bits):
        self.bits = bits

    def init(self, view):
        return {"view": view, "seen": {view.node}}, None

    def step(self, state, inbox, rnd):
        for msg in inbox.values():
            state["seen"].update(msg["ids"].value)
        payload = {"ids": RawField(tuple(sorted(state["seen"])), self.bits)}
        done = len(state["seen"]) == state["view"].n and rnd > 1
        return state, payload, tuple(sorted(state["seen"])) if done else None


def test_zero_round_program():
    tr = run(PATH3, ZeroRound())
    assert tr.rounds_elapsed == 0
    assert tr.max_bits() == 0
    assert tr.outputs == [0, 1, 2]


def test_flood_budget_violation():
    with network(bits_per_message=32), pytest.raises(BudgetViolation) as exc:
        run(PATH3, FloodIds(64))
    assert exc.value.round_no == 1
    assert exc.value.size == 64


def test_flood_within_budget():
    with network(bits_per_message=64):
        tr = run(PATH3, FloodIds(64))
    assert all(out == (0, 1, 2) for out in tr.outputs)


def test_single_round_exchange_accounting():
    class OneShot:
        def init(self, view):
            return view, None

        def step(self, view, inbox, rnd):
            if rnd == 1:
                return view, {"p": RawField(0, 17)}, None
            return view, None, sorted(inbox)

    tr = run(PATH3, OneShot())
    assert tr.max_message_bits[0] == 17
    # isolation: round-1 messages become readable in round 2 only
    assert tr.outputs[0] == [1] and tr.outputs[1] == [0, 2]


def test_round_limit():
    class Forever:
        def init(self, view):
            return view, None

        def step(self, view, inbox, rnd):
            return view, {}, None

    with pytest.raises(RoundLimitExceeded):
        run(PATH3, Forever(), max_rounds=5)


def test_node_failure_carries_context():
    class Fails:
        def init(self, view):
            return view, None

        def step(self, view, inbox, rnd):
            if view.node == 1 and rnd == 2:
                raise NodeFailure("boom")
            return view, {}, view.node if rnd >= 3 else None

    with pytest.raises(NodeFailure) as exc:
        run(PATH3, Fails())
    assert exc.value.node == 1 and exc.value.round_no == 2


def test_init_failure_names_the_node_and_round_zero():
    class FailsAtInit:
        def init(self, view):
            if view.node == 2:
                raise NodeFailure("bad view")
            return view, None

        def step(self, view, inbox, rnd):  # pragma: no cover
            raise AssertionError("no node steps after a failed init")

    with pytest.raises(NodeFailure) as exc:
        run(PATH3, FailsAtInit())
    assert exc.value.node == 2 and exc.value.round_no == 0


def test_bit_costs_additive():
    msg = {
        "list": ColorListField((3, 5, 9), 256),
        "defect": Pow2DefectField(4, 16),
        "idx": IndexField(2, 8),
        "init": IndexField(1, 12),
        "raw": RawField("x", 5),
    }
    expected = min(256, 3 * 8) + (2 + 1) + 3 + 4 + 5
    assert message_bits(msg) == expected
    # bitmask beats enumeration for long lists over small spaces
    dense = {"list": ColorListField(tuple(range(6)), 8)}
    assert message_bits(dense) == 8


def test_determinism_and_trace_export():
    tr1 = run(PATH3, FloodIds(16))
    tr2 = run(PATH3, FloodIds(16))
    assert tr1.to_json(verbose=True) == tr2.to_json(verbose=True)
    csv = tr1.to_csv()
    assert csv.splitlines()[0] == "round,max_bits"
    assert csv.splitlines()[1:] == ["1,16", "2,16", "3,16"]


def test_ring_flood_rounds():
    ring = ring_graph(8)
    tr = run(ring, FloodIds(16))
    # diameter 4, one extra round to detect completion
    assert tr.rounds_elapsed == 5


# a star with center 0 and leaves 1..12, plus node 13 adjacent to nothing
STAR = ColoredGraph.build(14, [(0, leaf) for leaf in range(1, 13)])


class SendOnce:
    """Round 1: every node sends message_of(node); round 2: every node outputs."""

    def __init__(self, message_of):
        self.message_of = message_of

    def init(self, view):
        return view, None

    def step(self, view, inbox, rnd):
        if rnd == 1:
            return view, self.message_of(view.node), None
        return view, None, view.node


def test_shared_message_over_budget_names_first_edge():
    program = SendOnce(lambda v: {"p": RawField(0, 40)} if v == 0 else None)
    with network(bits_per_message=32), pytest.raises(BudgetViolation) as exc:
        run(STAR, program)
    assert exc.value.edge == (0, 1)
    assert exc.value.round_no == 1 and exc.value.size == 40


def test_each_sending_nodes_message_is_sized_once_per_round(monkeypatch):
    sized = []

    def counting_bits(msg):
        sized.append(msg)
        return message_bits(msg)

    monkeypatch.setattr(runtime, "message_bits", counting_bits)
    tr = run(STAR, SendOnce(lambda v: {"p": RawField(v, 3 + v % 5)}))
    # nodes 0..12 once each; node 13 has no neighbor to send to
    assert [msg["p"].value for msg in sized] == list(range(13))
    assert tr.max_message_bits == [7]
    sized.clear()
    # FloodIds sends in every round up to and including a node's output round
    tr = run(PATH3, FloodIds(16))
    assert len(sized) == 8


def test_node_without_neighbors_sends_nothing():
    def message_of(v):
        if v == 13:
            return {"p": RawField(v, 99)}  # over the budget, but goes nowhere
        return {"p": RawField(v, 5)} if v == 1 else None

    with network(bits_per_message=32, record_messages=True):
        tr = run(STAR, SendOnce(message_of))
    assert tr.max_message_bits == [5]
    assert tr.messages == [(1, 1, 0, 5)]


def test_a_run_ends_at_its_last_message():
    # round 1: node 1 sends 5 bits; round 3: node 0 sends a 0-bit message
    # and node 13, which has no neighbor, sends 9; every node outputs in
    # round 5.  A silent round between messages is kept, a 0-bit message
    # counts, and the silent rounds after the last one are not rounds
    class Tail:
        def init(self, view):
            return view, None

        def step(self, view, inbox, rnd):
            if rnd == 1 and view.node == 1:
                return view, {"p": RawField(0, 5)}, None
            if rnd == 3 and view.node in (0, 13):
                return view, {"p": RawField(0, 0 if view.node == 0 else 9)}, None
            return view, None, (view.node if rnd == 5 else None)

    with network(record_messages=True):
        tr = run(STAR, Tail())
    assert tr.max_message_bits == [5, 0, 0]
    assert tr.messages == [(1, 1, 0, 5)] + [(3, 0, u, 0) for u in range(1, 13)]
    assert tr.outputs == list(range(14))
    # the neighborless node's message alone ends nothing
    with network(record_messages=True):
        tr = run(STAR, SendOnce(lambda v: {"p": RawField(v, 9)} if v == 13 else None))
    assert tr.max_message_bits == [] and tr.messages == []


def test_record_messages_lists_every_delivered_message():
    shared = {"p": RawField(0, 7)}

    def message_of(v):
        if v == 0:
            return shared
        if v == 13:
            return {}
        return {"p": RawField(v, v)}

    with network(record_messages=True):
        tr = run(STAR, SendOnce(message_of))
    expected = [(1, 0, u, 7) for u in range(1, 13)] + [(1, v, 0, v) for v in range(1, 13)]
    assert tr.messages == expected
    assert tr.max_message_bits == [12]


def test_nested_network_blocks_inherit_and_restore():
    over = SendOnce(lambda v: {"p": RawField(0, 40)} if v == 0 else None)
    with network(bits_per_message=64, record_messages=True):
        with pytest.raises(BudgetViolation):
            with network(bits_per_message=32):
                # the record is inherited from the outer block
                assert runtime.current_network() == runtime.Network(32, True)
                run(STAR, over)
        # the failure left the outer setting in force
        assert runtime.current_network() == runtime.Network(64, True)
        tr = run(STAR, over)
        assert tr.max_message_bits == [40] and len(tr.messages) == 12
    assert runtime.current_network() == runtime.Network()
    assert run(STAR, over).messages == []


def test_round_limit_message_counts_decided_nodes():
    class HalfDecide:
        def init(self, view):
            return view, ("init" if view.node == 0 else None)

        def step(self, view, inbox, rnd):
            return view, {}, ("late" if view.node == 1 and rnd == 2 else None)

    with pytest.raises(RoundLimitExceeded, match=r"^2/3 nodes decided after 5 rounds$"):
        run(PATH3, HalfDecide(), max_rounds=5)


# -- composition ----------------------------------------------------------------


def test_concat_traces_offsets_rounds_and_message_rounds():
    first = runtime.RoundTrace(max_message_bits=[5, 0], messages=[(1, 1, 0, 5)])
    silent = runtime.RoundTrace(max_message_bits=[0])
    last = runtime.RoundTrace(max_message_bits=[3], messages=[(1, 0, 2, 3), (1, 2, 0, 3)])
    tr = runtime.concat_traces([first, silent, last], outputs=[7, 8, 9])
    assert tr.max_message_bits == [5, 0, 0, 3]
    assert tr.messages == [(1, 1, 0, 5), (4, 0, 2, 3), (4, 2, 0, 3)]
    assert tr.rounds_elapsed == 4 and tr.outputs == [7, 8, 9]
    # the parts are left as they were
    assert last.messages == [(1, 0, 2, 3), (1, 2, 0, 3)]


def test_merge_parallel_takes_elementwise_max_and_sorts_messages():
    a = runtime.RoundTrace(max_message_bits=[4, 9], messages=[(2, 5, 6, 9), (1, 5, 6, 4)])
    b = runtime.RoundTrace(max_message_bits=[6, 2, 0, 1], messages=[(1, 0, 1, 6), (4, 1, 0, 1)])
    c = runtime.RoundTrace()
    tr = runtime.merge_parallel([a, b, c])
    assert tr.max_message_bits == [6, 9, 0, 1] and tr.rounds_elapsed == 4
    assert tr.messages == [(1, 0, 1, 6), (1, 5, 6, 4), (2, 5, 6, 9), (4, 1, 0, 1)]
    assert runtime.merge_parallel([]) == runtime.RoundTrace()


def test_composing_silent_recorded_runs_gives_an_empty_message_list():
    silent = SendOnce(lambda v: None)
    with network(record_messages=True):
        parts = [run(STAR, silent), run(PATH3, ZeroRound())]
    for tr in (runtime.concat_traces(parts), runtime.merge_parallel(parts)):
        assert tr.messages == []
        assert '"messages":[]' in tr.to_json(verbose=True)
    assert '"messages"' not in runtime.concat_traces(parts).to_json()


def test_rounds_elapsed_is_the_length_of_the_per_round_record():
    with network(record_messages=True):
        engine = [run(STAR, SendOnce(lambda v: {"p": RawField(v, 5)})),
                  run(ring_graph(8), FloodIds(16)), run(PATH3, ZeroRound())]
    composed = [runtime.concat_traces(engine), runtime.merge_parallel(engine),
                runtime.concat_traces([]), runtime.RoundTrace()]
    for tr in engine + composed:
        assert tr.rounds_elapsed == len(tr.max_message_bits)
        assert all(1 <= rnd <= tr.rounds_elapsed for rnd, _, _, _ in tr.messages)
    assert [tr.rounds_elapsed for tr in engine] == [1, 5, 0]
    assert [tr.rounds_elapsed for tr in composed] == [6, 5, 0, 0]


def test_node_failure_names_its_node_and_round():
    # the suffix is part of every fail-fast report's detail
    assert str(NodeFailure("x", node=3, round_no=2)) == "x [node 3, round 2]"
    assert str(NodeFailure("x", node=3)) == "x [node 3]"
    assert str(NodeFailure("x", round_no=2)) == "x [round 2]"
    assert str(NodeFailure("x")) == "x"


class _SilentSecondRound:
    """Sends its id in round 1 only and decides after round 3; in every
    round it records the senders it reads, then writes into its inbox."""

    def init(self, view):
        return (view.node, []), None

    def step(self, state, inbox, rnd):
        v, read = state
        read.append(sorted(inbox))
        inbox[-1] = {"scribble": RawField(rnd, 1)}
        return state, ({"id": RawField(v, 2)} if rnd == 1 else None), (read if rnd == 3 else None)


def test_a_silent_round_hands_the_next_one_fresh_empty_inboxes():
    # the engine makes a round's next inboxes at its first send; after a
    # silent round every pending node still reads an empty inbox of its own
    trace = run(PATH3, _SilentSecondRound())
    assert trace.outputs == [[[], [1], []], [[], [0, 2], []], [[], [1], []]]
    assert trace.max_message_bits == [2]


# -- broadcast: one round over a sent record --------------------------------------


class Unpriceable(dict):
    """A message that must never be sized."""

    def values(self):  # pragma: no cover
        raise AssertionError("a message that goes nowhere was sized")


def test_broadcast_of_an_empty_record_is_zero_rounds():
    with network(bits_per_message=1, record_messages=True):
        tr = runtime.broadcast(STAR, {})
    assert tr.max_message_bits == [] and tr.messages == [] and tr.outputs == []


def test_broadcast_from_nodes_without_neighbors_is_zero_rounds():
    lonely = ColoredGraph.build(3, [])
    with network(bits_per_message=1, record_messages=True):
        tr = runtime.broadcast(lonely, {v: Unpriceable(p=RawField(v, 99)) for v in range(3)})
        assert runtime.broadcast(STAR, {13: Unpriceable(p=RawField(0, 99))}).rounds_elapsed == 0
    assert tr.rounds_elapsed == 0 and tr.messages == []


def test_broadcast_skips_falsy_messages_and_counts_a_0_bit_one():
    with network(record_messages=True):
        tr = runtime.broadcast(PATH3, {0: None, 1: {"z": RawField(0, 0)}, 2: {}})
    assert tr.max_message_bits == [0] and tr.rounds_elapsed == 1
    assert tr.messages == [(1, 1, 0, 0), (1, 1, 2, 0)]


def test_broadcast_takes_senders_in_id_order_whatever_the_insertion_order():
    sizes = [40 if v in (3, 7) else v for v in range(14)]
    sent = {v: {"p": RawField(v, sizes[v])} for v in range(13, -1, -1)}
    with network(record_messages=True):
        tr = runtime.broadcast(STAR, sent)
    hub = [(1, 0, u, 0) for u in range(1, 13)]
    assert tr.messages == hub + [(1, v, 0, sizes[v]) for v in range(1, 13)]
    assert tr.max_message_bits == [40]
    # the lowest-id over-budget sender is named, though 7 was inserted first
    with network(bits_per_message=32), pytest.raises(BudgetViolation) as exc:
        runtime.broadcast(STAR, sent)
    assert (exc.value.edge, exc.value.round_no, exc.value.size) == ((3, 0), 1, 40)
    # a composed run's round is named by its number there; the trace
    # itself stays a one-round run for concat_traces to renumber
    with network(bits_per_message=32), pytest.raises(BudgetViolation) as exc:
        runtime.broadcast(STAR, sent, 4)
    assert (exc.value.edge, exc.value.round_no) == ((3, 0), 4)
    with network(record_messages=True):
        assert runtime.broadcast(STAR, sent, 4).messages == tr.messages


class _OverBudgetThenCrash:
    """Node 0 sends 64 bits in round 1; node 1's step then raises."""

    def init(self, view):
        return view.node, None

    def step(self, v, inbox, rnd):
        if v == 1:
            raise ValueError("crash")
        return v, {"p": RawField(v, 64)}, None


def test_a_plain_exception_after_an_over_budget_sender_surfaces_the_budget_violation():
    with network(bits_per_message=32), pytest.raises(BudgetViolation) as exc:
        run(PATH3, _OverBudgetThenCrash())
    assert (exc.value.edge, exc.value.round_no, exc.value.size) == ((0, 1), 1, 64)


# -- Rounds: the round driver -------------------------------------------------------


def test_a_send_whose_senders_all_lack_neighbors_takes_no_round():
    lonely = ColoredGraph.build(4, [(0, 1)])
    rounds = runtime.Rounds(lonely)
    with network(bits_per_message=8, record_messages=True):
        rounds.send({2: Unpriceable(p=RawField(2, 99)), 3: Unpriceable(p=RawField(3, 99))})
        assert rounds.count == 0
        rounds.send({1: {"p": RawField(1, 4)}, 3: Unpriceable(p=RawField(3, 99))})
        with pytest.raises(BudgetViolation) as exc:
            rounds.send({0: {"p": RawField(0, 9)}})
    assert (exc.value.edge, exc.value.round_no) == ((0, 1), 2)
    trace = rounds.trace([5, 6, 7, 8])
    assert trace.max_message_bits == [4] and trace.messages == [(1, 1, 0, 4)]
    assert trace.outputs == [5, 6, 7, 8]


def test_a_silent_scheduled_round_costs_0_bits_and_a_trailing_one_is_trimmed():
    rounds = runtime.Rounds(PATH3)
    with network(record_messages=True):
        rounds.send({1: {"a": RawField(0, 3)}})
        assert rounds.round([0, 1, 2], lambda v: None) == {}
        sent = rounds.round([0, 2], lambda v: {"b": RawField(v, 5)} if v == 2 else {})
        assert rounds.round([1], lambda v: None) == {}
    assert sent == {2: {"b": RawField(2, 5)}}
    assert rounds.count == 4
    trace = rounds.trace([])
    assert trace.max_message_bits == [3, 0, 5]
    assert trace.messages == [(1, 1, 0, 3), (1, 1, 2, 3), (3, 2, 1, 5)]


def test_a_failing_step_is_stamped_after_the_senders_before_it_are_priced():
    def step(v):
        if v == 2:
            raise NodeFailure("no color")
        return {"p": RawField(v, 8 * v)}

    rounds = runtime.Rounds(PATH3)
    rounds.send({0: {"p": RawField(0, 1)}})
    with pytest.raises(NodeFailure) as exc:
        rounds.round([1, 2], step)
    assert (exc.value.node, exc.value.round_no) == (2, 2)

    def names_another_node(v):
        raise NodeFailure("named", node=0)

    with pytest.raises(NodeFailure) as exc:
        rounds.round([1], names_another_node)
    assert (exc.value.node, exc.value.round_no) == (0, 3)
    # an over-budget sender before the failing node is reported instead
    with network(bits_per_message=4), pytest.raises(BudgetViolation) as exc:
        runtime.Rounds(PATH3).round([1, 2], step)
    assert (exc.value.edge, exc.value.round_no, exc.value.size) == ((1, 0), 1, 8)
