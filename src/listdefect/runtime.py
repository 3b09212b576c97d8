"""Deterministic synchronous round engine with per-message bit accounting.

LOCAL mode is an unbounded per-message budget; CONGEST mode caps the bit
size of every message.  Messages are dicts of typed fields; the cost of a
message is the sum of its field costs, additive and independent of
execution order:

    color list      min(|C|, len * ceil(log2 |C|))   bitmask vs enumeration
    pow-2 defect    ceil(log2 log2 beta) + 1
    table index     ceil(log2 size)   a K-family member, an initial color in [m]
    raw field       explicit bit width

``broadcast`` prices one round of a sent record: the message of every
sending node, with no step and no inbox.  A ``Rounds`` driver numbers
the rounds of one run, for Linial, both OLDC routines and ``run``:
``send`` prices a record the caller built and takes no round when no
node with neighbors sends; ``round`` steps the given nodes in id order
and counts even when silent.  Node programs (``run``) are pure state
machines.  ``init`` may already produce an output (a zero-round
program); ``step`` consumes the inbox of the previous round and returns
the new state, one message and optionally the final output.
Communication is broadcast: the message goes to every neighbor, and a
falsy message (None or an empty dict) means the node is silent.  Once a
node has produced its output it no longer steps; the message of its
final step is still delivered.  A round is send, receive, compute, so
the work after the last receive is not a round of its own: a run ends at
the last round in which some node sent a message (a 0-bit message
counts), and the silent rounds after it are not recorded (Linial on a
300-ring records ``[9, 6]``).

Every round obeys the ``Network`` setting in force when it is priced,
set by a ``with network(...)`` block: the bit budget and the message
record.  Each sending node's message is sized once per round and checked
against the budget once, naming the edge to the node's first neighbor;
the message record still has one row per delivered message, in
adjacency order.  A node with no neighbors sends nothing.
"""

from __future__ import annotations

import json
from contextlib import contextmanager
from contextvars import ContextVar
from dataclasses import dataclass, field, replace
from itertools import repeat, zip_longest
from operator import itemgetter, length_hint
from typing import Any, Iterable, Iterator, Mapping, NamedTuple, Optional, Protocol, Sequence

from .errors import BudgetViolation, NodeFailure, RoundLimitExceeded
from .graphs import ColoredGraph


# -- message fields ----------------------------------------------------------


class ColorListField(NamedTuple):
    """A list of colors from a color space of the given size."""

    colors: tuple[int, ...]
    space_size: int

    def bit_cost(self) -> int:
        # (s - 1).bit_length() is ceil(log2 s) for s >= 1; at s = 0 the min is 0
        return min(self.space_size, len(self.colors) * (self.space_size - 1).bit_length())


class Pow2DefectField(NamedTuple):
    """A defect value known to be (roughly) a power of two below beta."""

    value: int
    beta: int

    def bit_cost(self) -> int:
        # ceil(log2 ceil(log2 max(2, beta))) + 1; the inner log is at least 1
        return ((max(2, self.beta) - 1).bit_length() - 1).bit_length() + 1


class IndexField(NamedTuple):
    """An index into a table of known size: a K-family, or the colors [m]."""

    index: int
    table_size: int

    def bit_cost(self) -> int:
        return (self.table_size - 1).bit_length() if self.table_size > 1 else 0


class RawField(NamedTuple):
    """Any payload with an explicitly declared bit width."""

    value: Any
    bits: int

    def bit_cost(self) -> int:
        return self.bits


Message = Mapping[str, Any]


def message_bits(msg: Message) -> int:
    """Canonical bit cost of a message: the sum over its fields."""
    bits = 0
    for f in msg.values():
        bits += f.bit_cost()
    return bits


# -- node programs -----------------------------------------------------------


class NodeView(NamedTuple):
    """What a node knows at time zero."""

    node: int
    neighbors: tuple[int, ...]
    out_neighbors: Optional[tuple[int, ...]]
    init_color: int
    m: int
    n: int


class NodeProgram(Protocol):
    """A node program: one value shared by every node of a run.

    ``init`` and ``step`` see only the node's own view, state and inbox.
    A program may still cache a pure function of public quantities
    across nodes, or give many nodes one message object, since that
    changes no result.
    """

    def init(self, view: NodeView) -> tuple[Any, Optional[Any]]:
        """Return (state, output or None).  A non-None output ends the node
        before any communication (a zero-round program)."""

    def step(
        self, state: Any, inbox: dict[int, Message], round_no: int
    ) -> tuple[Any, Optional[Message], Optional[Any]]:
        """Process the inbox of round ``round_no``; return
        (state, message, output or None).  The message goes to every
        neighbor; None or an empty message means silence.  Must be pure
        in (state, inbox, round_no)."""


# -- traces -------------------------------------------------------------------


@dataclass
class RoundTrace:
    """Per-run record: per-round max message bits, outputs and, when the
    network records them, every delivered message.  The round count is
    the length of the per-round record."""

    max_message_bits: list[int] = field(default_factory=list)
    outputs: list[Any] = field(default_factory=list)
    messages: list[tuple[int, int, int, int]] = field(default_factory=list)  # (round, u, v, bits)
    audit: Optional[list] = None  # algorithm-specific per-node budget rows

    @property
    def rounds_elapsed(self) -> int:
        return len(self.max_message_bits)

    def max_bits(self) -> int:
        return max(self.max_message_bits, default=0)

    def to_csv(self) -> str:
        rows = [f"{rnd},{bits}" for rnd, bits in enumerate(self.max_message_bits, 1)]
        return "\n".join(["round,max_bits", *rows]) + "\n"

    def to_json(self, verbose: bool = False) -> str:
        doc: dict[str, Any] = {
            "rounds_elapsed": self.rounds_elapsed,
            "max_message_bits": self.max_message_bits,
            "outputs": self.outputs,
        }
        if self.audit is not None:
            doc["audit"] = [list(row) for row in self.audit]
        if verbose:
            doc["messages"] = self.messages
        return json.dumps(doc, sort_keys=True, separators=(",", ":")) + "\n"


def concat_traces(traces: Sequence[RoundTrace], outputs: Sequence[Any] = ()) -> RoundTrace:
    """Sequential composition of phased runs: rounds add up, and the
    composed run's outputs are ``outputs``."""
    merged = RoundTrace(outputs=list(outputs))
    for t in traces:
        offset = merged.rounds_elapsed
        merged.messages.extend((r + offset, u, v, b) for (r, u, v, b) in t.messages)
        merged.max_message_bits.extend(t.max_message_bits)
    return merged


def merge_parallel(traces: Sequence[RoundTrace]) -> RoundTrace:
    """Parallel composition of runs on disjoint node sets: rounds take the
    max, per-round bits the elementwise max."""
    per_round = zip_longest(*(t.max_message_bits for t in traces), fillvalue=0)
    return RoundTrace(
        max_message_bits=list(map(max, per_round)),
        messages=sorted(m for t in traces for m in t.messages),
    )


# -- the network ----------------------------------------------------------------


@dataclass(frozen=True)
class Network:
    """The network model: the per-message bit budget (None is LOCAL
    mode) and whether the trace records every delivered message."""

    bits_per_message: Optional[int] = None
    record_messages: bool = False


_NETWORK: ContextVar[Network] = ContextVar("network", default=Network())


def current_network() -> Network:
    """The network setting in force in this context."""
    return _NETWORK.get()


@contextmanager
def network(**changes: Any) -> Iterator[None]:
    """Apply ``changes`` to the current setting for the block; unnamed
    fields are inherited, and the old setting returns on any exit."""
    token = _NETWORK.set(replace(_NETWORK.get(), **changes))
    try:
        yield
    finally:
        _NETWORK.reset(token)


# -- rounds -------------------------------------------------------------------


def broadcast(
    graph: ColoredGraph, sent: Mapping[int, Message], round_no: int = 1
) -> RoundTrace:
    """Price one round in which each node v sends ``sent[v]`` to every
    neighbor; no step is called and no inbox is built.

    Senders are taken in id order, whatever the mapping's order, and a
    message is sized only if it is truthy and its node has neighbors.
    Under a budget an over-size message raises a BudgetViolation naming
    the edge to its node's first neighbor, the size and ``round_no``: the
    number of this round in the run the caller composes, since an
    exception cannot be renumbered later.  With ``record_messages`` the
    trace lists one row per delivered message, in adjacency order,
    numbered as a one-round run for ``concat_traces`` to renumber.  The
    trace has one round, or none when no node with neighbors sends (a
    0-bit message is a send).
    """
    setting = current_network()
    bits_per_message = setting.bits_per_message
    adjacency = graph.adjacency
    trace = RoundTrace()
    messages = trace.messages if setting.record_messages else None
    round_max = -1
    for v in sorted(sent):
        msg, neighbors = sent[v], adjacency[v]
        if msg and neighbors:
            size = message_bits(msg)
            if bits_per_message is not None and size > bits_per_message:
                raise BudgetViolation((v, neighbors[0]), round_no, size, bits_per_message)
            if size > round_max:
                round_max = size
            if messages is not None:
                messages.extend([(1, v, u, size) for u in neighbors])
    if round_max >= 0:
        trace.max_message_bits.append(round_max)
    return trace


class Rounds:
    """The rounds of one run on ``graph``, each priced by ``broadcast``
    under its number in the run; ``trace`` ends the run at its last send."""

    def __init__(self, graph: ColoredGraph):
        self.graph = graph
        self._traces: list[RoundTrace] = []
        self._sends = 0  # rounds up to the last one in which a node sent

    @property
    def count(self) -> int:
        """The number of rounds so far."""
        return len(self._traces)

    def _price(self, sent: Mapping[int, Message], scheduled: bool) -> None:
        trace = broadcast(self.graph, sent, self.count + 1)
        if trace.max_message_bits:
            self._traces.append(trace)
            self._sends = self.count
        elif scheduled:
            self._traces.append(RoundTrace([0]))

    def send(self, sent: Mapping[int, Message]) -> None:
        """One round in which each node v sends ``sent[v]``; it takes no
        round when no node with neighbors sends."""
        self._price(sent, False)

    def round(self, nodes: Iterable[int], step) -> dict[int, Message]:
        """One scheduled round, which counts even when silent: each node
        of ``nodes``, in id order, calls ``step(v)``, which may return its
        message; returns the truthy messages by node.  If a step raises,
        the senders before it are priced first; a NodeFailure then gets
        the node, unless it names one, and this round's number."""
        sent = {}
        try:
            for v in nodes:
                msg = step(v)
                if msg:
                    sent[v] = msg
        except NodeFailure as exc:
            exc.node = v if exc.node is None else exc.node
            exc.round_no = self.count + 1
            raise
        finally:
            self._price(sent, True)
        return sent

    def trace(self, outputs: Sequence[Any]) -> RoundTrace:
        """The run's trace, ending at its last send, with ``outputs``."""
        return concat_traces(self._traces[:self._sends], outputs)


def run(graph: ColoredGraph, program: NodeProgram, max_rounds: int = 10_000) -> RoundTrace:
    """Execute a node program on every node until all outputs are in; the
    trace ends at the last round in which a node sent a message.

    Each round is a ``Rounds`` round of the pending nodes; messages sent
    in round r are readable only in round r+1 (communication is
    bidirectional even on oriented graphs).  A round is priced after its
    last step, under the ``current_network()`` of that moment: under a
    budget an over-size message aborts the run with a BudgetViolation
    naming edge, round and size, even if a later node of its round
    raised, and with ``record_messages`` the trace lists every delivered
    message.
    """
    n = graph.n
    adjacency = graph.adjacency
    outs = repeat(None) if graph.out_neighbors is None else graph.out_neighbors
    # views are built and init called without a Python frame per node; a
    # failing init belongs to the last id drawn
    ids = iter(range(n))
    views = map(tuple.__new__, repeat(NodeView), zip(
        ids, adjacency, outs, graph.init_colors, repeat(graph.m), repeat(n)
    ))
    try:
        started = list(map(program.init, views))
    except NodeFailure as exc:
        exc.node = n - 1 - length_hint(ids) if exc.node is None else exc.node
        exc.round_no = 0
        raise
    states: list[Any] = list(map(itemgetter(0), started))
    outputs: list[Any] = list(map(itemgetter(1), started))
    pending = [v for v in range(n) if outputs[v] is None]
    rounds = Rounds(graph)
    inboxes: list[dict[int, Message]] = [{} for _ in range(n)]

    def step(v: int) -> Optional[Message]:
        states[v], msg, out = program.step(states[v], inboxes[v], rounds.count + 1)
        if out is None:
            still_pending.append(v)
        else:
            outputs[v] = out
        return msg

    while pending:
        if rounds.count >= max_rounds:
            raise RoundLimitExceeded(
                f"{n - len(pending)}/{n} nodes decided after {max_rounds} rounds"
            )
        still_pending: list[int] = []
        sent = rounds.round(pending, step)
        pending = still_pending
        inboxes = [{} for _ in range(n)]
        for v, msg in sent.items():
            for u in adjacency[v]:
                inboxes[u][v] = msg
    return rounds.trace(outputs)
