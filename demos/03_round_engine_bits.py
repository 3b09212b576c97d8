"""The synchronous round engine and its bit accounting.

Node programs are pure state machines.  Each round a node returns one
message, which goes to every neighbor (None means silence); a message is
a dict of typed fields and its cost is the sum of field costs.  A CONGEST
run sets a per-message budget with ``with network(bits_per_message=b)``;
any oversize message aborts the run with the edge, round and size.
"""

from listdefect import BudgetViolation, ColoredGraph, RawField, network, run

ring = ColoredGraph.build(6, [(i, (i + 1) % 6) for i in range(6)])


class FloodIds:
    """Every node learns all ids; payloads are costed at 16 bits."""

    def init(self, view):
        return {"view": view, "seen": {view.node}}, None

    def step(self, state, inbox, round_no):
        for msg in inbox.values():
            state["seen"].update(msg["ids"].value)
        payload = {"ids": RawField(tuple(sorted(state["seen"])), 16)}
        done = len(state["seen"]) == state["view"].n and round_no > 1
        return state, payload, len(state["seen"]) if done else None


trace = run(ring, FloodIds())
print("rounds:", trace.rounds_elapsed)
print("per-round max bits:", trace.max_message_bits)
print(trace.to_csv())

try:
    with network(bits_per_message=8):
        run(ring, FloodIds())
except BudgetViolation as exc:
    print("budget 8 bits:", exc)
