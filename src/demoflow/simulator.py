"""Token-play simulation of compiled collaborations, checked against the
transaction engine.

The simulator replays a generated model step by step: firing nodes, delivering
messages, letting the environment trigger revocations.  Every act-carrying
node that fires moves its transaction's shadow, a row of the engine's
bounded-step table (``bounded_table``) packed with a lock, which also
decides which revocation triggers and loop branches are open; a model that
lets an act happen out of order or past its loop bound fails loudly.
Exhaustive exploration is one depth-first search over states paired with
each transaction's history, its events so far; every quiescent state
records each history with its transaction's phase.
``simulate_exhaustive`` reports these per-transaction projections (for one
transaction, its traces), and conformance checking compares each
transaction's, reduced to the fourteen acts, with the engine's enumerated
language.  The search judges each projection as it records it, from its
history's node in the trie of histories, so a projection outside the
language or a compensation out of order decides the verdict even if the
state bound runs out.

A state is a tuple of per-transaction component codes.  Each code interns
one transaction's share of the state (its tokens, messages in flight,
completed and compensated tasks, whether its executor started, and its
shadow), so a composed network's states share a few hundred components.
Whether a step is enabled depends only on the stepping transaction's
component, so each component's steps are listed once.  A step reads and
writes only a footprint of transactions fixed by the model (its own, those
its placements reach through ``spawn`` and ``phase:`` guards, and the
children a reposition clears), so its effect is memoized on the
footprint's codes: a miss runs the step on those components alone, and
every later state that shares them replays it.  Random walks and the
exhaustive search take this one step.

On two or more transactions the search uses a partial-order reduction: the
histories cannot tell apart two interleavings of steps of different
transactions.  At a state where some transaction X's enabled steps all
touch X alone, and no other transaction can reach a step that touches X,
only X's steps are explored (a persistent set).  Those steps commute with
all that the others can do, and X's component stays frozen until one is
taken, so every projection, quiescent state and error of the search without
the reduction is kept.  What a transaction can reach is counted from its
marked nodes and its messages in flight only: a token enters it from
another transaction only by a step that transaction can reach, whose reach
already holds all that the entry leads to.  Where several transactions
qualify, the first one that also qualifies when the entries into each
transaction are counted in its reach is preferred, and failing that the
first one.

Node ids give each node's transaction, role and act; control beyond the
graph (splice entries and exits, stale resumptions, the revocation zone and
its reposition splits) comes from the sequence-flow guards defined on
``SequenceFlow``.  Both are written to BPMN XML, so the simulator works
identically on freshly compiled models and on models parsed back from XML.
"""

from __future__ import annotations

import json
import random
from bisect import bisect_left
from collections import Counter
from dataclasses import dataclass, field
from enum import Enum
from functools import cached_property
from itertools import accumulate, compress, islice, repeat
from operator import attrgetter, itemgetter, ne
from typing import Container, Iterable, Optional, Sequence

from .engine import (
    Act,
    ActNotEnabled,
    Bounds,
    COMPLETE_ALPHABET,
    INITIAL_STATE,
    LANDING_PHASE,
    Phase,
    RevocationError,
    Role,
    TERMINAL_PHASES,
    apply_act,
    bounded_table,
    enumerate_language,
    rollback_chain,
)
from .model import (
    ACT_SLUGS,
    BpmnModel,
    FlowNode,
    IdTail,
    NodeKind,
    first_off_grammar,
    read_tail,
    slugify_tk,
)
from .network import DEPENDENCY_RULES, TransactionNetwork


class SimulationError(RuntimeError):
    """The model broke a simulation invariant (or is not simulatable).  From
    a step of the exhaustive search, its ``witness`` lists the steps from the
    initial state up to that one."""

    witness: tuple[str, ...] = ()


class StateSpaceLimitExceeded(SimulationError):
    pass


# the default bound on an exhaustive search's states
MAX_STATES = 1_000_000

# a random walk's steps before it is cut off as exhausted
_MAX_WALK_STEPS = 100_000


# the phases a ``phase:<phase>`` guard can name
_GUARD_PHASES = {phase.value.lower(): phase for phase in Phase}


@dataclass(frozen=True)
class SimEvent:
    tk: str
    act: Act
    role: Role
    inverse: bool = False  # a compensation (rollback) of the act

    def label(self) -> str:
        return f"{self.act.value}⁻¹" if self.inverse else self.act.value


@dataclass(frozen=True)
class SimTrace:
    """One recorded run: the emitted events plus each transaction's phase."""

    events: tuple[SimEvent, ...]
    outcomes: tuple[tuple[str, Phase], ...]
    exhausted: bool = False

    def acts_for(self, tk: str) -> tuple[Act, ...]:
        return tuple(e.act for e in self.events if e.tk == tk and not e.inverse)

    def outcome(self) -> str:
        """Aggregate tag for the run as a whole.

        A transaction stranded in a non-terminal phase makes the run a
        Deadlock; never-started transactions are simply absent from the run.
        Otherwise the worst terminal phase wins: Terminated over Stopped over
        Accepted.
        """
        if self.exhausted:
            return "BoundExhausted"
        settled = TERMINAL_PHASES | {Phase.INITIAL}
        phases = {phase for _, phase in self.outcomes}
        if any(phase not in settled for phase in phases):
            return "Deadlock"
        for worst in (Phase.TERMINATED, Phase.STOPPED):
            if worst in phases:
                return worst.value
        return Phase.ACCEPTED.value

    def to_json(self) -> str:
        return json.dumps(
            {
                "events": [{"tk": e.tk, "act": e.label()} for e in self.events],
                "outcome": self.outcome(),
            },
            ensure_ascii=False,
            sort_keys=True,
        )


@dataclass
class ExhaustiveResult:
    """The states searched (see ``_explore``), the model's transactions in
    order, which names those that no run starts, and each transaction's
    projections: undecoded, as ``(transaction index, history, phase)`` keys
    mapped to their acts and compensation violations, and decoded as
    ``traces`` when first read.  An ``exhausted`` search stopped at its state bound after a
    finding, the first one reached along ``witness``'s steps."""

    states: int
    transactions: tuple[str, ...]
    projections: dict[tuple[int, int, Phase], tuple[tuple[Act, ...], tuple[str, ...]]]
    histories: "_Histories" = field(repr=False, compare=False)
    exhausted: bool = False
    witness: tuple[str, ...] = ()

    @cached_property
    def traces(self) -> frozenset[SimTrace]:
        decode, tks = self.histories.decode, self.transactions
        return frozenset(
            SimTrace(decode(history), ((tks[tk], phase),))
            for tk, history, phase in self.projections
        )


# A simulation state is a tuple with one component code per transaction, in
# transaction order.  A component is one transaction's share of the state:
#
#     (tokens, in_flight, completed, compensated, spawned, shadow)
#
# ``tokens`` is a sorted tuple of node indices over the transaction's nodes,
# one entry per token, so a join holding two tokens appears twice;
# ``in_flight`` (sources of undelivered messages), ``completed`` (task nodes
# that ran and could be compensated) and ``compensated`` are bitsets over
# nodes, holding only the transaction's bits; ``spawned`` is 1 once its
# executor instance started; ``shadow`` is ``row << 2 | lock``: its row in
# the engine's ``bounded_table`` and the lock that freezes its normal flow
# while a revocation plays out: 0 free, 1 or 2 reposition splits left (each
# split counts it down), or 3 pending.
_SPAWNED, _SHADOW = 4, 5
_LOCK = _PENDING = 3  # the lock's mask is its pending value
_FREE, _REPOSITIONING = 0, 2


class _Working:
    """Mutable merge of some transactions' components while one step is
    applied: ``tokens`` lists the components' tokens as node indices, one
    entry per token and in no particular order (``freeze`` sorts them back
    into each component's sorted tuple), the node bitsets are the union of
    the components', ``spawned`` is a bitset over transactions and
    ``shadows`` maps each transaction to its shadow."""

    __slots__ = ("ids", "tokens", "in_flight", "spawned", "completed", "compensated", "shadows")

    def __init__(self, sim: "_Simulation", tks: Sequence[int], codes: Sequence[int]):
        self.ids = sim.ids
        components = sim.components
        if len(tks) == 1:  # most steps: one component, read as it is
            (tk,), (code,) = tks, codes
            marked, self.in_flight, self.completed, self.compensated, started, shadow = (
                components[code]
            )
            self.tokens = list(marked)
            self.spawned = started << tk
            self.shadows = {tk: shadow}
            return
        self.tokens = tokens = []
        self.shadows = shadows = {}
        in_flight = spawned = completed = compensated = 0
        for tk, code in zip(tks, codes):
            marked, flying, done, undone, started, shadows[tk] = components[code]
            tokens += marked
            in_flight |= flying
            completed |= done
            compensated |= undone
            spawned |= started << tk
        self.in_flight, self.spawned = in_flight, spawned
        self.completed, self.compensated = completed, compensated

    def take_token(self, node: int, count: int = 1) -> None:
        tokens = self.tokens
        if count == 1:
            if node in tokens:
                tokens.remove(node)
                return
        elif tokens.count(node) >= count:  # a join
            for _ in range(count):
                tokens.remove(node)
            return
        raise SimulationError(f"token underflow at {self.ids[node]}")

    def freeze(self, sim: "_Simulation", tks: tuple[int, ...]) -> tuple[int, ...]:
        """The component code of each of ``tks``, in ascending order."""
        tokens = self.tokens
        tokens.sort()
        if len(tks) == 1:  # most steps: every token and bit is this one's
            (tk,) = tks
            return (sim.component_code((
                tuple(tokens), self.in_flight, self.completed, self.compensated,
                self.spawned >> tk & 1, self.shadows[tk],
            )),)
        codes = []
        start = 0
        for tk in tks:
            nodes, mask = sim.tk_nodes[tk], sim.masks[tk]
            start = bisect_left(tokens, nodes.start, start)
            stop = bisect_left(tokens, nodes.stop, start)
            codes.append(sim.component_code((
                tuple(tokens[start:stop]),
                self.in_flight & mask,
                self.completed & mask,
                self.compensated & mask,
                self.spawned >> tk & 1,
                self.shadows[tk],
            )))
            start = stop
        return tuple(codes)


class _Interner:
    """Numbers distinct values 0, 1, 2, ... in the order they are first seen."""

    __slots__ = ("values", "_codes")

    def __init__(self) -> None:
        self.values: list = []
        self._codes: dict = {}

    def code(self, value) -> int:
        values = self.values
        code = self._codes.setdefault(value, len(values))  # hashes value once
        if code == len(values):
            values.append(value)
        return code


def _bits(mask: int) -> Iterable[int]:
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


# Enum members the step code compares against, bound once: in CPython 3.11
# reading a member off its Enum class is a descriptor call.
_START, _MESSAGE_START, _END, _TERMINATE = (
    NodeKind.START_EVENT, NodeKind.MESSAGE_START_EVENT,
    NodeKind.END_EVENT, NodeKind.TERMINATE_END_EVENT,
)
_TASK, _SEND_TASK, _CATCH, _THROW = (
    NodeKind.TASK, NodeKind.SEND_TASK, NodeKind.MESSAGE_CATCH, NodeKind.COMPENSATION_THROW,
)
_XOR, _PAR, _EBG = (
    NodeKind.EXCLUSIVE_GATEWAY, NodeKind.PARALLEL_GATEWAY, NodeKind.EVENT_BASED_GATEWAY,
)
_INITIAL, _TERMINATED = Phase.INITIAL, Phase.TERMINATED
_ALLOW, _REFUSE = Act.ALLOW, Act.REFUSE


# Step operations, numbered in the alphabetical order of their names so that
# steps sort as ("deliver" | "fire" | "trigger", node id, ...) tuples would.
_DELIVER, _FIRE, _TRIGGER = 0, 1, 2

# the need of nodes fired by delivery or environment, or never: more tokens
# than a node ever holds
_PASSIVE = 1 << 62

# fields the build reads off every node and flow
_ID, _KIND, _LABEL = attrgetter("id"), attrgetter("kind"), attrgetter("label")
_SOURCE, _TARGET = attrgetter("source"), attrgetter("target")


class _Simulation:
    """Structure derived from the model plus the step semantics.

    Nodes are numbered in sorted-id order and transactions in sorted order,
    so sorting steps by index sorts them as by id.  A step is ``(op, node,
    arg)``: ``arg`` is a delivery's target node, or an exclusive gateway's
    branch in flow-id order.  Transaction components and emitted events are
    interned to small ints, an event by its transaction, its act's column
    in the table's moves and whether it is a compensation; ``event_lanes``
    gives each event code's transaction.

    The build reads each node's tail fields through ``model.read_tail``
    into ``meta``, its act and the act's table column among them, which
    checks the node ids against the id grammar, and takes each node's
    transaction from its id's head.  Every check that can reject the model
    runs there, on every build, so a changed model is read afresh.  An
    exclusive gateway's branch order, which a short walk needs for few
    nodes, is looked up on first use instead (``_branches``).
    """

    def __init__(self, model: BpmnModel, bounds: Bounds):
        # Per-node and per-flow data are flat lists: a container per node or
        # flow would live as long as the simulation and make the cyclic
        # garbage collector, which runs during short random walks, slower.
        # A random walk builds a simulation for a few dozen steps, so the
        # passes over all nodes and flows run in C (map, zip, compress)
        # wherever they can.
        self.states, self.moves = bounded_table(bounds, COMPLETE_ALPHABET)
        nodes: list[FlowNode] = []
        pools: list[str] = []
        for pool in model.pools:
            nodes += pool.nodes
            pools += [pool.id] * len(pool.nodes)
        model_ids = list(map(_ID, nodes))
        order = sorted(range(len(model_ids)), key=model_ids.__getitem__)
        self.ids = ids = list(map(model_ids.__getitem__, order))
        # A transaction's ids are those from "<tk>_" up to "<tk>`" ("`" is
        # the character after "_"), so in id order its nodes are one range
        # and their tails start at one offset.  meta holds each node's tail
        # fields, None off the grammar.
        blocks: dict[str, range] = {}
        self.meta: list[IdTail] = []
        meta = self.meta
        start = 0
        while start < len(ids):
            cut = ids[start].find("_") + 1
            if not cut:
                break  # an id without "_" is off the grammar
            tk = ids[start][: cut - 1]
            end = bisect_left(ids, tk + "`", start)
            blocks[tk] = range(start, end)
            meta += map(read_tail, map(itemgetter(slice(cut, None)), islice(ids, start, end)))
            start = end
        if len(meta) < len(ids) or not all(meta):
            raise SimulationError(
                f"node {first_off_grammar(model_ids)} does not follow the generated-id "
                "grammar; only generated models can be simulated"
            )
        index = dict(zip(ids, range(len(ids))))
        if len(index) < len(ids):
            duplicate = next(a for a, b in zip(ids, ids[1:]) if a == b)
            raise SimulationError(f"duplicate node id {duplicate}")
        self.pool_of = list(map(pools.__getitem__, order))
        self.kinds = kinds = list(map(_KIND, map(nodes.__getitem__, order)))
        self.tks = sorted(blocks)
        self.tk_nodes = [blocks[tk] for tk in self.tks]
        # each transaction's bits in a bitset over nodes
        self.masks = [(1 << nodes.stop) - (1 << nodes.start) for nodes in self.tk_nodes]
        self.tk_of = tk_of = [0] * len(ids)
        for tk, members in enumerate(self.tk_nodes):
            tk_of[members.start:members.stop] = [tk] * len(members)

        # sequence flows, numbered by source node and in model order within
        # it: node n's outgoing flows are first_out[n] .. first_out[n + 1] - 1
        flows = [flow for pool in model.pools for flow in pool.flows]
        try:
            sources = list(map(index.__getitem__, map(_SOURCE, flows)))
            by_source = sorted(range(len(flows)), key=sources.__getitem__)
            self.flows = list(map(flows.__getitem__, by_source))
            self.target = target = list(map(index.__getitem__, map(_TARGET, self.flows)))
        except KeyError:
            stray = next(f for f in flows if f.source not in index or f.target not in index)
            raise SimulationError(f"sequence flow {stray.id} joins an unknown node") from None
        out_degree = Counter(sources)
        sources = list(map(sources.__getitem__, by_source))
        self.first_out = first_out = list(
            accumulate(map(out_degree.get, range(len(ids)), repeat(0)), initial=0)
        )
        # message targets by source; None marks a target outside the model.
        # A step's enabling may read only its own transaction's component,
        # so a message may not cross transactions.
        msg_sources = map(index.get, map(_SOURCE, model.message_flows))
        msg_targets = list(map(index.get, map(_TARGET, model.message_flows)))
        msg_in = set(msg_targets)
        self.msg_out: dict[int, list[Optional[int]]] = {}
        for message, source, msg_target in zip(model.message_flows, msg_sources, msg_targets):
            if source is None:
                continue
            if msg_target is not None and tk_of[msg_target] != tk_of[source]:
                raise SimulationError(f"unrecognized cross-transaction message flow {message.id}")
            self.msg_out.setdefault(source, []).append(msg_target)

        # one pass over the kinds, the most common first; need is the tokens
        # one firing consumes
        self.need = need = [1] * len(ids)
        self.starts: list[int] = []
        self.ebg_pred: dict[int, int] = {}
        self.compensates: dict[int, Optional[int]] = {}
        self.branches: dict[int, list[int]] = {}  # filled by _branches
        catches, pars, indeg = [], [], Counter(target)
        for node, kind in enumerate(kinds):
            if kind is _CATCH:
                need[node] = _PASSIVE
                catches.append(node)
            elif (
                kind is _SEND_TASK or kind is _XOR or kind is _END
                or kind is _TERMINATE or kind is _TASK
            ):
                continue
            elif kind is _THROW:
                self.compensates[node] = index.get(nodes[order[node]].compensates)
            elif kind is _EBG:
                need[node] = _PASSIVE
                for after in target[first_out[node]:first_out[node + 1]]:
                    self.ebg_pred[after] = node
            elif kind is _PAR:
                need[node] = max(1, indeg[node])
                pars.append(node)
            elif kind is _START:
                self.starts.append(node)
            else:
                need[node] = _PASSIVE
        # environment triggers by the revocation zone's gateway before them,
        # in id order: message catches that no message reaches
        self.gate_triggers: dict[int, list[int]] = {}
        for node in catches:
            if node not in msg_in and node in self.ebg_pred:
                self.gate_triggers.setdefault(self.ebg_pred[node], []).append(node)
        self._read_guards(sources, pars)
        # the nodes with a guarded outgoing flow; every other node places a
        # token on each of its flows' targets
        self.guarded = set(map(sources.__getitem__, self.guards))

        self._components = _Interner()
        self.components: list[tuple] = self._components.values
        self.component_code = self._components.code
        self.events: list[SimEvent] = []  # event code -> its event
        self.event_lanes: list[int] = []  # event code -> its transaction's index
        # (transaction, column, inverse) -> event code
        self._event_codes: dict[tuple[int, int, bool], int] = {}
        # component code -> the steps it enables, sorted (see _steps_of)
        self._local_steps: dict[int, list[tuple[int, int, int]]] = {}
        # step -> (its footprint, the getter of their codes, {codes: (codes
        # after, event codes)})
        self._applied: dict[tuple[int, int, int], tuple[tuple[int, ...], itemgetter, dict]] = {}
        # each transaction's footprint of itself alone, and its getter
        self._own = [((tk,), itemgetter(tk)) for tk in range(len(self.tks))]
        # partial-order reduction, made on the first reduced state with
        # _reach_masks and _entry_masks: per transaction, component code ->
        # (its sorted steps if every one touches the transaction alone, the
        # transactions it can still touch, and those with its entries
        # counted)
        self._reduction: Optional[list[dict[int, tuple[list, int, int]]]] = None

    def _out(self, node: int) -> range:
        return range(self.first_out[node], self.first_out[node + 1])

    def _read_guards(self, sources: list[int], pars: list[int]) -> None:
        """Branch, splice and revocation-zone control, read from the flow
        guards once: ``branch_guards`` maps a ``performed:`` branch to its act
        and a loop branch to None; ``guards`` maps a ``phase:`` flow to ``(its
        target's transaction, phase, None)`` and a ``spawn`` flow (in
        ``spawns`` with its source) to ``(child, None, exit_of[child])``."""
        tk_of, target, first_out, flows = self.tk_of, self.target, self.first_out, self.flows
        labels = list(map(_LABEL, flows))
        self.branch_guards: dict[int, Optional[Act]] = {}
        self.guards: dict[int, tuple[int, Optional[Phase], Optional[int]]] = {}
        self.direct_children: dict[int, set[int]] = {}
        self.reposition_splits: set[int] = set()
        self.spawns, reposition = [], set()
        for f in compress(range(len(flows)), labels):
            label = labels[f]
            if label == "spawn":
                self.spawns.append((f, sources[f]))
                self.direct_children.setdefault(tk_of[sources[f]], set()).add(tk_of[target[f]])
            elif label == "reposition":
                reposition.add(f)
                self.reposition_splits.add(sources[f])
            elif label.startswith("phase:"):
                if label[6:] not in _GUARD_PHASES:
                    raise SimulationError(f"unknown guard {label} on {flows[f].id}")
                self.guards[f] = (tk_of[target[f]], _GUARD_PHASES[label[6:]], None)
            elif label.startswith("performed:"):
                if label[10:] not in ACT_SLUGS:
                    raise SimulationError(f"unknown guard {label} on {flows[f].id}")
                self.branch_guards[f] = ACT_SLUGS[label[10:]]
            elif label == "rerequest" or label == "redeclare":
                self.branch_guards[f] = None
        self.exit_of: dict[int, int] = {}  # a spawned child's one exit into its parent
        # nodes whose steps may touch another transaction (see _footprint)
        self.reaching = {source for _, source in self.spawns} | self.reposition_splits | {
            node for node, task in self.compensates.items()
            if task is not None and tk_of[task] != tk_of[node]
        }
        crossing = map(ne, map(tk_of.__getitem__, sources), map(tk_of.__getitem__, target))
        for f in compress(range(len(flows)), crossing):
            self.reaching.add(sources[f])
            # an event-based gateway arms the catches after it, so, like a
            # message, it may not reach into another transaction
            waits = self.kinds[sources[f]] is _EBG
            if labels[f] == "spawn" and not waits:
                continue
            child = tk_of[sources[f]]
            if (
                waits
                or child in self.exit_of
                or child not in self.direct_children.get(tk_of[target[f]], ())
            ):
                raise SimulationError(f"unrecognized cross-transaction flow {flows[f].id}")
            self.exit_of[child] = f
        for f, source in self.spawns:
            child, siblings = tk_of[target[f]], self._out(source)
            # a child without an exit must leave its parent a token of its own
            if child not in self.exit_of and all(labels[g] == "spawn" for g in siblings):
                raise SimulationError(f"child {self.tks[child]} has no guarded splice exit")
            self.guards[f] = (child, None, self.exit_of.get(child))
        # the zone: all that a trigger gateway reaches short of a reposition flow
        gates = set(self.gate_triggers)
        successor = list(target)
        for f in reposition:
            successor[f] = None  # a reposition flow leaves the zone
        self.zone, frontier = {None, *gates}, list(gates)
        while frontier:
            node = frontier.pop()
            for after in successor[first_out[node]:first_out[node + 1]]:
                if after not in self.zone:
                    self.zone.add(after)
                    frontier.append(after)
        self.zone.discard(None)
        stray = self.zone.intersection(self.compensates.values())
        if stray:  # e.g. a model written without its reposition guards
            task = self.ids[min(stray)]
            raise SimulationError(f"revocation zone reaches {task}: missing reposition guard")
        # a node freezes while its transaction holds a lock; the zone and the
        # gateways arming it do not, so a late-spawning executor instance can
        # still join the protocol
        self.unlockable = self.zone | {
            par for par in pars if not gates.isdisjoint(target[first_out[par]:first_out[par + 1]])
        }

    # -- interning ----------------------------------------------------------

    def _event_code(self, node: int, inverse: bool) -> int:
        """The code of the node's act event, or of its compensation."""
        tk, fields = self.tk_of[node], self.meta[node]
        key = (tk, fields.column, inverse)
        code = self._event_codes.get(key)
        if code is None:
            code = self._event_codes[key] = len(self.events)
            self.events.append(SimEvent(self.tks[tk], fields.act, fields.role, inverse))
            self.event_lanes.append(tk)
        return code

    # -- state ------------------------------------------------------------

    def initial(self) -> tuple[int, ...]:
        return tuple(
            self.component_code((
                tuple(start for start in self.starts if start in nodes), 0, 0, 0, 0, 0
            ))
            for nodes in self.tk_nodes
        )

    def phase(self, code: int) -> Phase:
        """The phase of a component's transaction."""
        return self.states[self.components[code][_SHADOW] >> 2].state.phase

    def outcomes(self, state: tuple[int, ...]) -> tuple[tuple[str, Phase], ...]:
        return tuple(zip(self.tks, map(self.phase, state)))

    def describe(self, step: tuple[int, int, int]) -> str:
        """``fire <node>`` (``-> <target>`` for a gateway's branch),
        ``deliver <source> -> <target>`` or ``trigger <node>``."""
        op, node, arg = step
        ids = self.ids
        if op == _DELIVER:
            return f"deliver {ids[node]} -> {ids[arg]}"
        if op == _TRIGGER:
            return f"trigger {ids[node]}"
        if self.kinds[node] is _XOR:
            return f"fire {ids[node]} -> {ids[self.target[self._branches(node)[arg]]]}"
        return f"fire {ids[node]}"

    # -- step enumeration --------------------------------------------------

    def steps(self, state: tuple[int, ...]) -> list[tuple[int, int, int]]:
        """The enabled steps in sorted order: the union of the steps each
        component enables (``_steps_of``).  The caller must not change the
        list: for one transaction it is that component's own."""
        if len(state) == 1:
            return self._steps_of(state[0])
        out: list[tuple[int, int, int]] = []
        local_steps = self._local_steps
        for code in state:
            # a hit skips the call, which would cost as much as the rest of the loop
            local = local_steps.get(code)
            out += self._steps_of(code) if local is None else local
        out.sort()  # a merge of sorted runs
        return out

    def _steps_of(self, code: int) -> list[tuple[int, int, int]]:
        """The steps a component enables in sorted order, listed once per
        component; the caller must not change the list."""
        steps = self._local_steps.get(code)
        if steps is None:
            steps = self._local_steps[code] = self._component_steps(code)
        return steps

    def _component_steps(self, code: int) -> list[tuple[int, int, int]]:
        """The steps one transaction's component enables, sorted.  The build
        keeps every message and every event-based gateway inside one
        transaction, so enabling reads no other component."""
        tokens, in_flight, _, _, spawned, shadow = self.components[code]
        need, kinds, unlockable = self.need, self.kinds, self.unlockable
        locked = shadow & _LOCK
        out: list[tuple[int, int, int]] = []

        previous = -1
        for node in tokens:
            if node == previous:  # a node's tokens are adjacent
                continue
            previous = node
            if not locked:
                for trigger in self.gate_triggers.get(node, ()):
                    if self._allows(shadow, trigger):
                        out.append((_TRIGGER, trigger, 0))
            if need[node] > 1 and tokens.count(node) < need[node]:
                continue
            if locked and node not in unlockable:
                continue
            if kinds[node] is not _XOR:
                out.append((_FIRE, node, 0))
                continue
            for branch, f in enumerate(self._branches(node)):
                if self._branch_allowed(f, shadow):
                    out.append((_FIRE, node, branch))

        for source in _bits(in_flight):
            for target in self.msg_out.get(source, ()):
                if target is None:
                    continue
                if kinds[target] is _MESSAGE_START:
                    if not spawned:
                        out.append((_DELIVER, source, target))
                    continue
                gate = self.ebg_pred.get(target)
                armed = target in tokens or (gate is not None and gate in tokens)
                if not armed:
                    continue
                if locked and target not in unlockable:
                    continue
                out.append((_DELIVER, source, target))

        out.sort()
        return out

    def _branches(self, node: int) -> list[int]:
        """An exclusive gateway's outgoing flows in flow-id order, sorted on
        first use."""
        branches = self.branches.get(node)
        if branches is None:
            flows = self.flows
            branches = self.branches[node] = sorted(self._out(node), key=lambda f: flows[f].id)
        return branches

    def _branch_allowed(self, f: int, shadow: int) -> bool:
        if f not in self.branch_guards:
            return True
        act = self.branch_guards[f]
        if act is None:
            # a loop branch is open while its target's Request or Declare is
            return self._allows(shadow, self.target[f])
        return act in self.states[shadow >> 2].state.history

    def _allows(self, shadow: int, node: int) -> bool:
        """Whether the engine's bounded step lets the node's act happen now."""
        column = self.meta[node].column
        return column >= 0 and self.moves[shadow >> 2][column] >= 0

    # -- partial-order reduction -------------------------------------------

    def persistent_steps(self, state: tuple[int, ...]) -> Optional[list[tuple[int, int, int]]]:
        """The enabled steps of a transaction X whose enabled steps are all
        non-trigger steps with footprint ``(X,)`` and that no other
        transaction can still touch (see ``_touch_mask``); None if no
        transaction qualifies.

        Such steps commute with every step the others can take, and X's
        component, so its enabled steps, stays frozen until one of them is
        taken; exploring them alone keeps every per-transaction projection
        and every quiescent state.

        X is chosen in two tiers, each in transaction order: first the
        first transaction that still qualifies when each other
        transaction's reach also counts the exits into it and, while it is
        fresh, its spawn entries (``_entry_masks``); only if none does, the
        first that qualifies under ``_touch_mask`` alone.  Soundness needs
        only the second tier; the first is a preference.  A transaction
        that qualifies under the first qualifies under the second, so every
        state explores a subset of the steps the first tier alone would,
        and reaches no state it would not.  The second tier alone takes
        106,901 states on poc1 at ``dissent``, against 82,453 with both."""
        reduction = self._reduction
        if reduction is None:
            self._build_reach_masks()
            reduction = self._reduction = [{} for _ in self.tks]
        # the transactions at least one component can touch, and those at
        # least two can, under the touch masks and under the masks with the
        # entries counted
        once = twice = entered_once = entered_twice = 0
        candidates = []
        for tk, code in enumerate(state):
            entry = reduction[tk].get(code)
            if entry is None:
                mask = self._touch_mask(code)
                entered = mask | self._entry_masks[tk][self.components[code][_SPAWNED]]
                entry = reduction[tk][code] = (self._solo(code), mask, entered)
            steps, mask, entered = entry
            twice |= once & mask
            once |= mask
            entered_twice |= entered_once & entered
            entered_once |= entered
            candidates.append(steps)
        # a candidate reaches its own marked nodes, so its own mask holds it:
        # another component touches it exactly when two do.  Masks with the
        # entries counted are wider, so the first tier's choice qualifies
        # under the second too.
        second = None
        for tk, steps in enumerate(candidates):
            if steps and not twice >> tk & 1:
                if not entered_twice >> tk & 1:
                    return steps
                if second is None:
                    second = steps
        return second

    def _solo(self, code: int) -> list[tuple[int, int, int]]:
        """The component's steps in sorted order if each is a non-trigger
        step that reads and writes its own transaction alone, else none."""
        steps = self._steps_of(code)
        for step in steps:
            if step[0] == _TRIGGER or len(self._footprint(step)[0]) > 1:
                return []
        return steps

    def _touch_mask(self, code: int) -> int:
        """The transactions, as a bitset, in the footprint of some step at a
        node the component's transaction can still reach from its marked
        nodes and its messages' targets.

        Entries into the transaction need not be counted.  Another
        transaction Z can place a token into it, on an exit or a spawn
        entry, only by a step at a node Z can reach.  ``_build_reach_masks``
        propagates reach backwards across every flow between transactions
        and from a spawn guard's exit, so the reach of that node, and so
        Z's own mask, already holds everything the transaction can do after
        the entry."""
        tokens, in_flight = self.components[code][:2]
        reach = self._reach_masks
        mask = 0
        for node in tokens:
            mask |= reach[node]
        for source in _bits(in_flight):
            for target in self.msg_out.get(source, ()):
                if target is not None:
                    mask |= reach[target]
        return mask

    def _build_reach_masks(self) -> None:
        """Each node's reach mask: the union, as a bitset of transactions,
        of the footprints of every step at a node it reaches along sequence
        flows (and the exit a spawn guard may place on instead) and message
        flows.  A gate's triggers follow it by sequence flow."""
        tk_of, target, first_out = self.tk_of, self.target, self.first_out
        masks = [1 << tk for tk in tk_of]  # a step outside reaching touches its own
        predecessors: list[list[int]] = [[] for _ in tk_of]
        for node in range(len(tk_of)):
            for after in target[first_out[node]:first_out[node + 1]]:
                predecessors[after].append(node)
        for f, source in self.spawns:
            exit_flow = self.guards[f][2]
            if exit_flow is not None:
                predecessors[target[exit_flow]].append(source)
        for source, targets in self.msg_out.items():
            for msg_target in targets:
                if msg_target is not None:
                    predecessors[msg_target].append(source)
        # a delivery into a node and a trigger at it place as firing it
        # does, so the footprints of its firings cover theirs
        for node in self.reaching:
            branches = len(self._branches(node)) if self.kinds[node] is _XOR else 1
            for branch in range(branches):
                for tk in self._footprint((_FIRE, node, branch))[0]:
                    masks[node] |= 1 << tk
        # propagate each mask back to every node that reaches it
        work = list(range(len(tk_of)))
        while work:
            node = work.pop()
            mask = masks[node]
            for before in predecessors[node]:
                if mask & ~masks[before]:
                    masks[before] |= mask
                    work.append(before)
        self._reach_masks = masks
        # per transaction, the reach of the exits into it, with its spawn
        # entries while its executor has not started (index 0) and without
        # them once it has (index 1); persistent_steps prefers a transaction
        # that qualifies with these counted
        started = [0] * len(self.tks)
        for f in self.exit_of.values():
            started[tk_of[target[f]]] |= masks[target[f]]
        fresh = started[:]
        for f, _ in self.spawns:
            fresh[tk_of[target[f]]] |= masks[target[f]]
        self._entry_masks = list(zip(fresh, started))

    # -- step application --------------------------------------------------

    def apply(
        self, state: tuple[int, ...], step: tuple[int, int, int]
    ) -> tuple[tuple[int, ...], tuple[int, ...]]:
        """The successor state and the codes of the events the step emits.

        A step reads and writes only the components of its footprint, so
        its effect is memoized on their codes and replayed on every state
        that shares them."""
        entry = self._applied.get(step)
        if entry is None:
            entry = self._applied[step] = (*self._footprint(step), {})
        tks, footprint_codes, results = entry
        # one transaction's code, or a tuple of several
        key = footprint_codes(state)
        result = results.get(key)
        if result is None:
            # a miss: apply the step to the footprint's components alone
            working = _Working(self, tks, key if len(tks) > 1 else (key,))
            emitted: list[int] = []
            op, node, arg = step
            if op == _FIRE:
                self._fire(working, node, arg, emitted)
            elif op == _DELIVER:
                self._deliver(working, node, arg)
            elif op == _TRIGGER:
                self._trigger(working, node)
            else:
                raise SimulationError(f"unknown step {step}")
            result = results[key] = (working.freeze(self, tks), tuple(emitted))
        after, events = result
        if len(tks) == 1:
            tk = tks[0]
            return state[:tk] + after + state[tk + 1:], events
        successor = list(state)
        for tk, code in zip(tks, after):
            successor[tk] = code
        return tuple(successor), events

    def _footprint(self, step: tuple[int, int, int]) -> tuple[tuple[int, ...], itemgetter]:
        """The transactions whose components a step may read or write, in
        ascending order, and the getter of their codes: the stepping
        transaction, every transaction its placements reach through their
        targets and guards, and for a reposition split the direct children
        it may clear."""
        op, node, arg = step
        tk_of, target, guards = self.tk_of, self.target, self.guards
        if (arg if op == _DELIVER else node) not in self.reaching:
            # every placement stays in the transaction, and a phase guard
            # there reads it alone
            return self._own[tk_of[node]]
        tks = {tk_of[node]}
        if op == _DELIVER:
            tks.add(tk_of[arg])
            placed = list(self._out(arg))
        elif op == _TRIGGER:
            placed = list(self._out(node))
        else:
            kind = self.kinds[node]
            if kind is _XOR:
                placed = [self._branches(node)[arg]]
            elif kind is _END or kind is _TERMINATE:
                placed = []
            else:
                placed = list(self._out(node))
            compensated = self.compensates.get(node)
            if compensated is not None:
                tks.add(tk_of[compensated])
            if node in self.reposition_splits:
                tks.update(self.direct_children.get(tk_of[node], ()))
        # placing on a guarded flow reads the guard's transaction, and a
        # spawn guard may place on the child's exit instead
        while placed:
            f = placed.pop()
            tks.add(tk_of[target[f]])
            guard = guards.get(f)
            if guard is not None:
                tks.add(guard[0])
                if guard[2] is not None:
                    placed.append(guard[2])
        footprint = tuple(sorted(tks))
        return footprint, itemgetter(*footprint)

    def _advance(self, working: _Working, node: int, events: list[int]) -> None:
        """Move the transaction's shadow by the node's act, if it has one,
        and emit the act."""
        fields = self.meta[node]
        column = fields.column
        if column < 0:
            return
        act = fields.act
        tk = self.tk_of[node]
        shadow = working.shadows[tk]
        state = self.states[shadow >> 2].state
        after = self.moves[shadow >> 2][column]
        if after < 0:
            raise SimulationError(
                f"model lets {act.value} happen at {self.ids[node]} in phase "
                f"{state.phase.value}, which the engine's bounded step forbids"
            )
        lock = shadow & _LOCK
        if act is _ALLOW:
            lock = _PENDING if LANDING_PHASE[state.pending[0]] is _TERMINATED else _REPOSITIONING
        elif act is _REFUSE:
            lock = _FREE
        working.shadows[tk] = after << 2 | lock
        events.append(self._event_code(node, False))

    def _fire(self, working: _Working, node: int, branch: int, events: list[int]) -> None:
        kind = self.kinds[node]
        working.take_token(node, self.need[node])

        if kind is _TASK or kind is _SEND_TASK:
            self._advance(working, node, events)
            bit = 1 << node
            working.completed |= bit
            working.compensated &= ~bit
            if kind is _SEND_TASK and self.msg_out.get(node):
                if working.in_flight & bit:
                    raise SimulationError(f"message from {self.ids[node]} still in flight")
                working.in_flight |= bit
            self._place_all(working, node)
        elif kind is _THROW:
            target = self.compensates[node]
            if (
                target is not None
                and working.completed >> target & 1
                and not working.compensated >> target & 1
            ):
                working.compensated |= 1 << target
                events.append(self._event_code(target, True))
            self._place_all(working, node)
        elif kind is _XOR:
            self._place(working, self._branches(node)[branch])
        elif kind is _PAR:
            if node in self.reposition_splits:
                self._reposition(working, node)
            self._place_all(working, node)
        elif kind is _TERMINATE:
            self._clear(working, self.tk_of[node], self.pool_of[node], ())
        elif kind is _END:
            pass
        elif kind is _START:
            self._place_all(working, node)
        else:
            raise SimulationError(f"cannot fire {kind} node {self.ids[node]}")

    def _deliver(self, working: _Working, source: int, target: int) -> None:
        if not working.in_flight >> source & 1:
            raise SimulationError(f"no message in flight from {self.ids[source]}")
        working.in_flight &= ~(1 << source)
        if self.kinds[target] is _MESSAGE_START:
            working.spawned |= 1 << self.tk_of[target]
        elif target in working.tokens:
            working.take_token(target)
        else:
            gate = self.ebg_pred.get(target)
            if gate is None or gate not in working.tokens:
                raise SimulationError(f"delivery to unarmed catch {self.ids[target]}")
            working.take_token(gate)
        self._place_all(working, target)

    def _trigger(self, working: _Working, trigger: int) -> None:
        gate = self.ebg_pred[trigger]
        working.take_token(gate)
        working.shadows[self.tk_of[trigger]] |= _PENDING
        self._place_all(working, trigger)

    # -- placement under flow guards --------------------------------------

    def _place_all(self, working: _Working, node: int) -> None:
        if node in self.guarded:
            for f in self._out(node):
                self._place(working, f)
        else:
            working.tokens += self.target[self.first_out[node]:self.first_out[node + 1]]

    def _phase(self, working: _Working, tk: int) -> Phase:
        return self.states[working.shadows[tk] >> 2].state.phase

    def _place(self, working: _Working, f: int) -> None:
        guard = self.guards.get(f)
        if guard is not None:
            tk, phase, exit_flow = guard
            if phase is not None:
                if self._phase(working, tk) is not phase:
                    return  # stale resumption after a rollback or reposition
            elif not self._child_fresh(working, tk):
                # the child already started: resume past it, if it resumes
                if exit_flow is not None:
                    self._place(working, exit_flow)
                return
        working.tokens.append(self.target[f])

    def _child_fresh(self, working: _Working, child: int) -> bool:
        if working.spawned >> child & 1:
            return False
        if self._phase(working, child) is not _INITIAL:
            return False
        return not any(self.tk_of[node] == child for node in working.tokens)

    # -- revocation bookkeeping --------------------------------------------

    def _reposition(self, working: _Working, split: int) -> None:
        tk, pool = self.tk_of[split], self.pool_of[split]
        shadow = working.shadows[tk]
        if (shadow & _LOCK) not in (1, _REPOSITIONING):
            raise SimulationError(
                f"reposition split {self.ids[split]} fired without an allowed revocation"
            )
        # the rolled-back flow restarts from the landing node: clear this
        # pool's normal flow for the transaction, plus any not-yet-started
        # child entry left over from the cancelled attempt
        self._clear(working, tk, pool, self.zone)
        for child in self.direct_children.get(tk, ()):
            if not working.spawned >> child & 1 and self._phase(working, child) is _INITIAL:
                self._drop_tokens(working, child, pool, ())
        working.shadows[tk] = shadow - 1  # one split fewer; after the last, free

    def _drop_tokens(self, working: _Working, tk: int, pool: str, spared: Container[int]) -> None:
        """Drop the transaction's tokens in ``pool``, short of the nodes in
        ``spared``: a walk over the marked nodes, not the transaction's."""
        nodes, pool_of = self.tk_nodes[tk], self.pool_of
        working.tokens = [
            node for node in working.tokens
            if node not in nodes or pool_of[node] != pool or node in spared
        ]

    def _clear(self, working: _Working, tk: int, pool: str, spared: Container[int]) -> None:
        """Drop the transaction's tokens in ``pool`` and its messages in
        flight only into ``pool``, short of the nodes in ``spared``."""
        self._drop_tokens(working, tk, pool, spared)
        for source in _bits(working.in_flight & self.masks[tk]):
            targets = self.msg_out.get(source, ())
            if targets and all(
                target is not None and self.pool_of[target] == pool and target not in spared
                for target in targets
            ):
                working.in_flight &= ~(1 << source)


# ---------------------------------------------------------------------------
# Exploration
# ---------------------------------------------------------------------------


class _Histories:
    """Every transaction's histories as the nodes of one trie of ``(parent
    history, event code)`` pairs, the empty history being 0.  A history holds
    one transaction's events only, as a step extends each emitted event's
    transaction's history.

    Each node's acts, compensations left out, and compensation fold are
    derived from its parent's, in code order when first read: a parent is
    interned before its children.  Folds are few (55 over solo
    ``complete``'s 1,059 nodes), so they are interned, and each step from a
    fold by an event is folded once."""

    __slots__ = ("extend", "_parents", "_events", "_acts", "_folds", "_fold_of", "_stepped")

    def __init__(self, events: list[SimEvent]):
        trie = _Interner()
        trie.code(None)
        self.extend = trie.code  # the code of (parent history, event code)
        self._parents, self._events = trie.values, events
        self._acts: list[tuple[Act, ...]] = [()]
        self._folds = _Interner()
        self._folds.code(_UNFOLDED)
        self._fold_of = [0]  # node -> its fold's code
        self._stepped: dict[tuple[int, int], int] = {}  # (fold, event code) -> fold after

    def decode(self, history: int) -> tuple[SimEvent, ...]:
        decoded = []
        while history:
            history, code = self._parents[history]
            decoded.append(self._events[code])
        return tuple(reversed(decoded))

    def judge(self, history: int, tk: str) -> tuple[tuple[Act, ...], tuple[str, ...]]:
        """The acts and the compensation violations of ``tk``'s history."""
        acts, fold_of, parents, events = self._acts, self._fold_of, self._parents, self._events
        folds, stepped = self._folds, self._stepped
        for node in range(len(acts), history + 1):
            parent, code = parents[node]
            event = events[code]
            acts.append(acts[parent] if event.inverse else acts[parent] + (event.act,))
            key = (fold_of[parent], code)
            after = stepped.get(key)
            if after is None:
                after = stepped[key] = folds.code(_compensation_step(folds.values[key[0]], event))
            fold_of.append(after)
        return acts[history], _violations(folds.values[fold_of[history]], tk)


def _explore(
    sim: _Simulation, max_states: int, language: Optional[frozenset] = None
) -> ExhaustiveResult:
    """Explore every run, depth first with a visited set: each
    transaction's projections and the number of states searched.

    A searched state is a simulation state plus each transaction's history,
    the run's events so far projected onto it, a node of ``_Histories``'s
    trie; a step extends the history of each emitted event's transaction
    (``event_lanes``).  At a quiescent state, one where nothing but a
    revocation trigger can happen, each transaction's history is recorded
    with its phase, so an accepted run and its post-acceptance revocation
    extensions are all recorded; a transaction's empty history at Initial
    is left out.  Where a table row is reached by one history only, as at
    ``happy`` and ``dissent``, each simulation state is searched once.

    Each projection is judged when first recorded: its acts, and its
    compensation violations.  Given the engine's ``language``, it is a
    finding when its acts and phase are outside the language or it has a
    violation; more search removes neither.  The first finding keeps the
    steps along the stack to its state as the result's ``witness``.  When
    ``max_states`` runs out after a finding, the search stops and returns
    what it recorded, marked ``exhausted``; with no finding, it raises
    ``StateSpaceLimitExceeded``.

    On two or more transactions, a non-quiescent state where
    ``persistent_steps`` names a transaction has only that transaction's
    steps explored.  This keeps every projection, since no history tells
    apart interleavings of different transactions' steps, and every step
    that raises ``SimulationError`` without the reduction is still applied
    with the same footprint codes.  A frame applies all its steps when it
    opens; the error's ``witness`` lists the steps from the initial state
    along the stack to the one that raised.  Both rest on the state graph
    being acyclic, as a compiled model's is; the search reports any cycle it
    meets, with the steps along the stack to the one that closes it.  A
    cycle of simulation states is one of searched states too: it emits no
    act, as an act moves its row forward, and so no compensation, as only an
    act clears a compensated task.
    """
    lanes = len(sim.tks)
    reduced = lanes > 1
    lane_of = sim.event_lanes
    histories = _Histories(sim.events)
    extend = histories.extend
    # each searched state (its key) -> whether it is still on the stack
    seen: dict[tuple[int, ...], bool] = {}
    ends: set[tuple[int, int, int]] = set()  # (transaction, history, component)
    # (transaction, history, phase) -> (acts, compensation violations)
    projections: dict[tuple[int, int, Phase], tuple] = {}
    first: Optional[tuple[str, ...]] = None  # the first finding's witness
    stack: list[list] = []

    def witness(*last: tuple[int, int, int]) -> tuple[str, ...]:
        """The steps taken from the initial state along the stack, then ``last``."""
        taken = [frame[1][frame[3] - 1] for frame in stack]
        return tuple(map(sim.describe, taken + list(last)))

    def record(state: tuple[int, ...], path: tuple[int, ...]) -> None:
        nonlocal first
        for tk, history, code in zip(range(lanes), path, state):
            phase = sim.phase(code)
            key = (tk, history, phase)
            if key in projections or (not history and phase is _INITIAL):
                continue
            acts, violations = projections[key] = histories.judge(history, sim.tks[tk])
            if first is None and language is not None and (
                violations or (acts, phase) not in language
            ):
                first = witness()

    def open_frame(key: tuple[int, ...]) -> None:
        if len(seen) >= max_states:
            raise StateSpaceLimitExceeded(f"more than {max_states} states explored")
        state, path = key[:lanes], key[lanes:]
        steps = sim.persistent_steps(state) if reduced else None
        if steps is None:
            steps = sim.steps(state)
            # steps sort by operation and triggers sort last, so the first
            # step tells whether only triggers are left
            if not steps or steps[0][0] == _TRIGGER:
                recorded = len(ends)
                ends.update(zip(range(lanes), path, state))
                if len(ends) > recorded:
                    record(state, path)
        successors = []
        for step in steps:
            try:
                child, emitted = sim.apply(state, step)
            except SimulationError as exc:
                exc.witness = witness(step)
                raise
            if emitted:
                extended = list(path)
                for code in emitted:
                    lane = lane_of[code]
                    extended[lane] = extend((extended[lane], code))
                child += tuple(extended)
            else:
                child += path
            successors.append(child)
        seen[key] = True
        stack.append([key, steps, successors, 0])

    exhausted = False
    try:
        open_frame(sim.initial() + (0,) * lanes)
        while stack:
            frame = stack[-1]
            _, _, successors, index = frame
            if index < len(successors):
                frame[3] = index + 1
                child = successors[index]
                on_stack = seen.get(child)
                if on_stack is None:
                    open_frame(child)
                elif on_stack:
                    error = SimulationError("simulation state graph has a cycle")
                    error.witness = witness()
                    raise error
            else:
                seen[frame[0]] = False
                stack.pop()
    except StateSpaceLimitExceeded:
        if first is None:
            raise
        exhausted = True
    return ExhaustiveResult(
        states=len(seen),
        transactions=tuple(sim.tks),
        projections=projections,
        histories=histories,
        exhausted=exhausted,
        witness=first or (),
    )


def simulate_exhaustive(
    model: BpmnModel,
    bounds: Bounds = Bounds(),
    max_states: int = MAX_STATES,
    language: Optional[frozenset] = None,
) -> ExhaustiveResult:
    """Explore every run; return each transaction's projections.

    A projection is one transaction's events, compensations included, with
    its phase where the run stops, as a ``SimTrace`` whose only outcome is
    that transaction's.  For one transaction a projection is the run's
    trace.  A run that never starts a transaction adds no projection of it.
    ``max_states`` bounds the searched states, each a state with every
    transaction's history (see ``_explore``).  Given the engine's
    ``language`` (``enumerate_language``), a projection outside it or with
    a compensation violation is a finding, and a finding lets an exhausted
    bound end the search instead of raising ``StateSpaceLimitExceeded``.
    """
    return _explore(_Simulation(model, bounds), max_states, language)


def simulate_random(
    model: BpmnModel,
    bounds: Bounds = Bounds(),
    seed: int = 0,
    runs: int = 100,
) -> list[SimTrace]:
    """Seeded random walks; each run records one trace at quiescence, or
    after ``_MAX_WALK_STEPS`` steps as exhausted."""
    sim = _Simulation(model, bounds)
    rng = random.Random(seed)
    traces = []
    for _ in range(runs):
        state = sim.initial()
        events: list[int] = []
        exhausted = False
        for _step in range(_MAX_WALK_STEPS):
            steps = sim.steps(state)
            if not steps:
                break
            # triggers sort last: when the first step is one, only they are left
            if steps[0][0] == _TRIGGER and rng.random() < 0.5:
                break  # settle here rather than revoke
            state, emitted = sim.apply(state, steps[rng.randrange(len(steps))])
            events.extend(emitted)
        else:
            exhausted = True
        decoded = tuple(sim.events[code] for code in events)
        traces.append(SimTrace(decoded, sim.outcomes(state), exhausted))
    return traces


# ---------------------------------------------------------------------------
# Conformance and invariant checks
# ---------------------------------------------------------------------------


def _projection_order(projection: tuple[tuple[Act, ...], Phase]) -> tuple:
    sequence, phase = projection
    return tuple(a.value for a in sequence), phase.value


class Verdict(Enum):
    CONFORMANT = "Conformant"
    NONCONFORMANT = "NonConformant"


@dataclass
class ConformanceReport:
    verdict: Verdict
    missing: dict[str, frozenset]  # language members the model never produced
    unexpected: dict[str, frozenset]  # produced behaviour outside the language
    compensation_violations: list[str]
    # (state, histories) pairs searched, with the partial-order reduction
    # (see _explore)
    states: int
    # distinct (transaction, projection) pairs the model produced, where a
    # projection is the transaction's events, compensations included, and
    # its final phase; for one transaction, the number of traces
    traces: int
    # the search stopped at its state bound after a finding: the verdict
    # holds, missing projections were not decided, and witness leads to the
    # first finding
    exhausted: bool = False
    witness: tuple[str, ...] = ()

    def summary(self) -> str:
        """The verdict, the ``traces`` count (distinct per-transaction
        projections) and the states, then each missing and unexpected
        projection and each compensation violation; for an exhausted
        search, a line saying so and the witness."""
        lines = [f"{self.verdict.value}: {self.traces} traces over {self.states} states"]
        for label, projections in (("missing", self.missing), ("unexpected", self.unexpected)):
            for tk in sorted(projections):
                for sequence, phase in sorted(projections[tk], key=_projection_order):
                    acts = ",".join(a.value for a in sequence)
                    lines.append(f"  {label} {tk}: [{acts}] -> {phase.value}")
        for violation in self.compensation_violations:
            lines.append(f"  compensation: {violation}")
        if self.exhausted:
            lines.append(
                f"  stopped after {self.states} states: missing projections were not decided"
            )
            lines.append(f"witness: {'; '.join(self.witness)}")
        return "\n".join(lines)


def _projection_key(acts: tuple[Act, ...], phase: Phase, events: tuple[SimEvent, ...]) -> tuple:
    """A projection's place in a report: in ``_projection_order`` of its acts
    and phase, then by its compensations and roles."""
    return _projection_order((acts, phase)), tuple((e.label(), e.role.value) for e in events)


def check_conformance(
    model: BpmnModel,
    alphabet: frozenset,
    bounds: Bounds = Bounds(),
    max_states: int = MAX_STATES,
) -> ConformanceReport:
    """Compare the model's per-transaction projections with the engine's
    language.

    The projections are ``simulate_exhaustive``'s: the projection of every
    run onto one transaction's events, with its phase where the run stops,
    each judged once as the search records it.  Each transaction's, reduced
    to the fourteen acts, are set-compared with ``enumerate_language``;
    compensation violations are listed by transaction, then by projection in
    ``_projection_key`` order.  A transaction that no run reaches has no
    projection, so it misses its whole language.  If the state bound runs
    out after a finding, the report is NonConformant with the findings so
    far and the first one's witness, and leaves missing projections
    undecided; with no finding, ``StateSpaceLimitExceeded`` is raised.
    """
    expected = enumerate_language(alphabet, bounds)
    result = simulate_exhaustive(model, bounds, max_states, expected)
    decode, tks = result.histories.decode, result.transactions
    got: list[set] = [set() for _ in tks]
    flagged = []  # (transaction, place in the report, violations) per violating projection
    for (tk, history, phase), (acts, found) in result.projections.items():
        got[tk].add((acts, phase))
        if found:
            flagged.append((tk, _projection_key(acts, phase, decode(history)), found))
    violations: dict[str, None] = {}  # in first-seen order
    for *_, found in sorted(flagged):
        violations.update(dict.fromkeys(found))
    missing: dict[str, frozenset] = {}
    unexpected: dict[str, frozenset] = {}
    for tk, produced in zip(tks, got):
        if produced - expected:
            unexpected[tk] = frozenset(produced - expected)
        if expected - produced and not result.exhausted:
            missing[tk] = frozenset(expected - produced)

    conformant = not missing and not unexpected and not violations
    return ConformanceReport(
        verdict=Verdict.CONFORMANT if conformant else Verdict.NONCONFORMANT,
        missing=missing,
        unexpected=unexpected,
        compensation_violations=list(violations),
        states=result.states,
        traces=len(result.projections),
        exhausted=result.exhausted,
        witness=result.witness,
    )


def check_network_conformance(
    net: TransactionNetwork,
    level,
    bounds: Bounds = Bounds(),
    max_states: int = MAX_STATES,
) -> ConformanceReport:
    """Compile ``net`` at ``level`` (or its value) and check it against its language."""
    from .compiler import DetailLevel, compile_network, LEVEL_ALPHABETS

    level = DetailLevel(level)
    model = compile_network(net, level)
    return check_conformance(model, LEVEL_ALPHABETS[level], bounds, max_states)


def check_composition(net: TransactionNetwork, trace: SimTrace) -> list[str]:
    """The dependency rules (``DEPENDENCY_RULES``) a full trace breaks.

    A child may be requested only after its parent performed the act that
    opens it; and where the parent waits for the child, the parent may
    declare only after the child accepted.
    """
    first: dict[tuple[str, Act], int] = {}
    for index, event in enumerate(trace.events):
        if not event.inverse:
            first.setdefault((event.tk, event.act), index)

    violations = []
    for dep in net.dependencies:
        parent, child = slugify_tk(dep.parent), slugify_tk(dep.child)
        rule = DEPENDENCY_RULES[dep.kind]
        child_request = first.get((child, Act.REQUEST))
        if child_request is not None:
            parent_opens = first.get((parent, rule.opens))
            if parent_opens is None or child_request < parent_opens:
                violations.append(
                    f"{dep.child} was requested before {dep.parent} performed {rule.opens.value}"
                )
        if rule.waits:
            parent_declare = first.get((parent, Act.DECLARE))
            child_accept = first.get((child, Act.ACCEPT))
            if parent_declare is not None and (
                child_accept is None or parent_declare < child_accept
            ):
                violations.append(
                    f"{dep.parent} declared before {dep.child} was accepted"
                )
    return violations


# A compensation fold: (engine state, rollback chain left or None outside a
# rollback, violations so far), before a transaction's first event.
_UNFOLDED = (INITIAL_STATE, None, ())


def _compensation_step(fold: tuple, event: SimEvent) -> tuple:
    """The compensation fold after one more event of its transaction."""
    state, chain, violations = fold
    tk, act = event.tk, event.act
    if event.inverse:
        if chain is None:
            if state.pending is None:
                return state, chain, violations + (f"{tk}: inverse {act.value} outside a revocation",)
            try:
                chain = rollback_chain(state, state.pending[0])
            except RevocationError:
                return state, chain, violations + (f"{tk}: inverse {act.value} for an unperformed act",)
        if not chain:
            return state, chain, violations + (f"{tk}: extra inverse {act.value}",)
        if act is not chain[0]:
            return state, chain, violations + (
                f"{tk}: expected {chain[0].value} undone next, got {act.value}",
            )
        return state, chain[1:], violations
    allow = act is Act.ALLOW
    if not allow:
        if chain:
            violations += (f"{tk}: {act.value} happened before the rollback finished",)
        chain = None
    elif state.pending is None:
        return state, chain, violations + (f"{tk}: Allow without a pending revocation",)
    try:
        after = apply_act(state, act, event.role)
    except (ActNotEnabled, RevocationError) as exc:
        return state, chain, violations + (f"{tk}: {act.value} not enabled ({exc})",)
    if allow and chain is None:
        try:
            chain = rollback_chain(state, state.pending[0])
        except RevocationError:
            chain = ()
    return after, chain, violations


def _violations(fold: tuple, tk: str) -> tuple[str, ...]:
    """A folded history's violations, a rollback chain it leaves unfinished
    included."""
    _, chain, violations = fold
    return violations + (f"{tk}: rollback chain left unfinished",) if chain else violations


def check_compensation_order(trace: SimTrace) -> list[str]:
    """Inverse events of each allowed revocation must replay the rollback
    chain exactly: most recent act first, nothing skipped, nothing extra.
    Each transaction's events are folded by ``_compensation_step``, as the
    search folds each history once per trie node."""
    violations: list[str] = []
    for tk in sorted({e.tk for e in trace.events}):
        fold = _UNFOLDED
        for event in trace.events:
            if event.tk == tk:
                fold = _compensation_step(fold, event)
        violations += _violations(fold, tk)
    return violations
