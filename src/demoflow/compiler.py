"""Compile a transaction network into a BPMN collaboration.

Three detail levels, each a pattern of both sides of one transaction derived
once per level and replayed per transaction.  The sides are projections of
the engine's transition table (_TRANSITIONS) over the level's act alphabet
(LEVEL_ALPHABETS): a node for each act a side performs, a catch for each act
it receives, a gateway where a phase offers a choice, and a message flow
from each send task to each catch of its act.

    happy     request -> promise -> execute -> declare -> accept, two pools
              per transaction
    dissent   the same projection with decline, reject and stop: the
              decline branch (with re-request / stop) and the reject branch
              (with re-declare / stop)
    complete  adds to each pool a revocation zone armed by an entry
              parallel gateway: an event-based gateway awaiting
              counterparty revocation messages and environment triggers,
              allow/refuse decisions, compensation boundary events and
              handlers on the five core-act tasks, and inverse-order
              compensation throws.  Both pools' zones are derived from the
              engine's revocation tables: who revokes (REVOKER) and what
              is presupposed (REVOCATION_TARGET), what is undone and by
              whom (rollback_chain, PERFORMER), and where the transaction
              lands (LANDING_PHASE)

A pattern node fixes its id suffix, kind and name template; replaying it
for a transaction prefixes the transaction's slug and formats its name.
Transactions share pools by actor: a child transaction's initiator fragment
is spliced into its parent's executor flow after the act its dependency
kind's rule names, inside that flow or beside it (``DEPENDENCY_RULES``).
All ids are deterministic functions of the network, so compiling twice
yields identical models; flows, message flows and associations get no id
here, each forms its own from its endpoints (see ``model._Link``).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from functools import cache
from typing import NamedTuple, Optional

from .engine import (
    Act,
    COMPLETE_ALPHABET,
    CORE_ACTS,
    DISSENT_ALPHABET,
    HAPPY_ALPHABET,
    LANDING_PHASE,
    PERFORMER,
    Phase,
    REVOCATION_TARGET,
    REVOKER,
    Role,
    TransactionState,
    _TRANSITIONS,
    rollback_chain,
)
from .model import (
    Association,
    BpmnModel,
    FlowNode,
    MessageFlow,
    NodeKind,
    Pool,
    ROLE_TAG,
    SLUG_FOR_ACT,
    SequenceFlow,
    slugify_actor,
    slugify_tk,
)
from .network import (
    DEPENDENCY_RULES,
    DependencyKind,
    Transaction,
    TransactionNetwork,
    execution_order,
    validate_network,
)


class DetailLevel(Enum):
    HAPPY_FLOW = "happy"
    WITH_DISSENT = "dissent"
    COMPLETE = "complete"


#: Act alphabet the engine enumerates for each detail level.
LEVEL_ALPHABETS = {
    DetailLevel.HAPPY_FLOW: HAPPY_ALPHABET,
    DetailLevel.WITH_DISSENT: DISSENT_ALPHABET,
    DetailLevel.COMPLETE: COMPLETE_ALPHABET,
}


class CompileError(ValueError):
    pass


INITIAL_GATEWAY_NAME = "INITIAL GATEWAY"

# Every act performed: the state whose rollback chains the zone compensates.
_FULLY_PERFORMED = TransactionState(Phase.ACCEPTED, CORE_ACTS)

# The message repositioning the transaction, by the phase a revocation lands in.
_REPOSITION_SLUG = {
    Phase.REJECTED: "rereject",
    Phase.DECLINED: "redecline",
    Phase.PROMISED: "repromise",
}

_EPISODE_ORDER = (
    Act.REVOKE_REQUEST,
    Act.REVOKE_ACCEPT,
    Act.REVOKE_PROMISE,
    Act.REVOKE_DECLARE,
)

# The phase each act moves its transaction into.
_PHASE_AFTER = {act: target for (_, act, _), target in _TRANSITIONS.items()}

# Node-name templates; "{}" takes the transaction's name.
_SEND_NAMES = {act: f"{act.value} {{}}" for act in Act}
_CATCH_NAMES = {act: f"Receive {act.value} {{}}" for act in Act}
_CONSIDER_NAMES = {act: f"Consider {act.value} {{}}" for act in _EPISODE_ORDER}

# Node names without a transaction, one string each.
_INVERSE_NAMES = {act: f"{act.value}⁻¹" for act in CORE_ACTS}
_COMPENSATE_NAMES = {act: f"Compensate {act.value}" for act in CORE_ACTS}


def _suffix(role: Role, slug: str, kind: NodeKind, counts: dict[tuple[str, NodeKind], int]) -> str:
    """The id of a side's next node of ``slug`` and ``kind`` after the
    transaction's slug, ``_<i|e>_<slug>_<tag>[_<n>]``; ``counts`` holds the
    side's nodes so far by slug and kind."""
    ordinal = counts[slug, kind] = counts.get((slug, kind), 0) + 1
    suffix = f"_{ROLE_TAG[role]}_{slug}_{kind.value}"
    return suffix if ordinal == 1 else f"{suffix}_{ordinal}"


@dataclass
class _Side:
    """One side (initiator or executor) of a level's transaction pattern,
    nodes by index: each node is (id suffix, kind, name template, the index
    of the task it is attached to, the index of the task it compensates)."""

    role: Role
    nodes: list[tuple[str, NodeKind, str, Optional[int], Optional[int]]] = field(default_factory=list)
    flows: list[tuple[int, int, str]] = field(default_factory=list)
    associations: list[tuple[int, int]] = field(default_factory=list)
    marks: dict[str | Phase, int] = field(default_factory=dict)
    acts: dict[Act, int] = field(default_factory=dict)  # the node of each act this side performs
    catches: dict[Act, list[int]] = field(default_factory=dict)  # of each act of the other side
    last: int = 0  # where the revocation episode being built has got to
    _counts: dict[tuple[str, NodeKind], int] = field(default_factory=dict)

    def add(
        self,
        slug: str,
        kind: NodeKind,
        name: str = "",
        attached_to: Optional[int] = None,
        compensates: Optional[int] = None,
    ) -> int:
        self.nodes.append((_suffix(self.role, slug, kind, self._counts), kind, name, attached_to, compensates))
        return len(self.nodes) - 1

    def connect(self, source: int, target: int, label: str = "") -> None:
        self.flows.append((source, target, label))

    def compensable(self, task: int, act: Act) -> None:
        """Attach a compensation boundary + handler pair to a task."""
        slug = SLUG_FOR_ACT[act]
        boundary = self.add(slug, NodeKind.COMPENSATION_BOUNDARY, attached_to=task)
        handler = self.add(slug, NodeKind.COMPENSATION_HANDLER, name=_INVERSE_NAMES[act])
        self.associations.append((boundary, handler))


@dataclass
class _Fragment:
    """One side of one transaction, replayed from its level's pattern; the
    lists are its own, for splicing to change."""

    tk_slug: str
    role: Role
    nodes: list[FlowNode]
    flows: list[SequenceFlow]
    associations: list[Association]
    marks: dict[str | Phase, str]
    # splicing's nodes only: their slugs, the dependency kinds, are none of the pattern's
    _counts: dict[tuple[str, NodeKind], int] = field(default_factory=dict)

    def add(self, slug: str, kind: NodeKind) -> str:
        node_id = self.tk_slug + _suffix(self.role, slug, kind, self._counts)
        self.nodes.append(FlowNode(node_id, kind))
        return node_id

    def connect(self, source: str, target: str, label: str = "") -> None:
        self.flows.append(SequenceFlow(None, source, target, label))

    def disconnect(self, source: str) -> str:
        """Remove the unique outgoing flow of a node; returns the old target."""
        matches = [f for f in self.flows if f.source == source]
        if len(matches) != 1:
            raise CompileError(f"{source} has no unique outgoing flow to splice around")
        self.flows.remove(matches[0])
        return matches[0].target

    def remove_node(self, node_id: str) -> None:
        self.nodes = [n for n in self.nodes if n.id != node_id]
        self.flows = [f for f in self.flows if node_id not in (f.source, f.target)]


# The slug of a side's gateway in a phase with several moves: (where this side
# chooses, where it waits for the other side's choice).
_CHOICE_SLUGS = {
    Phase.REQUESTED: ("response", "response"),
    Phase.DECLARED: ("verdict", "verdict"),
    Phase.REJECTED: ("rejected", "retry"),
    Phase.DECLINED: ("declined", "retry"),
}

# The slug of the end event in each phase with no moves.
_OUTCOME_SLUGS = {Phase.ACCEPTED: "done", Phase.STOPPED: "stopped"}

_Moves = dict[Phase, list[tuple[Act, Role, Phase]]]

# Message flows of a pattern: (sender, its send task, the other side's catch).
_Messages = list[tuple[Role, int, int]]


def _derive_side(moves: _Moves, role: Role) -> _Side:
    """Project the moves onto ``role`` by a depth-first walk over the phases.

    The side makes one node for each act it performs, a task for Execute and
    a send task otherwise; a later move to the same act is a loop back to it,
    labelled ``re<slug>``.  It makes a catch for each move of the other side,
    a message start event at Initial, but does not see the other side's
    Execute.  A phase with several moves gets a gateway, exclusive where this
    side chooses (its branches labelled with the act's slug) and event-based
    where it waits; a phase with none gets an end event on each path into it.
    """
    side = _Side(role)
    sits: dict[Phase, int] = {}  # where this side is in each phase with moves
    ends: dict[Phase, int] = {}
    acts, catches = side.acts, side.catches

    def enter(phase: Phase, prev: Optional[int]) -> None:
        if phase in sits:
            side.connect(prev, sits[phase])
            return
        options = moves.get(phase)
        if not options:
            slug = _OUTCOME_SLUGS[phase]
            ends[phase] = side.add(slug, NodeKind.END_EVENT, f"{{}} {slug}")
            side.connect(prev, ends[phase])
            return
        (act, performer, target), *rest = options
        if not rest and act is Act.EXECUTE and performer is not role:
            enter(target, prev)  # this side waits on through the other's production act
            sits[phase] = sits[target]
            return
        chooses = performer is role
        if rest:
            kind = NodeKind.EXCLUSIVE_GATEWAY if chooses else NodeKind.EVENT_BASED_GATEWAY
            sits[phase] = side.add(_CHOICE_SLUGS[phase][not chooses], kind)
            side.connect(prev, sits[phase])
            prev = sits[phase]
        for act, performer, target in options:
            slug = SLUG_FOR_ACT[act]
            if performer is role and act in acts:
                side.connect(prev, acts[act], "re" + slug)
                continue
            if performer is role:
                kind = NodeKind.TASK if act is Act.EXECUTE else NodeKind.SEND_TASK
                node = acts[act] = side.add(slug, kind, _SEND_NAMES[act])
            else:
                kind = NodeKind.MESSAGE_START_EVENT if phase is Phase.INITIAL else NodeKind.MESSAGE_CATCH
                node = side.add(slug, kind, _CATCH_NAMES[act])
                catches.setdefault(act, []).append(node)
            sits.setdefault(phase, node)
            if prev is not None:  # else node is the message start event
                side.connect(prev, node, slug if chooses and rest else "")
            enter(target, node)

    opens = moves[Phase.INITIAL][0][1] is role
    enter(Phase.INITIAL, side.add("entry", NodeKind.START_EVENT, "Start {}") if opens else None)
    # what splicing and the revocation zone attach to: the start, the end once
    # accepted, the core acts this side performs and where it is in each phase
    # a revocation lands in
    side.marks = {"start": 0, "done": ends[Phase.ACCEPTED]}
    side.marks.update((SLUG_FOR_ACT[act], node) for act, node in acts.items() if act in CORE_ACTS)
    side.marks.update((phase, sits[phase]) for phase in LANDING_PHASE.values() if phase in sits)
    return side


class _Pattern(NamedTuple):
    """Both sides of a transaction at one level, as each transaction replays them."""

    sides: dict[Role, _Side]
    messages: list[tuple[int, int]]  # (send task, catch) over both sides' nodes, the initiator's first
    names: list[str]  # the distinct node names; "{}" takes the transaction's name


def _project(alphabet: frozenset[Act]) -> _Pattern:
    """Both sides of a transaction over ``alphabet`` and their message flows:
    each send task reaches every catch of its act on the other side.  With
    the revocations in the alphabet, the revocation zone is built in."""
    moves: _Moves = {}
    for (phase, act, performer), target in _TRANSITIONS.items():
        if act in alphabet:
            moves.setdefault(phase, []).append((act, performer, target))
    sides = {role: _derive_side(moves, role) for role in Role}
    messages = [
        (role, send, catch)
        for role, side in sides.items()
        for act, send in side.acts.items()
        for catch in sides[role.other].catches.get(act, ())
    ]
    if alphabet.issuperset(_EPISODE_ORDER):
        _add_revocation_zones(sides, messages)
    offset = {Role.INITIATOR: 0, Role.EXECUTOR: len(sides[Role.INITIATOR].nodes)}
    return _Pattern(
        sides,
        [(offset[role] + send, offset[role.other] + catch) for role, send, catch in messages],
        list(dict.fromkeys(name for side in sides.values() for _, _, name, _, _ in side.nodes)),
    )


def _add_revocation_zones(sides: dict[Role, _Side], messages: _Messages) -> None:
    """Build the revocation zone into both sides of a transaction, and its
    message flows into ``messages``.

    Each side's zone is armed by an entry parallel gateway next to the start
    and waits at an event-based gateway; the core-act tasks a side performs
    get compensation handlers.  The episodes follow the engine's revocation
    tables (see ``_add_episode``).
    """
    for role, side in sides.items():
        gateway = side.add("entry", NodeKind.PARALLEL_GATEWAY, name=INITIAL_GATEWAY_NAME)
        revgate = side.marks["revoke"] = side.add("revoke", NodeKind.EVENT_BASED_GATEWAY)
        # re-route the start through the arming gateway
        start = side.marks["start"]
        _, old_target, _ = side.flows.pop(next(i for i, flow in enumerate(side.flows) if flow[0] == start))
        side.connect(start, gateway)
        side.connect(gateway, old_target)
        side.connect(gateway, revgate)
        for act in CORE_ACTS:
            if PERFORMER[act] is role:
                side.compensable(side.marks[SLUG_FOR_ACT[act]], act)
    for revocation in _EPISODE_ORDER:
        revoker = REVOKER[revocation]
        _add_episode(sides[revoker], sides[revoker.other], revocation, messages)


def _add_episode(revoker: _Side, decider: _Side, revocation: Act, messages: _Messages) -> None:
    """One revocation episode on both sides, as the engine states it.

    The ``REVOKER`` asks on an environment trigger and the other role
    decides.  Allowing walks ``rollback_chain`` of a fully performed
    transaction with the decider holding the turn: each side compensates its
    own acts (``PERFORMER``), and each change of turn is a message, Allow
    first.  The episode ends in termination or, for any other
    ``LANDING_PHASE``, in a reposition message from the side holding the
    turn and a split on each side back to the zone and to where it waits in
    that phase.  A send task and its catch are made together, with their
    message flow; their names are templates taking the transaction's name.
    """
    slug = SLUG_FOR_ACT[revocation]
    allowed = f"performed:{SLUG_FOR_ACT[REVOCATION_TARGET[revocation]]}"

    def message(
        sender: _Side, receiver: _Side, msg_slug: str, send_template: str, catch_template: str
    ) -> tuple[int, int]:
        send = sender.add(msg_slug, NodeKind.SEND_TASK, name=send_template)
        catch = receiver.add(msg_slug, NodeKind.MESSAGE_CATCH, name=catch_template)
        messages.append((sender.role, send, catch))
        return send, catch

    def extend(side: _Side, node: int) -> None:
        # the one step forward out of the decision is the allow branch
        side.connect(side.last, node, label=allowed if side is decider and side.last == decide else "")
        side.last = node

    def pass_turn(sender: _Side, receiver: _Side, *slug_and_templates: str) -> None:
        send, catch = message(sender, receiver, *slug_and_templates)
        extend(sender, send)
        extend(receiver, catch)

    trigger = revoker.add(slug, NodeKind.MESSAGE_CATCH, name=_CONSIDER_NAMES[revocation])
    send, catch = message(revoker, decider, slug, _SEND_NAMES[revocation], _CATCH_NAMES[revocation])
    wait = revoker.add(slug, NodeKind.EVENT_BASED_GATEWAY)
    decide = decider.add(slug, NodeKind.EXCLUSIVE_GATEWAY)
    revoker.last, decider.last = revoker.marks["revoke"], decider.marks["revoke"]
    for node in (trigger, send, wait):
        extend(revoker, node)
    for node in (catch, decide):
        extend(decider, node)

    allow = ("allow", _SEND_NAMES[Act.ALLOW], _CATCH_NAMES[Act.ALLOW])
    handoffs = iter((
        allow,
        ("ackgo", "Start joint rollback {}", "Receive joint rollback {}"),
        ("ackdone", "Finish joint rollback {}", "Receive joint rollback {}"),
    ))
    turn, other = decider, revoker
    for act in rollback_chain(_FULLY_PERFORMED, revocation):
        if PERFORMER[act] is not turn.role:
            handoff = next(handoffs)
            pass_turn(turn, other, *handoff)
            if handoff is allow:
                # the refusal branches off beside the Allow and back to the zone
                srefuse, crefuse = message(
                    decider, revoker, "refuse", _SEND_NAMES[Act.REFUSE], _CATCH_NAMES[Act.REFUSE]
                )
                decider.connect(decide, srefuse, label="refuse")
                decider.connect(srefuse, decider.marks["revoke"])
                revoker.connect(wait, crefuse)
                revoker.connect(crefuse, revoker.marks["revoke"])
            turn, other = other, turn
        extend(turn, turn.add(
            slug, NodeKind.COMPENSATION_THROW,
            name=_COMPENSATE_NAMES[act], compensates=turn.marks[SLUG_FOR_ACT[act]],
        ))

    landing = LANDING_PHASE[revocation]
    if landing is Phase.TERMINATED:
        for side in (turn, other):
            extend(side, side.add("terminated", NodeKind.TERMINATE_END_EVENT, name="{} terminated"))
        return
    pass_turn(turn, other, _REPOSITION_SLUG[landing], "Reposition {}", "Receive reposition {}")
    for side in (turn, other):
        split = side.add(slug, NodeKind.PARALLEL_GATEWAY)
        extend(side, split)
        side.connect(split, side.marks["revoke"])
        side.connect(split, side.marks[landing], label="reposition")


@cache
def _pattern(level: DetailLevel) -> _Pattern:
    """The level's pattern, derived on the first compile at that level; every
    transaction after replays it, and nothing changes it."""
    return _project(LEVEL_ALPHABETS[level])


def _build_transaction(tk: Transaction, level: DetailLevel) -> tuple[dict[Role, _Fragment], list[MessageFlow]]:
    """Both sides of ``tk`` and their message flows, replayed from the level's
    pattern.  Each distinct name is formatted once, so that a model holds one
    string per distinct name; a name without a field is the pattern's own."""
    pattern = _pattern(level)
    tk_slug = slugify_tk(tk.id)
    names = {name: name.format(tk.name) if "{" in name else name for name in pattern.names}
    frags, ids = {}, []
    for role, side in pattern.sides.items():
        at = [tk_slug + node[0] for node in side.nodes]
        ids += at
        nodes = [
            FlowNode(
                node_id, kind, names[name],
                None if attached_to is None else at[attached_to],
                None if compensates is None else at[compensates],
            )
            for node_id, (_, kind, name, attached_to, compensates) in zip(at, side.nodes)
        ]
        flows = [SequenceFlow(None, at[s], at[t], label) for s, t, label in side.flows]
        associations = [Association(None, at[s], at[t]) for s, t in side.associations]
        marks = {key: at[node] for key, node in side.marks.items()}
        frags[role] = _Fragment(tk_slug, role, nodes, flows, associations, marks)
    return frags, [MessageFlow(None, ids[send], ids[catch]) for send, catch in pattern.messages]


def _splice(parent_frag: _Fragment, children: list[_Fragment], kind: DependencyKind) -> None:
    """Wire child initiator fragments into the parent executor flow after
    the act that opens them, under the ``spawn`` and ``phase:`` guards; the
    kind's rule (``DEPENDENCY_RULES``) says which act and whether the
    parent waits for the children's Accept."""
    rule = DEPENDENCY_RULES[kind]
    slug = kind.value.lower()
    anchor = parent_frag.marks[SLUG_FOR_ACT[rule.opens]]
    continuation = parent_frag.disconnect(anchor)

    if not rule.waits:
        # asynchronous: children get their own branch and keep their end event
        split = parent_frag.add(slug, NodeKind.PARALLEL_GATEWAY)
        parent_frag.connect(anchor, split)
        parent_frag.connect(split, continuation)
        for child in children:
            parent_frag.connect(split, child.marks["entry"], label="spawn")
        return

    # the parent resumes only in the phase the opening act left it in
    gate = "phase:" + _PHASE_AFTER[rule.opens].value.lower()
    for child in children:
        # the child completes into the parent flow instead of its own end event
        child.remove_node(child.marks["done"])
    if len(children) == 1:
        child = children[0]
        parent_frag.connect(anchor, child.marks["entry"], label="spawn")
        parent_frag.connect(child.marks["accept"], continuation, label=gate)
    else:
        split = parent_frag.add(slug, NodeKind.PARALLEL_GATEWAY)
        join = parent_frag.add(slug, NodeKind.PARALLEL_GATEWAY)
        parent_frag.connect(anchor, split)
        for child in children:
            parent_frag.connect(split, child.marks["entry"], label="spawn")
            parent_frag.connect(child.marks["accept"], join)
        parent_frag.connect(join, continuation, label=gate)


def compile_network(net: TransactionNetwork, level: DetailLevel | str) -> BpmnModel:
    """Compile a validated network into a collaboration at ``level`` (or its value)."""
    level = DetailLevel(level)
    errors = validate_network(net)
    if errors:
        raise CompileError(
            "network is not valid: " + "; ".join(str(v) for v in errors)
        )

    order = execution_order(net)
    roots = {t.id for t in net.roots()}

    fragments: dict[tuple[str, Role], _Fragment] = {}
    hosts: list[tuple[str, _Fragment]] = []  # each fragment with its pool's actor
    message_flows: list[MessageFlow] = []
    for tk_id in order:
        tk = net.transaction(tk_id)
        frags, flows = _build_transaction(tk, level)
        message_flows += flows
        for role, frag in frags.items():
            fragments[(tk_id, role)] = frag
            hosts.append((tk.initiator if role is Role.INITIATOR else tk.executor, frag))

    # non-root initiator fragments lose their start event; splicing takes over
    for tk_id in order:
        if tk_id in roots:
            continue
        frag = fragments[(tk_id, Role.INITIATOR)]
        start = frag.marks["start"]
        entry = frag.disconnect(start)
        frag.remove_node(start)
        frag.marks["entry"] = entry

    for tk_id in order:
        by_kind: dict[DependencyKind, list[_Fragment]] = {}
        for dep in net.children_of(tk_id):
            by_kind.setdefault(dep.kind, []).append(
                fragments[(dep.child, Role.INITIATOR)]
            )
        parent_frag = fragments[(tk_id, Role.EXECUTOR)]
        for kind in DEPENDENCY_RULES:
            children = by_kind.get(kind)
            if children:
                children.sort(key=lambda f: f.tk_slug)
                _splice(parent_frag, children, kind)

    pools = {
        actor: Pool(
            id=f"pool_{slugify_actor(actor)}",
            process_id=f"proc_{slugify_actor(actor)}",
            name=net.actor(actor).name,
            actor_id=actor,
        )
        for actor in sorted({actor for actor, _ in hosts})
    }
    for actor, frag in hosts:
        pools[actor].nodes.extend(frag.nodes)
        pools[actor].flows.extend(frag.flows)
        pools[actor].associations.extend(frag.associations)

    return BpmnModel(id=f"collab_{level.value}", pools=list(pools.values()), message_flows=message_flows)
