"""In-memory BPMN collaboration model and structural lint rules.

The model is the compiler's target and the serializer's and simulator's
source: pools (one per actor) holding flow nodes and sequence flows, plus
cross-pool message flows.  Node ids follow a fixed grammar,

    <tk>_<i|e>_<slug>_<kindtag>[_<ordinal>]

e.g. ``tk01_i_request_sendtask`` or ``tk01_e_revokedeclare_throw_2``, where
the transaction has no underscore, the slug is either one of the fourteen
act slugs or a plumbing word (entry, response, repromise, ...) and the ordinal
is a decimal number of at most nine digits.  The grammar is a head, the
transaction (the text before the first underscore), and a tail, the rest;
``NODE_TAIL`` is the tail's grammar.  A node id's transaction is whatever
its head holds, so an id follows the grammar exactly when its tail does.
Ids repeat their tails across transactions and models (the 33,387 ids of
the benchmark's random-walk models hold 120 distinct tails), so a tail is
read once per process, through a bounded cache of its fields
(``read_tail``) that remembers a tail off the grammar as None.
parse_node_id splits an id there, recovering the transaction, role and
act, and the simulator checks ids and reads their acts through the same
cache.  That is what lets the simulator and the coverage auditor treat
generated and re-parsed models identically.  Control beyond the graph
itself is carried by flow guards (see ``SequenceFlow``).  Sequence flows,
message flows and associations form their ids from their endpoints (see
``_Link``).
"""

from __future__ import annotations

import re
from collections import Counter
from dataclasses import dataclass, field
from enum import Enum
from functools import lru_cache
from typing import Iterable, NamedTuple, Optional

from .engine import MOVES, Act, Role


class NodeKind(Enum):
    """Kinds of flow node; the value doubles as the id kind-tag."""

    START_EVENT = "start"
    MESSAGE_START_EVENT = "mstart"
    END_EVENT = "end"
    TERMINATE_END_EVENT = "tend"
    TASK = "task"
    SEND_TASK = "sendtask"
    MESSAGE_CATCH = "catch"
    EXCLUSIVE_GATEWAY = "xor"
    PARALLEL_GATEWAY = "par"
    EVENT_BASED_GATEWAY = "ebg"
    COMPENSATION_BOUNDARY = "boundary"
    COMPENSATION_HANDLER = "handler"
    COMPENSATION_THROW = "throw"


ACT_SLUGS: dict[str, Act] = {act.value.lower(): act for act in Act}
SLUG_FOR_ACT: dict[Act, str] = {act: slug for slug, act in ACT_SLUGS.items()}

_KIND_TAGS: dict[str, NodeKind] = {kind.value: kind for kind in NodeKind}

_ROLE_TAGS = {"i": Role.INITIATOR, "e": Role.EXECUTOR}
ROLE_TAG = {Role.INITIATOR: "i", Role.EXECUTOR: "e"}


def slugify_tk(tk_id: str) -> str:
    """Transaction id as used in node ids: lowercased, underscores removed."""
    return tk_id.lower().replace("_", "")


def slugify_actor(actor_id: str) -> str:
    """Actor id as used in pool and process ids: lowercased."""
    return actor_id.lower()


class NodeMeta(NamedTuple):
    tk: str  # slugified transaction id
    role: Role
    slug: str
    kind: Optional[NodeKind]
    ordinal: int = 1

    @property
    def act(self) -> Optional[Act]:
        return ACT_SLUGS.get(self.slug)


# The node-id grammar after the head.  Its groups are the role tag, slug,
# kind tag and ordinal.  A slug may hold any character, newlines included
# (DOTALL), and underscores; an ordinal is one to nine decimal digits, so int()
# can read it whatever the interpreter's limit on digits in an integer string.
NODE_TAIL = re.compile(
    r"(" + "|".join(_ROLE_TAGS) + r")_(.*)_(" + "|".join(_KIND_TAGS) + r")(?:_(\d{1,9}))?",
    re.DOTALL,
)


class IdTail(NamedTuple):
    """What a node id's tail names: the fields of its ``NodeMeta`` after the
    transaction, then its act and the act's column in the engine's
    ``MOVES`` (-1 for a node without an act)."""

    role: Role
    slug: str
    kind: NodeKind
    ordinal: int
    act: Optional[Act]
    column: int


# Ids come from any model read, so the cache of tails read keeps the
# TAIL_TABLE_CAP most recently used; it keys only strings and keeps nothing
# about any model's structure.
TAIL_TABLE_CAP = 1024


@lru_cache(maxsize=TAIL_TABLE_CAP)
def read_tail(tail: str) -> Optional[IdTail]:
    """The fields of a node id's tail, the text after its first underscore;
    None for a tail off the grammar."""
    match = NODE_TAIL.fullmatch(tail)
    if match is None:
        return None
    role_tag, slug, kind_tag, ordinal = match.groups()
    role, act = _ROLE_TAGS[role_tag], ACT_SLUGS.get(slug)
    return IdTail(
        role, slug, _KIND_TAGS[kind_tag], int(ordinal) if ordinal else 1,
        act, -1 if act is None else MOVES.index((act, role)),
    )


def first_off_grammar(node_ids: Iterable[str]) -> Optional[str]:
    """The first of ``node_ids`` that does not follow the grammar, None if
    all do."""
    return next(
        (node_id for node_id in node_ids if read_tail(node_id.partition("_")[2]) is None), None
    )


_new_tuple = tuple.__new__  # NamedTuple's own __new__ is a Python-level call


def parse_node_id(node_id: str) -> Optional[NodeMeta]:
    """Recover (transaction, role, slug, kind, ordinal) from a generated node id.

    Returns None for ids that do not follow the grammar (foreign models).
    """
    tk, _, tail = node_id.partition("_")
    fields = read_tail(tail)
    if fields is None:
        return None
    role, slug, kind, ordinal, _, _ = fields
    return _new_tuple(NodeMeta, (tk, role, slug, kind, ordinal))


@dataclass(slots=True)
class FlowNode:
    id: str
    kind: NodeKind
    name: str = ""
    attached_to: Optional[str] = None  # boundary events: the guarded task
    compensates: Optional[str] = None  # compensation throws: the task to undo


class _Link:
    """A directed link between two flow nodes.  Its id is formed from its
    endpoints when read, ``<prefix><source>__<target>``, and the record
    stores an id only when it is not that canonical one (a foreign model's
    ``f1``, say).  The constructor and the ``id`` setter take ``None`` or the
    canonical id to mean "formed", so a compiled record equals the record
    parsed back from its XML.  Reassigning an endpoint moves a formed id with
    it and leaves a stored one as it is."""

    # The canonical id is spelled out wherever it is needed, not behind a
    # helper: the constructors run once per link compiled or parsed, and the
    # getter once per link linted or written.
    __slots__ = ("_id", "source", "target")
    _PREFIX = ""

    def __init__(self, id: Optional[str], source: str, target: str) -> None:
        self.source = source
        self.target = target
        self._id = None if id is None or id == f"{self._PREFIX}{source}__{target}" else id

    @property
    def id(self) -> str:
        if self._id is None:
            return f"{self._PREFIX}{self.source}__{self.target}"
        return self._id

    @id.setter
    def id(self, id: Optional[str]) -> None:
        self._id = None if id is None or id == f"{self._PREFIX}{self.source}__{self.target}" else id

    def _state(self) -> tuple:
        return self._id, self.source, self.target

    def __eq__(self, other: object) -> bool:
        if type(other) is not type(self):
            return NotImplemented
        return self._state() == other._state()

    __hash__ = None  # mutable, like the other model records

    def __repr__(self) -> str:
        return f"{type(self).__name__}(id={self.id!r}, source={self.source!r}, target={self.target!r})"


class SequenceFlow(_Link):
    """A sequence flow.  Its id is built from its endpoints,
    ``sf_<source>__<target>``; the record stores an id only when it comes
    from a foreign model that named the flow otherwise (see ``_Link``).
    Its ``label``, written as the flow's ``name``, is a guard the simulator
    obeys:

    - ``rerequest`` / ``redeclare``: a loop branch, open while the loop's
      Request / Declare is still allowed;
    - ``performed:<act>``: a decision branch, open once the act was performed;
    - ``phase:<phase>``: a child's exit into its parent (or a splice join's
      outgoing flow), naming the phase the dependency's opening act leaves
      the parent in (see ``network.DEPENDENCY_RULES``); a token arriving
      while the target's transaction is in another phase is stale and
      dropped;
    - ``spawn``: a parent's entry into a child; once the child has started,
      the token takes the child's exit flow instead, or is dropped without one;
    - ``reposition``: a reposition split's landing flow; it bounds the
      revocation zone.

    Other labels (``accept``, ``stop``, ...) only name a branch.
    """

    __slots__ = ("label",)
    _PREFIX = "sf_"

    def __init__(self, id: Optional[str], source: str, target: str, label: str = "") -> None:
        # no super() call: the compiler makes tens of thousands of these
        self.source = source
        self.target = target
        self.label = label
        self._id = None if id is None or id == f"{self._PREFIX}{source}__{target}" else id

    def _state(self) -> tuple:
        return self._id, self.source, self.target, self.label

    def __repr__(self) -> str:
        return f"{super().__repr__()[:-1]}, label={self.label!r})"


class MessageFlow(_Link):
    """A message flow, its id built from its endpoints as
    ``mf_<source>__<target>`` unless a foreign model named it otherwise
    (see ``_Link``)."""

    __slots__ = ()
    _PREFIX = "mf_"


class Association(_Link):
    """A boundary event's (source) link to its compensation handler
    (target), its id built from its endpoints as ``as_<source>__<target>``
    unless a foreign model named it otherwise (see ``_Link``)."""

    __slots__ = ()
    _PREFIX = "as_"


@dataclass(slots=True)
class Pool:
    id: str
    process_id: str
    name: str
    actor_id: str
    nodes: list[FlowNode] = field(default_factory=list)
    flows: list[SequenceFlow] = field(default_factory=list)
    associations: list[Association] = field(default_factory=list)


@dataclass(slots=True)
class BpmnModel:
    id: str
    pools: list[Pool] = field(default_factory=list)
    message_flows: list[MessageFlow] = field(default_factory=list)

    def all_nodes(self) -> list[FlowNode]:
        return [n for pool in self.pools for n in pool.nodes]


@dataclass(frozen=True)
class LintFinding:
    rule: str
    subjects: tuple[str, ...]
    message: str

    def __str__(self) -> str:
        return f"{self.rule} [{', '.join(self.subjects)}]: {self.message}"


# Lint's kind table, by kind value (see lint_model).
_NO_INCOMING = frozenset({"start", "mstart", "boundary", "handler"})
_NO_OUTGOING = frozenset({"end", "tend", "boundary", "handler"})


def lint_model(model: BpmnModel) -> list[LintFinding]:
    """Structural checks; an empty result is the generator's contract.

    The kind table: start events take no incoming sequence flow, end events
    no outgoing one, the boundary event and the handler neither, and every
    other kind needs one of each.  The findings, in order:

    - ``DuplicateId``: all elements share one XML id space;
    - per sequence flow, ``DanglingFlow`` and ``CrossPoolSequenceFlow`` (a
      flow joining two pools, or declared outside its source's pool);
    - per message flow, ``DanglingFlow`` and ``MessageFlowInsidePool``;
    - per node, ``DanglingFlow`` against the kind table,
      ``EventBasedGatewayFanout``, ``DegenerateGateway``,
      ``DegenerateDecision``, then ``DanglingFlow`` for a boundary event or
      compensation throw naming a missing node;
    - per association, ``DanglingFlow``;
    - ``UnreachableNode``: no start event reaches the node, in any pool.

    Removing any single sequence flow from a generated model breaks a rule.
    """
    findings: list[LintFinding] = []

    def add(rule: str, subjects: Iterable[str], message: str) -> None:
        findings.append(LintFinding(rule, tuple(subjects), message))

    # One pass over the pools: the ids in order, and node -> pool as the node index.
    ids = [model.id]
    nodes: list[FlowNode] = []
    node_pools: list[str] = []
    for pool in model.pools:
        ids += pool.id, pool.process_id
        nodes += pool.nodes
        node_pools += [pool.id] * len(pool.nodes)
    node_ids = [node.id for node in nodes]
    ids += node_ids
    pool_of = dict(zip(node_ids, node_pools))

    # One pass over the links; an association's findings follow the nodes'.
    incoming: dict[str, int] = {}
    outgoing: dict[str, list[SequenceFlow]] = {}
    dangling_associations: list[tuple[str, str]] = []
    for pool in model.pools:
        for flow in pool.flows:
            flow_id, source, target = flow.id, flow.source, flow.target
            ids.append(flow_id)
            incoming[target] = incoming.get(target, 0) + 1
            outgoing.setdefault(source, []).append(flow)
            source_pool = pool_of.get(source)
            target_pool = pool_of.get(target)
            if source_pool is None:
                add("DanglingFlow", (flow_id, source), "sequence flow endpoint does not exist")
            if target_pool is None:
                add("DanglingFlow", (flow_id, target), "sequence flow endpoint does not exist")
            elif source_pool is not None and source_pool != target_pool:
                add(
                    "CrossPoolSequenceFlow",
                    (flow_id, source, target),
                    "sequence flows may not cross pool boundaries",
                )
            if source_pool is not None and source_pool != pool.id:
                add(
                    "CrossPoolSequenceFlow",
                    (flow_id, pool.id),
                    "sequence flow declared outside its endpoints' pool",
                )
        for assoc in pool.associations:
            ids.append(assoc.id)
            for end in (assoc.source, assoc.target):
                if end not in pool_of:
                    dangling_associations.append((assoc.id, end))
    for flow in model.message_flows:
        flow_id, source, target = flow.id, flow.source, flow.target
        ids.append(flow_id)
        for end in (source, target):
            if end not in pool_of:
                add("DanglingFlow", (flow_id, end), "message flow endpoint does not exist")
        if source in pool_of and target in pool_of and pool_of[source] == pool_of[target]:
            add(
                "MessageFlowInsidePool",
                (flow_id, source, target),
                "message flows must connect different pools",
            )

    # One pass over the nodes.
    starts: list[str] = []
    walked: list[str] = []  # every node but the boundary event and handler
    for node, node_id in zip(nodes, node_ids):
        kind = node.kind._value_
        n_in = incoming.get(node_id, 0)
        n_out = len(outgoing.get(node_id, ()))
        if kind in _NO_INCOMING:
            if n_in:
                add("DanglingFlow", (node_id,), f"{kind} must not have incoming flows")
        elif not n_in:
            add("DanglingFlow", (node_id,), f"{kind} requires an incoming flow")
        if kind in _NO_OUTGOING:
            if n_out:
                add("DanglingFlow", (node_id,), f"{kind} must not have outgoing flows")
        elif not n_out:
            add("DanglingFlow", (node_id,), f"{kind} requires an outgoing flow")
        if kind == "xor" or kind == "par" or kind == "ebg":
            if kind == "ebg" and n_out < 2:
                add(
                    "EventBasedGatewayFanout",
                    (node_id,),
                    f"event-based gateway must offer at least two events, has {n_out}",
                )
            if n_in < 2 and n_out < 2:
                add("DegenerateGateway", (node_id,), "gateway neither splits nor merges")
            if kind == "xor" and n_out == 1 and outgoing[node_id][0].label:
                add(
                    "DegenerateDecision",
                    (node_id,),
                    "a guarded decision needs at least two outgoing branches",
                )
        elif kind == "start" or kind == "mstart":
            starts.append(node_id)
        elif kind == "throw" and node.compensates is not None and node.compensates not in pool_of:
            add("DanglingFlow", (node_id,), "compensation throw references a missing task")
        elif kind == "boundary" and (node.attached_to is None or node.attached_to not in pool_of):
            add("DanglingFlow", (node_id,), "boundary event is not attached to a task")
        if kind not in _NO_INCOMING or kind not in _NO_OUTGOING:
            walked.append(node_id)
    for subjects in dangling_associations:
        add("DanglingFlow", subjects, "association endpoint does not exist")

    # One walk from every start event along sequence flows, across pools.
    reachable: set[str] = set()
    while starts:
        current = starts.pop()
        if current not in reachable:
            reachable.add(current)
            starts += [flow.target for flow in outgoing.get(current, ())]
    for node_id in walked:
        if node_id not in reachable:
            add("UnreachableNode", (node_id,), "no path from any start event")

    if len(set(ids)) < len(ids):  # reported first
        findings[:0] = [
            LintFinding("DuplicateId", (element_id,), f"{count} model elements share this id")
            for element_id, count in Counter(ids).items()
            if count > 1
        ]
    return findings
