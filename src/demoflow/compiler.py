"""Compile a transaction network into a BPMN collaboration.

Three detail levels:

    happy     request -> promise -> execute -> declare -> accept, two pools
              per transaction, four message flows
    dissent   adds the decline branch (with re-request / stop) and the
              reject branch (with re-declare / stop)
    complete  adds, per transaction and pool, a revocation zone armed by an
              entry parallel gateway: an event-based gateway awaiting
              counterparty revocation messages and environment triggers,
              allow/refuse decisions, compensation boundary events and
              handlers on the five core-act tasks, and inverse-order
              compensation throws.  Both pools' zones are derived from the
              engine's revocation tables: who revokes (REVOKER) and what
              is presupposed (REVOCATION_TARGET), what is undone and by
              whom (rollback_chain, PERFORMER), and where the transaction
              lands (LANDING_PHASE)

Transactions share pools by actor: a child transaction's initiator fragment
is spliced into its parent's executor flow (after the promise for RaP, after
execution for RaE, after the declaration for RaD — asynchronously in the
RaD case).  All ids are deterministic functions of the network, so compiling
twice yields identical models.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import Optional

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
    slugify_tk,
)
from .network import (
    DependencyKind,
    Severity,
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


@dataclass
class _Fragment:
    """One transaction-side (initiator or executor) under construction."""

    tk_slug: str
    role: Role
    nodes: list[FlowNode] = field(default_factory=list)
    flows: list[SequenceFlow] = field(default_factory=list)
    associations: list[Association] = field(default_factory=list)
    marks: dict[str | Phase, str] = field(default_factory=dict)
    last: str = ""  # where the revocation episode being built has got to
    _counts: dict[tuple[str, str], int] = field(default_factory=dict)

    @property
    def prefix(self) -> str:
        return f"{self.tk_slug}_{ROLE_TAG[self.role]}"

    def add(
        self,
        slug: str,
        kind: NodeKind,
        name: str = "",
        attached_to: Optional[str] = None,
        compensates: Optional[str] = None,
    ) -> str:
        key = (slug, kind.value)
        ordinal = self._counts.get(key, 0) + 1
        self._counts[key] = ordinal
        node_id = f"{self.prefix}_{slug}_{kind.value}"
        if ordinal > 1:
            node_id += f"_{ordinal}"
        self.nodes.append(
            FlowNode(id=node_id, kind=kind, name=name, attached_to=attached_to, compensates=compensates)
        )
        return node_id

    def connect(self, source: str, target: str, label: str = "") -> None:
        self.flows.append(SequenceFlow(f"sf_{source}__{target}", source, target, label))

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

    def compensable(self, task_id: str, act: Act) -> None:
        """Attach a compensation boundary + handler pair to a task."""
        slug = SLUG_FOR_ACT[act]
        boundary = self.add(slug, NodeKind.COMPENSATION_BOUNDARY, attached_to=task_id)
        handler = self.add(slug, NodeKind.COMPENSATION_HANDLER, name=f"{act.value}⁻¹")
        self.associations.append(Association(f"as_{boundary}__{handler}", boundary, handler))


def _send_name(act: Act, tk: Transaction) -> str:
    return f"{act.value} {tk.name}"


def _catch_name(act: Act, tk: Transaction) -> str:
    return f"Receive {act.value} {tk.name}"


def _build_initiator(tk: Transaction, level: DetailLevel) -> _Fragment:
    frag = _Fragment(slugify_tk(tk.id), Role.INITIATOR)
    marks = frag.marks

    start = frag.add("entry", NodeKind.START_EVENT, name=f"Start {tk.name}")
    sreq = frag.add("request", NodeKind.SEND_TASK, name=_send_name(Act.REQUEST, tk))
    marks["start"], marks["request"] = start, sreq

    if level is DetailLevel.HAPPY_FLOW:
        cprom = frag.add("promise", NodeKind.MESSAGE_CATCH, name=_catch_name(Act.PROMISE, tk))
        cdecl = frag.add("declare", NodeKind.MESSAGE_CATCH, name=_catch_name(Act.DECLARE, tk))
        sacc = frag.add("accept", NodeKind.SEND_TASK, name=_send_name(Act.ACCEPT, tk))
        done = frag.add("done", NodeKind.END_EVENT, name=f"{tk.name} done")
        for src, tgt in ((start, sreq), (sreq, cprom), (cprom, cdecl), (cdecl, sacc), (sacc, done)):
            frag.connect(src, tgt)
        marks.update(accept=sacc, done=done, entry=sreq)
        return frag

    response = frag.add("response", NodeKind.EVENT_BASED_GATEWAY)
    cprom = frag.add("promise", NodeKind.MESSAGE_CATCH, name=_catch_name(Act.PROMISE, tk))
    cdecl = frag.add("declare", NodeKind.MESSAGE_CATCH, name=_catch_name(Act.DECLARE, tk))
    verdict = frag.add("verdict", NodeKind.EXCLUSIVE_GATEWAY)
    sacc = frag.add("accept", NodeKind.SEND_TASK, name=_send_name(Act.ACCEPT, tk))
    done = frag.add("done", NodeKind.END_EVENT, name=f"{tk.name} done")
    sreject = frag.add("reject", NodeKind.SEND_TASK, name=_send_name(Act.REJECT, tk))
    retry = frag.add("retry", NodeKind.EVENT_BASED_GATEWAY)
    cdecl2 = frag.add("declare", NodeKind.MESSAGE_CATCH, name=_catch_name(Act.DECLARE, tk))
    cstop = frag.add("stop", NodeKind.MESSAGE_CATCH, name=_catch_name(Act.STOP, tk))
    stopped2 = frag.add("stopped", NodeKind.END_EVENT, name=f"{tk.name} stopped")
    cdecline = frag.add("decline", NodeKind.MESSAGE_CATCH, name=_catch_name(Act.DECLINE, tk))
    declined = frag.add("declined", NodeKind.EXCLUSIVE_GATEWAY)
    sstop = frag.add("stop", NodeKind.SEND_TASK, name=_send_name(Act.STOP, tk))
    stopped = frag.add("stopped", NodeKind.END_EVENT, name=f"{tk.name} stopped")

    frag.connect(start, sreq)
    frag.connect(sreq, response)
    frag.connect(response, cprom)
    frag.connect(response, cdecline)
    frag.connect(cprom, cdecl)
    frag.connect(cdecl, verdict)
    frag.connect(verdict, sacc, label="accept")
    frag.connect(verdict, sreject, label="reject")
    frag.connect(sacc, done)
    frag.connect(sreject, retry)
    frag.connect(retry, cdecl2)
    frag.connect(retry, cstop)
    frag.connect(cdecl2, verdict)
    frag.connect(cstop, stopped2)
    frag.connect(cdecline, declined)
    frag.connect(declined, sreq, label="rerequest")
    frag.connect(declined, sstop, label="stop")
    frag.connect(sstop, stopped)

    marks.update(accept=sacc, done=done, entry=sreq)
    # where this side waits in each phase an allowed revocation lands in
    marks.update({Phase.PROMISED: cdecl, Phase.REJECTED: retry, Phase.DECLINED: declined})
    return frag


def _build_executor(tk: Transaction, level: DetailLevel) -> _Fragment:
    frag = _Fragment(slugify_tk(tk.id), Role.EXECUTOR)
    marks = frag.marks

    mstart = frag.add(
        "request", NodeKind.MESSAGE_START_EVENT, name=_catch_name(Act.REQUEST, tk)
    )
    marks["start"] = mstart

    if level is DetailLevel.HAPPY_FLOW:
        sprom = frag.add("promise", NodeKind.SEND_TASK, name=_send_name(Act.PROMISE, tk))
        texec = frag.add("execute", NodeKind.TASK, name=_send_name(Act.EXECUTE, tk))
        sdecl = frag.add("declare", NodeKind.SEND_TASK, name=_send_name(Act.DECLARE, tk))
        caccept = frag.add("accept", NodeKind.MESSAGE_CATCH, name=_catch_name(Act.ACCEPT, tk))
        done = frag.add("done", NodeKind.END_EVENT, name=f"{tk.name} done")
        for src, tgt in ((mstart, sprom), (sprom, texec), (texec, sdecl), (sdecl, caccept), (caccept, done)):
            frag.connect(src, tgt)
        marks.update(promise=sprom, execute=texec, declare=sdecl)
        return frag

    response = frag.add("response", NodeKind.EXCLUSIVE_GATEWAY)
    sprom = frag.add("promise", NodeKind.SEND_TASK, name=_send_name(Act.PROMISE, tk))
    texec = frag.add("execute", NodeKind.TASK, name=_send_name(Act.EXECUTE, tk))
    sdecl = frag.add("declare", NodeKind.SEND_TASK, name=_send_name(Act.DECLARE, tk))
    verdict = frag.add("verdict", NodeKind.EVENT_BASED_GATEWAY)
    caccept = frag.add("accept", NodeKind.MESSAGE_CATCH, name=_catch_name(Act.ACCEPT, tk))
    done = frag.add("done", NodeKind.END_EVENT, name=f"{tk.name} done")
    creject = frag.add("reject", NodeKind.MESSAGE_CATCH, name=_catch_name(Act.REJECT, tk))
    rejected = frag.add("rejected", NodeKind.EXCLUSIVE_GATEWAY)
    sstop = frag.add("stop", NodeKind.SEND_TASK, name=_send_name(Act.STOP, tk))
    stopped = frag.add("stopped", NodeKind.END_EVENT, name=f"{tk.name} stopped")
    sdecline = frag.add("decline", NodeKind.SEND_TASK, name=_send_name(Act.DECLINE, tk))
    retry = frag.add("retry", NodeKind.EVENT_BASED_GATEWAY)
    creq2 = frag.add("request", NodeKind.MESSAGE_CATCH, name=_catch_name(Act.REQUEST, tk))
    cstop = frag.add("stop", NodeKind.MESSAGE_CATCH, name=_catch_name(Act.STOP, tk))
    stopped2 = frag.add("stopped", NodeKind.END_EVENT, name=f"{tk.name} stopped")

    frag.connect(mstart, response)
    frag.connect(response, sprom, label="promise")
    frag.connect(response, sdecline, label="decline")
    frag.connect(sprom, texec)
    frag.connect(texec, sdecl)
    frag.connect(sdecl, verdict)
    frag.connect(verdict, caccept)
    frag.connect(verdict, creject)
    frag.connect(caccept, done)
    frag.connect(creject, rejected)
    frag.connect(rejected, sdecl, label="redeclare")
    frag.connect(rejected, sstop, label="stop")
    frag.connect(sstop, stopped)
    frag.connect(sdecline, retry)
    frag.connect(retry, creq2)
    frag.connect(retry, cstop)
    frag.connect(creq2, response)
    frag.connect(cstop, stopped2)

    marks.update(promise=sprom, execute=texec, declare=sdecl)
    marks.update({Phase.PROMISED: texec, Phase.REJECTED: rejected, Phase.DECLINED: retry})
    return frag


def _add_revocation_zones(frags: dict[Role, _Fragment], tk: Transaction) -> list[MessageFlow]:
    """Build the revocation zone into both sides of ``tk``; returns its message flows.

    Each side's zone is armed by an entry parallel gateway next to the start
    and waits at an event-based gateway; the core-act tasks a side performs
    get compensation handlers.  The episodes follow the engine's revocation
    tables (see ``_add_episode``).
    """
    messages: list[MessageFlow] = []
    for role, frag in frags.items():
        gateway = frag.add("entry", NodeKind.PARALLEL_GATEWAY, name=INITIAL_GATEWAY_NAME)
        revgate = frag.marks["revoke"] = frag.add("revoke", NodeKind.EVENT_BASED_GATEWAY)
        # re-route the start through the arming gateway
        start = frag.marks["start"]
        old_target = frag.disconnect(start)
        frag.connect(start, gateway)
        frag.connect(gateway, old_target)
        frag.connect(gateway, revgate)
        frag.marks["entry"] = gateway
        for act in CORE_ACTS:
            if PERFORMER[act] is role:
                frag.compensable(frag.marks[SLUG_FOR_ACT[act]], act)
    for revocation in _EPISODE_ORDER:
        revoker = REVOKER[revocation]
        _add_episode(frags[revoker], frags[revoker.other], tk, revocation, messages)
    return messages


def _add_episode(
    revoker: _Fragment,
    decider: _Fragment,
    tk: Transaction,
    revocation: Act,
    messages: list[MessageFlow],
) -> None:
    """One revocation episode on both sides, as the engine states it.

    The ``REVOKER`` asks on an environment trigger and the other role
    decides.  Allowing walks ``rollback_chain`` of a fully performed
    transaction with the decider holding the turn: each side compensates its
    own acts (``PERFORMER``), and each change of turn is a message, Allow
    first.  The episode ends in termination or, for any other
    ``LANDING_PHASE``, in a reposition message from the side holding the
    turn and a split on each side back to the zone and to where it waits in
    that phase.  A send task and its catch are made together, with their
    message flow.
    """
    slug = SLUG_FOR_ACT[revocation]
    allowed = f"performed:{SLUG_FOR_ACT[REVOCATION_TARGET[revocation]]}"

    def message(
        sender: _Fragment, receiver: _Fragment, msg_slug: str, send_name: str, catch_name: str
    ) -> tuple[str, str]:
        send = sender.add(msg_slug, NodeKind.SEND_TASK, name=send_name)
        catch = receiver.add(msg_slug, NodeKind.MESSAGE_CATCH, name=catch_name)
        messages.append(MessageFlow(f"mf_{send}__{catch}", send, catch))
        return send, catch

    def extend(frag: _Fragment, node: str) -> None:
        # the one step forward out of the decision is the allow branch
        frag.connect(frag.last, node, label=allowed if frag.last == decide else "")
        frag.last = node

    def pass_turn(sender: _Fragment, receiver: _Fragment, *names: str) -> None:
        send, catch = message(sender, receiver, *names)
        extend(sender, send)
        extend(receiver, catch)

    trigger = revoker.add(slug, NodeKind.MESSAGE_CATCH, name=f"Consider {revocation.value} {tk.name}")
    send, catch = message(revoker, decider, slug, _send_name(revocation, tk), _catch_name(revocation, tk))
    wait = revoker.add(slug, NodeKind.EVENT_BASED_GATEWAY)
    decide = decider.add(slug, NodeKind.EXCLUSIVE_GATEWAY)
    revoker.last, decider.last = revoker.marks["revoke"], decider.marks["revoke"]
    for node in (trigger, send, wait):
        extend(revoker, node)
    for node in (catch, decide):
        extend(decider, node)

    allow = ("allow", _send_name(Act.ALLOW, tk), _catch_name(Act.ALLOW, tk))
    handoffs = iter((
        allow,
        ("ackgo", f"Start joint rollback {tk.name}", f"Receive joint rollback {tk.name}"),
        ("ackdone", f"Finish joint rollback {tk.name}", f"Receive joint rollback {tk.name}"),
    ))
    turn, other = decider, revoker
    for act in rollback_chain(_FULLY_PERFORMED, revocation):
        if PERFORMER[act] is not turn.role:
            handoff = next(handoffs)
            pass_turn(turn, other, *handoff)
            if handoff is allow:
                # the refusal branches off beside the Allow and back to the zone
                srefuse, crefuse = message(
                    decider, revoker, "refuse", _send_name(Act.REFUSE, tk), _catch_name(Act.REFUSE, tk)
                )
                decider.connect(decide, srefuse, label="refuse")
                decider.connect(srefuse, decider.marks["revoke"])
                revoker.connect(wait, crefuse)
                revoker.connect(crefuse, revoker.marks["revoke"])
            turn, other = other, turn
        extend(turn, turn.add(
            slug, NodeKind.COMPENSATION_THROW,
            name=f"Compensate {act.value}", compensates=turn.marks[SLUG_FOR_ACT[act]],
        ))

    landing = LANDING_PHASE[revocation]
    if landing is Phase.TERMINATED:
        for frag in (turn, other):
            extend(frag, frag.add("terminated", NodeKind.TERMINATE_END_EVENT, name=f"{tk.name} terminated"))
        return
    pass_turn(turn, other, _REPOSITION_SLUG[landing], f"Reposition {tk.name}", f"Receive reposition {tk.name}")
    for frag in (turn, other):
        split = frag.add(slug, NodeKind.PARALLEL_GATEWAY)
        extend(frag, split)
        frag.connect(split, frag.marks["revoke"])
        frag.connect(split, frag.marks[landing], label="reposition")


def _message_flows(tk: Transaction, level: DetailLevel) -> list[MessageFlow]:
    t = slugify_tk(tk.id)

    def mf(src: str, tgt: str) -> MessageFlow:
        return MessageFlow(f"mf_{src}__{tgt}", src, tgt)

    flows = [
        mf(f"{t}_i_request_sendtask", f"{t}_e_request_mstart"),
        mf(f"{t}_e_promise_sendtask", f"{t}_i_promise_catch"),
        mf(f"{t}_e_declare_sendtask", f"{t}_i_declare_catch"),
        mf(f"{t}_i_accept_sendtask", f"{t}_e_accept_catch"),
    ]
    if level is DetailLevel.HAPPY_FLOW:
        return flows
    flows += [
        mf(f"{t}_i_request_sendtask", f"{t}_e_request_catch"),
        mf(f"{t}_e_declare_sendtask", f"{t}_i_declare_catch_2"),
        mf(f"{t}_e_decline_sendtask", f"{t}_i_decline_catch"),
        mf(f"{t}_i_reject_sendtask", f"{t}_e_reject_catch"),
        mf(f"{t}_i_stop_sendtask", f"{t}_e_stop_catch"),
        mf(f"{t}_e_stop_sendtask", f"{t}_i_stop_catch"),
    ]
    return flows


def _splice(parent_frag: _Fragment, children: list[_Fragment], kind: DependencyKind) -> None:
    """Wire child initiator fragments into the parent executor flow, under
    the ``spawn`` and ``phase:`` guards."""
    anchor = {
        DependencyKind.RAP: parent_frag.marks["promise"],
        DependencyKind.RAE: parent_frag.marks["execute"],
        DependencyKind.RAD: parent_frag.marks["declare"],
    }[kind]
    continuation = parent_frag.disconnect(anchor)

    if kind is DependencyKind.RAD:
        # asynchronous: children get their own branch and keep their end event
        split = parent_frag.add("rad", NodeKind.PARALLEL_GATEWAY)
        parent_frag.connect(anchor, split)
        parent_frag.connect(split, continuation)
        for child in children:
            parent_frag.connect(split, child.marks["entry"], label="spawn")
        return

    slug, gate = ("rap", "phase:promised") if kind is DependencyKind.RAP else ("rae", "phase:executed")
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
    errors = [v for v in validate_network(net) if v.severity is Severity.ERROR]
    if errors:
        raise CompileError(
            "network is not valid: " + "; ".join(str(v) for v in errors)
        )

    order = execution_order(net)
    roots = {t.id for t in net.roots()}

    fragments: dict[tuple[str, Role], _Fragment] = {}
    message_flows: list[MessageFlow] = []
    for tk_id in order:
        tk = net.transaction(tk_id)
        frags = {Role.INITIATOR: _build_initiator(tk, level), Role.EXECUTOR: _build_executor(tk, level)}
        message_flows += _message_flows(tk, level)
        if level is DetailLevel.COMPLETE:
            message_flows += _add_revocation_zones(frags, tk)
        for role, frag in frags.items():
            fragments[(tk_id, role)] = frag

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
        for kind in (DependencyKind.RAP, DependencyKind.RAE, DependencyKind.RAD):
            children = by_kind.get(kind)
            if children:
                children.sort(key=lambda f: f.tk_slug)
                _splice(parent_frag, children, kind)

    host_actor = {}
    for tk_id in order:
        tk = net.transaction(tk_id)
        host_actor[(tk_id, Role.INITIATOR)] = tk.initiator
        host_actor[(tk_id, Role.EXECUTOR)] = tk.executor

    pools: dict[str, Pool] = {}
    for actor in sorted({a for a in host_actor.values()}, key=lambda a: a):
        actor_obj = net.actor(actor)
        pools[actor] = Pool(
            id=f"pool_{actor.lower()}",
            process_id=f"proc_{actor.lower()}",
            name=actor_obj.name,
            actor_id=actor,
        )
    for tk_id in order:
        for role in (Role.INITIATOR, Role.EXECUTOR):
            frag = fragments[(tk_id, role)]
            pool = pools[host_actor[(tk_id, role)]]
            pool.nodes.extend(frag.nodes)
            pool.flows.extend(frag.flows)
            pool.associations.extend(frag.associations)

    return BpmnModel(
        id=f"collab_{level.value}",
        pools=[pools[a] for a in sorted(pools)],
        message_flows=message_flows,
    )


def act_census(model: BpmnModel) -> dict[tuple[str, Act], list[str]]:
    """Which (transaction, act) pairs have representing nodes, and which nodes.

    Keys are present only for acts with at least one node; transaction keys
    use the slugified id as found in node ids.
    """
    from .model import parse_node_id

    census: dict[tuple[str, Act], list[str]] = {}
    for node in model.all_nodes():
        meta = parse_node_id(node.id)
        if meta is None or meta.act is None:
            continue
        census.setdefault((meta.tk, meta.act), []).append(node.id)
    for nodes in census.values():
        nodes.sort()
    return census
