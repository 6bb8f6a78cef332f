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
              compensation throws

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
    DISSENT_ALPHABET,
    HAPPY_ALPHABET,
    Role,
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

# Which tasks the executor compensates when a revocation is allowed, in
# rollback order (the initiator undoes its accept, and a revoked request last).
_E_COMP_ACTS = {
    Act.REVOKE_REQUEST: (Act.DECLARE, Act.EXECUTE, Act.PROMISE),
    Act.REVOKE_ACCEPT: (),
    Act.REVOKE_PROMISE: (Act.DECLARE, Act.EXECUTE, Act.PROMISE),
    Act.REVOKE_DECLARE: (Act.DECLARE, Act.EXECUTE),
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
    marks: dict[str, str] = field(default_factory=dict)
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
        marks.update(accept=sacc, done=done, declare_catch=cdecl, entry=sreq)
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

    marks.update(
        accept=sacc, done=done, declare_catch=cdecl, retry=retry, declined=declined, entry=sreq
    )
    if level is DetailLevel.WITH_DISSENT:
        return frag

    _add_initiator_revocation_zone(frag, tk)
    return frag


def _add_initiator_revocation_zone(frag: _Fragment, tk: Transaction) -> None:
    marks = frag.marks
    gateway = frag.add("entry", NodeKind.PARALLEL_GATEWAY, name=INITIAL_GATEWAY_NAME)
    revgate = frag.add("revoke", NodeKind.EVENT_BASED_GATEWAY)
    # re-route start -> request through the arming gateway
    old_target = frag.disconnect(marks["start"])
    frag.connect(marks["start"], gateway)
    frag.connect(gateway, old_target)
    frag.connect(gateway, revgate)
    marks["entry"] = gateway
    marks["revgate"] = revgate

    frag.compensable(marks["request"], Act.REQUEST)
    frag.compensable(marks["accept"], Act.ACCEPT)

    for revocation in _EPISODE_ORDER:
        slug = SLUG_FOR_ACT[revocation]
        if revocation in (Act.REVOKE_REQUEST, Act.REVOKE_ACCEPT):
            # this side triggers the revocation; the executor decides
            trigger = frag.add(
                slug, NodeKind.MESSAGE_CATCH, name=f"Consider {revocation.value} {tk.name}"
            )
            send = frag.add(slug, NodeKind.SEND_TASK, name=_send_name(revocation, tk))
            await_gate = frag.add(slug, NodeKind.EVENT_BASED_GATEWAY)
            callow = frag.add("allow", NodeKind.MESSAGE_CATCH, name=_catch_name(Act.ALLOW, tk))
            crefuse = frag.add("refuse", NodeKind.MESSAGE_CATCH, name=_catch_name(Act.REFUSE, tk))
            frag.connect(revgate, trigger)
            frag.connect(trigger, send)
            frag.connect(send, await_gate)
            frag.connect(await_gate, callow)
            frag.connect(await_gate, crefuse)
            frag.connect(crefuse, revgate)
            undo_accept = frag.add(
                slug, NodeKind.COMPENSATION_THROW,
                name=f"Compensate {Act.ACCEPT.value}", compensates=marks["accept"],
            )
            frag.connect(callow, undo_accept)
            if revocation is Act.REVOKE_REQUEST:
                ackgo = frag.add("ackgo", NodeKind.SEND_TASK, name=f"Start joint rollback {tk.name}")
                ackdone = frag.add(
                    "ackdone", NodeKind.MESSAGE_CATCH, name=f"Receive joint rollback {tk.name}"
                )
                undo_request = frag.add(
                    slug, NodeKind.COMPENSATION_THROW,
                    name=f"Compensate {Act.REQUEST.value}", compensates=marks["request"],
                )
                terminated = frag.add(
                    "terminated", NodeKind.TERMINATE_END_EVENT, name=f"{tk.name} terminated"
                )
                frag.connect(undo_accept, ackgo)
                frag.connect(ackgo, ackdone)
                frag.connect(ackdone, undo_request)
                frag.connect(undo_request, terminated)
            else:
                reposition_send = frag.add(
                    "rereject", NodeKind.SEND_TASK, name=f"Reposition {tk.name}"
                )
                split = frag.add(slug, NodeKind.PARALLEL_GATEWAY)
                frag.connect(undo_accept, reposition_send)
                frag.connect(reposition_send, split)
                frag.connect(split, revgate)
                frag.connect(split, marks["retry"], label="reposition")
        else:
            # the executor triggered this revocation; this side decides
            catch = frag.add(slug, NodeKind.MESSAGE_CATCH, name=_catch_name(revocation, tk))
            decide = frag.add(slug, NodeKind.EXCLUSIVE_GATEWAY)
            frag.connect(revgate, catch)
            frag.connect(catch, decide)
            target_slug = SLUG_FOR_ACT[
                {Act.REVOKE_PROMISE: Act.PROMISE, Act.REVOKE_DECLARE: Act.DECLARE}[revocation]
            ]
            undo_accept = frag.add(
                slug, NodeKind.COMPENSATION_THROW,
                name=f"Compensate {Act.ACCEPT.value}", compensates=marks["accept"],
            )
            sallow = frag.add("allow", NodeKind.SEND_TASK, name=_send_name(Act.ALLOW, tk))
            reposition_catch = frag.add(
                "redecline" if revocation is Act.REVOKE_PROMISE else "repromise",
                NodeKind.MESSAGE_CATCH,
                name=f"Receive reposition {tk.name}",
            )
            split = frag.add(slug, NodeKind.PARALLEL_GATEWAY)
            srefuse = frag.add("refuse", NodeKind.SEND_TASK, name=_send_name(Act.REFUSE, tk))
            frag.connect(decide, undo_accept, label=f"performed:{target_slug}")
            frag.connect(undo_accept, sallow)
            frag.connect(sallow, reposition_catch)
            frag.connect(reposition_catch, split)
            frag.connect(split, revgate)
            landing = marks["declined"] if revocation is Act.REVOKE_PROMISE else marks["declare_catch"]
            frag.connect(split, landing, label="reposition")
            frag.connect(decide, srefuse, label="refuse")
            frag.connect(srefuse, revgate)


def _build_executor(tk: Transaction, level: DetailLevel) -> _Fragment:
    frag = _Fragment(slugify_tk(tk.id), Role.EXECUTOR)
    marks = frag.marks

    mstart = frag.add(
        "request", NodeKind.MESSAGE_START_EVENT, name=_catch_name(Act.REQUEST, tk)
    )
    marks["mstart"] = mstart

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

    marks.update(
        promise=sprom, execute=texec, declare=sdecl, rejected=rejected, retry=retry,
        response=response,
    )
    if level is DetailLevel.WITH_DISSENT:
        return frag

    _add_executor_revocation_zone(frag, tk)
    return frag


def _add_executor_revocation_zone(frag: _Fragment, tk: Transaction) -> None:
    marks = frag.marks
    gateway = frag.add("entry", NodeKind.PARALLEL_GATEWAY, name=INITIAL_GATEWAY_NAME)
    revgate = frag.add("revoke", NodeKind.EVENT_BASED_GATEWAY)
    old_target = frag.disconnect(marks["mstart"])
    frag.connect(marks["mstart"], gateway)
    frag.connect(gateway, old_target)
    frag.connect(gateway, revgate)
    marks["revgate"] = revgate

    frag.compensable(marks["promise"], Act.PROMISE)
    frag.compensable(marks["execute"], Act.EXECUTE)
    frag.compensable(marks["declare"], Act.DECLARE)
    comp_target = {
        Act.PROMISE: marks["promise"], Act.EXECUTE: marks["execute"], Act.DECLARE: marks["declare"],
    }

    def add_throws(slug: str, acts) -> tuple[str, str]:
        first = last = ""
        for act in acts:
            throw = frag.add(
                slug, NodeKind.COMPENSATION_THROW,
                name=f"Compensate {act.value}", compensates=comp_target[act],
            )
            if not first:
                first = throw
            else:
                frag.connect(last, throw)
            last = throw
        return first, last

    for revocation in _EPISODE_ORDER:
        slug = SLUG_FOR_ACT[revocation]
        if revocation in (Act.REVOKE_REQUEST, Act.REVOKE_ACCEPT):
            # the initiator triggered this revocation; this side decides
            catch = frag.add(slug, NodeKind.MESSAGE_CATCH, name=_catch_name(revocation, tk))
            decide = frag.add(slug, NodeKind.EXCLUSIVE_GATEWAY)
            sallow = frag.add("allow", NodeKind.SEND_TASK, name=_send_name(Act.ALLOW, tk))
            srefuse = frag.add("refuse", NodeKind.SEND_TASK, name=_send_name(Act.REFUSE, tk))
            frag.connect(revgate, catch)
            frag.connect(catch, decide)
            frag.connect(decide, srefuse, label="refuse")
            frag.connect(srefuse, revgate)
            if revocation is Act.REVOKE_REQUEST:
                frag.connect(decide, sallow, label="performed:request")
                ackgo = frag.add("ackgo", NodeKind.MESSAGE_CATCH, name=f"Receive joint rollback {tk.name}")
                first, last = add_throws(slug, _E_COMP_ACTS[revocation])
                ackdone = frag.add("ackdone", NodeKind.SEND_TASK, name=f"Finish joint rollback {tk.name}")
                terminated = frag.add(
                    "terminated", NodeKind.TERMINATE_END_EVENT, name=f"{tk.name} terminated"
                )
                frag.connect(sallow, ackgo)
                frag.connect(ackgo, first)
                frag.connect(last, ackdone)
                frag.connect(ackdone, terminated)
            else:
                frag.connect(decide, sallow, label="performed:accept")
                reposition_catch = frag.add(
                    "rereject", NodeKind.MESSAGE_CATCH, name=f"Receive reposition {tk.name}"
                )
                split = frag.add(slug, NodeKind.PARALLEL_GATEWAY)
                frag.connect(sallow, reposition_catch)
                frag.connect(reposition_catch, split)
                frag.connect(split, revgate)
                frag.connect(split, marks["rejected"], label="reposition")
        else:
            # this side triggers the revocation; the initiator decides
            trigger = frag.add(
                slug, NodeKind.MESSAGE_CATCH, name=f"Consider {revocation.value} {tk.name}"
            )
            send = frag.add(slug, NodeKind.SEND_TASK, name=_send_name(revocation, tk))
            await_gate = frag.add(slug, NodeKind.EVENT_BASED_GATEWAY)
            callow = frag.add("allow", NodeKind.MESSAGE_CATCH, name=_catch_name(Act.ALLOW, tk))
            crefuse = frag.add("refuse", NodeKind.MESSAGE_CATCH, name=_catch_name(Act.REFUSE, tk))
            frag.connect(revgate, trigger)
            frag.connect(trigger, send)
            frag.connect(send, await_gate)
            frag.connect(await_gate, callow)
            frag.connect(await_gate, crefuse)
            frag.connect(crefuse, revgate)
            first, last = add_throws(slug, _E_COMP_ACTS[revocation])
            reposition_send = frag.add(
                "redecline" if revocation is Act.REVOKE_PROMISE else "repromise",
                NodeKind.SEND_TASK,
                name=f"Reposition {tk.name}",
            )
            split = frag.add(slug, NodeKind.PARALLEL_GATEWAY)
            frag.connect(callow, first)
            frag.connect(last, reposition_send)
            frag.connect(reposition_send, split)
            frag.connect(split, revgate)
            landing = marks["retry"] if revocation is Act.REVOKE_PROMISE else marks["execute"]
            frag.connect(split, landing, label="reposition")


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
    if level is DetailLevel.WITH_DISSENT:
        return flows
    flows += [
        # revoke request: initiator asks, executor decides, two-step rollback handshake
        mf(f"{t}_i_revokerequest_sendtask", f"{t}_e_revokerequest_catch"),
        mf(f"{t}_e_allow_sendtask", f"{t}_i_allow_catch"),
        mf(f"{t}_e_refuse_sendtask", f"{t}_i_refuse_catch"),
        mf(f"{t}_i_ackgo_sendtask", f"{t}_e_ackgo_catch"),
        mf(f"{t}_e_ackdone_sendtask", f"{t}_i_ackdone_catch"),
        # revoke accept: initiator asks, executor decides, lands in the reject loop
        mf(f"{t}_i_revokeaccept_sendtask", f"{t}_e_revokeaccept_catch"),
        mf(f"{t}_e_allow_sendtask_2", f"{t}_i_allow_catch_2"),
        mf(f"{t}_e_refuse_sendtask_2", f"{t}_i_refuse_catch_2"),
        mf(f"{t}_i_rereject_sendtask", f"{t}_e_rereject_catch"),
        # revoke promise: executor asks, initiator decides, lands in the decline loop
        mf(f"{t}_e_revokepromise_sendtask", f"{t}_i_revokepromise_catch"),
        mf(f"{t}_i_allow_sendtask", f"{t}_e_allow_catch"),
        mf(f"{t}_i_refuse_sendtask", f"{t}_e_refuse_catch"),
        mf(f"{t}_e_redecline_sendtask", f"{t}_i_redecline_catch"),
        # revoke declare: executor asks, initiator decides, resumes before execution
        mf(f"{t}_e_revokedeclare_sendtask", f"{t}_i_revokedeclare_catch"),
        mf(f"{t}_i_allow_sendtask_2", f"{t}_e_allow_catch_2"),
        mf(f"{t}_i_refuse_sendtask_2", f"{t}_e_refuse_catch_2"),
        mf(f"{t}_e_repromise_sendtask", f"{t}_i_repromise_catch"),
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
    for tk_id in order:
        tk = net.transaction(tk_id)
        fragments[(tk_id, Role.INITIATOR)] = _build_initiator(tk, level)
        fragments[(tk_id, Role.EXECUTOR)] = _build_executor(tk, level)

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

    message_flows: list[MessageFlow] = []
    for tk_id in order:
        message_flows.extend(_message_flows(net.transaction(tk_id), level))

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
