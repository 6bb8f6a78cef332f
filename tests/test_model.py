"""Node-id grammar, model containers and the structural lint rules."""

from __future__ import annotations

import random
from collections import Counter

import pytest
from hypothesis import given, settings, strategies as st

from demoflow.compiler import DetailLevel, compile_network
from demoflow.engine import MOVES, Act, Role
from demoflow.model import (
    ACT_SLUGS,
    TAIL_TABLE_CAP,
    Association,
    BpmnModel,
    FlowNode,
    LintFinding,
    MessageFlow,
    NodeKind,
    NodeMeta,
    Pool,
    SLUG_FOR_ACT,
    SequenceFlow,
    lint_model,
    parse_node_id,
    read_tail,
    slugify_tk,
)
from demoflow.network import DependencyKind, parse_network, validate_network
from demoflow.xmlio import parse_model, serialize_model
from conftest import node_ids
from test_simulator import _chain_net, _fan_net


# ---------------------------------------------------------------------------
# Node-id grammar
# ---------------------------------------------------------------------------


def test_parse_act_node():
    meta = parse_node_id("tk01_i_request_sendtask")
    assert meta is not None
    assert meta.tk == "tk01"
    assert meta.role is Role.INITIATOR
    assert meta.slug == "request"
    assert meta.kind is NodeKind.SEND_TASK
    assert meta.ordinal == 1
    assert meta.act is Act.REQUEST


def test_parse_ordinal_suffix():
    meta = parse_node_id("tk01_e_revokedeclare_throw_2")
    assert meta is not None
    assert meta.role is Role.EXECUTOR
    assert meta.slug == "revokedeclare"
    assert meta.kind is NodeKind.COMPENSATION_THROW
    assert meta.ordinal == 2
    assert meta.act is Act.REVOKE_DECLARE


def test_parse_plumbing_slug_has_no_act():
    meta = parse_node_id("tk01_e_response_xor")
    assert meta is not None
    assert meta.slug == "response"
    assert meta.kind is NodeKind.EXCLUSIVE_GATEWAY
    assert meta.act is None


def test_parse_underscored_slug():
    meta = parse_node_id("tk01_i_ack_go_catch")
    assert meta is not None
    assert meta.slug == "ack_go"
    assert meta.kind is NodeKind.MESSAGE_CATCH


@pytest.mark.parametrize(
    "node_id",
    [
        "Task_1",  # foreign model
        "start",
        "tk01_i_request",  # too few segments
        "tk01_x_request_sendtask",  # unknown role tag
        "tk01_i_request_widget",  # unknown kind tag
        "tk01_i_request_7",  # ordinal strips the kind tag away
        "tk01_i_request_task_²",  # a digit, but not a decimal one
        "tk01_i_request_task_1234567890",  # an ordinal of more than nine digits
        pytest.param("tk01_i_request_task_" + "1" * 5000, id="5000-digit-ordinal"),
        "",
    ],
)
def test_parse_rejects_non_grammar_ids(node_id):
    assert parse_node_id(node_id) is None


def test_parse_reads_any_decimal_digits_as_the_ordinal():
    meta = parse_node_id("tk01_i_request_task_٣")  # ARABIC-INDIC DIGIT THREE
    assert meta is not None and meta.kind is NodeKind.TASK and meta.ordinal == 3
    meta = parse_node_id("tk01_i_request_task_123456789")
    assert meta is not None and meta.ordinal == 123456789


_ROLES = {"i": Role.INITIATOR, "e": Role.EXECUTOR}
_KINDS = {kind.value: kind for kind in NodeKind}


def _split_parse(node_id: str):
    """The node-id parser as a split on "_": the reference for parse_node_id.
    It raises ValueError on a suffix that str.isdigit accepts and int() does
    not, such as "²".  An ordinal has at most nine digits."""
    parts = node_id.split("_")
    if len(parts) < 4:
        return None
    ordinal = 1
    if parts[-1].isdigit() and len(parts[-1]) <= 9:
        ordinal = int(parts[-1])
        parts = parts[:-1]
    if len(parts) < 4:
        return None
    tk, role_tag, kind_tag = parts[0], parts[1], parts[-1]
    slug = "_".join(parts[2:-1])
    if role_tag not in _ROLES or kind_tag not in _KINDS:
        return None
    return NodeMeta(tk, _ROLES[role_tag], slug, _KINDS[kind_tag], ordinal)


@settings(max_examples=2000, deadline=None)
@given(node_ids)
def test_parse_matches_the_split_reference(node_id):
    try:
        expected = _split_parse(node_id)
    except ValueError:
        expected = None  # outside the grammar: the reference crashes on it
    assert parse_node_id(node_id) == expected


def test_the_tail_table_stays_within_its_cap():
    read_tail.cache_clear()
    slugs = ["request", "revokedeclare", "response", "ack_go"]
    # more distinct tails than the cap, each on the grammar
    ids = [
        f"tk{n % 7:02d}_{'ie'[n % 2]}_{slugs[n % 4]}_{'task' if n % 3 else 'catch'}_{n}"
        for n in range(1, 2 * TAIL_TABLE_CAP + 100)
    ]
    for _ in range(2):  # the second round re-reads tails the cache let go
        for node_id in ids:
            meta = parse_node_id(node_id)
            assert meta == _split_parse(node_id)
            assert read_tail.cache_info().currsize <= TAIL_TABLE_CAP
            fields = read_tail(node_id.partition("_")[2])
            assert fields.act is meta.act
            assert fields.column == (-1 if meta.act is None else MOVES.index((meta.act, meta.role)))
    assert 0 < read_tail.cache_info().currsize <= TAIL_TABLE_CAP


def test_every_act_slug_round_trips():
    for act in Act:
        slug = SLUG_FOR_ACT[act]
        meta = parse_node_id(f"tk09_e_{slug}_task")
        assert meta is not None and meta.act is act
    assert len(ACT_SLUGS) == len(Act)


def test_slugify_tk_strips_underscores_and_case():
    assert slugify_tk("TK01") == "tk01"
    assert slugify_tk("TK_01") == "tk01"
    assert slugify_tk("order") == "order"


# ---------------------------------------------------------------------------
# Hand-built models for the lint rules
# ---------------------------------------------------------------------------


def _model(nodes, flows, *, second_pool=None, message_flows=(), associations=()):
    pool = Pool(
        id="pool_a",
        process_id="proc_a",
        name="A",
        actor_id="A",
        nodes=list(nodes),
        flows=list(flows),
        associations=list(associations),
    )
    pools = [pool]
    if second_pool is not None:
        pools.append(second_pool)
    return BpmnModel(id="m", pools=pools, message_flows=list(message_flows))


def _chain(*kinds):
    """start/k1/k2/... nodes wired in a line; returns (nodes, flows)."""
    nodes = [FlowNode(f"n{i}", kind) for i, kind in enumerate(kinds)]
    flows = [
        SequenceFlow(f"f{i}", nodes[i].id, nodes[i + 1].id)
        for i in range(len(nodes) - 1)
    ]
    return nodes, flows


def _dangling(*subjects: str, message: str) -> LintFinding:
    return LintFinding("DanglingFlow", subjects, message)


def test_minimal_clean_model():
    nodes, flows = _chain(NodeKind.START_EVENT, NodeKind.TASK, NodeKind.END_EVENT)
    assert lint_model(_model(nodes, flows)) == []


def test_dangling_sequence_flow_endpoint():
    nodes, flows = _chain(NodeKind.START_EVENT, NodeKind.TASK, NodeKind.END_EVENT)
    flows += [SequenceFlow("f9", "n1", "ghost"), SequenceFlow("f8", "wraith", "ghost")]
    missing = "sequence flow endpoint does not exist"
    assert lint_model(_model(nodes, flows)) == [
        _dangling("f9", "ghost", message=missing),
        _dangling("f8", "wraith", message=missing),
        _dangling("f8", "ghost", message=missing),
    ]


def test_start_and_end_event_degree_rules():
    nodes, flows = _chain(NodeKind.START_EVENT, NodeKind.TASK, NodeKind.END_EVENT)
    flows.append(SequenceFlow("back", "n2", "n0"))  # into the start, out of the end
    assert lint_model(_model(nodes, flows)) == [
        _dangling("n0", message="start must not have incoming flows"),
        _dangling("n2", message="end must not have outgoing flows"),
    ]


def test_task_requires_both_degrees():
    nodes = [FlowNode("n0", NodeKind.START_EVENT), FlowNode("n1", NodeKind.TASK)]
    flows = [SequenceFlow("f0", "n0", "n1")]  # task has no outgoing flow
    assert lint_model(_model(nodes, flows)) == [
        _dangling("n1", message="task requires an outgoing flow")
    ]
    nodes.append(FlowNode("n2", NodeKind.END_EVENT))
    flows = [SequenceFlow("f0", "n0", "n2"), SequenceFlow("f1", "n1", "n2")]  # nor incoming
    assert lint_model(_model(nodes, flows)) == [
        _dangling("n1", message="task requires an incoming flow"),
        LintFinding("UnreachableNode", ("n1",), "no path from any start event"),
    ]


def _second_pool(flows=()):
    return Pool(
        id="pool_b",
        process_id="proc_b",
        name="B",
        actor_id="B",
        nodes=[FlowNode("m0", NodeKind.START_EVENT), FlowNode("m1", NodeKind.END_EVENT)],
        flows=[SequenceFlow("g0", "m0", "m1"), *flows],
    )


def test_cross_pool_sequence_flow():
    nodes, flows = _chain(NodeKind.START_EVENT, NodeKind.TASK, NodeKind.END_EVENT)
    flows.append(SequenceFlow("f9", "n1", "m1"))
    assert lint_model(_model(nodes, flows, second_pool=_second_pool())) == [
        LintFinding(
            "CrossPoolSequenceFlow", ("f9", "n1", "m1"), "sequence flows may not cross pool boundaries"
        )
    ]


def test_sequence_flow_declared_outside_its_endpoints_pool():
    nodes, flows = _chain(NodeKind.START_EVENT, NodeKind.TASK, NodeKind.END_EVENT)
    stray = SequenceFlow("g9", "n0", "n2")  # both ends in pool_a, declared in pool_b
    assert lint_model(_model(nodes, flows, second_pool=_second_pool([stray]))) == [
        LintFinding(
            "CrossPoolSequenceFlow", ("g9", "pool_b"), "sequence flow declared outside its endpoints' pool"
        )
    ]


def test_message_flow_must_cross_pools():
    nodes, flows = _chain(
        NodeKind.START_EVENT, NodeKind.SEND_TASK, NodeKind.TASK, NodeKind.END_EVENT
    )
    bad = MessageFlow("mf0", "n1", "n2")  # both ends in pool_a
    assert lint_model(_model(nodes, flows, message_flows=[bad])) == [
        LintFinding(
            "MessageFlowInsidePool", ("mf0", "n1", "n2"), "message flows must connect different pools"
        )
    ]


def test_message_flow_dangling_endpoint():
    nodes, flows = _chain(NodeKind.START_EVENT, NodeKind.SEND_TASK, NodeKind.END_EVENT)
    bad = MessageFlow("mf0", "n1", "ghost")
    assert lint_model(_model(nodes, flows, message_flows=[bad])) == [
        _dangling("mf0", "ghost", message="message flow endpoint does not exist")
    ]


def test_event_based_gateway_fanout():
    nodes, flows = _chain(
        NodeKind.START_EVENT,
        NodeKind.EVENT_BASED_GATEWAY,
        NodeKind.MESSAGE_CATCH,
        NodeKind.END_EVENT,
    )
    assert lint_model(_model(nodes, flows)) == [
        LintFinding(
            "EventBasedGatewayFanout", ("n1",), "event-based gateway must offer at least two events, has 1"
        ),
        LintFinding("DegenerateGateway", ("n1",), "gateway neither splits nor merges"),
    ]


def test_degenerate_gateway():
    nodes, flows = _chain(
        NodeKind.START_EVENT, NodeKind.EXCLUSIVE_GATEWAY, NodeKind.END_EVENT
    )
    assert lint_model(_model(nodes, flows)) == [
        LintFinding("DegenerateGateway", ("n1",), "gateway neither splits nor merges")
    ]


def test_degenerate_decision_guarded_single_branch():
    nodes, flows = _chain(
        NodeKind.START_EVENT, NodeKind.EXCLUSIVE_GATEWAY, NodeKind.END_EVENT
    )
    flows[1].label = "redeclare"
    assert lint_model(_model(nodes, flows)) == [
        LintFinding("DegenerateGateway", ("n1",), "gateway neither splits nor merges"),
        LintFinding("DegenerateDecision", ("n1",), "a guarded decision needs at least two outgoing branches"),
    ]


def test_labeled_two_way_decision_is_fine():
    nodes, flows = _chain(
        NodeKind.START_EVENT, NodeKind.EXCLUSIVE_GATEWAY, NodeKind.END_EVENT
    )
    nodes.append(FlowNode("n3", NodeKind.END_EVENT))
    flows[1].label = "retry"
    flows.append(SequenceFlow("f9", "n1", "n3", label="give up"))
    assert lint_model(_model(nodes, flows)) == []


def test_unreachable_cycle():
    nodes, flows = _chain(NodeKind.START_EVENT, NodeKind.TASK, NodeKind.END_EVENT)
    nodes += [FlowNode("c1", NodeKind.TASK), FlowNode("c2", NodeKind.TASK)]
    flows += [SequenceFlow("g1", "c1", "c2"), SequenceFlow("g2", "c2", "c1")]
    assert lint_model(_model(nodes, flows)) == [
        LintFinding("UnreachableNode", ("c1",), "no path from any start event"),
        LintFinding("UnreachableNode", ("c2",), "no path from any start event"),
    ]


def test_boundary_event_needs_attachment():
    nodes, flows = _chain(NodeKind.START_EVENT, NodeKind.TASK, NodeKind.END_EVENT)
    nodes += [
        FlowNode("b0", NodeKind.COMPENSATION_BOUNDARY),
        FlowNode("b1", NodeKind.COMPENSATION_BOUNDARY, attached_to="ghost"),
    ]
    assert lint_model(_model(nodes, flows)) == [
        _dangling("b0", message="boundary event is not attached to a task"),
        _dangling("b1", message="boundary event is not attached to a task"),
    ]


def test_compensation_wiring_clean():
    nodes, flows = _chain(NodeKind.START_EVENT, NodeKind.TASK, NodeKind.END_EVENT)
    nodes += [
        FlowNode("b0", NodeKind.COMPENSATION_BOUNDARY, attached_to="n1"),
        FlowNode("h0", NodeKind.COMPENSATION_HANDLER),
    ]
    associations = [Association("a0", "b0", "h0")]
    assert lint_model(_model(nodes, flows, associations=associations)) == []


def test_compensation_throw_missing_target():
    nodes, flows = _chain(
        NodeKind.START_EVENT, NodeKind.COMPENSATION_THROW, NodeKind.END_EVENT
    )
    nodes[1].compensates = "ghost"
    assert lint_model(_model(nodes, flows)) == [
        _dangling("n1", message="compensation throw references a missing task")
    ]


def test_association_dangling_endpoint():
    nodes, flows = _chain(NodeKind.START_EVENT, NodeKind.TASK, NodeKind.END_EVENT)
    associations = [Association("a0", "ghost", "n1")]
    assert lint_model(_model(nodes, flows, associations=associations)) == [
        _dangling("a0", "ghost", message="association endpoint does not exist")
    ]


def test_findings_come_rule_by_rule():
    # duplicate ids, then sequence flows, message flows, nodes,
    # associations and reachability
    nodes, flows = _chain(NodeKind.START_EVENT, NodeKind.TASK, NodeKind.END_EVENT)
    nodes += [FlowNode("h0", NodeKind.COMPENSATION_HANDLER), FlowNode("c1", NodeKind.TASK)]
    flows += [SequenceFlow("f9", "n1", "ghost"), SequenceFlow("f7", "n1", "h0")]
    model = _model(
        nodes,
        flows,
        message_flows=[MessageFlow("f0", "n1", "ghost")],
        associations=[Association("a0", "b9", "h0")],
    )
    assert lint_model(model) == [
        LintFinding("DuplicateId", ("f0",), "2 model elements share this id"),
        _dangling("f9", "ghost", message="sequence flow endpoint does not exist"),
        _dangling("f0", "ghost", message="message flow endpoint does not exist"),
        _dangling("h0", message="handler must not have incoming flows"),
        _dangling("c1", message="task requires an incoming flow"),
        _dangling("c1", message="task requires an outgoing flow"),
        _dangling("a0", "b9", message="association endpoint does not exist"),
        LintFinding("UnreachableNode", ("c1",), "no path from any start event"),
    ]


@pytest.mark.parametrize("records", ["nodes", "flows"])
def test_repeated_element_is_a_duplicate_id(poc1_net, records):
    model = compile_network(poc1_net, DetailLevel.HAPPY_FLOW)
    assert lint_model(model) == []
    elements = getattr(model.pools[0], records)
    elements.append(elements[0])
    assert lint_model(model) == [
        LintFinding("DuplicateId", (elements[0].id,), "2 model elements share this id")
    ]


def test_elements_of_different_kinds_share_one_id_space():
    nodes, flows = _chain(NodeKind.START_EVENT, NodeKind.TASK, NodeKind.END_EVENT)
    nodes += [
        FlowNode("b0", NodeKind.COMPENSATION_BOUNDARY, attached_to="n1"),
        FlowNode("h0", NodeKind.COMPENSATION_HANDLER),
    ]
    second = Pool(
        "pool_b",
        "proc_b",
        "B",
        "B",
        nodes=[FlowNode("m0", NodeKind.MESSAGE_START_EVENT), FlowNode("m1", NodeKind.END_EVENT)],
        flows=[SequenceFlow("g0", "m0", "m1")],
    )
    model = _model(
        nodes,
        flows,
        second_pool=second,
        message_flows=[MessageFlow("n2", "n1", "m0")],  # a node's id
        associations=[Association("f0", "b0", "h0")],  # a sequence flow's id
    )
    assert [f for f in lint_model(model) if f.rule == "DuplicateId"] == [
        LintFinding("DuplicateId", ("n2",), "2 model elements share this id"),
        LintFinding("DuplicateId", ("f0",), "2 model elements share this id"),
    ]


def test_pools_processes_and_the_collaboration_share_the_id_space():
    nodes, flows = _chain(NodeKind.START_EVENT, NodeKind.TASK, NodeKind.END_EVENT)
    for model_id, pool_id, process_id, clash in [
        ("m", "n1", "proc_a", "n1"),  # a pool named like a node
        ("m", "pool_a", "f0", "f0"),  # a process named like a sequence flow
        ("pool_a", "pool_a", "proc_a", "pool_a"),  # the collaboration named like a pool
        ("m", "pool_a", "pool_a", "pool_a"),  # a pool named like its own process
    ]:
        model = _model(nodes, flows)
        model.id, model.pools[0].id, model.pools[0].process_id = model_id, pool_id, process_id
        assert lint_model(model) == [
            LintFinding("DuplicateId", (clash,), "2 model elements share this id")
        ], clash


def test_two_participants_with_one_id_are_a_duplicate_id():
    doc = """<definitions xmlns="http://www.omg.org/spec/BPMN/20100524/MODEL" id="d">
      <collaboration id="c">
        <participant id="p" processRef="proc_a"/>
        <participant id="p" processRef="proc_b"/>
      </collaboration>
      <process id="proc_a"><startEvent id="s1"/></process>
      <process id="proc_b"><startEvent id="s2"/></process>
    </definitions>"""
    model = parse_model(doc)
    assert [pool.id for pool in model.pools] == ["p", "p"]
    assert [f for f in lint_model(model) if f.rule == "DuplicateId"] == [
        LintFinding("DuplicateId", ("p",), "2 model elements share this id")
    ]


# A valid network whose model fails lint: transaction POOL's initiator send
# task is pool_i_request_sendtask, the id of the pool of actor
# i_request_sendtask.
POOL_CLASH = {
    "actors": [{"id": "A", "name": "Customer"}, {"id": "i_request_sendtask", "name": "Supplier"}],
    "transactions": [{
        "id": "POOL",
        "name": "pooling",
        "initiator": "A",
        "executor": "i_request_sendtask",
        "result": {"id": "PK01", "phrase": "[pool] has been formed"},
    }],
    "dependencies": [],
}


def test_a_node_named_like_a_pool_is_a_duplicate_id():
    net = parse_network(POOL_CLASH)
    assert validate_network(net) == []
    model = compile_network(net, DetailLevel.HAPPY_FLOW)
    assert "pool_i_request_sendtask" in {node.id for node in model.all_nodes()}
    assert lint_model(model) == [
        LintFinding("DuplicateId", ("pool_i_request_sendtask",), "2 model elements share this id")
    ]


# ---------------------------------------------------------------------------
# Link ids: formed from the endpoints, stored only when foreign
# ---------------------------------------------------------------------------

#: Composed networks the derived-id tests compile beside poc2: a chain of
#: three and a fan of two children for each dependency kind.
LINKED_NETS = {
    **{f"chain3-{kind.value}": _chain_net(kind, 3) for kind in DependencyKind},
    **{f"fan2-{kind.value}": _fan_net(kind, 2) for kind in DependencyKind},
}

_PREFIXES = {SequenceFlow: "sf_", MessageFlow: "mf_", Association: "as_"}


def links(model):
    """Every sequence flow, message flow and association of ``model``."""
    found = list(model.message_flows)
    for pool in model.pools:
        found += pool.flows + pool.associations
    return found


@pytest.mark.parametrize("net_name", ["poc2", *LINKED_NETS])
@pytest.mark.parametrize("level", list(DetailLevel), ids=lambda level: level.value)
def test_compiled_links_store_no_id(net_name, level, poc2_net):
    model = compile_network(poc2_net if net_name == "poc2" else LINKED_NETS[net_name], level)
    found = links(model)
    assert {type(link) for link in found} >= {SequenceFlow, MessageFlow}
    for link in found:
        assert link._id is None, link
        assert link.id == f"{_PREFIXES[type(link)]}{link.source}__{link.target}"


@pytest.mark.parametrize("record", [SequenceFlow, MessageFlow, Association])
def test_the_canonical_id_is_not_stored(record):
    prefix = _PREFIXES[record]
    formed = record(None, "a", "b")
    given = record(f"{prefix}a__b", "a", "b")
    assert given == formed and given._id is None and given.id == f"{prefix}a__b"
    foreign = record("f1", "a", "b")
    assert foreign != formed and foreign._id == "f1"
    foreign.id = f"{prefix}a__b"
    assert foreign == formed
    foreign.id = ""
    assert foreign._id == "" and foreign.id == ""


def test_equality_needs_the_same_record_type():
    assert MessageFlow(None, "a", "b") != Association(None, "a", "b")
    assert SequenceFlow(None, "a", "b", "spawn") != SequenceFlow(None, "a", "b")


def test_a_formed_id_follows_its_endpoints():
    formed = SequenceFlow(None, "a", "b")
    stored = SequenceFlow("f1", "a", "b")
    formed.target = stored.target = "c"
    assert formed.id == "sf_a__c"
    assert stored.id == "f1"
    formed.source, formed.target = formed.target, formed.source
    assert formed.id == "sf_c__a"


def test_two_flows_between_one_pair_are_a_duplicate_id():
    nodes, _ = _chain(NodeKind.START_EVENT, NodeKind.TASK, NodeKind.END_EVENT)
    flows = [SequenceFlow(None, "n0", "n1"), SequenceFlow(None, "n1", "n2"), SequenceFlow(None, "n0", "n1")]
    assert [f for f in lint_model(_model(nodes, flows)) if f.rule == "DuplicateId"] == [
        LintFinding("DuplicateId", ("sf_n0__n1",), "2 model elements share this id")
    ]


def test_a_stored_id_equal_to_a_formed_one_is_a_duplicate_id():
    nodes, _ = _chain(NodeKind.START_EVENT, NodeKind.TASK, NodeKind.END_EVENT)
    flows = [SequenceFlow("sf_n1__n2", "n0", "n1"), SequenceFlow(None, "n1", "n2")]
    assert flows[0]._id == "sf_n1__n2"
    assert lint_model(_model(nodes, flows)) == [
        LintFinding("DuplicateId", ("sf_n1__n2",), "2 model elements share this id")
    ]


# ---------------------------------------------------------------------------
# The lint before its one-table rewrite, kept as the reference the rewrite
# must match finding for finding, order included
# ---------------------------------------------------------------------------

_REF_GATEWAY_KINDS = frozenset(
    {NodeKind.EXCLUSIVE_GATEWAY, NodeKind.PARALLEL_GATEWAY, NodeKind.EVENT_BASED_GATEWAY}
)
_REF_NO_FLOW_KINDS = frozenset({NodeKind.COMPENSATION_BOUNDARY, NodeKind.COMPENSATION_HANDLER})


def _reference_degree_rules(kind):
    """(required min incoming, required min outgoing); None = must be zero."""
    if kind in (NodeKind.START_EVENT, NodeKind.MESSAGE_START_EVENT):
        return None, 1
    if kind in (NodeKind.END_EVENT, NodeKind.TERMINATE_END_EVENT):
        return 1, None
    if kind in _REF_NO_FLOW_KINDS:
        return None, None
    return 1, 1


def _reference_lint(model: BpmnModel) -> list[LintFinding]:
    findings: list[LintFinding] = []

    def add(rule, subjects, message):
        findings.append(LintFinding(rule, tuple(subjects), message))

    ids = [model.id]
    for pool in model.pools:
        ids += [pool.id, pool.process_id]
    ids += [node.id for node in model.all_nodes()]
    for pool in model.pools:
        ids += [flow.id for flow in pool.flows]
        ids += [assoc.id for assoc in pool.associations]
    ids += [flow.id for flow in model.message_flows]
    if len(set(ids)) < len(ids):
        for element_id, count in Counter(ids).items():
            if count > 1:
                add("DuplicateId", (element_id,), f"{count} model elements share this id")

    index = {node.id: node for node in model.all_nodes()}
    pool_of = {node.id: pool.id for pool in model.pools for node in pool.nodes}

    incoming: dict[str, list[SequenceFlow]] = {}
    outgoing: dict[str, list[SequenceFlow]] = {}
    for pool in model.pools:
        for flow in pool.flows:
            for end in (flow.source, flow.target):
                if end not in index:
                    add("DanglingFlow", (flow.id, end), "sequence flow endpoint does not exist")
            outgoing.setdefault(flow.source, []).append(flow)
            incoming.setdefault(flow.target, []).append(flow)
            if (
                flow.source in pool_of
                and flow.target in pool_of
                and pool_of[flow.source] != pool_of[flow.target]
            ):
                add(
                    "CrossPoolSequenceFlow",
                    (flow.id, flow.source, flow.target),
                    "sequence flows may not cross pool boundaries",
                )
            if flow.source in pool_of and pool_of[flow.source] != pool.id:
                add(
                    "CrossPoolSequenceFlow",
                    (flow.id, pool.id),
                    "sequence flow declared outside its endpoints' pool",
                )

    for flow in model.message_flows:
        for end in (flow.source, flow.target):
            if end not in index:
                add("DanglingFlow", (flow.id, end), "message flow endpoint does not exist")
        if (
            flow.source in pool_of
            and flow.target in pool_of
            and pool_of[flow.source] == pool_of[flow.target]
        ):
            add(
                "MessageFlowInsidePool",
                (flow.id, flow.source, flow.target),
                "message flows must connect different pools",
            )

    for node in model.all_nodes():
        n_in = len(incoming.get(node.id, ()))
        n_out = len(outgoing.get(node.id, ()))
        need_in, need_out = _reference_degree_rules(node.kind)
        if need_in is None and n_in:
            add("DanglingFlow", (node.id,), f"{node.kind.value} must not have incoming flows")
        if need_in is not None and n_in < need_in:
            add("DanglingFlow", (node.id,), f"{node.kind.value} requires an incoming flow")
        if need_out is None and n_out:
            add("DanglingFlow", (node.id,), f"{node.kind.value} must not have outgoing flows")
        if need_out is not None and n_out < need_out:
            add("DanglingFlow", (node.id,), f"{node.kind.value} requires an outgoing flow")
        if node.kind is NodeKind.EVENT_BASED_GATEWAY and n_out < 2:
            add(
                "EventBasedGatewayFanout",
                (node.id,),
                f"event-based gateway must offer at least two events, has {n_out}",
            )
        if node.kind in _REF_GATEWAY_KINDS and n_in < 2 and n_out < 2:
            add("DegenerateGateway", (node.id,), "gateway neither splits nor merges")
        if node.kind is NodeKind.EXCLUSIVE_GATEWAY:
            labeled = [f for f in outgoing.get(node.id, ()) if f.label]
            if labeled and n_out < 2:
                add(
                    "DegenerateDecision",
                    (node.id,),
                    "a guarded decision needs at least two outgoing branches",
                )
        if node.kind is NodeKind.COMPENSATION_BOUNDARY:
            if node.attached_to is None or node.attached_to not in index:
                add("DanglingFlow", (node.id,), "boundary event is not attached to a task")
        if node.kind is NodeKind.COMPENSATION_THROW:
            if node.compensates is not None and node.compensates not in index:
                add("DanglingFlow", (node.id,), "compensation throw references a missing task")

    for pool in model.pools:
        for assoc in pool.associations:
            for end in (assoc.source, assoc.target):
                if end not in index:
                    add("DanglingFlow", (assoc.id, end), "association endpoint does not exist")

    reachable: set[str] = set()
    frontier = [
        n.id
        for n in model.all_nodes()
        if n.kind in (NodeKind.START_EVENT, NodeKind.MESSAGE_START_EVENT)
    ]
    while frontier:
        current = frontier.pop()
        if current in reachable:
            continue
        reachable.add(current)
        frontier.extend(f.target for f in outgoing.get(current, ()))
    for node in model.all_nodes():
        if node.kind in _REF_NO_FLOW_KINDS:
            continue
        if node.id not in reachable:
            add("UnreachableNode", (node.id,), "no path from any start event")

    return findings


def _assert_lints_like_the_reference(model: BpmnModel) -> list[LintFinding]:
    findings = lint_model(model)
    assert findings == _reference_lint(model)
    return findings


def _network(name: str, request):
    return LINKED_NETS[name] if name in LINKED_NETS else request.getfixturevalue(name)


_LINT_NETS = ["solo_net", "poc1_net", "poc2_net", *LINKED_NETS]


@pytest.mark.parametrize("net_name", _LINT_NETS)
@pytest.mark.parametrize("level", list(DetailLevel), ids=lambda level: level.value)
def test_compiled_and_parsed_models_lint_like_the_reference(net_name, level, request):
    model = compile_network(_network(net_name, request), level)
    assert _assert_lints_like_the_reference(model) == []
    for layout in (False, True):
        assert _assert_lints_like_the_reference(parse_model(serialize_model(model, layout=layout))) == []


def _copy(model: BpmnModel) -> BpmnModel:
    """The model with its own pools and record lists; the records are shared."""
    pools = [
        Pool(p.id, p.process_id, p.name, p.actor_id, list(p.nodes), list(p.flows), list(p.associations))
        for p in model.pools
    ]
    return BpmnModel(model.id, pools, list(model.message_flows))


_LABELS = ["", "spawn", "reposition", "rerequest", "performed:request", "phase:promised", "accept"]


def _mutate(model: BpmnModel, rng: random.Random) -> str:
    """Apply one random mutation to ``model`` in place, replacing each
    record it changes, and say what it did."""
    pools = model.pools
    node_ids = [node.id for pool in pools for node in pool.nodes] + ["ghost"]
    pool = rng.choice(pools)
    kind = rng.choice(
        ["delete", "retarget", "relabel", "re-source", "drop", "duplicate", "rekind",
         "message", "association"]
    )
    if kind in ("delete", "retarget", "relabel", "re-source") and pool.flows:
        at = rng.randrange(len(pool.flows))
        flow = pool.flows[at]
        if kind == "delete":
            del pool.flows[at]
        elif kind == "retarget":
            pool.flows[at] = SequenceFlow(None, flow.source, rng.choice(node_ids), flow.label)
        elif kind == "relabel":
            pool.flows[at] = SequenceFlow(flow._id, flow.source, flow.target, rng.choice(_LABELS))
        else:
            pool.flows[at] = SequenceFlow(None, rng.choice(node_ids), flow.target, flow.label)
        return f"{kind} {flow.id}"
    if kind in ("drop", "duplicate", "rekind") and pool.nodes:
        at = rng.randrange(len(pool.nodes))
        node = pool.nodes[at]
        if kind == "drop":
            del pool.nodes[at]
        elif kind == "duplicate":
            rng.choice(pools).nodes.append(node)
        else:
            pool.nodes[at] = FlowNode(
                node.id, rng.choice(list(NodeKind)), node.name, node.attached_to, node.compensates
            )
        return f"{kind} {node.id}"
    links = model.message_flows if kind == "message" else pool.associations
    if kind in ("message", "association") and links:
        at = rng.randrange(len(links))
        link = links[at]
        ends = [link.source, link.target]
        ends[rng.randrange(2)] = "ghost"
        links[at] = type(link)(None, *ends)
        return f"{kind} {link.id}"
    return "none"


@pytest.mark.parametrize("net_name", _LINT_NETS)
@pytest.mark.parametrize("level", list(DetailLevel), ids=lambda level: level.value)
def test_seeded_mutants_lint_like_the_reference(net_name, level, request):
    model = compile_network(_network(net_name, request), level)
    rng = random.Random(f"{net_name}-{level.value}")
    caught = 0
    for _ in range(40):
        mutant = _copy(model)
        done = [_mutate(mutant, rng) for _ in range(rng.choice([1, 1, 2, 3]))]
        findings = lint_model(mutant)
        assert findings == _reference_lint(mutant), done
        caught += bool(findings)
    assert caught > 20


@pytest.mark.parametrize("net_name", list(LINKED_NETS))
@pytest.mark.parametrize("level", list(DetailLevel), ids=lambda level: level.value)
def test_every_flow_deletion_is_caught_composed(net_name, level):
    model = compile_network(LINKED_NETS[net_name], level)
    for pool in model.pools:
        for at in range(len(pool.flows)):
            removed = pool.flows.pop(at)
            assert lint_model(model), f"deleting {removed.id} went unnoticed"
            pool.flows.insert(at, removed)


# ---------------------------------------------------------------------------
# Record layout
# ---------------------------------------------------------------------------


def test_model_records_are_slotted():
    node = FlowNode("n0", NodeKind.TASK)
    flow = SequenceFlow("f0", "n0", "n0")
    pool = Pool("pool_a", "proc_a", "A", "A", nodes=[node], flows=[flow])
    records = [
        node,
        flow,
        MessageFlow("m0", "n0", "n0"),
        Association("a0", "n0", "n0"),
        pool,
        BpmnModel("m", pools=[pool]),
    ]
    for record in records:
        assert "__slots__" in type(record).__dict__, type(record).__name__
        assert not hasattr(record, "__dict__"), type(record).__name__
