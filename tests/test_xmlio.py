"""BPMN 2.0 XML serialization and lenient parsing."""

from __future__ import annotations

import pytest

from demoflow.compiler import DetailLevel, compile_network
from demoflow.model import (
    BpmnModel,
    FlowNode,
    NodeKind,
    Pool,
    SequenceFlow,
    lint_model,
)
from demoflow.xmlio import ModelFormatError, parse_model, serialize_model

LEVELS = list(DetailLevel)

# Serialized size in bytes of each bundled network at each level; any change
# to the generator or the writer shows up here first.  The sizes include the
# flows' control guards (``spawn``, ``phase:...``, ``reposition``) written as
# their ``name``.
BYTE_SIZES = {
    ("poc1_net", DetailLevel.HAPPY_FLOW): 13615,
    ("poc1_net", DetailLevel.WITH_DISSENT): 40063,
    ("poc1_net", DetailLevel.COMPLETE): 150157,
    ("poc2_net", DetailLevel.HAPPY_FLOW): 20697,
    ("poc2_net", DetailLevel.WITH_DISSENT): 60479,
    ("poc2_net", DetailLevel.COMPLETE): 225939,
}


@pytest.mark.parametrize("net_fixture", ["poc1_net", "poc2_net"])
@pytest.mark.parametrize("level", LEVELS)
def test_round_trip_byte_identity(net_fixture, level, request):
    net = request.getfixturevalue(net_fixture)
    model = compile_network(net, level)
    first = serialize_model(model)
    assert len(first) == BYTE_SIZES[(net_fixture, level)]
    reparsed = parse_model(first)
    assert serialize_model(reparsed) == first


@pytest.mark.parametrize("level", LEVELS)
def test_reparsed_model_still_lints_clean(solo_net, level):
    model = compile_network(solo_net, level)
    reparsed = parse_model(serialize_model(model))
    assert lint_model(reparsed) == []
    assert {n.id for n in reparsed.all_nodes()} == {n.id for n in model.all_nodes()}


def test_serialization_is_deterministic(poc1_net):
    model = compile_network(poc1_net, DetailLevel.COMPLETE)
    assert serialize_model(model) == serialize_model(model)


def test_layout_variant_parses_back_to_same_model(solo_net):
    model = compile_network(solo_net, DetailLevel.WITH_DISSENT)
    plain = serialize_model(model)
    with_layout = serialize_model(model, layout=True)
    assert with_layout != plain
    assert b"BPMNDiagram" in with_layout
    assert serialize_model(parse_model(with_layout)) == plain


def test_special_characters_survive():
    pool = Pool(
        id="pool_x",
        process_id="proc_x",
        name="Café & <Friends> €",
        actor_id="x",
        nodes=[
            FlowNode("s", NodeKind.START_EVENT, name="go"),
            FlowNode("t", NodeKind.TASK, name="Promise⁻¹ & <undo>"),
            FlowNode("e", NodeKind.END_EVENT),
        ],
        flows=[
            SequenceFlow("f1", "s", "t", label='say "hi"'),
            SequenceFlow("f2", "t", "e"),
        ],
    )
    model = BpmnModel(id="esc", pools=[pool])
    data = serialize_model(model)
    reparsed = parse_model(data)
    assert reparsed.pools[0].name == "Café & <Friends> €"
    named = {n.id: n.name for n in reparsed.all_nodes()}
    assert named["t"] == "Promise⁻¹ & <undo>"
    assert serialize_model(reparsed) == data


def test_parse_foreign_task_flavours():
    doc = """<?xml version="1.0" encoding="UTF-8"?>
    <definitions xmlns="http://www.omg.org/spec/BPMN/20100524/MODEL" id="d1">
      <process id="p1" isExecutable="false">
        <startEvent id="s"/>
        <userTask id="u" name="fill form"/>
        <serviceTask id="v"/>
        <receiveTask id="r"/>
        <inclusiveGateway id="g"/>
        <task id="c" isForCompensation="true"/>
        <endEvent id="e"/>
        <sequenceFlow id="f1" sourceRef="s" targetRef="u"/>
        <sequenceFlow id="f2" sourceRef="u" targetRef="v"/>
        <sequenceFlow id="f3" sourceRef="v" targetRef="r"/>
        <sequenceFlow id="f4" sourceRef="r" targetRef="g"/>
        <sequenceFlow id="f5" sourceRef="g" targetRef="e"/>
      </process>
    </definitions>"""
    model = parse_model(doc)
    kinds = {n.id: n.kind for n in model.all_nodes()}
    assert kinds["u"] is NodeKind.TASK
    assert kinds["v"] is NodeKind.TASK
    assert kinds["r"] is NodeKind.MESSAGE_CATCH
    assert kinds["g"] is NodeKind.PARALLEL_GATEWAY
    assert kinds["c"] is NodeKind.COMPENSATION_HANDLER


def test_bare_process_gets_an_implicit_pool():
    doc = """<definitions xmlns="http://www.omg.org/spec/BPMN/20100524/MODEL" id="d2">
      <process id="orders">
        <startEvent id="s"/>
        <endEvent id="e"/>
        <sequenceFlow id="f" sourceRef="s" targetRef="e"/>
      </process>
    </definitions>"""
    model = parse_model(doc)
    assert [p.id for p in model.pools] == ["pool_orders"]
    assert model.pools[0].process_id == "orders"


def test_unknown_flow_element_is_rejected():
    doc = """<definitions xmlns="http://www.omg.org/spec/BPMN/20100524/MODEL" id="d3">
      <process id="p">
        <startEvent id="s"/>
        <adHocSubProcess id="weird"/>
      </process>
    </definitions>"""
    with pytest.raises(ModelFormatError, match="adHocSubProcess"):
        parse_model(doc)


def test_missing_process_for_participant():
    doc = """<definitions xmlns="http://www.omg.org/spec/BPMN/20100524/MODEL" id="d4">
      <collaboration id="c">
        <participant id="pool_a" processRef="proc_missing"/>
      </collaboration>
    </definitions>"""
    with pytest.raises(ModelFormatError, match="proc_missing"):
        parse_model(doc)


def test_non_xml_input_is_rejected():
    with pytest.raises(ModelFormatError, match="invalid XML"):
        parse_model(b"this is not xml")


def test_wrong_root_element_is_rejected():
    with pytest.raises(ModelFormatError, match="definitions"):
        parse_model("<processes/>")
