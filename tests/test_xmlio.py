"""BPMN 2.0 XML serialization and lenient parsing."""

from __future__ import annotations

import hashlib

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
from demoflow.network import DependencyKind
from demoflow.xmlio import ModelFormatError, parse_model, serialize_model
from test_simulator import MIXED_TREE, _fan_net

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


# SHA-256 of each bundled network's XML at each level, without and with the
# diagram layout: the compiler's output is pinned byte for byte, not just by
# size.
XML_SHA256 = {
    ("poc1_net", DetailLevel.HAPPY_FLOW): (
        "d74ce95f7ee92168045a3e6e1be8ef25d0b444ec89e41ac317b8d4861ea170c2",
        "3ce6f401c61c24bd8c0a8e5d137337a1639b5c1651ec289c6a310721f1519b6c",
    ),
    ("poc1_net", DetailLevel.WITH_DISSENT): (
        "27ae4e7ac354eb9bba33b1c189b6de66d958f307747928a219b38c2520bc0723",
        "8be1f8db4630acdd79b494cae3ac105380c896691eb85d9779fc0af8db513242",
    ),
    ("poc1_net", DetailLevel.COMPLETE): (
        "d068669a92ce02509190a21301af8d3527d1b15065667f9a507625ef0d492b15",
        "0af1f15338829c11831c92091de6c3d11a47adc77c6b9dc6e68f1d79481e425d",
    ),
    ("poc2_net", DetailLevel.HAPPY_FLOW): (
        "2c2b38820321f65c97c7b8eac15ba56f1b4e67cbc3710b7587194f1ba373183e",
        "9f4ca9756b848c9bdb259b3a5c5461850d450e48882b4c189c1a1a55056068de",
    ),
    ("poc2_net", DetailLevel.WITH_DISSENT): (
        "4c541009093063dee414b9a4b959174eda42b57091767612ea19218a55295998",
        "81249c441f867a76abc823b7091caf107c5f25d19ce7fca947f42f0cc18bd447",
    ),
    ("poc2_net", DetailLevel.COMPLETE): (
        "dc882ad2c95c387143f89efb623f892f8d7ee86a6e82a3672e3bc3cf828a32a3",
        "efde22a37aa883be4c34d5edd800132709a3f56d241264379b05ccbdf9e713ae",
    ),
}


@pytest.mark.parametrize("net_fixture", ["poc1_net", "poc2_net"])
@pytest.mark.parametrize("level", LEVELS)
def test_compiled_xml_is_pinned(net_fixture, level, request):
    model = compile_network(request.getfixturevalue(net_fixture), level)
    digests = tuple(
        hashlib.sha256(serialize_model(model, layout=layout)).hexdigest() for layout in (False, True)
    )
    assert digests == XML_SHA256[(net_fixture, level)]


# The same pins for two synthetic networks: MIXED_TREE (six transactions, every
# dependency kind) and a root with two RaD children.
COMPOSED_XML_SHA256 = {
    ("mixed-tree", DetailLevel.HAPPY_FLOW): (
        "09aa6ba0f27434d2eb1f2ee7e96403d6f60df54c17b87a70fd18fee9190dcaca",
        "e95e3dd02d1c39fac5fdbfd02f5ee98fd078fac374a85e27f7b3310ec3a467ac",
    ),
    ("mixed-tree", DetailLevel.WITH_DISSENT): (
        "4bb19b8d241eb310934b6c271c88a8882327d3031ae4a4d8101d74290c16e3f0",
        "dcdbf3861c562a36209359f3af8d8767dccd360de820775251433fec1c59bcfe",
    ),
    ("mixed-tree", DetailLevel.COMPLETE): (
        "f14d3d6b94c9ae1c316e53a6f84475bfb15818d2aa84e1a69cc3a0399617af31",
        "259e7c47c91dec2479a95ce3a022d6f105a5ca4ef940414d31e757f5435cf01e",
    ),
    ("fan2-rad", DetailLevel.HAPPY_FLOW): (
        "934768470d54489a02cd0325e1578ac110f1e390c505d12d342edcc4e2e1b70c",
        "3627ab80d4401ad082693b87aefd4a98882d0beae7c872116b3293a60903e2d7",
    ),
    ("fan2-rad", DetailLevel.WITH_DISSENT): (
        "0e675f3b2e9759d047d58910595692207c691df6c5c45a540f70dbc54711f9ac",
        "ca0a9583e26f4fb4675f962db1a341df20766a13db6678fc0ab7aff166312350",
    ),
    ("fan2-rad", DetailLevel.COMPLETE): (
        "53350b44ac48ec6ddd277a4b5356ad50893d95d73d5116e6bea94a0cee6c96de",
        "a53fdfa4620567ee929f2a1214192387c45ef6385f1a4190fd6b712a5cf97081",
    ),
}

COMPOSED_NETS = {
    "mixed-tree": MIXED_TREE,
    "fan2-rad": _fan_net(DependencyKind.RAD, 2),
}


@pytest.mark.parametrize("net_name", list(COMPOSED_NETS))
@pytest.mark.parametrize("level", LEVELS, ids=lambda level: level.value)
def test_composed_xml_is_pinned(net_name, level):
    model = compile_network(COMPOSED_NETS[net_name], level)
    digests = tuple(
        hashlib.sha256(serialize_model(model, layout=layout)).hexdigest() for layout in (False, True)
    )
    assert digests == COMPOSED_XML_SHA256[(net_name, level)]


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
