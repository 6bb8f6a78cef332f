"""BPMN 2.0 XML serialization and lenient parsing."""

from __future__ import annotations

import hashlib
import xml.etree.ElementTree as ET

import pytest
from hypothesis import given, settings, strategies as st

from demoflow.compiler import DetailLevel, compile_network
from demoflow.model import (
    Association,
    BpmnModel,
    FlowNode,
    MessageFlow,
    NodeKind,
    Pool,
    SequenceFlow,
    lint_model,
)
from demoflow.network import DependencyKind
from demoflow.xmlio import (
    DC_NS,
    DI_NS,
    MODEL_NS,
    TARGET_NS,
    ModelFormatError,
    parse_model,
    serialize_model,
)
from test_model import LINKED_NETS, links
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


def test_duplicate_process_id_is_rejected():
    # keeping only one of them would audit the other's acts as not implemented
    doc = """<definitions xmlns="http://www.omg.org/spec/BPMN/20100524/MODEL" id="d5">
      <collaboration id="c">
        <participant id="pool_a" processRef="proc_a"/>
      </collaboration>
      <process id="proc_a">
        <task id="t1" name="Request order"/>
      </process>
      <process id="proc_a">
        <task id="t2" name="Accept order"/>
      </process>
    </definitions>"""
    with pytest.raises(ModelFormatError, match="^duplicate process id 'proc_a'$"):
        parse_model(doc)


def test_duplicate_process_id_in_a_bare_process_file_is_rejected():
    doc = """<definitions xmlns="http://www.omg.org/spec/BPMN/20100524/MODEL" id="d6">
      <process id="orders"><startEvent id="s1"/></process>
      <process id="orders"><startEvent id="s2"/></process>
    </definitions>"""
    with pytest.raises(ModelFormatError, match="^duplicate process id 'orders'$"):
        parse_model(doc)


def test_process_shared_by_two_participants_is_rejected():
    # reading it into both pools would copy its nodes
    doc = """<definitions xmlns="http://www.omg.org/spec/BPMN/20100524/MODEL" id="d7">
      <collaboration id="c">
        <participant id="pool_a" processRef="proc_a"/>
        <participant id="pool_b" processRef="proc_a"/>
      </collaboration>
      <process id="proc_a">
        <task id="t1" name="Request order"/>
      </process>
    </definitions>"""
    with pytest.raises(
        ModelFormatError,
        match="^process 'proc_a' is referenced by participants 'pool_a' and 'pool_b'$",
    ):
        parse_model(doc)


def test_second_collaboration_is_rejected():
    # reading only the first would drop the second's pools and processes
    doc = """<definitions xmlns="http://www.omg.org/spec/BPMN/20100524/MODEL" id="d8">
      <collaboration id="c1">
        <participant id="pool_a" processRef="proc_a"/>
      </collaboration>
      <collaboration id="c2">
        <participant id="pool_b" processRef="proc_b"/>
      </collaboration>
      <process id="proc_a">
        <task id="t1" name="Request order"/>
      </process>
      <process id="proc_b">
        <task id="t2" name="Accept order"/>
      </process>
    </definitions>"""
    with pytest.raises(ModelFormatError, match="^second collaboration 'c2'$"):
        parse_model(doc)


def test_process_without_participant_is_rejected():
    # with a collaboration, a process no participant references has no pool
    doc = """<definitions xmlns="http://www.omg.org/spec/BPMN/20100524/MODEL" id="d9">
      <collaboration id="c">
        <participant id="pool_a" processRef="proc_a"/>
      </collaboration>
      <process id="proc_a">
        <task id="t1" name="Request order"/>
      </process>
      <process id="proc_b">
        <task id="t2" name="Accept order"/>
      </process>
    </definitions>"""
    with pytest.raises(ModelFormatError, match="^process 'proc_b' is referenced by no participant$"):
        parse_model(doc)


def test_non_xml_input_is_rejected():
    with pytest.raises(ModelFormatError, match="invalid XML"):
        parse_model(b"this is not xml")


def test_wrong_root_element_is_rejected():
    with pytest.raises(ModelFormatError, match="definitions"):
        parse_model("<processes/>")


# --- the text writer and the expat reader against ElementTree references ------
#
# The ElementTree writer that serialize_model replaced, kept as the reference
# for its bytes.  One change: the diagram lays out the pools sorted by id, as
# the processes are written.  The ElementTree reader that parse_model
# replaced, kept as the reference for its records and its errors: it builds
# the whole element tree, then walks it.

_REF_EVENT_KINDS = {
    NodeKind.START_EVENT: "startEvent",
    NodeKind.MESSAGE_START_EVENT: "startEvent",
    NodeKind.END_EVENT: "endEvent",
    NodeKind.TERMINATE_END_EVENT: "endEvent",
    NodeKind.MESSAGE_CATCH: "intermediateCatchEvent",
    NodeKind.COMPENSATION_THROW: "intermediateThrowEvent",
    NodeKind.COMPENSATION_BOUNDARY: "boundaryEvent",
}

_REF_PLAIN_KINDS = {
    NodeKind.TASK: "task",
    NodeKind.SEND_TASK: "sendTask",
    NodeKind.COMPENSATION_HANDLER: "task",
    NodeKind.EXCLUSIVE_GATEWAY: "exclusiveGateway",
    NodeKind.PARALLEL_GATEWAY: "parallelGateway",
    NodeKind.EVENT_BASED_GATEWAY: "eventBasedGateway",
}

_REF_NODE_SIZES = {
    NodeKind.TASK: (100, 80),
    NodeKind.SEND_TASK: (100, 80),
    NodeKind.COMPENSATION_HANDLER: (100, 80),
    NodeKind.EXCLUSIVE_GATEWAY: (50, 50),
    NodeKind.PARALLEL_GATEWAY: (50, 50),
    NodeKind.EVENT_BASED_GATEWAY: (50, 50),
}


def _reference_node(node: FlowNode) -> ET.Element:
    tag = _REF_EVENT_KINDS.get(node.kind) or _REF_PLAIN_KINDS[node.kind]
    element = ET.Element(tag)
    element.set("id", node.id)
    if node.name:
        element.set("name", node.name)
    if node.kind is NodeKind.COMPENSATION_HANDLER:
        element.set("isForCompensation", "true")
    if node.kind is NodeKind.COMPENSATION_BOUNDARY:
        element.set("attachedToRef", node.attached_to or "")
        element.set("cancelActivity", "false")
    if node.kind is NodeKind.MESSAGE_START_EVENT or node.kind is NodeKind.MESSAGE_CATCH:
        ET.SubElement(element, "messageEventDefinition")
    if node.kind is NodeKind.TERMINATE_END_EVENT:
        ET.SubElement(element, "terminateEventDefinition")
    if node.kind is NodeKind.COMPENSATION_BOUNDARY:
        ET.SubElement(element, "compensateEventDefinition")
    if node.kind is NodeKind.COMPENSATION_THROW:
        definition = ET.SubElement(element, "compensateEventDefinition")
        if node.compensates:
            definition.set("activityRef", node.compensates)
    return element


def _reference_layout(root: ET.Element, model: BpmnModel) -> None:
    root.set("xmlns:bpmndi", DI_NS)
    root.set("xmlns:dc", DC_NS)
    diagram = ET.SubElement(root, "bpmndi:BPMNDiagram")
    diagram.set("id", f"diagram_{model.id}")
    plane = ET.SubElement(diagram, "bpmndi:BPMNPlane")
    plane.set("id", f"plane_{model.id}")
    plane.set("bpmnElement", model.id)
    row_height = 320
    for pool_index, pool in enumerate(sorted(model.pools, key=lambda p: p.id)):
        pool_y = 40 + pool_index * row_height
        nodes = sorted(pool.nodes, key=lambda n: n.id)
        shape = ET.SubElement(plane, "bpmndi:BPMNShape")
        shape.set("id", f"shape_{pool.id}")
        shape.set("bpmnElement", pool.id)
        shape.set("isHorizontal", "true")
        bounds = ET.SubElement(shape, "dc:Bounds")
        bounds.set("x", "20")
        bounds.set("y", str(pool_y))
        bounds.set("width", str(80 + 160 * max(1, len(nodes))))
        bounds.set("height", str(row_height - 40))
        for node_index, node in enumerate(nodes):
            width, height = _REF_NODE_SIZES.get(node.kind, (36, 36))
            shape = ET.SubElement(plane, "bpmndi:BPMNShape")
            shape.set("id", f"shape_{node.id}")
            shape.set("bpmnElement", node.id)
            bounds = ET.SubElement(shape, "dc:Bounds")
            bounds.set("x", str(60 + 160 * node_index))
            bounds.set("y", str(pool_y + 120 - height // 2))
            bounds.set("width", str(width))
            bounds.set("height", str(height))


def _reference_serialize(model: BpmnModel, layout: bool = False) -> bytes:
    root = ET.Element("definitions")
    root.set("xmlns", MODEL_NS)
    root.set("id", f"defs_{model.id}")
    root.set("targetNamespace", TARGET_NS)

    collaboration = ET.SubElement(root, "collaboration")
    collaboration.set("id", model.id)
    for pool in sorted(model.pools, key=lambda p: p.id):
        participant = ET.SubElement(collaboration, "participant")
        participant.set("id", pool.id)
        if pool.name:
            participant.set("name", pool.name)
        participant.set("processRef", pool.process_id)
    for flow in sorted(model.message_flows, key=lambda f: f.id):
        element = ET.SubElement(collaboration, "messageFlow")
        element.set("id", flow.id)
        element.set("sourceRef", flow.source)
        element.set("targetRef", flow.target)

    for pool in sorted(model.pools, key=lambda p: p.id):
        process = ET.SubElement(root, "process")
        process.set("id", pool.process_id)
        process.set("isExecutable", "false")
        for node in sorted(pool.nodes, key=lambda n: n.id):
            process.append(_reference_node(node))
        for flow in sorted(pool.flows, key=lambda f: f.id):
            element = ET.SubElement(process, "sequenceFlow")
            element.set("id", flow.id)
            if flow.label:
                element.set("name", flow.label)
            element.set("sourceRef", flow.source)
            element.set("targetRef", flow.target)
        for assoc in sorted(pool.associations, key=lambda a: a.id):
            element = ET.SubElement(process, "association")
            element.set("id", assoc.id)
            element.set("sourceRef", assoc.source)
            element.set("targetRef", assoc.target)

    if layout:
        _reference_layout(root, model)

    tree = ET.ElementTree(root)
    ET.indent(tree, space="  ")
    return ET.tostring(root, encoding="utf-8", xml_declaration=True) + b"\n"


class _RefLocalNames(dict):
    """Qualified tag -> local name, filled on first use."""

    def __missing__(self, tag: str) -> str:
        local = self[tag] = tag.rsplit("}", 1)[-1]
        return local


_REF_FIXED_KINDS = {
    "intermediateCatchEvent": NodeKind.MESSAGE_CATCH,
    "receiveTask": NodeKind.MESSAGE_CATCH,
    "boundaryEvent": NodeKind.COMPENSATION_BOUNDARY,
    "sendTask": NodeKind.SEND_TASK,
    "exclusiveGateway": NodeKind.EXCLUSIVE_GATEWAY,
    "parallelGateway": NodeKind.PARALLEL_GATEWAY,
    "inclusiveGateway": NodeKind.PARALLEL_GATEWAY,
    "eventBasedGateway": NodeKind.EVENT_BASED_GATEWAY,
    **dict.fromkeys(
        ("task", "userTask", "serviceTask", "manualTask", "scriptTask",
         "businessRuleTask", "callActivity", "subProcess"),
        NodeKind.TASK,
    ),
}

_REF_DEFINED_KINDS = {
    "startEvent": ("messageEventDefinition", NodeKind.MESSAGE_START_EVENT, NodeKind.START_EVENT),
    "endEvent": ("terminateEventDefinition", NodeKind.TERMINATE_END_EVENT, NodeKind.END_EVENT),
}

_REF_FLOW_NODE_TAGS = {*_REF_FIXED_KINDS, *_REF_DEFINED_KINDS, "intermediateThrowEvent"}

_REF_IGNORED_TAGS = {
    "documentation", "extensionElements", "laneSet", "lane",
    "dataObject", "dataObjectReference", "dataStoreReference",
    "ioSpecification", "property", "textAnnotation", "group",
}


def _reference_parse_node(element: ET.Element, tag: str, local: _RefLocalNames) -> FlowNode:
    get = element.get
    kind = _REF_FIXED_KINDS.get(tag)
    if kind is NodeKind.TASK:
        if get("isForCompensation") == "true":
            kind = NodeKind.COMPENSATION_HANDLER
    elif kind is NodeKind.COMPENSATION_BOUNDARY:
        return FlowNode(get("id", ""), kind, get("name", ""), attached_to=get("attachedToRef") or None)
    elif kind is None:
        if tag == "intermediateThrowEvent":
            compensates = None
            for child in element:
                if local[child.tag] == "compensateEventDefinition":
                    compensates = child.get("activityRef")
            return FlowNode(
                get("id", ""), NodeKind.COMPENSATION_THROW, get("name", ""), compensates=compensates
            )
        definition, special, plain = _REF_DEFINED_KINDS[tag]
        kind = special if any(local[child.tag] == definition for child in element) else plain
    return FlowNode(get("id", ""), kind, get("name", ""))


def _reference_parse(source) -> BpmnModel:
    try:
        root = ET.fromstring(source)
    except ET.ParseError as exc:
        raise ModelFormatError(f"invalid XML: {exc}") from exc
    local = _RefLocalNames()
    if local[root.tag] != "definitions":
        raise ModelFormatError(f"expected <definitions> root, got <{local[root.tag]}>")

    collaboration = None
    processes: dict[str, ET.Element] = {}
    for child in root:
        tag = local[child.tag]
        if tag == "collaboration":
            if collaboration is not None:
                raise ModelFormatError(f"second collaboration {child.get('id', '')!r}")
            collaboration = child
        elif tag == "process":
            process_id = child.get("id", "")
            if process_id in processes:
                raise ModelFormatError(f"duplicate process id {process_id!r}")
            processes[process_id] = child

    model = BpmnModel(id="collaboration")
    participants = []
    if collaboration is not None:
        model.id = collaboration.get("id", "collaboration")
        for child in collaboration:
            tag = local[child.tag]
            if tag == "participant":
                participants.append(child)
            elif tag == "messageFlow":
                get = child.get
                model.message_flows.append(
                    MessageFlow(get("id", ""), get("sourceRef", ""), get("targetRef", ""))
                )
    else:
        for process_id in processes:
            participant = ET.Element("participant")
            participant.set("id", f"pool_{process_id}")
            participant.set("processRef", process_id)
            participants.append(participant)

    pool_of_process: dict[str, str] = {}
    for participant in participants:
        process_id = participant.get("processRef", "")
        pool_id = participant.get("id", "")
        process = processes.get(process_id)
        if process is None:
            raise ModelFormatError(f"participant {pool_id} references missing process {process_id}")
        if process_id in pool_of_process:
            raise ModelFormatError(
                f"process {process_id!r} is referenced by participants "
                f"{pool_of_process[process_id]!r} and {pool_id!r}"
            )
        pool_of_process[process_id] = pool_id
        pool = Pool(
            id=pool_id,
            process_id=process_id,
            name=participant.get("name", ""),
            actor_id=pool_id.removeprefix("pool_"),
        )
        for child in process:
            tag = local[child.tag]
            get = child.get
            if tag == "sequenceFlow":
                pool.flows.append(
                    SequenceFlow(
                        get("id", ""), get("sourceRef", ""), get("targetRef", ""), get("name", "")
                    )
                )
            elif tag in _REF_FLOW_NODE_TAGS:
                pool.nodes.append(_reference_parse_node(child, tag, local))
            elif tag == "association":
                pool.associations.append(
                    Association(get("id", ""), get("sourceRef", ""), get("targetRef", ""))
                )
            elif tag not in _REF_IGNORED_TAGS:
                raise ModelFormatError(f"unsupported flow element <{tag}>")
        model.pools.append(pool)

    unreferenced = next((p for p in processes if p not in pool_of_process), None)
    if unreferenced is not None:
        raise ModelFormatError(f"process {unreferenced!r} is referenced by no participant")
    return model


def _read(reader, source):
    """What ``reader`` makes of ``source``: its model, or its error's type and message."""
    try:
        return reader(source)
    except (ValueError, LookupError) as exc:
        return f"{type(exc).__name__}: {exc}"


def _read_like_the_reference(source):
    """The model or error parse_model gives, which must be the reference's."""
    read = _read(parse_model, source)
    assert read == _read(_reference_parse, source)
    return read


def _assert_matches_reference(model: BpmnModel) -> None:
    """With and without the diagram, ``model`` is written as the reference
    writer writes it and read back as the reference reader reads it."""
    for layout in (False, True):
        data = serialize_model(model, layout=layout)
        assert data == _reference_serialize(model, layout=layout)
        _read_like_the_reference(data)


def _every_kind_model() -> BpmnModel:
    nodes = [FlowNode(f"n_{kind.value}", kind, name=f"a {kind.value}") for kind in NodeKind]
    nodes += [
        FlowNode("n_boundary_attached", NodeKind.COMPENSATION_BOUNDARY, attached_to="n_task"),
        FlowNode("n_throw_targeted", NodeKind.COMPENSATION_THROW, compensates="n_task"),
    ]
    pool = Pool(
        id="pool_k",
        process_id="proc_k",
        name="Kinds",
        actor_id="k",
        nodes=nodes,
        flows=[SequenceFlow("f2", "n_task", "n_end", "accept"), SequenceFlow("f1", "n_start", "n_task")],
        associations=[Association("as1", "n_boundary_attached", "n_handler")],
    )
    return BpmnModel(id="kinds", pools=[pool, Pool("pool_empty", "proc_empty", "", "empty")])


def test_every_node_kind_matches_the_reference():
    model = _every_kind_model()
    kinds = {node.kind for node in model.all_nodes()}
    assert kinds == set(NodeKind)
    boundary = next(n for n in model.all_nodes() if n.id == "n_boundary")
    throw = next(n for n in model.all_nodes() if n.id == "n_throw")
    assert boundary.attached_to is None and throw.compensates is None
    _assert_matches_reference(model)


def test_every_node_kind_reads_back():
    model = _every_kind_model()
    parsed = parse_model(serialize_model(model))
    # the reader lists what the writer wrote, in id order
    assert [p.id for p in parsed.pools] == sorted(p.id for p in model.pools)
    for pool, back in zip(sorted(model.pools, key=lambda p: p.id), parsed.pools):
        assert back.nodes == sorted(pool.nodes, key=lambda n: n.id)
        assert back.flows == sorted(pool.flows, key=lambda f: f.id)
        assert back.associations == pool.associations
        assert (back.id, back.process_id, back.name) == (pool.id, pool.process_id, pool.name)


@pytest.mark.parametrize("net_name", ["poc2", *LINKED_NETS])
@pytest.mark.parametrize("level", LEVELS, ids=lambda level: level.value)
def test_parsed_links_equal_the_compiled_ones(net_name, level, poc2_net):
    model = compile_network(poc2_net if net_name == "poc2" else LINKED_NETS[net_name], level)
    parsed = _read_like_the_reference(serialize_model(model))
    assert all(link._id is None for link in links(parsed))
    assert parsed.message_flows == sorted(model.message_flows, key=lambda f: f.id)
    for pool, back in zip(sorted(model.pools, key=lambda p: p.id), parsed.pools):
        assert back.flows == sorted(pool.flows, key=lambda f: f.id)
        assert back.associations == sorted(pool.associations, key=lambda a: a.id)


def test_foreign_link_ids_round_trip():
    nodes = [
        FlowNode("s", NodeKind.START_EVENT),
        FlowNode("t", NodeKind.TASK),
        FlowNode("b", NodeKind.COMPENSATION_BOUNDARY, attached_to="t"),
        FlowNode("h", NodeKind.COMPENSATION_HANDLER),
        FlowNode("e", NodeKind.END_EVENT),
    ]
    pool = Pool(
        "pool_a", "proc_a", "A", "a", nodes=nodes,
        flows=[SequenceFlow("f1", "s", "t"), SequenceFlow("", "t", "e", "go")],
        associations=[Association("", "b", "h")],
    )
    other = Pool("pool_b", "proc_b", "B", "b", nodes=[FlowNode("c", NodeKind.MESSAGE_START_EVENT)])
    model = BpmnModel("m", pools=[pool, other], message_flows=[MessageFlow("", "t", "c")])
    data = serialize_model(model)
    assert b'<sequenceFlow id="f1" sourceRef="s" targetRef="t" />' in data
    assert b'<sequenceFlow id="" name="go" sourceRef="t" targetRef="e" />' in data
    assert b'<association id="" sourceRef="b" targetRef="h" />' in data
    assert b'<messageFlow id="" sourceRef="t" targetRef="c" />' in data
    parsed = parse_model(data)
    assert sorted(link._id for link in links(parsed)) == ["", "", "", "f1"]
    assert serialize_model(parsed) == data
    _assert_matches_reference(model)


def test_links_sharing_an_id_keep_their_order():
    # the writer sorts by id alone: links with one id stay in model order,
    # and no two records are compared
    nodes = [FlowNode(node_id, NodeKind.TASK) for node_id in "abcd"]
    flows = [SequenceFlow("f", "c", "d"), SequenceFlow("f", "a", "b"), SequenceFlow(None, "a", "d")]
    for order in (flows, flows[::-1]):
        data = serialize_model(BpmnModel("m", pools=[Pool("pool_a", "proc_a", "A", "a", nodes, order)]))
        written = [line.strip() for line in data.decode().splitlines() if "<sequenceFlow" in line]
        same_id = [f'id="f" sourceRef="{f.source}" targetRef="{f.target}"' for f in order if f.id == "f"]
        assert written == [f"<sequenceFlow {attrs} />" for attrs in same_id] + [
            '<sequenceFlow id="sf_a__d" sourceRef="a" targetRef="d" />'
        ]


def test_empty_collaboration_and_empty_pool_match_the_reference():
    empty = BpmnModel(id="nothing")
    assert b'<collaboration id="nothing" />' in serialize_model(empty)
    assert b'<bpmndi:BPMNPlane id="plane_nothing" bpmnElement="nothing" />' in serialize_model(
        empty, layout=True
    )
    _assert_matches_reference(empty)
    bare = BpmnModel(id="bare", pools=[Pool("pool_b", "proc_b", "", "b")])
    assert b'<process id="proc_b" isExecutable="false" />' in serialize_model(bare)
    _assert_matches_reference(bare)


@pytest.mark.parametrize("net_fixture", ["solo_net", "poc1_net", "poc2_net"])
@pytest.mark.parametrize("level", LEVELS, ids=lambda level: level.value)
def test_every_fixture_matches_the_reference(net_fixture, level, request):
    model = compile_network(request.getfixturevalue(net_fixture), level)
    _assert_matches_reference(model)
    _assert_matches_reference(parse_model(serialize_model(model, layout=True)))


@pytest.mark.parametrize("net_name", list(COMPOSED_NETS))
@pytest.mark.parametrize("level", LEVELS, ids=lambda level: level.value)
def test_composed_networks_match_the_reference(net_name, level):
    _assert_matches_reference(compile_network(COMPOSED_NETS[net_name], level))


# Names and labels built from the characters XML escapes, non-ASCII text, lone
# surrogates (written as character references) and any other character but
# tab, LF and CR, whose escapes are pinned below.  A document holding a
# character XML cannot carry gives both readers the same error.
_TEXT = st.text(
    st.sampled_from(list("&<>\"'€⁻¹ a\ud800"))
    | st.characters(blacklist_categories=(), blacklist_characters="\t\n\r"),
    max_size=12,
)


@settings(max_examples=200, deadline=None)
@given(model_id=_TEXT, pool_name=_TEXT, names=st.lists(_TEXT, min_size=3, max_size=3), label=_TEXT)
def test_names_and_labels_match_the_reference(model_id, pool_name, names, label):
    pool = Pool(
        id="pool_x",
        process_id="proc_x",
        name=pool_name,
        actor_id="x",
        nodes=[
            FlowNode("s", NodeKind.START_EVENT, name=names[0]),
            FlowNode("t", NodeKind.TASK, name=names[1]),
            FlowNode("e", NodeKind.TERMINATE_END_EVENT, name=names[2]),
            FlowNode("b", NodeKind.COMPENSATION_BOUNDARY, attached_to=names[1]),
            FlowNode("c", NodeKind.COMPENSATION_THROW, compensates=names[2]),
        ],
        flows=[SequenceFlow("f1", "s", "t", label=label), SequenceFlow(label, names[0], names[1])],
        associations=[Association(names[2], label, pool_name)],
    )
    other = Pool(id=label, process_id=names[0], name=names[1], actor_id="y")
    model = BpmnModel(
        id=model_id, pools=[pool, other], message_flows=[MessageFlow(names[1], names[2], label)]
    )
    _assert_matches_reference(model)


def test_tab_newline_and_carriage_return_escapes_are_pinned():
    pool = Pool(
        id="pool_w",
        process_id="proc_w",
        name="tab\there",
        actor_id="w",
        nodes=[FlowNode("t", NodeKind.TASK, name="two\nlines\r\nand & <more>")],
    )
    data = serialize_model(BpmnModel(id="ws", pools=[pool]))
    assert b'<participant id="pool_w" name="tab&#09;here" processRef="proc_w" />' in data
    assert b'<task id="t" name="two&#10;lines&#13;&#10;and &amp; &lt;more&gt;" />' in data
    reparsed = parse_model(data)
    assert reparsed.pools[0].name == "tab\there"
    assert reparsed.pools[0].nodes[0].name == "two\nlines\r\nand & <more>"
    assert serialize_model(reparsed) == data


def test_layout_lists_pools_by_id(poc2_net):
    model = compile_network(poc2_net, DetailLevel.WITH_DISSENT)
    assert [p.id for p in model.pools] == sorted(p.id for p in model.pools)
    reversed_pools = BpmnModel(
        id=model.id, pools=model.pools[::-1], message_flows=model.message_flows
    )
    laid = serialize_model(reversed_pools, layout=True)
    assert laid == serialize_model(model, layout=True)
    assert serialize_model(parse_model(laid), layout=True) == laid
    assert serialize_model(reversed_pools) == serialize_model(model)


# --- foreign and multi-defect documents against the reference reader --------

_DEFS = f'<definitions xmlns="{MODEL_NS}" id="d"'

# Documents written by other tools, each with what it must read as: the pool
# ids and, per pool, its nodes' (id, kind value) and its flows' ids.
FOREIGN_DOCUMENTS = {
    "bare process": (
        f"""{_DEFS}>
          <process id="orders">
            <startEvent id="s"/><endEvent id="e"/>
            <sequenceFlow id="f" sourceRef="s" targetRef="e"/>
          </process>
          <process id="billing"><task id="t"/></process>
        </definitions>""",
        ["pool_orders", "pool_billing"],
    ),
    "receiveTask and other flavours": (
        f"""{_DEFS}>
          <process id="p">
            <receiveTask id="r"/><userTask id="u" isForCompensation="true"/>
            <callActivity id="c"/><inclusiveGateway id="g"/><task id="t" isForCompensation="false"/>
            <boundaryEvent id="b" attachedToRef=""/><boundaryEvent id="b2" attachedToRef="t"/>
            <association sourceRef="b2" targetRef="u"/>
          </process>
        </definitions>""",
        ["pool_p"],
    ),
    "subProcess with nested flow elements": (
        f"""{_DEFS}>
          <process id="p">
            <startEvent id="s"/>
            <subProcess id="sub" name="inner">
              <startEvent id="inner_s"><messageEventDefinition/></startEvent>
              <adHocSubProcess id="odd"/>
              <sequenceFlow id="inner_f" sourceRef="inner_s" targetRef="inner_e"/>
              <endEvent id="inner_e"/>
            </subProcess>
            <sequenceFlow id="f" sourceRef="s" targetRef="sub"/>
          </process>
        </definitions>""",
        ["pool_p"],
    ),
    "lanes, documentation and extensionElements": (
        f"""{_DEFS} xmlns:ext="urn:ext">
          <documentation>a model</documentation>
          <collaboration id="c">
            <documentation>the parties</documentation>
            <participant id="pool_a" name="A" processRef="p"><participantMultiplicity minimum="1"/></participant>
            <messageFlow id="m" sourceRef="t" targetRef="x"><documentation>order</documentation></messageFlow>
            <messageFlow sourceRef="t" targetRef="y"/>
          </collaboration>
          <process id="p">
            <documentation>the process</documentation>
            <extensionElements><ext:thing id="t9"/><task id="not_a_node"/></extensionElements>
            <laneSet id="ls"><lane id="l1"><flowNodeRef>t</flowNodeRef></lane></laneSet>
            <task id="t" name="Request"><documentation>the request</documentation></task>
            <endEvent id="e"><documentation/><terminateEventDefinition/></endEvent>
            <intermediateThrowEvent id="th"><compensateEventDefinition activityRef="t"/></intermediateThrowEvent>
            <intermediateThrowEvent id="th2"><compensateEventDefinition activityRef="t"/><compensateEventDefinition/></intermediateThrowEvent>
            <intermediateThrowEvent id="th3"><compensateEventDefinition activityRef=""/></intermediateThrowEvent>
            <dataObject id="do"/><textAnnotation id="ta"><text>note</text></textAnnotation>
            <sequenceFlow id="f" name="go" sourceRef="t" targetRef="e"><conditionExpression>x</conditionExpression></sequenceFlow>
          </process>
        </definitions>""",
        ["pool_a"],
    ),
    "prefixed namespaces": (
        f"""<bpmn:definitions xmlns:bpmn="{MODEL_NS}" xmlns:x="urn:x" id="d">
          <bpmn:collaboration id="c">
            <bpmn:participant id="pool_a" processRef="p" x:name="not the name"/>
          </bpmn:collaboration>
          <bpmn:process id="p">
            <bpmn:startEvent id="s"><bpmn:messageEventDefinition/></bpmn:startEvent>
            <x:endEvent id="e"/>
            <bpmn:sequenceFlow id="f" sourceRef="s" targetRef="e" x:name="not a label"/>
          </bpmn:process>
        </bpmn:definitions>""",
        ["pool_a"],
    ),
    "process after the diagram": (
        f"""{_DEFS} xmlns:bpmndi="{DI_NS}" xmlns:dc="{DC_NS}">
          <collaboration id="c"><participant id="pool_a" processRef="p"/></collaboration>
          <bpmndi:BPMNDiagram id="dia">
            <bpmndi:BPMNPlane id="plane" bpmnElement="c">
              <bpmndi:BPMNShape id="shape_t" bpmnElement="t"><dc:Bounds x="0" y="0" width="1" height="1"/></bpmndi:BPMNShape>
              <task id="diagram_task"/><process id="diagram_process"/>
            </bpmndi:BPMNPlane>
          </bpmndi:BPMNDiagram>
          <process id="p"><task id="t"/><startEvent id="s"/></process>
        </definitions>""",
        ["pool_a"],
    ),
    "no namespace": (
        """<definitions><process id="p"><task id="t"/><sequenceFlow/></process></definitions>""",
        ["pool_p"],
    ),
    "ISO-8859-1 text": (
        f"""<?xml version="1.0" encoding="ISO-8859-1"?>
        {_DEFS}><process id="p"><task id="t" name="Café €"/></process></definitions>""",
        ["pool_p"],
    ),
    "ISO-8859-1 bytes": (
        f"""<?xml version="1.0" encoding="ISO-8859-1"?>
        {_DEFS}><process id="p"><task id="t" name="Café"/></process></definitions>""".encode("latin-1"),
        ["pool_p"],
    ),
}


@pytest.mark.parametrize("name", list(FOREIGN_DOCUMENTS))
def test_foreign_documents_read_like_the_reference(name):
    source, pool_ids = FOREIGN_DOCUMENTS[name]
    model = _read_like_the_reference(source)
    assert [pool.id for pool in model.pools] == pool_ids


def test_a_text_document_is_read_as_unicode_whatever_it_declares():
    source, _ = FOREIGN_DOCUMENTS["ISO-8859-1 text"]
    assert parse_model(source).pools[0].nodes[0].name == "Café €"


def test_foreign_records_are_read_as_the_reference_reads_them():
    model = _read_like_the_reference(FOREIGN_DOCUMENTS["lanes, documentation and extensionElements"][0])
    assert model.message_flows == [MessageFlow("m", "t", "x"), MessageFlow("", "t", "y")]
    nodes = {node.id: node for node in model.pools[0].nodes}
    assert list(nodes) == ["t", "e", "th", "th2", "th3"]
    assert nodes["e"].kind is NodeKind.TERMINATE_END_EVENT
    assert [nodes[n].compensates for n in ("th", "th2", "th3")] == ["t", None, ""]
    nested = _read_like_the_reference(FOREIGN_DOCUMENTS["subProcess with nested flow elements"][0])
    assert [(n.id, n.kind) for n in nested.pools[0].nodes] == [
        ("s", NodeKind.START_EVENT), ("sub", NodeKind.TASK)
    ]
    assert [f.id for f in nested.pools[0].flows] == ["f"]


# Documents both readers refuse, each with the message they refuse it with.
REFUSED_DOCUMENTS = {
    "wrong root, then malformed": (
        "<processes><process id='p'></processes>",
        "invalid XML: mismatched tag: line 1, column 29",
    ),
    "wrong root holding duplicate processes": (
        "<processes><process id='p'/><process id='p'/></processes>",
        "expected <definitions> root, got <processes>",
    ),
    "duplicate process, then a malformed tail": (
        f"{_DEFS}><process id='p'/><process id='p'/></definitions><oops",
        "invalid XML: junk after document element: line 1, column 120",
    ),
    "unsupported element, then a duplicate process": (
        f"""{_DEFS}><process id="p"><adHocSubProcess id="x"/></process><process id="p"/></definitions>""",
        "duplicate process id 'p'",
    ),
    "second collaboration, then a duplicate process": (
        f"""{_DEFS}><collaboration id="c1"/><process id="p"/><collaboration id="c2"/>
        <process id="p"/></definitions>""",
        "second collaboration 'c2'",
    ),
    "duplicate process, then a second collaboration": (
        f"""{_DEFS}><collaboration id="c1"/><process id="p"/><process id="p"/>
        <collaboration/></definitions>""",
        "duplicate process id 'p'",
    ),
    "missing process, then an unsupported element": (
        f"""{_DEFS}><collaboration id="c"><participant id="pool_a" processRef="gone"/>
        <participant id="pool_b" processRef="b"/></collaboration>
        <process id="b"><adHocSubProcess id="x"/></process></definitions>""",
        "participant pool_a references missing process gone",
    ),
    "unsupported element, then a missing process": (
        f"""{_DEFS}><collaboration id="c"><participant id="pool_b" processRef="b"/>
        <participant id="pool_a" processRef="gone"/></collaboration>
        <process id="b"><startEvent id="s"/><messageEventDefinition/><lane/></process></definitions>""",
        "unsupported flow element <messageEventDefinition>",
    ),
    "unsupported element in an unreferenced process": (
        f"""{_DEFS}><collaboration id="c"/><process id="b"><adHocSubProcess/></process></definitions>""",
        "process 'b' is referenced by no participant",
    ),
    "undeclared entity with an external DTD": (
        '<!DOCTYPE definitions SYSTEM "bpmn.dtd"><definitions><task>&nbsp;</task></definitions>',
        "invalid XML: undefined entity &nbsp;: line 1, column 59",
    ),
    "external entity": (
        '<!DOCTYPE definitions [<!ENTITY ext SYSTEM "part.xml"><!ENTITY in "x&ext;">]>\n'
        "<definitions>\n  <process>&in;</process></definitions>",
        "invalid XML: undefined entity &ext;: line 3, column 11",
    ),
    "long undeclared entity name": (
        f'<!DOCTYPE d SYSTEM "d.dtd"><d>&{"é" * 60};</d>',
        "invalid XML: undefined entity &" + "é" * 49 + "�: line 1, column 30",
    ),
    "undeclared entity in a standalone document": (
        '<?xml version="1.0" standalone="yes"?><!DOCTYPE d SYSTEM "d.dtd"><d>&x;</d>',
        "invalid XML: undefined entity: line 1, column 68",
    ),
}


@pytest.mark.parametrize("name", list(REFUSED_DOCUMENTS))
def test_refused_documents_read_like_the_reference(name):
    source, message = REFUSED_DOCUMENTS[name]
    assert _read_like_the_reference(source) == f"ModelFormatError: {message}"


def test_an_undeclared_parameter_entity_is_not_an_error():
    source = '<!DOCTYPE definitions [%external;]><definitions><process id="p"/></definitions>'
    assert [pool.id for pool in _read_like_the_reference(source).pools] == ["pool_p"]


@pytest.mark.parametrize(
    "source",
    [b'<?xml version="1.0" encoding="no-such-codec"?><definitions/>', "<definitions id='\ud800'/>"],
    ids=["unknown encoding", "lone surrogate"],
)
def test_input_expat_cannot_decode_fails_as_with_the_reference(source):
    assert not isinstance(_read_like_the_reference(source), BpmnModel)
