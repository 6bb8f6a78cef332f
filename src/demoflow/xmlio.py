"""BPMN 2.0 XML serialization and parsing.

Serialization is canonical: pools, nodes, flows and message flows are written
sorted by id, and so are the optional diagram's rows of shapes; attributes in
a fixed order, two-space indentation, no timestamps — so
serialize(parse(serialize(m))) is byte-identical to serialize(m), with or
without the diagram, and two compilation runs of the same network produce the
same file.  The writer emits the document directly as lines of text, with a
fixed attribute escaping (``& < > " CR LF tab`` as ``&amp; &lt; &gt; &quot;
&#13; &#10; &#09;``, in that order) and characters that UTF-8 cannot encode as
character references, whatever the Python version's ElementTree does.

Parsing is lenient: it accepts any BPMN 2.0 interchange document, ignores
elements outside the supported subset (lanes, data objects, documentation,
diagram interchange) and maps foreign task flavours onto the nearest
supported kind, which is what the coverage auditor needs to read real-world
models.
"""

from __future__ import annotations

import xml.etree.ElementTree as ET
from operator import attrgetter, itemgetter
from typing import Iterable, TypeVar, Union

from .model import (
    Association,
    BpmnModel,
    FlowNode,
    MessageFlow,
    NodeKind,
    Pool,
    SequenceFlow,
)

MODEL_NS = "http://www.omg.org/spec/BPMN/20100524/MODEL"
DI_NS = "http://www.omg.org/spec/BPMN/20100524/DI"
DC_NS = "http://www.omg.org/spec/DD/20100524/DC"
TARGET_NS = "http://demoflow.dev/bpmn"


class ModelFormatError(ValueError):
    pass


# BPMN tag, the fixed attributes after id and name (a boundary event writes its
# attachedToRef first), and the one empty child element, if any, of each kind.
_NODE_FORMS = {
    NodeKind.START_EVENT: ("startEvent", "", ""),
    NodeKind.MESSAGE_START_EVENT: ("startEvent", "", "messageEventDefinition"),
    NodeKind.END_EVENT: ("endEvent", "", ""),
    NodeKind.TERMINATE_END_EVENT: ("endEvent", "", "terminateEventDefinition"),
    NodeKind.MESSAGE_CATCH: ("intermediateCatchEvent", "", "messageEventDefinition"),
    NodeKind.COMPENSATION_THROW: ("intermediateThrowEvent", "", "compensateEventDefinition"),
    NodeKind.COMPENSATION_BOUNDARY: ("boundaryEvent", ' cancelActivity="false"', "compensateEventDefinition"),
    NodeKind.TASK: ("task", "", ""),
    NodeKind.SEND_TASK: ("sendTask", "", ""),
    NodeKind.COMPENSATION_HANDLER: ("task", ' isForCompensation="true"', ""),
    NodeKind.EXCLUSIVE_GATEWAY: ("exclusiveGateway", "", ""),
    NodeKind.PARALLEL_GATEWAY: ("parallelGateway", "", ""),
    NodeKind.EVENT_BASED_GATEWAY: ("eventBasedGateway", "", ""),
}

_by_id = attrgetter("id")

_LinkT = TypeVar("_LinkT", SequenceFlow, MessageFlow, Association)


def _id_order(links: Iterable[_LinkT]) -> list[tuple[str, _LinkT]]:
    """Each link with its id, formed once, sorted by id; links sharing an id
    keep their order, and records are never compared."""
    return sorted([(link.id, link) for link in links], key=itemgetter(0))


_NODE_SIZES = {
    NodeKind.TASK: (100, 80),
    NodeKind.SEND_TASK: (100, 80),
    NodeKind.COMPENSATION_HANDLER: (100, 80),
    NodeKind.EXCLUSIVE_GATEWAY: (50, 50),
    NodeKind.PARALLEL_GATEWAY: (50, 50),
    NodeKind.EVENT_BASED_GATEWAY: (50, 50),
}

_ESCAPES = (("&", "&amp;"), ("<", "&lt;"), (">", "&gt;"), ('"', "&quot;"),
            ("\r", "&#13;"), ("\n", "&#10;"), ("\t", "&#09;"))


def _attr(text: str) -> str:
    """Escape an attribute value as ElementTree does, in this order."""
    # the chained tests are the fast path: most values need no escaping
    if ("&" in text or "<" in text or ">" in text or '"' in text
            or "\r" in text or "\n" in text or "\t" in text):
        for char, entity in _ESCAPES:
            text = text.replace(char, entity)
    return text


def _ends(flow: Union[SequenceFlow, MessageFlow, Association]) -> str:
    return f' sourceRef="{_attr(flow.source)}" targetRef="{_attr(flow.target)}"'


def _named(attrs: str, name: str) -> str:
    return f'{attrs} name="{_attr(name)}"' if name else attrs


def _element(lines: list[str], indent: str, tag: str, attrs: str, children: list[str]) -> None:
    """Append ``<tag attrs>`` around already indented child lines, or ``<tag attrs />``."""
    if children:
        lines.append(f"{indent}<{tag}{attrs}>")
        lines += children
        lines.append(f"{indent}</{tag}>")
    else:
        lines.append(f"{indent}<{tag}{attrs} />")


def _node_lines(lines: list[str], node: FlowNode) -> None:
    tag, fixed, child = _NODE_FORMS[node.kind]
    attrs = _named(f' id="{_attr(node.id)}"', node.name)
    if node.kind is NodeKind.COMPENSATION_BOUNDARY:
        attrs += f' attachedToRef="{_attr(node.attached_to or "")}"'
    if node.kind is NodeKind.COMPENSATION_THROW and node.compensates:
        child += f' activityRef="{_attr(node.compensates)}"'
    _element(lines, "    ", tag, attrs + fixed, [f"      <{child} />"] if child else [])


def _shape(element: str, extra: str, x: int, y: int, width: int, height: int) -> tuple[str, ...]:
    return (
        f'      <bpmndi:BPMNShape id="shape_{element}" bpmnElement="{element}"{extra}>',
        f'        <dc:Bounds x="{x}" y="{y}" width="{width}" height="{height}" />',
        "      </bpmndi:BPMNShape>",
    )


def _layout_lines(lines: list[str], model_id: str, pools: list[tuple[Pool, list[FlowNode]]]) -> None:
    """A rough deterministic grid diagram: one row of shapes per pool, by pool id."""
    row_height = 320
    shapes: list[str] = []
    for pool_index, (pool, nodes) in enumerate(pools):
        pool_y = 40 + pool_index * row_height
        pool_width = 80 + 160 * max(1, len(nodes))
        shapes += _shape(_attr(pool.id), ' isHorizontal="true"', 20, pool_y, pool_width, row_height - 40)
        for node_index, node in enumerate(nodes):
            width, height = _NODE_SIZES.get(node.kind, (36, 36))
            x, y = 60 + 160 * node_index, pool_y + 120 - height // 2
            shapes += _shape(_attr(node.id), "", x, y, width, height)
    lines.append(f'  <bpmndi:BPMNDiagram id="diagram_{model_id}">')
    _element(lines, "    ", "bpmndi:BPMNPlane", f' id="plane_{model_id}" bpmnElement="{model_id}"', shapes)
    lines.append("  </bpmndi:BPMNDiagram>")


def serialize_model(model: BpmnModel, layout: bool = False) -> bytes:
    model_id = _attr(model.id)
    pools = [(pool, sorted(pool.nodes, key=_by_id)) for pool in sorted(model.pools, key=_by_id)]
    namespaces = f' xmlns:bpmndi="{DI_NS}" xmlns:dc="{DC_NS}"' if layout else ""
    lines = [
        "<?xml version='1.0' encoding='utf-8'?>",
        f'<definitions xmlns="{MODEL_NS}" id="defs_{model_id}" targetNamespace="{TARGET_NS}"{namespaces}>',
    ]

    members: list[str] = []
    for pool, _ in pools:
        attrs = _named(f' id="{_attr(pool.id)}"', pool.name)
        members.append(f'    <participant{attrs} processRef="{_attr(pool.process_id)}" />')
    for flow_id, flow in _id_order(model.message_flows):
        members.append(f'    <messageFlow id="{_attr(flow_id)}"{_ends(flow)} />')
    _element(lines, "  ", "collaboration", f' id="{model_id}"', members)

    for pool, nodes in pools:
        body: list[str] = []
        for node in nodes:
            _node_lines(body, node)
        for flow_id, flow in _id_order(pool.flows):
            attrs = _named(f' id="{_attr(flow_id)}"', flow.label)
            body.append(f"    <sequenceFlow{attrs}{_ends(flow)} />")
        for assoc_id, assoc in _id_order(pool.associations):
            body.append(f'    <association id="{_attr(assoc_id)}"{_ends(assoc)} />')
        _element(lines, "  ", "process", f' id="{_attr(pool.process_id)}" isExecutable="false"', body)

    if layout:
        _layout_lines(lines, model_id, pools)
    lines.append("</definitions>\n")
    return "\n".join(lines).encode("utf-8", "xmlcharrefreplace")


class _LocalNames(dict):
    """Qualified tag -> local name, filled on first use; one per parse, so
    each distinct tag is split once."""

    def __missing__(self, tag: str) -> str:
        local = self[tag] = tag.rsplit("}", 1)[-1]
        return local


# Tags whose element is a node of one kind whatever its children are.  A
# task-like tag with isForCompensation="true" is a compensation handler.
_FIXED_KINDS = {
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

# Event tags whose kind depends on an event definition child: the child that
# makes the special kind, the special kind and the plain kind.
_DEFINED_KINDS = {
    "startEvent": ("messageEventDefinition", NodeKind.MESSAGE_START_EVENT, NodeKind.START_EVENT),
    "endEvent": ("terminateEventDefinition", NodeKind.TERMINATE_END_EVENT, NodeKind.END_EVENT),
}

_FLOW_NODE_TAGS = {*_FIXED_KINDS, *_DEFINED_KINDS, "intermediateThrowEvent"}

# Process children that carry no control flow and are safe to ignore.
_IGNORED_TAGS = {
    "documentation", "extensionElements", "laneSet", "lane",
    "dataObject", "dataObjectReference", "dataStoreReference",
    "ioSpecification", "property", "textAnnotation", "group",
}


def _parse_node(element: ET.Element, tag: str, local: _LocalNames) -> FlowNode:
    """The node for a flow element whose local tag is in ``_FLOW_NODE_TAGS``;
    its children are read only when they decide its kind or target."""
    get = element.get
    kind = _FIXED_KINDS.get(tag)
    if kind is NodeKind.TASK:
        if get("isForCompensation") == "true":
            kind = NodeKind.COMPENSATION_HANDLER
    elif kind is NodeKind.COMPENSATION_BOUNDARY:
        # the writer gives a boundary event without a task an empty ref
        return FlowNode(get("id", ""), kind, get("name", ""), attached_to=get("attachedToRef") or None)
    elif kind is None:
        if tag == "intermediateThrowEvent":
            compensates = None
            for child in element:
                if local[child.tag] == "compensateEventDefinition":
                    compensates = child.get("activityRef")
            return FlowNode(
                get("id", ""), NodeKind.COMPENSATION_THROW, get("name", ""),
                compensates=compensates,
            )
        definition, special, plain = _DEFINED_KINDS[tag]
        kind = special if any(local[child.tag] == definition for child in element) else plain
    return FlowNode(get("id", ""), kind, get("name", ""))


def parse_model(source: Union[str, bytes]) -> BpmnModel:
    """Parse a BPMN document (XML text or bytes).

    Two processes with one id, two participants referencing one process, a
    second collaboration, or a process no participant of the collaboration
    references raise ``ModelFormatError``: keeping any of them would
    silently drop or copy a process's nodes."""
    try:
        root = ET.fromstring(source)
    except ET.ParseError as exc:
        raise ModelFormatError(f"invalid XML: {exc}") from exc
    local = _LocalNames()
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
        # a bare process file: wrap every process in an implicit pool
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
            if tag == "sequenceFlow":
                get = child.get
                pool.flows.append(
                    SequenceFlow(
                        get("id", ""), get("sourceRef", ""), get("targetRef", ""), get("name", "")
                    )
                )
            elif tag in _FLOW_NODE_TAGS:
                pool.nodes.append(_parse_node(child, tag, local))
            elif tag == "association":
                get = child.get
                pool.associations.append(
                    Association(get("id", ""), get("sourceRef", ""), get("targetRef", ""))
                )
            elif tag not in _IGNORED_TAGS:
                # a flow element this tool cannot represent: dropping it would
                # silently change the process, so refuse the file instead
                raise ModelFormatError(f"unsupported flow element <{tag}>")
        model.pools.append(pool)

    unreferenced = next((p for p in processes if p not in pool_of_process), None)
    if unreferenced is not None:
        raise ModelFormatError(f"process {unreferenced!r} is referenced by no participant")
    return model
