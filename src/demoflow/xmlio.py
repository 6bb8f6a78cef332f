"""BPMN 2.0 XML serialization and parsing.

Serialization is canonical: pools, nodes, flows and message flows are written
sorted by id, and so are the optional diagram's rows of shapes; attributes in
a fixed order, two-space indentation, no timestamps — so
serialize(parse(serialize(m))) is byte-identical to serialize(m), with or
without the diagram, and two compilation runs of the same network produce the
same file.  The writer emits the document directly as text, one format per
element kind, with a fixed attribute escaping (``& < > " CR LF tab`` as
``&amp; &lt; &gt; &quot; &#13; &#10; &#09;``, in that order) and characters
that UTF-8 cannot encode as character references, whatever the Python
version's ElementTree does.

Parsing is lenient: it accepts any BPMN 2.0 interchange document, ignores
elements outside the supported subset (lanes, data objects, documentation,
diagram interchange) and maps foreign task flavours onto the nearest
supported kind, which is what the coverage auditor needs to read real-world
models.  The reader builds the records from expat's start and end events in
one pass, with no element tree, and keeps nothing of an ignored subtree.  It
accepts and refuses what ElementTree's parser accepts and refuses, with the
same messages.
"""

from __future__ import annotations

from operator import attrgetter, itemgetter
from typing import Iterable, TypeVar, Union
from xml.parsers.expat import ExpatError, ParserCreate

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


_by_id = attrgetter("id")

_LinkT = TypeVar("_LinkT", SequenceFlow, MessageFlow, Association)


def _id_order(links: Iterable[_LinkT]) -> list[tuple[str, _LinkT]]:
    """Each link with its id, formed once, sorted by id; links sharing an id
    keep their order, and records are never compared."""
    return sorted([(link.id, link) for link in links], key=itemgetter(0))


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


# One format per node kind, keyed by the kind's value as the writer looks it
# up once per node: hashing an Enum member runs Python code.  Each format
# takes the escaped id and the name attribute (or ""); a boundary event also
# takes its escaped attachedToRef, and a compensation throw its activityRef
# attribute (or "").
_NODE_FORMATS = {
    NodeKind.START_EVENT.value: '    <startEvent id="%s"%s />',
    NodeKind.MESSAGE_START_EVENT.value:
        '    <startEvent id="%s"%s>\n      <messageEventDefinition />\n    </startEvent>',
    NodeKind.END_EVENT.value: '    <endEvent id="%s"%s />',
    NodeKind.TERMINATE_END_EVENT.value:
        '    <endEvent id="%s"%s>\n      <terminateEventDefinition />\n    </endEvent>',
    NodeKind.MESSAGE_CATCH.value:
        '    <intermediateCatchEvent id="%s"%s>\n      <messageEventDefinition />\n'
        '    </intermediateCatchEvent>',
    NodeKind.COMPENSATION_THROW.value:
        '    <intermediateThrowEvent id="%s"%s>\n      <compensateEventDefinition%s />\n'
        '    </intermediateThrowEvent>',
    NodeKind.COMPENSATION_BOUNDARY.value:
        '    <boundaryEvent id="%s"%s attachedToRef="%s" cancelActivity="false">\n'
        '      <compensateEventDefinition />\n    </boundaryEvent>',
    NodeKind.TASK.value: '    <task id="%s"%s />',
    NodeKind.SEND_TASK.value: '    <sendTask id="%s"%s />',
    NodeKind.COMPENSATION_HANDLER.value: '    <task id="%s"%s isForCompensation="true" />',
    NodeKind.EXCLUSIVE_GATEWAY.value: '    <exclusiveGateway id="%s"%s />',
    NodeKind.PARALLEL_GATEWAY.value: '    <parallelGateway id="%s"%s />',
    NodeKind.EVENT_BASED_GATEWAY.value: '    <eventBasedGateway id="%s"%s />',
}

# Module-level names for the kinds the writer and reader test for: reading a
# member off the Enum class runs Python code too.
_BOUNDARY = NodeKind.COMPENSATION_BOUNDARY
_THROW = NodeKind.COMPENSATION_THROW
_TASK = NodeKind.TASK
_HANDLER = NodeKind.COMPENSATION_HANDLER

# Diagram shape sizes by kind value; any other kind is a 36 x 36 event.
_NODE_SIZES = {
    NodeKind.TASK.value: (100, 80),
    NodeKind.SEND_TASK.value: (100, 80),
    NodeKind.COMPENSATION_HANDLER.value: (100, 80),
    NodeKind.EXCLUSIVE_GATEWAY.value: (50, 50),
    NodeKind.PARALLEL_GATEWAY.value: (50, 50),
    NodeKind.EVENT_BASED_GATEWAY.value: (50, 50),
}

# A shape: the escaped element id twice, a pool's isHorizontal attribute (or
# ""), and its bounds.
_SHAPE_FORMAT = (
    '      <bpmndi:BPMNShape id="shape_%s" bpmnElement="%s"%s>\n'
    '        <dc:Bounds x="%d" y="%d" width="%d" height="%d" />\n'
    "      </bpmndi:BPMNShape>"
)


def _layout_lines(lines: list[str], model_id: str, pools: list[tuple[Pool, list[FlowNode]]]) -> None:
    """A rough deterministic grid diagram: one row of shapes per pool, by pool id."""
    row_height = 320
    lines.append(f'  <bpmndi:BPMNDiagram id="diagram_{model_id}">')
    plane = f'    <bpmndi:BPMNPlane id="plane_{model_id}" bpmnElement="{model_id}"'
    if not pools:
        lines.append(plane + " />")
    else:
        lines.append(plane + ">")
        for pool_index, (pool, nodes) in enumerate(pools):
            pool_y = 40 + pool_index * row_height
            pool_id = _attr(pool.id)
            pool_width = 80 + 160 * max(1, len(nodes))
            lines.append(_SHAPE_FORMAT % (
                pool_id, pool_id, ' isHorizontal="true"', 20, pool_y, pool_width, row_height - 40
            ))
            for node_index, node in enumerate(nodes):
                width, height = _NODE_SIZES.get(node.kind._value_, (36, 36))
                node_id = _attr(node.id)
                x, y = 60 + 160 * node_index, pool_y + 120 - height // 2
                lines.append(_SHAPE_FORMAT % (node_id, node_id, "", x, y, width, height))
        lines.append("    </bpmndi:BPMNPlane>")
    lines.append("  </bpmndi:BPMNDiagram>")


def serialize_model(model: BpmnModel, layout: bool = False) -> bytes:
    model_id = _attr(model.id)
    pools = [(pool, sorted(pool.nodes, key=_by_id)) for pool in sorted(model.pools, key=_by_id)]
    namespaces = f' xmlns:bpmndi="{DI_NS}" xmlns:dc="{DC_NS}"' if layout else ""
    lines = [
        "<?xml version='1.0' encoding='utf-8'?>",
        f'<definitions xmlns="{MODEL_NS}" id="defs_{model_id}" targetNamespace="{TARGET_NS}"{namespaces}>',
    ]
    append = lines.append

    if not (pools or model.message_flows):
        append(f'  <collaboration id="{model_id}" />')
    else:
        append(f'  <collaboration id="{model_id}">')
        for pool, _ in pools:
            name = f' name="{_attr(pool.name)}"' if pool.name else ""
            append(f'    <participant id="{_attr(pool.id)}"{name} processRef="{_attr(pool.process_id)}" />')
        for flow_id, flow in _id_order(model.message_flows):
            append(
                f'    <messageFlow id="{_attr(flow_id)}" sourceRef="{_attr(flow.source)}"'
                f' targetRef="{_attr(flow.target)}" />'
            )
        append("  </collaboration>")

    for pool, nodes in pools:
        process = f'  <process id="{_attr(pool.process_id)}" isExecutable="false"'
        if not (nodes or pool.flows or pool.associations):
            append(process + " />")
            continue
        append(process + ">")
        for node in nodes:
            kind = node.kind
            name = f' name="{_attr(node.name)}"' if node.name else ""
            if kind is _BOUNDARY:
                append(_NODE_FORMATS[kind._value_] % (_attr(node.id), name, _attr(node.attached_to or "")))
            elif kind is _THROW:
                target = f' activityRef="{_attr(node.compensates)}"' if node.compensates else ""
                append(_NODE_FORMATS[kind._value_] % (_attr(node.id), name, target))
            else:
                append(_NODE_FORMATS[kind._value_] % (_attr(node.id), name))
        for flow_id, flow in _id_order(pool.flows):
            name = f' name="{_attr(flow.label)}"' if flow.label else ""
            append(
                f'    <sequenceFlow id="{_attr(flow_id)}"{name} sourceRef="{_attr(flow.source)}"'
                f' targetRef="{_attr(flow.target)}" />'
            )
        for assoc_id, assoc in _id_order(pool.associations):
            append(
                f'    <association id="{_attr(assoc_id)}" sourceRef="{_attr(assoc.source)}"'
                f' targetRef="{_attr(assoc.target)}" />'
            )
        append("  </process>")

    if layout:
        _layout_lines(lines, model_id, pools)
    append("</definitions>\n")
    return "\n".join(lines).encode("utf-8", "xmlcharrefreplace")


# What a process child becomes, by its local tag:
# - a node kind; a task-like kind with isForCompensation="true" becomes a
#   compensation handler;
# - an event's (definition child, plain kind, kind with that child): the child
#   makes a start or end event special, and gives a throw its target;
# - SequenceFlow or Association;
# - None for an element that carries no control flow and is ignored.
# Any other tag is a flow element this tool cannot represent.
_PROCESS_CHILDREN = {
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
    "startEvent": ("messageEventDefinition", NodeKind.START_EVENT, NodeKind.MESSAGE_START_EVENT),
    "endEvent": ("terminateEventDefinition", NodeKind.END_EVENT, NodeKind.TERMINATE_END_EVENT),
    "intermediateThrowEvent": (
        "compensateEventDefinition", NodeKind.COMPENSATION_THROW, NodeKind.COMPENSATION_THROW
    ),
    "sequenceFlow": SequenceFlow,
    "association": Association,
    **dict.fromkeys(
        ("documentation", "extensionElements", "laneSet", "lane",
         "dataObject", "dataObjectReference", "dataStoreReference",
         "ioSpecification", "property", "textAnnotation", "group"),
        None,
    ),
}


def _undefined_entity(parser, name: str) -> ExpatError:
    """The error ElementTree's parser raises for a reference to a general
    entity whose text expat does not supply: its message holds at most the
    reference's first 100 bytes."""
    reference = f"&{name};".encode("utf-8")[:100].decode("utf-8", "replace")
    return ExpatError(
        f"undefined entity {reference}: line {parser.CurrentLineNumber}, "
        f"column {parser.CurrentColumnNumber}"
    )


def parse_model(source: Union[str, bytes]) -> BpmnModel:
    """Parse a BPMN document (XML text or bytes).

    Two processes with one id, two participants referencing one process, a
    second collaboration, or a process no participant of the collaboration
    references raise ``ModelFormatError``: keeping any of them would
    silently drop or copy a process's nodes.  Every check runs once the
    whole document is read, so a document that is not XML is refused as such
    whatever else is wrong with it."""
    parser = ParserCreate(namespace_separator="}")
    # The reader's state.  Depth 1 is the root, 2 its children, 3 a process's
    # or the collaboration's children, 4 an event's definitions.
    depth = 0
    root = ""
    first_error = None  # a second collaboration or a duplicate process id
    collaboration_id = None
    participants: list[tuple[str, str, str]] = []  # (pool id, process id, name)
    message_flows: list[MessageFlow] = []
    processes: dict[str, tuple[list[FlowNode], list[SequenceFlow], list[Association]]] = {}
    unsupported: dict[str, str] = {}  # process id -> its first unsupported tag
    forms: dict[str, object] = {}  # qualified tag -> its _PROCESS_CHILDREN entry
    in_collaboration = False
    process_id = None  # the process being read; None outside one or in a duplicate
    nodes = flows = associations = None  # its records
    node = None  # the event whose definition child is awaited
    definition = special = None
    external: set[str] = set()  # external parsed general entities

    def start(name: str, attrs: dict[str, str]) -> None:
        nonlocal depth, root, first_error, collaboration_id, in_collaboration, process_id
        nonlocal nodes, flows, associations, node, definition, special
        depth += 1
        if depth == 3:
            if process_id is not None:
                try:
                    form = forms[name]
                except KeyError:
                    tag = name.rpartition("}")[2]
                    # an unsupported tag stands for itself, to be named in the error
                    form = forms[name] = _PROCESS_CHILDREN.get(tag, tag)
                node = None
                get = attrs.get
                if form is SequenceFlow:
                    flows.append(SequenceFlow(
                        get("id", ""), get("sourceRef", ""), get("targetRef", ""), get("name", "")
                    ))
                elif type(form) is NodeKind:
                    if form is _BOUNDARY:
                        # the writer gives a boundary event without a task an empty ref
                        nodes.append(
                            FlowNode(get("id", ""), form, get("name", ""), get("attachedToRef") or None)
                        )
                    else:
                        if form is _TASK and get("isForCompensation") == "true":
                            form = _HANDLER
                        nodes.append(FlowNode(get("id", ""), form, get("name", "")))
                elif type(form) is tuple:
                    definition, kind, special = form
                    node = FlowNode(get("id", ""), kind, get("name", ""))
                    nodes.append(node)
                elif form is Association:
                    associations.append(
                        Association(get("id", ""), get("sourceRef", ""), get("targetRef", ""))
                    )
                elif form is not None:
                    unsupported.setdefault(process_id, form)
            elif in_collaboration:
                tag = name.rpartition("}")[2]
                get = attrs.get
                if tag == "messageFlow":
                    message_flows.append(
                        MessageFlow(get("id", ""), get("sourceRef", ""), get("targetRef", ""))
                    )
                elif tag == "participant":
                    participants.append((get("id", ""), get("processRef", ""), get("name", "")))
        elif depth == 4:
            if node is not None and name.rpartition("}")[2] == definition:
                if special is _THROW:
                    node.compensates = attrs.get("activityRef")
                else:
                    node.kind = special
        elif depth == 2:
            in_collaboration = False
            process_id = node = None
            tag = name.rpartition("}")[2]
            if tag == "process":
                new_id = attrs.get("id", "")
                if new_id not in processes:
                    process_id = new_id
                    nodes, flows, associations = processes[new_id] = ([], [], [])
                elif first_error is None:
                    first_error = f"duplicate process id {new_id!r}"
            elif tag == "collaboration":
                if collaboration_id is None:
                    collaboration_id = attrs.get("id", "collaboration")
                    in_collaboration = True
                elif first_error is None:
                    first_error = f"second collaboration {attrs.get('id', '')!r}"
        elif depth == 1:
            root = name.rpartition("}")[2]

    def end(name: str) -> None:
        nonlocal depth
        depth -= 1

    # Like ElementTree's parser, refuse a general entity reference expat
    # leaves to the application: an undeclared one in a document with an
    # external DTD, and an external one.
    def skipped_entity(name: str, is_parameter_entity: bool) -> None:
        if not is_parameter_entity:
            raise _undefined_entity(parser, name)

    def entity_declaration(name, is_parameter_entity, value, base, system_id, *_) -> None:
        if system_id is not None and not is_parameter_entity:
            external.add(name)

    def external_entity(context: str, base, system_id, public_id) -> None:
        # the context lists the namespace bindings and the open entities; the
        # one referenced is the only external one
        names = context.split("\f")
        raise _undefined_entity(parser, next((n for n in names if n in external), names[-1]))

    parser.StartElementHandler = start
    parser.EndElementHandler = end
    parser.SkippedEntityHandler = skipped_entity
    parser.EntityDeclHandler = entity_declaration
    parser.ExternalEntityRefHandler = external_entity
    try:
        parser.Parse(source, True)
    except ExpatError as exc:
        raise ModelFormatError(f"invalid XML: {exc}") from exc
    finally:
        # the entity handlers refer to the parser, which holds them: break
        # the cycle, so the parser is freed now and not by the collector
        parser = None
    if root != "definitions":
        raise ModelFormatError(f"expected <definitions> root, got <{root}>")
    if first_error is not None:
        raise ModelFormatError(first_error)

    model = BpmnModel(id="collaboration")
    if collaboration_id is not None:
        model.id = collaboration_id
        model.message_flows = message_flows
    else:
        # a bare process file: wrap every process in an implicit pool
        participants = [(f"pool_{process}", process, "") for process in processes]

    pool_of_process: dict[str, str] = {}
    for pool_id, process, name in participants:
        records = processes.get(process)
        if records is None:
            raise ModelFormatError(f"participant {pool_id} references missing process {process}")
        if process in pool_of_process:
            raise ModelFormatError(
                f"process {process!r} is referenced by participants "
                f"{pool_of_process[process]!r} and {pool_id!r}"
            )
        pool_of_process[process] = pool_id
        if process in unsupported:
            # dropping a flow element this tool cannot represent would
            # silently change the process, so refuse the file instead
            raise ModelFormatError(f"unsupported flow element <{unsupported[process]}>")
        model.pools.append(Pool(pool_id, process, name, pool_id.removeprefix("pool_"), *records))

    unreferenced = next((p for p in processes if p not in pool_of_process), None)
    if unreferenced is not None:
        raise ModelFormatError(f"process {unreferenced!r} is referenced by no participant")
    return model
