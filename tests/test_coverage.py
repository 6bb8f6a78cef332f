"""Coverage audit: cell classification, matrix sums and report rendering."""

from __future__ import annotations

import json
from functools import lru_cache
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import demoflow.coverage
from demoflow.compiler import DetailLevel, compile_network
from demoflow.coverage import (
    ActStatus,
    ROW_ORDER,
    UnknownAnnotationKey,
    classify_acts,
    render_matrix,
)
from demoflow.engine import Act
from demoflow.model import (
    BpmnModel,
    FlowNode,
    NodeKind,
    Pool,
    SequenceFlow,
    parse_node_id,
    slugify_tk,
)
from demoflow.network import load_network, parse_network
from demoflow.xmlio import parse_model, serialize_model

from conftest import make_solo_network

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"

POC1_CSV = """Act,TK01,TK02,TK03,TK04,(e/i/n)
Request,E,I,I,I,(1/3/0)
Promise,I,I,I,I,(0/4/0)
Execute,E,E,E,E,(4/0/0)
Declare,I,I,I,I,(0/4/0)
Accept,E,N,N,N,(1/0/3)
Decline,I,I,I,I,(0/4/0)
Reject,I,I,I,I,(0/4/0)
RevokeRequest,N,N,N,N,(0/0/4)
RevokePromise,N,N,N,N,(0/0/4)
RevokeDeclare,N,N,N,N,(0/0/4)
RevokeAccept,N,N,N,N,(0/0/4)
Allow,N,N,N,N,(0/0/4)
Stop,N,N,N,N,(0/0/4)
Refuse,N,N,N,N,(0/0/4)
Sum,(3/4/7),(1/5/8),(1/5/8),(1/5/8),(6/19/31)
Total Explicit = 6 (in 56) = 10.7%
Total Implicit = 19 (in 56) = 33.9%
Total Implemented = 25 (in 56) = 44.6%
"""


@lru_cache(maxsize=None)
def _audit(name: str):
    net = load_network(FIXTURES / f"{name}.json")
    model = compile_network(net, DetailLevel.WITH_DISSENT)
    mapping = json.loads((FIXTURES / f"{name}_explicit.json").read_text())
    annotations = json.loads((FIXTURES / f"{name}_implicit.json").read_text())
    return net, model, mapping, annotations


def _classify(name: str, **kwargs):
    net, model, mapping, annotations = _audit(name)
    kwargs.setdefault("mapping", mapping)
    kwargs.setdefault("annotations", annotations)
    return classify_acts(net, model, **kwargs)


# ---------------------------------------------------------------------------
# The two bundled audits
# ---------------------------------------------------------------------------


def test_poc1_csv_matches_exactly():
    assert render_matrix(_classify("poc1"), fmt="csv") == POC1_CSV


def test_poc1_matrix_sums():
    matrix = _classify("poc1")
    assert matrix.warnings == []
    assert matrix.cell_count() == 56
    assert matrix.totals() == (6, 19, 31)
    assert matrix.implemented() == 25
    assert [matrix.column_sum(tk) for tk in matrix.transactions] == [
        (3, 4, 7),
        (1, 5, 8),
        (1, 5, 8),
        (1, 5, 8),
    ]


def test_poc2_matrix_sums_and_rows():
    matrix = _classify("poc2")
    assert matrix.warnings == []
    assert matrix.cell_count() == 84
    assert matrix.totals() == (9, 27, 48)
    assert matrix.implemented() == 36
    assert [matrix.column_sum(tk) for tk in matrix.transactions] == [
        (3, 3, 8),
        (2, 4, 8),
        (1, 5, 8),
        (1, 5, 8),
        (1, 5, 8),
        (1, 5, 8),
    ]
    E, I, N = ActStatus.EXPLICIT, ActStatus.IMPLICIT, ActStatus.NOT_IMPLEMENTED
    row = lambda act: [matrix.status(tk, act) for tk in matrix.transactions]
    assert row(Act.REQUEST) == [E, I, I, I, I, I]
    assert row(Act.EXECUTE) == [E] * 6
    assert row(Act.DECLINE) == [E, E, I, I, I, I]
    assert row(Act.ACCEPT) == [N] * 6


def test_poc2_footers_use_84_cells():
    report = render_matrix(_classify("poc2"), fmt="csv")
    assert "Total Explicit = 9 (in 84) = 10.7%" in report
    assert "Total Implicit = 27 (in 84) = 32.1%" in report
    assert "Total Implemented = 36 (in 84) = 42.9%" in report


# ---------------------------------------------------------------------------
# Rendering
# ---------------------------------------------------------------------------


def test_text_rendering_is_aligned():
    report = render_matrix(_classify("poc1"), fmt="text")
    lines = report.splitlines()
    assert lines[0].startswith("Act")
    assert all(line == line.rstrip() for line in lines)
    assert lines[-3:] == [
        "Total Explicit = 6 (in 56) = 10.7%",
        "Total Implicit = 19 (in 56) = 33.9%",
        "Total Implemented = 25 (in 56) = 44.6%",
    ]
    # every matrix line has the same column starts
    starts = [line.index("(") for line in lines[1:15]]
    assert len(set(starts)) == 1


def test_render_rejects_unknown_options():
    matrix = _classify("poc1")
    with pytest.raises(ValueError):
        render_matrix(matrix, fmt="html")


def test_empty_audit_is_all_not_implemented():
    net, model, _, _ = _audit("poc1")
    matrix = classify_acts(net, model)
    assert matrix.totals() == (0, 0, 56)
    report = render_matrix(matrix, fmt="csv")
    assert "Total Implemented = 0 (in 56) = 0.0%" in report


# ---------------------------------------------------------------------------
# Input validation and precedence
# ---------------------------------------------------------------------------


def test_unknown_transaction_rejected():
    net, model, _, _ = _audit("poc1")
    bad = [{"transaction": "TK99", "act": "Request", "nodeId": "x"}]
    with pytest.raises(UnknownAnnotationKey, match="TK99"):
        classify_acts(net, model, mapping=bad)


def test_unknown_act_rejected():
    net, model, _, _ = _audit("poc1")
    bad = [{"transaction": "TK01", "act": "Ponder", "nodeId": "x"}]
    with pytest.raises(UnknownAnnotationKey, match="Ponder"):
        classify_acts(net, model, mapping=bad)


@pytest.mark.parametrize("source", ["mapping", "annotations"])
@pytest.mark.parametrize("document", [{"a": 1}, [1, 2], "Request", 5])
def test_document_that_is_not_a_list_of_objects_rejected(source, document):
    net, model, _, _ = _audit("poc1")
    name = "mapping" if source == "mapping" else "annotation"
    with pytest.raises(UnknownAnnotationKey, match=f"^{name} "):
        classify_acts(net, model, **{source: document})


def test_unhashable_keys_rejected_or_ignored():
    net, model, _, _ = _audit("poc1")
    with pytest.raises(UnknownAnnotationKey, match="unknown transaction"):
        classify_acts(net, model, mapping=[{"transaction": ["TK01"], "act": "Request"}])
    mapping = [{"transaction": "TK01", "act": "Request", "nodeId": ["x"]}]
    matrix = classify_acts(net, model, mapping=mapping)
    assert matrix.status("TK01", Act.REQUEST) is ActStatus.NOT_IMPLEMENTED
    assert any("['x']" in w and "ignored" in w for w in matrix.warnings)


def test_bad_annotation_status_rejected():
    net, model, _, _ = _audit("poc1")
    bad = [{"transaction": "TK01", "act": "Request", "status": "explicit"}]
    with pytest.raises(UnknownAnnotationKey, match="status"):
        classify_acts(net, model, annotations=bad)


def test_missing_node_id_warns_and_is_ignored():
    net, model, _, _ = _audit("poc1")
    mapping = [{"transaction": "TK01", "act": "Request", "nodeId": "ghost_task"}]
    matrix = classify_acts(net, model, mapping=mapping)
    assert matrix.status("TK01", Act.REQUEST) is ActStatus.NOT_IMPLEMENTED
    assert any("ghost_task" in w and "ignored" in w for w in matrix.warnings)


def test_explicit_wins_over_implicit_with_warning():
    net, model, mapping, _ = _audit("poc1")
    clash = [
        {
            "transaction": "TK01",
            "act": "Request",
            "status": "implicit",
            "note": "covered by intake review",
        }
    ]
    matrix = classify_acts(net, model, mapping=mapping, annotations=clash)
    assert matrix.status("TK01", Act.REQUEST) is ActStatus.EXPLICIT
    assert any("Explicit wins" in w for w in matrix.warnings)


def test_evidence_is_recorded():
    matrix = _classify("poc1")
    nodes = matrix.evidence[("TK01", Act.REQUEST)]
    assert nodes and all(isinstance(n, str) for n in nodes)
    notes = matrix.evidence[("TK01", Act.PROMISE)]
    assert notes  # the bundled annotations carry tacit-act notes


# ---------------------------------------------------------------------------
# Heuristic mode
# ---------------------------------------------------------------------------


def _foreign_model():
    pool = Pool(
        id="pool_shop",
        process_id="proc_shop",
        name="Shop",
        actor_id="shop",
        nodes=[
            FlowNode("s", NodeKind.START_EVENT),
            FlowNode("t1", NodeKind.TASK, name="Log request Order Fulfilment"),
            FlowNode("e", NodeKind.END_EVENT),
        ],
        flows=[SequenceFlow("f1", "s", "t1"), SequenceFlow("f2", "t1", "e")],
    )
    return BpmnModel(id="foreign", pools=[pool])


def test_heuristic_matches_node_names():
    net = make_solo_network()  # transaction name: "order fulfilment"
    model = _foreign_model()
    plain = classify_acts(net, model)
    assert plain.status("TK01", Act.REQUEST) is ActStatus.NOT_IMPLEMENTED
    heur = classify_acts(net, model, heuristic_names=True)
    assert heur.status("TK01", Act.REQUEST) is ActStatus.EXPLICIT
    assert heur.evidence[("TK01", Act.REQUEST)] == ("t1",)


def test_heuristic_matches_generated_meta_tags():
    net = make_solo_network()
    model = compile_network(net, DetailLevel.WITH_DISSENT)
    matrix = classify_acts(net, model, heuristic_names=True)
    assert matrix.column_sum("TK01") == (8, 0, 6)


def test_heuristic_lists_a_node_once_when_name_id_and_mapping_all_match():
    net = make_solo_network()
    model = compile_network(net, DetailLevel.WITH_DISSENT)
    node = next(n for n in model.all_nodes() if n.id == "tk01_i_request_sendtask")
    assert "request order fulfilment" in node.name.lower()
    assert parse_node_id(node.id).act is Act.REQUEST
    mapping = [{"transaction": "TK01", "act": "Request", "nodeId": node.id}]
    for kwargs in ({}, {"mapping": mapping}):
        matrix = classify_acts(net, model, heuristic_names=True, **kwargs)
        evidence = matrix.evidence[("TK01", Act.REQUEST)]
        assert evidence.count(node.id) == 1
        assert evidence[0] == node.id


def _reference_heuristic(net, model, mapping=None, annotations=None):
    """The heuristic scan as a plain nested loop, one ``parse_node_id`` per
    (transaction, act, node): its hits become extra mapping entries after the
    given ones, deduplicated against what each cell already lists."""
    base = classify_acts(net, model, mapping=mapping)
    hits = []
    for tk_id in base.transactions:
        tk = net.transaction(tk_id)
        tk_slug = slugify_tk(tk_id)
        for act in ROW_ORDER:
            key = (tk_id, act)
            nodes = list(base.evidence[key]) if base.cells[key] is ActStatus.EXPLICIT else []
            needle = f"{act.value} {tk.name}".lower()
            for node in model.all_nodes():
                hit = needle in node.name.lower()
                if not hit:
                    meta = parse_node_id(node.id)
                    hit = meta is not None and meta.tk == tk_slug and meta.act is act
                if hit and node.id not in nodes:
                    nodes.append(node.id)
                    hits.append({"transaction": tk_id, "act": act.value, "nodeId": node.id})
    return classify_acts(
        net, model, mapping=[*(mapping or ()), *hits], annotations=annotations
    )


# parent index (1-based, None for the root), dependency kind and name per
# transaction; "claim" and "claim review" make one transaction's needle
# ("request claim") match the other's node names
_COMPOSED = {
    "chain3": ((None, None, "claim"), (1, "RaP", "claim review"), (2, "RaE", "payment")),
    "fan4": (
        (None, None, "order"),
        (1, "RaD", "order check"),
        (1, "RaP", "invoice"),
        (1, "RaE", "shipping"),
    ),
    # names that stress an index of the scan: a transaction named like an act
    # ("accept review", whose every node name holds the needle "accept
    # review" of the transaction "review"); "x", whose "request x" lies inside
    # "revokerequest x"; "İ", which lowers to two characters; and a final
    # "Σ", which lowers to "ς" at the end of a word but to "σ" before "İ"
    "stress": (
        (None, None, "accept review"),
        (1, "RaP", "review"),
        (1, "RaE", "x"),
        (3, "RaD", "ΟΔΟΣ"),
        (4, "RaP", "ΟΔΟΣİ x"),
    ),
}


def _composed_network(shape: str):
    spec = _COMPOSED[shape]
    doc = {
        "name": shape,
        "actors": [{"id": f"A{i}", "name": f"Actor {i}"} for i in range(len(spec) + 1)],
        "transactions": [],
        "dependencies": [],
    }
    for i, (parent, kind, name) in enumerate(spec, start=1):
        doc["transactions"].append(
            {
                "id": f"TK0{i}",
                "name": name,
                "initiator": f"A{parent or 0}",
                "executor": f"A{i}",
                "result": {"id": f"PK0{i}", "phrase": f"[{name}] has been done"},
            }
        )
        if parent is not None:
            doc["dependencies"].append({"parent": f"TK0{parent}", "child": f"TK0{i}", "kind": kind})
    return parse_network(json.dumps(doc))


def _differential_inputs(name: str, level: DetailLevel):
    if name in ("poc1", "poc2"):
        net, _, mapping, annotations = _audit(name)
        # a mapping entry for a missing node keeps a warning in the comparison
        mapping = [*mapping, {"transaction": "TK01", "act": "Stop", "nodeId": "ghost"}]
    else:
        net, mapping, annotations = _composed_network(name), None, None
    return net, compile_network(net, level), mapping, annotations


@pytest.mark.parametrize("round_trip", [False, True], ids=["compiled", "round-trip"])
@pytest.mark.parametrize("level", list(DetailLevel), ids=lambda level: level.value)
@pytest.mark.parametrize("name", ["poc1", "poc2", "chain3", "fan4", "stress"])
def test_heuristic_scan_matches_nested_loop_reference(name, level, round_trip):
    net, model, mapping, annotations = _differential_inputs(name, level)
    if round_trip:
        model = parse_model(serialize_model(model))
    got = classify_acts(net, model, mapping, annotations, heuristic_names=True)
    want = _reference_heuristic(net, model, mapping, annotations)
    assert got.cells == want.cells
    assert list(got.evidence.items()) == list(want.evidence.items())
    assert got.warnings == want.warnings
    assert got.implemented() > classify_acts(net, model, mapping, annotations).implemented()


def test_heuristic_scan_parses_each_node_id_at_most_once(monkeypatch):
    net = _composed_network("fan4")
    model = compile_network(net, DetailLevel.COMPLETE)
    calls = []

    def counting(node_id):
        calls.append(node_id)
        return parse_node_id(node_id)

    monkeypatch.setattr(demoflow.coverage, "parse_node_id", counting)
    classify_acts(net, model, heuristic_names=True)
    assert 0 < len(calls) <= len(model.all_nodes())


# ---------------------------------------------------------------------------
# Monotonicity: more evidence never downgrades a cell
# ---------------------------------------------------------------------------

_RANK = {ActStatus.NOT_IMPLEMENTED: 0, ActStatus.IMPLICIT: 1, ActStatus.EXPLICIT: 2}


@settings(max_examples=30, deadline=None)
@given(data=st.data())
def test_more_annotations_never_downgrade(data):
    net, model, mapping, annotations = _audit("poc1")
    keep_ann = data.draw(st.lists(st.booleans(), min_size=len(annotations), max_size=len(annotations)))
    keep_map = data.draw(st.lists(st.booleans(), min_size=len(mapping), max_size=len(mapping)))
    sub_ann = [a for a, keep in zip(annotations, keep_ann) if keep]
    sub_map = [m for m, keep in zip(mapping, keep_map) if keep]
    small = classify_acts(net, model, mapping=sub_map, annotations=sub_ann)
    full = classify_acts(net, model, mapping=mapping, annotations=annotations)
    for tk in full.transactions:
        for act in ROW_ORDER:
            assert _RANK[small.status(tk, act)] <= _RANK[full.status(tk, act)]
