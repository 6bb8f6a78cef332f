"""Network parsing, validation rules and execution order."""

from __future__ import annotations

import json
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from demoflow.compiler import DetailLevel, compile_network
from demoflow.network import (
    NON_XML_CHAR,
    Actor,
    Dependency,
    DependencyKind,
    NetworkFormatError,
    NetworkStructureError,
    Result,
    Transaction,
    TransactionNetwork,
    Violation,
    execution_order,
    load_network,
    parse_network,
    validate_network,
)
from demoflow.xmlio import parse_model, serialize_model

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"


def _tk(tk_id: str, initiator: str, executor: str, name: str = "") -> Transaction:
    return Transaction(
        id=tk_id,
        name=name or f"Doing {tk_id}",
        initiator=initiator,
        executor=executor,
        result=Result(id=f"PK_{tk_id}", phrase=f"[{tk_id} product] has been made"),
    )


def _net(transactions, dependencies=(), actors=None) -> TransactionNetwork:
    if actors is None:
        ids = sorted({t.initiator for t in transactions} | {t.executor for t in transactions})
        actors = tuple(Actor(id=a, name=f"Actor {a}") for a in ids)
    return TransactionNetwork(
        actors=tuple(actors),
        transactions=tuple(transactions),
        dependencies=tuple(dependencies),
    )


def _rules(violations):
    return sorted(v.rule for v in violations)


# --- parsing -----------------------------------------------------------------

def test_parse_poc1_fixture():
    net = load_network(FIXTURES / "poc1.json")
    assert [a.id for a in net.actors] == ["A01", "A02", "A03", "A04", "A05"]
    assert [t.id for t in net.transactions] == ["TK01", "TK02", "TK03", "TK04"]
    tk01 = net.transaction("TK01")
    assert tk01.name == "Soliciting budget change"
    assert tk01.initiator == "A01" and tk01.executor == "A02"
    assert tk01.result.phrase == "[budget] has been changed"
    assert [(d.parent, d.child, d.kind) for d in net.dependencies] == [
        ("TK01", "TK02", DependencyKind.RAP),
        ("TK02", "TK03", DependencyKind.RAE),
        ("TK03", "TK04", DependencyKind.RAE),
    ]
    assert validate_network(net) == []


def test_parse_poc2_fixture():
    net = load_network(FIXTURES / "poc2.json")
    assert len(net.actors) == 7
    assert len(net.transactions) == 6
    assert net.transaction("TK06").executor == "A07"
    kinds = {(d.parent, d.child): d.kind.value for d in net.dependencies}
    assert kinds == {
        ("TK01", "TK02"): "RaP",
        ("TK02", "TK03"): "RaE",
        ("TK03", "TK04"): "RaP",
        ("TK03", "TK05"): "RaP",
        ("TK01", "TK06"): "RaE",
    }
    assert validate_network(net) == []


def test_parse_rejects_bad_json():
    with pytest.raises(NetworkFormatError, match="invalid JSON"):
        parse_network("{not json")


def test_parse_rejects_missing_fields():
    with pytest.raises(NetworkFormatError, match="missing field 'name'"):
        parse_network({"actors": [{"id": "A1"}], "transactions": []})
    with pytest.raises(NetworkFormatError, match="missing field 'result'"):
        parse_network(
            {
                "actors": [{"id": "A1", "name": "x"}, {"id": "A2", "name": "y"}],
                "transactions": [
                    {"id": "T1", "name": "t", "initiator": "A1", "executor": "A2"}
                ],
            }
        )


def test_parse_rejects_malformed_and_duplicate_ids():
    with pytest.raises(NetworkFormatError, match="malformed id"):
        parse_network({"actors": [{"id": "1A", "name": "x"}], "transactions": []})
    with pytest.raises(NetworkFormatError, match="malformed id"):
        parse_network({"actors": [{"id": "has space", "name": "x"}], "transactions": []})
    with pytest.raises(NetworkFormatError, match="duplicate id"):
        parse_network(
            {
                "actors": [{"id": "A1", "name": "x"}, {"id": "A1", "name": "y"}],
                "transactions": [],
            }
        )


def test_parse_rejects_dangling_references():
    with pytest.raises(NetworkFormatError, match="undeclared actor"):
        parse_network(
            {
                "actors": [{"id": "A1", "name": "x"}],
                "transactions": [
                    {
                        "id": "T1",
                        "name": "t",
                        "initiator": "A1",
                        "executor": "A9",
                        "result": {"id": "P1", "phrase": "[p] done"},
                    }
                ],
            }
        )
    doc = json.loads((FIXTURES / "poc1.json").read_text())
    doc["dependencies"].append({"parent": "TK01", "child": "TK99", "kind": "RaP"})
    with pytest.raises(NetworkFormatError, match="undeclared transaction"):
        parse_network(doc)


def test_parse_rejects_unknown_dependency_kind():
    doc = json.loads((FIXTURES / "poc1.json").read_text())
    doc["dependencies"][0]["kind"] = "RaX"
    with pytest.raises(NetworkFormatError, match="unknown dependency kind"):
        parse_network(doc)


@pytest.mark.parametrize(
    "dependencies, kind",
    [
        (5, "int"),
        (True, "bool"),
        (1.5, "float"),
        ("TK01", "str"),
        ({"parent": "TK01", "child": "TK02", "kind": "RaP"}, "dict"),
        # falsy values are no more an empty list than truthy ones
        (0, "int"),
        (False, "bool"),
        ("", "str"),
        ({}, "dict"),
    ],
)
def test_parse_rejects_non_list_dependencies(dependencies, kind):
    doc = json.loads((FIXTURES / "poc1.json").read_text())
    doc["dependencies"] = dependencies
    with pytest.raises(NetworkFormatError) as excinfo:
        parse_network(doc)
    assert str(excinfo.value) == f"network: field 'dependencies' must be list, got {kind}"


@pytest.mark.parametrize("dependencies", ["absent", None, []])
def test_parse_accepts_absent_null_and_empty_dependencies(dependencies):
    doc = json.loads((FIXTURES / "poc1.json").read_text())
    if dependencies == "absent":
        del doc["dependencies"]
    else:
        doc["dependencies"] = dependencies
    assert parse_network(doc).dependencies == ()


def test_parse_rejects_json_nested_too_deeply():
    with pytest.raises(NetworkFormatError) as excinfo:
        parse_network("[" * 200_000)
    assert str(excinfo.value) == "invalid JSON: nested too deeply"


# --- validation rules --------------------------------------------------------

def test_validate_empty_network_reports_no_root():
    violations = validate_network(_net([]))
    assert _rules(violations) == ["NoRootTransaction"]


def test_validate_self_loop_transaction():
    net = _net([_tk("T1", "A1", "A1")])
    assert "SelfLoopTransaction" in _rules(validate_network(net))


def test_validate_empty_names_and_bad_phrase():
    bad = Transaction(
        id="T1", name="  ", initiator="A1", executor="A2",
        result=Result(id="P1", phrase="no brackets here"),
    )
    violations = validate_network(_net([bad]))
    assert "EmptyName" in _rules(violations)
    assert "BadResultPhrase" in _rules(violations)
    # two bracket pairs is as bad as none
    bad2 = Transaction(
        id="T1", name="t", initiator="A1", executor="A2",
        result=Result(id="P1", phrase="[a] and [b] done"),
    )
    assert "BadResultPhrase" in _rules(validate_network(_net([bad2])))


# Characters outside XML 1.0's Char production: C0 controls other than tab, LF
# and CR, lone surrogates, and U+FFFE / U+FFFF.
NON_XML_CHARS = ["\x00", "\x01", "\x08", "\x0b", "\x0c", "\x1f", "\ud800", "\udfff", "\ufffe", "\uffff"]


@pytest.mark.parametrize("char", NON_XML_CHARS, ids=lambda char: f"U+{ord(char):04X}")
def test_validate_rejects_names_xml_cannot_carry(char):
    actors = (Actor("A1", f"SOC{char}Dept"), Actor("A2", "SPFP"))
    violations = validate_network(_net([_tk("T1", "A1", "A2")], actors=actors))
    assert [(v.rule, v.subjects) for v in violations] == [("NonXmlName", ("A1",))]
    assert f"U+{ord(char):04X}" in violations[0].message
    violations = validate_network(_net([_tk("T1", "A1", "A2", name=f"Paying{char}")]))
    assert [(v.rule, v.subjects) for v in violations] == [("NonXmlName", ("T1",))]


def test_validate_accepts_names_xml_can_carry():
    name = "tab\tLF\nCR\r € ⁻¹ \x7f \ufffd \U0001f600 & <x>"
    actors = (Actor("A1", name), Actor("A2", "SPFP"))
    assert validate_network(_net([_tk("T1", "A1", "A2", name=name)], actors=actors)) == []


@settings(max_examples=100, deadline=None)
@given(st.text(max_size=8))
def test_every_name_validate_accepts_survives_the_xml_round_trip(text):
    actors = (Actor("A1", f"Actor {text}"), Actor("A2", "SPFP"))
    net = _net([_tk("T1", "A1", "A2", name=f"Doing {text}")], actors=actors)
    if validate_network(net):
        assert NON_XML_CHAR.search(text)
        return
    model = compile_network(net, DetailLevel.HAPPY_FLOW)
    reparsed = parse_model(serialize_model(model))
    assert [p.name for p in reparsed.pools] == [p.name for p in model.pools]
    assert {n.name for n in reparsed.all_nodes()} == {n.name for n in model.all_nodes()}


def test_validate_multiple_parents():
    tks = [_tk("T1", "A1", "A2"), _tk("T2", "A2", "A3"), _tk("T3", "A2", "A4")]
    deps = [
        Dependency("T1", "T2", DependencyKind.RAP),
        Dependency("T3", "T2", DependencyKind.RAE),
    ]
    assert "MultipleParents" in _rules(validate_network(_net(tks, deps)))


def test_validate_composition_rule_breach_is_an_error():
    # child initiated by someone other than the parent's executor
    tks = [_tk("T1", "A1", "A2"), _tk("T2", "A3", "A4")]
    deps = [Dependency("T1", "T2", DependencyKind.RAP)]
    errors = validate_network(_net(tks, deps))
    assert any(
        v.rule == "CompositionRuleBreach" and str(v).startswith("error: ") for v in errors
    )


@pytest.mark.parametrize(
    "transactions,subjects,message",
    [
        # both would write their nodes as t1_...
        (
            [_tk("T1", "A1", "A2"), _tk("T_1", "A1", "A2")],
            ("T1", "T_1"),
            "transaction ids T1, T_1 are all written as 't1' in the BPMN",
        ),
        # both would become pool_a and proc_a
        ([_tk("T1", "A", "a")], ("A", "a"), "actor ids A, a are all written as 'a' in the BPMN"),
    ],
    ids=["transactions", "actors"],
)
def test_validate_ids_that_compile_alike(transactions, subjects, message):
    (violation,) = validate_network(_net(transactions))
    assert violation == Violation("IdCollision", subjects, message)


def test_validate_cycle_detected_once():
    net = load_network(FIXTURES / "cyclic.json")
    cycles = [v for v in validate_network(net) if v.rule == "CycleDetected"]
    assert len(cycles) == 1
    assert set(cycles[0].subjects) == {"TKA", "TKB"}


def test_validate_all_parents_no_root():
    rules = _rules(validate_network(load_network(FIXTURES / "cyclic.json")))
    assert "NoRootTransaction" in rules


# --- execution order ---------------------------------------------------------

def test_execution_order_poc1():
    net = load_network(FIXTURES / "poc1.json")
    assert execution_order(net) == ["TK01", "TK02", "TK03", "TK04"]


def test_execution_order_poc2():
    # TK06 hangs directly off TK01, so it starts before the deeper TK03..TK05
    net = load_network(FIXTURES / "poc2.json")
    assert execution_order(net) == ["TK01", "TK02", "TK06", "TK03", "TK04", "TK05"]


def test_execution_order_rejects_cycles_and_multiple_parents():
    with pytest.raises(NetworkStructureError, match="cycle"):
        execution_order(load_network(FIXTURES / "cyclic.json"))
    tks = [_tk("T1", "A1", "A2"), _tk("T2", "A2", "A3"), _tk("T3", "A2", "A4")]
    deps = [
        Dependency("T1", "T2", DependencyKind.RAP),
        Dependency("T3", "T2", DependencyKind.RAE),
    ]
    with pytest.raises(NetworkStructureError, match="multiple parents"):
        execution_order(_net(tks, deps))


@st.composite
def _forest(draw):
    """A random dependency forest over up to 8 transactions."""
    n = draw(st.integers(min_value=1, max_value=8))
    tks = [_tk(f"T{i:02d}", f"A{i}", f"B{i}") for i in range(n)]
    deps = []
    for i in range(1, n):
        parent = draw(st.one_of(st.none(), st.integers(min_value=0, max_value=i - 1)))
        if parent is not None:
            kind = draw(st.sampled_from(list(DependencyKind)))
            deps.append(Dependency(tks[parent].id, tks[i].id, kind))
    return _net(tks, deps)


@given(_forest())
def test_execution_order_parents_precede_children(net):
    order = execution_order(net)
    assert sorted(order) == sorted(t.id for t in net.transactions)
    position = {tk_id: i for i, tk_id in enumerate(order)}
    for dep in net.dependencies:
        assert position[dep.parent] < position[dep.child]


@given(_forest())
def test_execution_order_ignores_declaration_order(net):
    shuffled = TransactionNetwork(
        actors=net.actors,
        transactions=tuple(reversed(net.transactions)),
        dependencies=tuple(reversed(net.dependencies)),
    )
    assert execution_order(shuffled) == execution_order(net)
