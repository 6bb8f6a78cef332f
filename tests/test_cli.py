"""Command-line interface: wiring, exit codes, artifact determinism."""

from __future__ import annotations

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import demoflow
from demoflow.cli import main
from demoflow.compiler import compile_network
from demoflow.engine import TERMINAL_PHASES, Bounds, Phase
from demoflow.model import lint_model, slugify_tk
from demoflow.network import load_network
from demoflow.simulator import _TRIGGER, _Simulation
from demoflow.xmlio import parse_model

from test_coverage import POC1_CSV
from test_model import POOL_CLASH
from test_network import REFUSED_DOCUMENTS
from test_simulator import _enabled

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"


@pytest.fixture()
def solo_file(tmp_path):
    doc = {
        "name": "solo",
        "actors": [
            {"id": "A", "name": "Customer"},
            {"id": "B", "name": "Supplier"},
        ],
        "transactions": [
            {
                "id": "TK01",
                "name": "order fulfilment",
                "initiator": "A",
                "executor": "B",
                "result": {"id": "PK01", "phrase": "[order] has been fulfilled"},
            }
        ],
        "dependencies": [],
    }
    path = tmp_path / "solo.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    return path


# ---------------------------------------------------------------------------
# validate
# ---------------------------------------------------------------------------


def test_validate_ok(capsys):
    assert main(["validate", str(FIXTURES / "poc1.json")]) == 0
    assert "valid network" in capsys.readouterr().err


def test_validate_cycle_fails(capsys):
    assert main(["validate", str(FIXTURES / "cyclic.json")]) == 1
    assert "CycleDetected" in capsys.readouterr().err


def test_validate_missing_file(tmp_path, capsys):
    assert main(["validate", str(tmp_path / "nope.json")]) == 2
    assert "error" in capsys.readouterr().err


def test_validate_malformed_document(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text('{"oops": true}', encoding="utf-8")
    assert main(["validate", str(bad)]) == 1
    assert "NetworkFormatError" in capsys.readouterr().err


# the arguments each command that reads a network file takes after it
_NETWORK_COMMANDS = {
    "validate": [],
    "generate": ["--level", "happy", "--out", "{out}"],
    "simulate": ["--level", "happy"],
    "conformance": ["--level", "happy"],
}


def _network_command(command: str, network, tmp_path) -> list[str]:
    out = tmp_path / "out.bpmn"
    return [command, str(network), *(arg.format(out=out) for arg in _NETWORK_COMMANDS[command])]


@pytest.mark.parametrize("command", list(_NETWORK_COMMANDS))
def test_non_list_dependencies_are_a_format_error(tmp_path, solo_file, capsys, command):
    doc = json.loads(solo_file.read_text(encoding="utf-8"))
    doc["dependencies"] = 5
    solo_file.write_text(json.dumps(doc), encoding="utf-8")
    assert main(_network_command(command, solo_file, tmp_path)) == 1
    assert capsys.readouterr().err == (
        "error: NetworkFormatError: network: field 'dependencies' must be list, got int\n"
    )
    assert not (tmp_path / "out.bpmn").exists()


@pytest.mark.parametrize(
    "doc, message", REFUSED_DOCUMENTS, ids=[message for _, message in REFUSED_DOCUMENTS]
)
def test_refused_network_documents_exit_1_with_one_error_line(tmp_path, capsys, doc, message):
    network = tmp_path / "net.json"
    network.write_text(json.dumps(doc), encoding="utf-8")
    assert main(["validate", str(network)]) == 1
    err = capsys.readouterr().err
    assert err == f"error: NetworkFormatError: {message}\n"
    assert "Traceback" not in err


@pytest.mark.parametrize("command", list(_NETWORK_COMMANDS))
def test_network_nested_too_deeply_is_a_format_error(tmp_path, capsys, command):
    deep = tmp_path / "deep.json"
    deep.write_text("[" * 200_000, encoding="utf-8")
    assert main(_network_command(command, deep, tmp_path)) == 1
    assert capsys.readouterr().err == "error: NetworkFormatError: invalid JSON: nested too deeply\n"
    assert not (tmp_path / "out.bpmn").exists()


# ---------------------------------------------------------------------------
# generate
# ---------------------------------------------------------------------------


def test_generate_writes_a_clean_model(tmp_path):
    out = tmp_path / "poc1.bpmn"
    code = main(
        ["generate", str(FIXTURES / "poc1.json"), "--level", "complete", "--out", str(out)]
    )
    assert code == 0
    model = parse_model(out.read_bytes())
    assert lint_model(model) == []
    assert len(model.pools) == 5


def test_generate_twice_is_byte_identical(tmp_path):
    a, b = tmp_path / "a.bpmn", tmp_path / "b.bpmn"
    for out in (a, b):
        assert (
            main(
                [
                    "generate",
                    str(FIXTURES / "poc2.json"),
                    "--level",
                    "dissent",
                    "--out",
                    str(out),
                ]
            )
            == 0
        )
    assert a.read_bytes() == b.read_bytes()


def test_generate_layout_variant(tmp_path, solo_file):
    plain, laid = tmp_path / "p.bpmn", tmp_path / "l.bpmn"
    assert main(["generate", str(solo_file), "--level", "happy", "--out", str(plain)]) == 0
    assert (
        main(
            [
                "generate",
                str(solo_file),
                "--level",
                "happy",
                "--out",
                str(laid),
                "--layout-grid",
            ]
        )
        == 0
    )
    assert plain.read_bytes() != laid.read_bytes()
    assert b"BPMNDiagram" in laid.read_bytes()


def test_generate_rejects_cyclic_network(tmp_path, capsys):
    out = tmp_path / "x.bpmn"
    code = main(
        ["generate", str(FIXTURES / "cyclic.json"), "--level", "happy", "--out", str(out)]
    )
    assert code == 1
    assert not out.exists()


@pytest.mark.parametrize(
    "name", ["SOC\u0001Dept", "SOC\ud800", "SOC\ufffe"], ids=["control", "surrogate", "fffe"]
)
def test_generate_rejects_a_name_xml_cannot_carry(tmp_path, capsys, name):
    doc = json.loads((FIXTURES / "poc1.json").read_text(encoding="utf-8"))
    doc["actors"][0]["name"] = name
    network = tmp_path / "poc1.json"
    network.write_text(json.dumps(doc), encoding="utf-8")
    out = tmp_path / "x.bpmn"
    assert main(["validate", str(network)]) == 1
    assert main(["generate", str(network), "--level", "happy", "--out", str(out)]) == 1
    assert not out.exists()
    assert "error: NonXmlName [A01]: actor name contains U+" in capsys.readouterr().err


def _colliding(doc: dict, ids: str) -> dict:
    """``doc`` with a second transaction, or actor, whose id the compiler
    writes as the first's."""
    if ids == "transactions":
        doc["transactions"].append(dict(doc["transactions"][0], id="TK_01", result={
            "id": "PK02", "phrase": "[order] has been re-fulfilled",
        }))
    else:
        doc["actors"].append({"id": "a", "name": "Second customer"})
        doc["transactions"][0]["executor"] = "a"
    return doc


@pytest.mark.parametrize("ids", ["transactions", "actors"])
def test_generate_rejects_ids_that_compile_alike(tmp_path, solo_file, capsys, ids):
    doc = _colliding(json.loads(solo_file.read_text(encoding="utf-8")), ids)
    solo_file.write_text(json.dumps(doc), encoding="utf-8")
    out = tmp_path / "x.bpmn"
    assert main(["validate", str(solo_file)]) == 1
    assert main(["generate", str(solo_file), "--level", "happy", "--out", str(out)]) == 1
    assert not out.exists()
    expected = "[TK01, TK_01]" if ids == "transactions" else "[A, a]"
    assert capsys.readouterr().err.count(f"error: IdCollision {expected}") == 2


def test_generate_refuses_a_model_that_fails_lint(tmp_path, capsys):
    network = tmp_path / "pool.json"
    network.write_text(json.dumps(POOL_CLASH), encoding="utf-8")
    out = tmp_path / "x.bpmn"
    assert main(["validate", str(network)]) == 0
    capsys.readouterr()
    assert main(["generate", str(network), "--level", "happy", "--out", str(out)]) == 1
    assert not out.exists()
    assert capsys.readouterr().err == (
        "error: DuplicateId [pool_i_request_sendtask]: 2 model elements share this id\n"
    )


def test_generate_rejects_unknown_level(tmp_path):
    with pytest.raises(SystemExit) as excinfo:
        main(["generate", str(FIXTURES / "poc1.json"), "--level", "extreme", "--out", "x"])
    assert excinfo.value.code == 2


# ---------------------------------------------------------------------------
# analyze
# ---------------------------------------------------------------------------


def test_analyze_reproduces_the_poc1_table(tmp_path):
    model_file = tmp_path / "poc1.bpmn"
    report = tmp_path / "report.csv"
    assert (
        main(
            [
                "generate",
                str(FIXTURES / "poc1.json"),
                "--level",
                "complete",
                "--out",
                str(model_file),
            ]
        )
        == 0
    )
    code = main(
        [
            "analyze",
            str(model_file),
            "--network",
            str(FIXTURES / "poc1.json"),
            "--mapping",
            str(FIXTURES / "poc1_explicit.json"),
            "--annotations",
            str(FIXTURES / "poc1_implicit.json"),
            "--report",
            str(report),
        ]
    )
    assert code == 0
    assert report.read_text(encoding="utf-8") == POC1_CSV


def test_analyze_text_format(tmp_path):
    model_file = tmp_path / "poc1.bpmn"
    report = tmp_path / "report.txt"
    main(
        [
            "generate",
            str(FIXTURES / "poc1.json"),
            "--level",
            "dissent",
            "--out",
            str(model_file),
        ]
    )
    code = main(
        [
            "analyze",
            str(model_file),
            "--network",
            str(FIXTURES / "poc1.json"),
            "--mapping",
            str(FIXTURES / "poc1_explicit.json"),
            "--annotations",
            str(FIXTURES / "poc1_implicit.json"),
            "--report",
            str(report),
            "--format",
            "text",
        ]
    )
    assert code == 0
    assert "Total Implemented = 25 (in 56) = 44.6%" in report.read_text(encoding="utf-8")


def test_analyze_rejects_unknown_act(tmp_path, solo_file, capsys):
    model_file = tmp_path / "solo.bpmn"
    main(["generate", str(solo_file), "--level", "happy", "--out", str(model_file)])
    mapping = tmp_path / "map.json"
    mapping.write_text(
        json.dumps([{"transaction": "TK01", "act": "Ponder", "nodeId": "x"}]),
        encoding="utf-8",
    )
    code = main(
        [
            "analyze",
            str(model_file),
            "--network",
            str(solo_file),
            "--mapping",
            str(mapping),
            "--report",
            str(tmp_path / "r.csv"),
        ]
    )
    assert code == 1
    assert "UnknownAnnotationKey" in capsys.readouterr().err


def test_analyze_warns_of_a_mapping_to_a_missing_node(tmp_path, solo_file, capsys):
    model_file = tmp_path / "solo.bpmn"
    main(["generate", str(solo_file), "--level", "happy", "--out", str(model_file)])
    mapping = tmp_path / "map.json"
    mapping.write_text(
        json.dumps([{"transaction": "TK01", "act": "Request", "nodeId": "nope"}]),
        encoding="utf-8",
    )
    report, unmapped = tmp_path / "r.csv", tmp_path / "unmapped.csv"
    analyze = ["analyze", str(model_file), "--network", str(solo_file)]
    assert main([*analyze, "--mapping", str(mapping), "--report", str(report)]) == 0
    assert capsys.readouterr().err == (
        "warning: mapping for (TK01, Request) references missing node 'nope'; ignored\n"
    )
    # the ignored entry leaves the report as it is without a mapping
    assert main([*analyze, "--report", str(unmapped)]) == 0
    assert report.read_bytes() == unmapped.read_bytes()


def test_analyze_reads_a_non_decimal_ordinal_as_a_foreign_id(tmp_path, capsys):
    # "²" is a digit to str.isdigit but not to int(), and int() refuses
    # 5,000 digits: such ids are outside the id grammar, like any foreign id
    model_file = tmp_path / "poc1.bpmn"
    main(["generate", str(FIXTURES / "poc1.json"), "--level", "happy", "--out", str(model_file)])
    xml = model_file.read_text(encoding="utf-8")
    reports = []
    for new_id in ("tk01_i_request_sendtask_²", "tk01_i_request_sendtask_" + "1" * 5000, "Task_1"):
        renamed = tmp_path / "renamed.bpmn"
        renamed.write_text(xml.replace("tk01_i_request_sendtask", new_id), encoding="utf-8")
        report = tmp_path / "report.csv"
        code = main(
            [
                "analyze",
                str(renamed),
                "--network",
                str(FIXTURES / "poc1.json"),
                "--heuristic-names",
                "--report",
                str(report),
            ]
        )
        assert code == 0, capsys.readouterr().err
        reports.append(report.read_text(encoding="utf-8"))
    assert reports[0] == reports[1] == reports[2]


@pytest.mark.parametrize("flag", ["--mapping", "--annotations"])
def test_analyze_rejects_a_document_nested_too_deeply(tmp_path, solo_file, capsys, flag):
    model_file = tmp_path / "solo.bpmn"
    main(["generate", str(solo_file), "--level", "happy", "--out", str(model_file)])
    deep = tmp_path / "deep.json"
    deep.write_text("[" * 200_000, encoding="utf-8")
    report = tmp_path / "r.csv"
    code = main([
        "analyze", str(model_file), "--network", str(solo_file), flag, str(deep),
        "--report", str(report),
    ])
    assert code == 1
    assert capsys.readouterr().err == f"error: ValueError: {deep}: JSON nested too deeply\n"
    assert not report.exists()


@pytest.mark.parametrize("flag", ["--mapping", "--annotations"])
@pytest.mark.parametrize("document", ['{"a": 1}', "[1, 2]"])
def test_analyze_rejects_a_document_that_is_not_a_list_of_objects(
    tmp_path, solo_file, capsys, flag, document
):
    model_file = tmp_path / "solo.bpmn"
    main(["generate", str(solo_file), "--level", "happy", "--out", str(model_file)])
    bad = tmp_path / "bad.json"
    bad.write_text(document, encoding="utf-8")
    code = main(
        [
            "analyze",
            str(model_file),
            "--network",
            str(solo_file),
            flag,
            str(bad),
            "--report",
            str(tmp_path / "r.csv"),
        ]
    )
    assert code == 1
    err = capsys.readouterr().err
    source = "mapping" if flag == "--mapping" else "annotation"
    assert err.startswith(f"error: UnknownAnnotationKey: {source} ")
    assert "Traceback" not in err


def test_analyze_rejects_a_duplicate_process(tmp_path, solo_file, capsys):
    model_file = tmp_path / "solo.bpmn"
    main(["generate", str(solo_file), "--level", "happy", "--out", str(model_file)])
    xml = model_file.read_text(encoding="utf-8")
    process = xml[xml.index("  <process "):xml.index("</process>") + len("</process>\n")]
    process_id = parse_model(xml).pools[0].process_id
    model_file.write_text(xml.replace(process, process + process), encoding="utf-8")
    code = main(
        [
            "analyze",
            str(model_file),
            "--network",
            str(solo_file),
            "--heuristic-names",
            "--report",
            str(tmp_path / "r.csv"),
        ]
    )
    assert code == 1
    err = capsys.readouterr().err
    assert err == f"error: ModelFormatError: duplicate process id {process_id!r}\n"
    assert not (tmp_path / "r.csv").exists()


def test_analyze_rejects_a_process_without_participant(tmp_path, solo_file, capsys):
    model_file = tmp_path / "solo.bpmn"
    main(["generate", str(solo_file), "--level", "happy", "--out", str(model_file)])
    xml = model_file.read_text(encoding="utf-8")
    process = xml[xml.index("  <process "):xml.index("</process>") + len("</process>\n")]
    process_id = parse_model(xml).pools[0].process_id
    stray = process.replace(f'id="{process_id}"', 'id="proc_stray"', 1)
    model_file.write_text(xml.replace(process, process + stray), encoding="utf-8")
    report = tmp_path / "r.csv"
    code = main(["analyze", str(model_file), "--network", str(solo_file), "--report", str(report)])
    assert code == 1
    err = capsys.readouterr().err
    assert err == "error: ModelFormatError: process 'proc_stray' is referenced by no participant\n"
    assert not report.exists()


def test_analyze_rejects_a_network_without_transactions(tmp_path, capsys):
    # no transactions means no cells, and a share of no cells is no number
    model_file = tmp_path / "poc1.bpmn"
    main(["generate", str(FIXTURES / "poc1.json"), "--level", "happy", "--out", str(model_file)])
    empty = tmp_path / "empty.json"
    empty.write_text(json.dumps({"actors": [], "transactions": []}), encoding="utf-8")
    report = tmp_path / "r.csv"
    code = main(["analyze", str(model_file), "--network", str(empty), "--report", str(report)])
    assert code == 1
    assert capsys.readouterr().err == "error: ValueError: network has no transactions\n"
    assert not report.exists()


# ---------------------------------------------------------------------------
# simulate
# ---------------------------------------------------------------------------


def test_simulate_exhaustive_trace_dump(tmp_path, solo_file, capsys):
    traces = tmp_path / "traces.jsonl"
    code = main(
        [
            "simulate",
            str(solo_file),
            "--level",
            "complete",
            "--exhaustive",
            "--traces",
            str(traces),
        ]
    )
    assert code == 0
    assert "372 trace(s) over 9987 explored state(s)" in capsys.readouterr().err
    lines = traces.read_text(encoding="utf-8").splitlines()
    assert len(lines) == 372
    assert lines == sorted(lines)
    for line in lines:
        doc = json.loads(line)
        assert set(doc) == {"events", "outcome"}
        assert doc["outcome"] in {"Accepted", "Stopped", "Terminated"}


# SHA-256 of the exhaustive trace dump of the solo network at complete
SOLO_COMPLETE_TRACES_SHA256 = "b6c4f8c58167f21752f48815b3b6ebf213d182cde1e02b1d8db66f70acff0e41"


def test_simulate_exhaustive_trace_dump_is_pinned(tmp_path, solo_file):
    traces = tmp_path / "traces.jsonl"
    code = main(["simulate", str(solo_file), "--level", "complete", "--traces", str(traces)])
    assert code == 0
    assert hashlib.sha256(traces.read_bytes()).hexdigest() == SOLO_COMPLETE_TRACES_SHA256


def test_simulate_composed_writes_one_line_per_projection(tmp_path, capsys):
    traces = tmp_path / "traces.jsonl"
    code = main(["simulate", str(FIXTURES / "poc1.json"), "--level", "happy", "--traces", str(traces)])
    assert code == 0
    assert capsys.readouterr().err == "4 trace(s) over 172 explored state(s)\n"
    lines = traces.read_text(encoding="utf-8").splitlines()
    assert lines == sorted(lines)
    for tk, line in zip(["tk01", "tk02", "tk03", "tk04"], lines):
        doc = json.loads(line)
        assert {event["tk"] for event in doc["events"]} == {tk}
        assert [event["act"] for event in doc["events"]] == [
            "Request", "Promise", "Execute", "Declare", "Accept",
        ]
        assert doc["outcome"] == "Accepted"


def test_simulate_bounds_flags(tmp_path, solo_file, capsys):
    traces = tmp_path / "traces.jsonl"
    code = main(
        [
            "simulate",
            str(solo_file),
            "--level",
            "dissent",
            "--max-rerequest",
            "2",
            "--traces",
            str(traces),
        ]
    )
    assert code == 0
    assert len(traces.read_text(encoding="utf-8").splitlines()) == 15


def test_simulate_random_is_reproducible(tmp_path, solo_file):
    first, second = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
    for out in (first, second):
        code = main(
            [
                "simulate",
                str(solo_file),
                "--level",
                "complete",
                "--random",
                "--seed",
                "9",
                "--runs",
                "25",
                "--traces",
                str(out),
            ]
        )
        assert code == 0
        assert len(out.read_text(encoding="utf-8").splitlines()) == 25
    assert first.read_bytes() == second.read_bytes()


@pytest.mark.parametrize("runs", ["0", "-3"])
def test_simulate_runs_must_be_positive(solo_file, capsys, runs):
    with pytest.raises(SystemExit) as excinfo:
        main(["simulate", str(solo_file), "--level", "happy", "--random", "--runs", runs])
    assert excinfo.value.code == 2
    assert f"--runs: must be at least 1, got {runs}" in capsys.readouterr().err


def test_simulate_refuses_a_network_without_transactions(tmp_path, capsys):
    empty = tmp_path / "empty.json"
    empty.write_text(json.dumps({"actors": [], "transactions": []}), encoding="utf-8")
    assert main(["simulate", str(empty), "--level", "happy"]) == 1
    assert capsys.readouterr().err == "error: NoRootTransaction []: network has no transactions\n"


def test_simulate_mode_flags_conflict(solo_file):
    with pytest.raises(SystemExit) as excinfo:
        main(["simulate", str(solo_file), "--level", "happy", "--exhaustive", "--random"])
    assert excinfo.value.code == 2


# ---------------------------------------------------------------------------
# conformance
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("level", ["happy", "dissent", "complete"])
def test_conformance_solo_all_levels(solo_file, level, capsys):
    assert main(["conformance", str(solo_file), "--level", level]) == 0
    assert "Conformant" in capsys.readouterr().err


@pytest.mark.parametrize(
    "flag, value, level, summary",
    [
        ("--max-rerequest", "2", "dissent", "Conformant: 15 traces over 175 states"),
        ("--max-redeclare", "0", "dissent", "Conformant: 6 traces over 77 states"),
        ("--max-revocations", "0", "complete", "Conformant: 10 traces over 119 states"),
    ],
)
def test_conformance_bounds_flags(solo_file, capsys, flag, value, level, summary):
    assert main(["conformance", str(solo_file), "--level", level, flag, value]) == 0
    assert capsys.readouterr().err == summary + "\n"


@pytest.mark.parametrize("flag", ["--max-rerequest", "--max-redeclare", "--max-revocations"])
@pytest.mark.parametrize("command", ["simulate", "conformance"])
def test_bounds_flags_reject_negative_values(solo_file, capsys, command, flag):
    with pytest.raises(SystemExit) as excinfo:
        main([command, str(solo_file), "--level", "happy", flag, "-1"])
    assert excinfo.value.code == 2
    assert f"{flag}: must be at least 0, got -1" in capsys.readouterr().err


@pytest.mark.parametrize(
    "command, flag",
    [
        ("simulate", "--runs"),
        ("simulate", "--max-states"),
        ("conformance", "--max-rerequest"),
        ("conformance", "--max-redeclare"),
        ("simulate", "--max-revocations"),
    ],
)
def test_integer_flags_reject_non_integers(solo_file, capsys, command, flag):
    with pytest.raises(SystemExit) as excinfo:
        main([command, str(solo_file), "--level", "happy", flag, "abc"])
    assert excinfo.value.code == 2
    err = capsys.readouterr().err
    assert f"argument {flag}: expected an integer, got 'abc'" in err
    assert "_int" not in err


def test_conformance_rejects_invalid_network(capsys):
    assert main(["conformance", str(FIXTURES / "cyclic.json"), "--level", "happy"]) == 1


@pytest.fixture()
def chain2_rap_file(tmp_path):
    """TK02 is requested after TK01's promise: NonConformant at dissent."""
    doc = {
        "name": "chain2-rap",
        "actors": [{"id": f"A{i}", "name": f"Actor {i}"} for i in (1, 2, 3)],
        "transactions": [
            {
                "id": f"TK0{i}",
                "name": f"step {i}",
                "initiator": f"A{i}",
                "executor": f"A{i + 1}",
                "result": {"id": f"PK0{i}", "phrase": f"[product {i}] has been made"},
            }
            for i in (1, 2)
        ],
        "dependencies": [{"parent": "TK01", "child": "TK02", "kind": "RaP"}],
    }
    path = tmp_path / "chain2-rap.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    return path


def test_simulate_fan2_rap_dissent_finishes(tmp_path, chain2_rap_file, capsys):
    # a fan of two RaP children: TK01 is the parent of TK02 and TK03
    doc = json.loads(chain2_rap_file.read_text(encoding="utf-8"))
    doc["actors"].append({"id": "A4", "name": "Actor 4"})
    doc["transactions"].append({
        "id": "TK03",
        "name": "step 3",
        "initiator": "A2",
        "executor": "A4",
        "result": {"id": "PK03", "phrase": "[product 3] has been made"},
    })
    doc["dependencies"].append({"parent": "TK01", "child": "TK03", "kind": "RaP"})
    fan = tmp_path / "fan2-rap.json"
    fan.write_text(json.dumps(doc), encoding="utf-8")
    assert main(["simulate", str(fan), "--level", "dissent"]) == 0
    assert capsys.readouterr().err == "32 trace(s) over 48065 explored state(s)\n"


def test_conformance_prints_a_nonconformant_report(chain2_rap_file, capsys):
    assert main(["conformance", str(chain2_rap_file), "--level", "dissent"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("NonConformant: ")
    assert "  unexpected tk01: [Request,Promise] -> Promised\n" in err
    assert "Traceback" not in err and "error:" not in err


@pytest.mark.parametrize("command", ["simulate", "conformance"])
def test_search_error_prints_its_witness(chain2_rap_file, command, capsys):
    # a child's exit re-enters its parent at complete (ROADMAP item 3)
    assert main([command, str(chain2_rap_file), "--level", "complete"]) == 1
    err = capsys.readouterr().err
    error, witness = err.splitlines()
    assert error == (
        "error: SimulationError: model lets Execute happen at tk01_e_execute_task "
        "in phase Executed, which the engine's bounded step forbids"
    )
    steps = witness.removeprefix("witness: ").split("; ")
    assert steps[0] == "fire tk01_i_entry_start"
    assert steps[-1] == "fire tk01_e_execute_task"
    assert "Traceback" not in err


@pytest.mark.parametrize("command", ["simulate", "conformance"])
def test_max_states_bound_is_inclusive(solo_file, command, capsys):
    # the solo network at complete has 9987 searched states
    assert main([command, str(solo_file), "--level", "complete", "--max-states", "9987"]) == 0
    assert "9987" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["simulate", "conformance"])
def test_exhausted_state_bound_exits_inconclusive(solo_file, command, capsys):
    assert main([command, str(solo_file), "--level", "complete", "--max-states", "9986"]) == 3
    err = capsys.readouterr().err
    assert err == "inconclusive: more than 9986 states explored\n"


@pytest.mark.parametrize("level, bound", [("dissent", "2000"), ("complete", "20000")])
@pytest.mark.parametrize("net", ["poc1", "poc2"])
def test_a_finding_decides_an_exhausted_conformance_search(net, level, bound, capsys):
    # neither search finishes within 5M states, but a stranded parent is
    # recorded after 38 searched states at dissent and 322 at complete
    path = FIXTURES / f"{net}.json"
    assert main(["conformance", str(path), "--level", level, "--max-states", bound]) == 1
    lines = capsys.readouterr().err.splitlines()
    assert lines[0].startswith("NonConformant: ") and lines[0].endswith(f" over {bound} states")
    assert f"  stopped after {bound} states: missing projections were not decided" in lines
    assert not [line for line in lines if line.startswith("  missing ")]
    (witness,) = [line for line in lines if line.startswith("witness: ")]
    # replayed from the initial state, the witness settles with a parent
    # short of a terminal phase
    network = load_network(path)
    sim = _Simulation(compile_network(network, level), Bounds())
    state = sim.initial()
    for description in witness.removeprefix("witness: ").split("; "):
        state, _ = sim.apply(state, _enabled(sim, state, description))
    steps = sim.steps(state)
    assert not steps or steps[0][0] == _TRIGGER
    parents = {slugify_tk(dep.parent) for dep in network.dependencies}
    settled = TERMINAL_PHASES | {Phase.INITIAL}
    assert [tk for tk, phase in sim.outcomes(state) if phase not in settled and tk in parents]


def test_exhausted_simulate_stays_inconclusive_whatever_it_met(capsys):
    # simulate judges no projection, so the bound that decides conformance
    # above leaves it inconclusive
    path = FIXTURES / "poc1.json"
    assert main(["simulate", str(path), "--level", "dissent", "--max-states", "2000"]) == 3
    assert capsys.readouterr().err == "inconclusive: more than 2000 states explored\n"


@pytest.mark.parametrize(
    "command, entry",
    [("simulate", "simulate_exhaustive"), ("conformance", "check_network_conformance")],
)
def test_out_of_memory_exits_inconclusive(solo_file, command, entry, monkeypatch, capsys):
    def exhausted(*args, **kwargs):
        raise MemoryError

    monkeypatch.setattr(f"demoflow.cli.{entry}", exhausted)
    assert main([command, str(solo_file), "--level", "happy"]) == 3
    err = capsys.readouterr().err
    assert err == "inconclusive: out of memory; lower --max-states or the loop bounds\n"


def test_max_states_must_be_positive(solo_file, capsys):
    with pytest.raises(SystemExit) as excinfo:
        main(["conformance", str(solo_file), "--level", "happy", "--max-states", "0"])
    assert excinfo.value.code == 2
    assert "--max-states: must be at least 1, got 0" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# cross-process determinism via the module entry point
# ---------------------------------------------------------------------------


def _run(args, cwd, hash_seed):
    """Run ``python -m demoflow`` in a fresh process.

    The child imports the same ``demoflow`` package as this process, whatever
    ``cwd`` is and whether the package comes from ``src/`` or an install.
    Each run gets its own ``PYTHONHASHSEED`` so that two runs always differ
    in hash randomisation, and output that depends on set or dict order
    cannot match by chance.
    """
    package_root = str(Path(demoflow.__file__).resolve().parent.parent)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        entry for entry in (package_root, env.get("PYTHONPATH")) if entry
    )
    env["PYTHONHASHSEED"] = str(hash_seed)
    return subprocess.run(
        [sys.executable, "-m", "demoflow", *args],
        cwd=cwd,
        env=env,
        capture_output=True,
        text=True,
    )


def test_module_entry_point_generates_identically(tmp_path):
    out1, out2 = tmp_path / "r1.bpmn", tmp_path / "r2.bpmn"
    for hash_seed, out in enumerate((out1, out2), start=1):
        proc = _run(
            [
                "generate",
                str(FIXTURES / "poc1.json"),
                "--level",
                "complete",
                "--out",
                str(out),
            ],
            cwd=tmp_path,
            hash_seed=hash_seed,
        )
        assert proc.returncode == 0, proc.stderr
    assert out1.read_bytes() == out2.read_bytes()


def test_module_entry_point_random_identical_across_processes(tmp_path, solo_file):
    outs = [tmp_path / "w1.jsonl", tmp_path / "w2.jsonl"]
    for hash_seed, out in enumerate(outs, start=1):
        proc = _run(
            [
                "simulate",
                str(solo_file),
                "--level",
                "complete",
                "--random",
                "--seed",
                "4",
                "--runs",
                "20",
                "--traces",
                str(out),
            ],
            cwd=tmp_path,
            hash_seed=hash_seed,
        )
        assert proc.returncode == 0, proc.stderr
    assert outs[0].read_bytes() == outs[1].read_bytes()
