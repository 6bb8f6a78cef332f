"""The four workloads: their inputs, timed operations and correctness checks.

``setup(workload, seed, root)`` imports ``demoflow`` afresh, reads the
fixtures, generates the networks and returns the workload's cases.  A case's
``run`` is the timed call into the program; its ``check`` judges the result
against a known answer that comes from the engine or the fixtures, never from
the code under test, and is not timed.

A check returns one of three statuses:

- ``ok``: the output matches the known answer;
- ``known``: the output is wrong in a way ROADMAP item 3 (composed-network
  semantics at ``dissent`` and ``complete``) already records, so it lowers
  ``ok_share`` but does not count as a failed operation;
- ``fail``: anything else, including an exception.
"""

from __future__ import annotations

import dataclasses
import importlib
import json
import random
import sys
from pathlib import Path
from typing import Callable

import netgen
from tracing import model_counts

WORKLOADS = ("compile-audit", "verify-deep", "verify-wide", "random-walk")

# the two NonConformant verdicts of ROADMAP item 3 that verify-deep keeps in view
KNOWN_NONCONFORMANT = {"chain2-RaP@dissent", "chain2-RaE@dissent"}

# totals the fixtures' README (and the published matrices) state
FIXTURE_TOTALS = {("poc1", "complete"): (6, 19, 31), ("poc2", "dissent"): (9, 27, 48)}

RANDOM_WALKS = 2000
TREE_COPIES = 8  # random-walk trees of each size


@dataclasses.dataclass
class Outcome:
    status: str  # ok | known | fail
    counts: dict[str, int]
    problems: list[str]


@dataclasses.dataclass
class Case:
    name: str
    run: Callable  # run(tracer) -> output
    check: Callable  # check(output or exception) -> Outcome


def fresh_import(src: Path):
    """Import ``demoflow`` from ``src`` anew, so set-up pays the import."""
    for name in [m for m in sys.modules if m == "demoflow" or m.startswith("demoflow.")]:
        del sys.modules[name]
    demoflow = importlib.import_module("demoflow")
    if Path(demoflow.__file__).resolve().parent != (src / "demoflow").resolve():
        raise ImportError(f"demoflow was imported from {demoflow.__file__}, not {src}")
    return demoflow


def setup(workload: str, seed: int, root: Path) -> tuple[object, list[Case]]:
    d = fresh_import(root / "src")
    fixtures = root / "fixtures"
    rng = random.Random(f"{workload}:{seed}")
    build = {
        "compile-audit": _compile_audit,
        "verify-deep": _verify_deep,
        "verify-wide": _verify_wide,
        "random-walk": _random_walk,
    }[workload]
    return d, build(d, rng, fixtures)


def _level(d, name: str):
    return d.DetailLevel(name)


def _parsed(d, doc: dict):
    """The generated network as the program reads it; it must be valid."""
    net = d.parse_network(json.dumps(doc))
    violations = d.validate_network(net)
    if violations:
        raise ValueError(f"generated network {doc['name']} is invalid: {violations}")
    return net


# ---------------------------------------------------------------------------
# compile-audit
# ---------------------------------------------------------------------------


def model_problems(d, model, data: bytes, layout: bool) -> list[str]:
    """Lint-clean, and serialization is stable and round-trips byte for byte."""
    problems = [f"lint: {finding}" for finding in d.lint_model(model)]
    if d.serialize_model(model, layout=layout) != data:
        problems.append("serializing twice gave different bytes")
    if d.serialize_model(d.parse_model(data), layout=layout) != data:
        problems.append("serialize(parse(serialize(m))) differs from serialize(m)")
    return problems


def _fixture_totals(mapping, annotations, alphabet, transactions: int) -> tuple[int, int, int]:
    """Audit totals the fixtures imply: a mapped cell is explicit when its act
    is in the level's alphabet (the model then has the node), an annotated
    cell that is not explicit is implicit."""
    acts = {act.value for act in alphabet}
    explicit = {(e["transaction"], e["act"]) for e in mapping if e["act"] in acts}
    implicit = {(e["transaction"], e["act"]) for e in annotations} - explicit
    return len(explicit), len(implicit), 14 * transactions - len(explicit) - len(implicit)


def _compile_audit(d, rng: random.Random, fixtures: Path) -> list[Case]:
    sources = []  # (name, json text, transactions, audit kwargs or None)
    for fixture in ("poc1", "poc2"):
        text = (fixtures / f"{fixture}.json").read_text()
        audit = {
            "mapping": json.loads((fixtures / f"{fixture}_explicit.json").read_text()),
            "annotations": json.loads((fixtures / f"{fixture}_implicit.json").read_text()),
        }
        sources.append((fixture, text, len(json.loads(text)["transactions"]), audit))
    for size in range(1, 9):
        for copy in range(2):
            sources.append((f"tree{size}.{copy}", json.dumps(netgen.random_tree(size, rng)), size, None))

    cases = []
    for name, text, transactions, audit in sources:
        for level_name in ("happy", "dissent", "complete"):
            level = _level(d, level_name)
            alphabet = d.LEVEL_ALPHABETS[level]
            if audit is None:
                expected = (transactions * len(alphabet), 0, transactions * (14 - len(alphabet)))
            else:
                expected = _fixture_totals(audit["mapping"], audit["annotations"], alphabet, transactions)
                pinned = FIXTURE_TOTALS.get((name, level_name), expected)
                if pinned != expected:
                    raise ValueError(f"{name}@{level_name}: fixtures imply {expected}, README says {pinned}")
            layout = len(cases) % 2 == 1
            cases.append(
                Case(
                    f"{name}@{level_name}{'+layout' if layout else ''}",
                    _model_op(d, text, level, layout, audit),
                    _model_check(d, layout, expected),
                )
            )
    return cases


def _model_op(d, text: str, level, layout: bool, audit):
    def run(tr):
        # generate
        with tr.span("network.parse"):
            net = d.parse_network(text)
        with tr.span("network.validate"):
            violations = d.validate_network(net)
        with tr.span("compiler.compile"):
            model = d.compile_network(net, level)
        with tr.span("model.lint"):
            findings = d.lint_model(model)
        with tr.span("xmlio.serialize"):
            data = d.serialize_model(model, layout=layout)
        # analyze
        with tr.span("xmlio.parse"):
            parsed = d.parse_model(data)
        with tr.span("coverage.classify"):
            if audit is None:
                matrix = d.classify_acts(net, parsed, heuristic_names=True)
            else:
                matrix = d.classify_acts(net, parsed, **audit)
        with tr.span("coverage.render"):
            report = d.render_matrix(matrix)
        return violations, model, findings, data, matrix, report

    return run


def _model_check(d, layout: bool, expected: tuple[int, int, int]):
    def check(output) -> Outcome:
        if isinstance(output, Exception):
            return Outcome("fail", {}, [f"raised {output!r}"])
        violations, model, findings, data, matrix, report = output
        problems = [f"invalid network: {v}" for v in violations]
        problems += model_problems(d, model, data, layout)
        explicit, implicit, _ = expected
        cells = matrix.cell_count()
        if matrix.totals() != expected:
            problems.append(f"audit totals {matrix.totals()}, expected {expected}")
        for line in (f"Total Explicit = {explicit} (in {cells})", f"Total Implicit = {implicit} (in {cells})"):
            if line not in report:
                problems.append(f"report lacks {line!r}")
        counts = dict(model_counts(model))
        counts.update({"model.lint.findings": len(findings), "xmlio.bytes": len(data), "coverage.cells": cells})
        return Outcome("fail" if problems else "ok", counts, problems)

    return check


# ---------------------------------------------------------------------------
# verify-deep and verify-wide
# ---------------------------------------------------------------------------


def _verify_cases(d, inputs: list[tuple[str, dict, str]]) -> list[Case]:
    cases = []
    for name, doc, level_name in inputs:
        net, level = _parsed(d, doc), _level(d, level_name)
        key = f"{name}@{level_name}"
        cases.append(
            Case(
                key,
                lambda tr, net=net, level=level: d.check_network_conformance(net, level),
                _verdict_check(d, key),
            )
        )
    return cases


def _verdict_check(d, key: str):
    def check(report) -> Outcome:
        if isinstance(report, Exception):
            return Outcome("fail", {}, [f"raised {report!r}"])
        counts = {"simulator.states": report.states, "simulator.traces": report.traces}
        if report.verdict is d.Verdict.CONFORMANT:
            return Outcome("ok", counts, [])
        # ConformanceReport.summary() cannot sort Act tuples, so describe it here
        problems = [
            f"{report.verdict.value}: {len(report.missing.get(tk, ()))} missing and "
            f"{len(report.unexpected.get(tk, ()))} unexpected projections of {tk}"
            for tk in sorted(set(report.missing) | set(report.unexpected))
        ] + [f"compensation: {v}" for v in report.compensation_violations]
        return Outcome("known" if key in KNOWN_NONCONFORMANT else "fail", counts, problems)

    return check


def _fixture(fixtures: Path, name: str) -> dict:
    return json.loads((fixtures / f"{name}.json").read_text())


def _verify_deep(d, rng: random.Random, fixtures: Path) -> list[Case]:
    """Many states, one or a few traces: step enumeration, application and
    state hashing dominate; the trace-set memo is trivial."""
    inputs = [
        ("solo", netgen.chain(1, "RaP", rng), "happy"),
        ("solo", netgen.chain(1, "RaP", rng), "dissent"),
        ("poc1", _fixture(fixtures, "poc1"), "happy"),
    ]
    for length in (5, 6):
        for kind in ("RaP", "RaE"):
            inputs.append((f"chain{length}-{kind}", netgen.chain(length, kind, rng), "happy"))
    for kind in ("RaP", "RaE"):
        inputs.append((f"chain2-{kind}", netgen.chain(2, kind, rng), "dissent"))
    return _verify_cases(d, inputs)


def _verify_wide(d, rng: random.Random, fixtures: Path) -> list[Case]:
    """Interleaving-rich inputs: trace-set merging, projection and the
    compensation check dominate, and memory tracks trace width."""
    inputs = [
        ("solo", netgen.chain(1, "RaP", rng), "complete"),
        ("poc2", _fixture(fixtures, "poc2"), "happy"),
    ]
    for kind in ("RaP", "RaE", "RaD"):
        inputs.append((f"fan2-{kind}", netgen.fan(2, kind, rng), "happy"))
    inputs.append(("chain3-RaD", netgen.chain(3, "RaD", rng), "happy"))
    return _verify_cases(d, inputs)


# ---------------------------------------------------------------------------
# random-walk
# ---------------------------------------------------------------------------


def _oracle(d, level_name: str) -> tuple[frozenset, set]:
    """The engine's language at a level, and every prefix of its members."""
    language = d.enumerate_language(d.LEVEL_ALPHABETS[_level(d, level_name)])
    return language, {acts[:i] for acts, _ in language for i in range(len(acts) + 1)}


def walk_problems(d, trace, language, prefixes) -> list[str]:
    """Every settled transaction's projection is a member of the engine's
    language (or empty at Initial); in a run that did not settle, each
    projection is at least a prefix of a member."""
    unsettled = trace.outcome() in ("Deadlock", "BoundExhausted")
    problems = []
    for tk, phase in trace.outcomes:
        projection = trace.acts_for(tk)
        if not projection and phase is d.Phase.INITIAL:
            continue
        if (projection, phase) in language or (unsettled and projection in prefixes):
            continue
        acts = ",".join(act.value for act in projection)
        problems.append(f"{tk}: [{acts}] -> {phase.value} is outside the engine language")
    return problems


def _random_walk(d, rng: random.Random, fixtures: Path) -> list[Case]:
    """Seeded random walks: the step layer without a memo, through the
    revocation, reposition and terminate machinery of dissent/complete."""
    oracles = {level_name: _oracle(d, level_name) for level_name in ("dissent", "complete")}

    def compiled(name, doc, level_name):
        net = _parsed(d, doc)
        return f"{name}@{level_name}", level_name, len(net.transactions), d.compile_network(net, _level(d, level_name))

    fixed = [
        compiled(name, _fixture(fixtures, name), level_name)
        for name in ("poc1", "poc2")
        for level_name in ("dissent", "complete")
    ]
    trees = [
        compiled(f"tree{size}.{copy}", netgen.random_tree(size, rng), "complete")
        for size in range(2, 9)
        for copy in range(TREE_COPIES)
    ]
    cases = []
    for i in range(RANDOM_WALKS):
        # half the walks on the fixtures, half on the generated trees
        group = fixed if i % 2 == 0 else trees
        name, level_name, transactions, model = group[(i // 2) % len(group)]
        walk_seed = rng.getrandbits(32)
        cases.append(
            Case(
                f"{name}#{walk_seed}",
                lambda tr, model=model, walk_seed=walk_seed: _walk(d, tr, model, walk_seed),
                _walk_check(d, transactions, *oracles[level_name]),
            )
        )
    return cases


def _walk(d, tr, model, seed: int):
    with tr.span("simulator.walk"):
        (trace,) = d.simulate_random(model, seed=seed, runs=1)
    return trace


def _walk_check(d, transactions: int, language, prefixes):
    composed = transactions > 1

    def check(trace) -> Outcome:
        if isinstance(trace, Exception):
            return Outcome("fail", {}, [f"raised {trace!r}"])
        outcome = trace.outcome()
        counts = {"simulator.walk_events": len(trace.events), f"simulator.walk_outcome.{outcome}": 1}
        problems = walk_problems(d, trace, language, prefixes)
        if problems or outcome == "BoundExhausted":
            return Outcome("fail", counts, problems or ["walk exhausted its step bound"])
        if outcome == "Deadlock":
            # ROADMAP item 3: a parent is stranded when a child ends Stopped
            return Outcome("known" if composed else "fail", counts, ["walk ended in Deadlock"])
        return Outcome("ok", counts, [])

    return check


# ---------------------------------------------------------------------------
# self-test of the checks
# ---------------------------------------------------------------------------


def self_test(d) -> list[str]:
    """The checks must reject a model with one sequence flow deleted and a
    walk with one act removed; returns what they let through."""
    net = _parsed(d, netgen.chain(1, "RaP", random.Random(0)))
    model = d.compile_network(net, _level(d, "complete"))
    escaped = []

    mutant = d.parse_model(d.serialize_model(model))
    mutant.pools[0].flows.pop(0)
    if not model_problems(d, mutant, d.serialize_model(mutant), False):
        escaped.append("a model with a deleted sequence flow passed the model check")

    language, prefixes = _oracle(d, "complete")
    (trace,) = d.simulate_random(model, seed=0, runs=1)
    if walk_problems(d, trace, language, prefixes):
        escaped.append("an untouched solo walk failed the walk check")
    first_act = next(i for i, event in enumerate(trace.events) if not event.inverse)
    cut = dataclasses.replace(trace, events=trace.events[:first_act] + trace.events[first_act + 1:])
    if not walk_problems(d, cut, language, prefixes):
        escaped.append("a walk with an act removed passed the walk check")
    return escaped
