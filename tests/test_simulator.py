"""Token-play simulation, conformance against the engine, composition rules."""

from __future__ import annotations

import copy
import hashlib
import json
from collections import Counter, deque
from typing import Optional

import pytest
from hypothesis import assume, given, settings, strategies as st

from demoflow.compiler import DetailLevel, LEVEL_ALPHABETS, compile_network
from demoflow.engine import (
    COMPLETE_ALPHABET,
    INITIAL_STATE,
    MOVES,
    Act,
    ActNotEnabled,
    Bounds,
    Phase,
    RevocationError,
    Role,
    apply_act,
    bounded_table,
    enumerate_language,
    rollback_chain,
)
from demoflow.model import (
    ACT_SLUGS,
    TAIL_TABLE_CAP,
    FlowNode,
    NodeKind,
    SequenceFlow,
    parse_node_id,
    read_tail,
)
from demoflow.network import (
    DEPENDENCY_RULES,
    Actor,
    Dependency,
    DependencyKind,
    Result,
    Transaction,
    TransactionNetwork,
    validate_network,
)
from demoflow.simulator import (
    SimEvent,
    SimTrace,
    SimulationError,
    StateSpaceLimitExceeded,
    Verdict,
    _DELIVER,
    _FIRE,
    _SPAWNED,
    _Simulation,
    _TRIGGER,
    _Working,
    _explore,
    check_compensation_order,
    check_composition,
    check_conformance,
    check_network_conformance,
    simulate_exhaustive,
    simulate_random,
)
from demoflow.xmlio import parse_model, serialize_model
from conftest import node_ids

HAPPY_ACTS = (Act.REQUEST, Act.PROMISE, Act.EXECUTE, Act.DECLARE, Act.ACCEPT)

# (traces, states) of the one-transaction collaboration per detail level.  A
# searched state is a model state with each transaction's history: at happy
# and dissent a history is a function of the table row, so each model state
# is searched once; at complete 5,319 model states (the full-trace
# reference's count) are reached by 9,987 (state, histories) pairs.
SOLO_EXPECTED = {
    DetailLevel.HAPPY_FLOW: (1, 17),
    DetailLevel.WITH_DISSENT: (10, 117),
    DetailLevel.COMPLETE: (372, 9987),
}


# ---------------------------------------------------------------------------
# Single-transaction exploration and conformance
# ---------------------------------------------------------------------------


def _outcome_of(trace: SimTrace, tk: str) -> Phase:
    """The phase ``trace`` leaves ``tk`` in."""
    return dict(trace.outcomes)[tk]


@pytest.mark.parametrize("level", list(DetailLevel))
def test_solo_trace_and_state_counts(solo_net, level):
    model = compile_network(solo_net, level)
    result = simulate_exhaustive(model)
    assert (len(result.traces), result.states) == SOLO_EXPECTED[level]


@pytest.mark.parametrize("level", list(DetailLevel))
def test_solo_conformant_at_every_level(solo_net, level):
    model = compile_network(solo_net, level)
    report = check_conformance(model, LEVEL_ALPHABETS[level])
    assert report.verdict is Verdict.CONFORMANT
    assert report.missing == {}
    assert report.unexpected == {}
    assert report.compensation_violations == []
    assert (report.traces, report.states) == SOLO_EXPECTED[level]


def test_network_conformance_wrapper(solo_net):
    report = check_network_conformance(solo_net, DetailLevel.COMPLETE)
    assert report.verdict is Verdict.CONFORMANT
    assert report.traces == 372


def test_network_conformance_takes_a_level_value(solo_net, monkeypatch):
    report = check_network_conformance(solo_net, "dissent")
    assert report.verdict is Verdict.CONFORMANT
    assert (report.traces, report.states) == SOLO_EXPECTED[DetailLevel.WITH_DISSENT]

    def never(*args):
        raise AssertionError("compilation started")

    monkeypatch.setattr("demoflow.compiler.compile_network", never)
    with pytest.raises(ValueError, match="bogus"):
        check_network_conformance(solo_net, "bogus")


def test_poc1_happy_network_is_conformant(poc1_net):
    # 615 states without the partial-order reduction
    report = check_network_conformance(poc1_net, DetailLevel.HAPPY_FLOW)
    assert report.verdict is Verdict.CONFORMANT
    assert (report.traces, report.states) == (4, 172)


def test_poc1_dissent_conformance_counts_are_pinned(poc1_net):
    # the largest composed network that finishes, with several transactions
    # and dissent loops; the verdict is NonConformant (ROADMAP item 3), so
    # only the counts are pinned; 204,701 states without the partial-order
    # reduction
    report = check_network_conformance(poc1_net, DetailLevel.WITH_DISSENT)
    assert (report.traces, report.states) == (46, 82453)


def test_projections_match_engine_language_exactly(solo_net):
    model = compile_network(solo_net, DetailLevel.COMPLETE)
    result = simulate_exhaustive(model)
    produced = {
        (trace.acts_for("tk01"), _outcome_of(trace, "tk01")) for trace in result.traces
    }
    assert produced == enumerate_language(LEVEL_ALPHABETS[DetailLevel.COMPLETE], Bounds())


@pytest.mark.parametrize(
    "bounds,expected_traces",
    [
        (Bounds(rerequest=2, redeclare=1), 15),
        (Bounds(rerequest=1, redeclare=2), 14),
    ],
)
def test_dissent_bounds_scale_the_language(solo_net, bounds, expected_traces):
    model = compile_network(solo_net, DetailLevel.WITH_DISSENT)
    report = check_conformance(model, LEVEL_ALPHABETS[DetailLevel.WITH_DISSENT], bounds)
    assert report.verdict is Verdict.CONFORMANT
    assert report.traces == expected_traces


def test_state_cap_is_enforced(solo_net):
    model = compile_network(solo_net, DetailLevel.COMPLETE)
    with pytest.raises(StateSpaceLimitExceeded):
        simulate_exhaustive(model, max_states=100)


# ---------------------------------------------------------------------------
# Compensation ordering
# ---------------------------------------------------------------------------


def test_allowed_revocation_rolls_back_in_inverse_order(solo_net):
    model = compile_network(solo_net, DetailLevel.COMPLETE)
    result = simulate_exhaustive(model)
    wanted = HAPPY_ACTS + (Act.REVOKE_DECLARE, Act.ALLOW, Act.EXECUTE, Act.DECLARE, Act.ACCEPT)
    matching = [t for t in result.traces if t.acts_for("tk01") == wanted]
    assert matching, "expected the allowed revoke-declare rerun to be explored"
    for trace in matching:
        inverses = [e.act for e in trace.events if e.inverse]
        assert inverses == [Act.ACCEPT, Act.DECLARE, Act.EXECUTE]
        allow_at = next(i for i, e in enumerate(trace.events) if e.act is Act.ALLOW)
        rerun_at = next(
            i
            for i, e in enumerate(trace.events)
            if i > allow_at and e.act is Act.EXECUTE and not e.inverse
        )
        # the decider undoes its own act while allowing; the rest of the chain
        # runs on the other side after Allow arrives, before the rerun starts
        after_allow = [
            e.act for e in trace.events[allow_at + 1 : rerun_at] if e.inverse
        ]
        assert after_allow == [Act.DECLARE, Act.EXECUTE]


def _rolled_back_trace(solo_net) -> SimTrace:
    """A solo run at complete whose allowed RevokeDeclare undoes Accept,
    Declare and Execute before the rerun."""
    model = compile_network(solo_net, DetailLevel.COMPLETE)
    wanted = HAPPY_ACTS + (Act.REVOKE_DECLARE, Act.ALLOW, Act.EXECUTE, Act.DECLARE, Act.ACCEPT)
    return min(
        (t for t in simulate_exhaustive(model).traces if t.acts_for("tk01") == wanted),
        key=SimTrace.to_json,
    )


def _inverse_positions(trace: SimTrace) -> list[int]:
    return [i for i, e in enumerate(trace.events) if e.inverse]


def test_compensation_order_accepts_a_real_rollback(solo_net):
    trace = _rolled_back_trace(solo_net)
    assert [trace.events[i].act for i in _inverse_positions(trace)] == [
        Act.ACCEPT, Act.DECLARE, Act.EXECUTE,
    ]
    assert check_compensation_order(trace) == []


def test_compensation_order_reports_swapped_inverses(solo_net):
    trace = _rolled_back_trace(solo_net)
    first, second = _inverse_positions(trace)[:2]
    events = list(trace.events)
    events[first], events[second] = events[second], events[first]
    violations = check_compensation_order(SimTrace(tuple(events), trace.outcomes))
    assert "tk01: expected Accept undone next, got Declare" in violations


def test_compensation_order_reports_a_dropped_inverse(solo_net):
    trace = _rolled_back_trace(solo_net)
    last = _inverse_positions(trace)[-1]
    events = trace.events[:last] + trace.events[last + 1 :]
    violations = check_compensation_order(SimTrace(events, trace.outcomes))
    assert "tk01: Execute happened before the rollback finished" in violations


def test_compensation_order_reports_an_inverse_outside_a_revocation(solo_net):
    trace = _rolled_back_trace(solo_net)
    stray = SimEvent("tk01", Act.REQUEST, Role.INITIATOR, inverse=True)
    events = trace.events[:1] + (stray,) + trace.events[1:]
    violations = check_compensation_order(SimTrace(events, trace.outcomes))
    assert violations == ["tk01: inverse Request outside a revocation"]


def test_compensation_order_reports_an_allow_by_the_wrong_role():
    # the initiator decides on RevokePromise; an executor Allow is a violation
    events = (
        SimEvent("tk01", Act.REQUEST, Role.INITIATOR),
        SimEvent("tk01", Act.PROMISE, Role.EXECUTOR),
        SimEvent("tk01", Act.REVOKE_PROMISE, Role.EXECUTOR),
        SimEvent("tk01", Act.ALLOW, Role.EXECUTOR),
    )
    violations = check_compensation_order(SimTrace(events, (("tk01", Phase.PROMISED),)))
    assert violations == [
        "tk01: Allow not enabled (executor does not decide on RevokePromise)"
    ]


def _solo_trace(*events: tuple[Act, Role, bool]) -> SimTrace:
    """A hand-built trace of ``tk01``'s ``(act, role, inverse)`` events."""
    events = tuple(SimEvent("tk01", *event) for event in events)
    return SimTrace(events, (("tk01", Phase.REQUESTED),))


_I, _E = Role.INITIATOR, Role.EXECUTOR


@pytest.mark.parametrize(
    "trace, expected",
    [
        (
            _solo_trace((Act.REQUEST, _I, False), (Act.ALLOW, _E, False)),
            ["tk01: Allow without a pending revocation"],
        ),
        (
            _solo_trace((Act.REQUEST, _I, False), (Act.ACCEPT, _I, False)),
            ["tk01: Accept not enabled (Accept by initiator is not enabled in phase Requested)"],
        ),
        (
            # Accept was never performed, so the Allow is refused
            # automatically and leaves nothing to undo
            _solo_trace(
                (Act.REQUEST, _I, False),
                (Act.REVOKE_ACCEPT, _I, False),
                (Act.ALLOW, _E, False),
                (Act.REQUEST, _I, True),
            ),
            ["tk01: extra inverse Request"],
        ),
    ],
    ids=["allow-unpending", "rejected-act", "inverse-after-auto-refusal"],
)
def test_compensation_order_reports_what_only_a_forbidden_act_reaches(trace, expected):
    # the bounded table forbids each of these acts, so no search records
    # such a projection; the fold and its reference must still agree
    assert check_compensation_order(trace) == expected
    assert _reference_compensation_order(trace) == expected


def test_compensation_order_reports_an_inverse_for_an_unperformed_act():
    # the executor's RevokePromise targets a Promise never performed, so
    # no rollback chain exists for the inverse to replay
    trace = _solo_trace(
        (Act.REQUEST, _I, False), (Act.REVOKE_PROMISE, _E, False), (Act.REQUEST, _I, True)
    )
    assert check_compensation_order(trace) == ["tk01: inverse Request for an unperformed act"]
    assert _reference_compensation_order(trace) == check_compensation_order(trace)


def test_compensation_order_does_not_hide_programming_errors(solo_net, monkeypatch):
    def broken(*args):
        raise TypeError("broken")

    trace = _rolled_back_trace(solo_net)
    monkeypatch.setattr("demoflow.simulator.apply_act", broken)
    with pytest.raises(TypeError, match="broken"):
        check_compensation_order(trace)


def test_refused_revocation_compensates_nothing(solo_net):
    model = compile_network(solo_net, DetailLevel.COMPLETE)
    result = simulate_exhaustive(model)
    wanted = HAPPY_ACTS + (Act.REVOKE_ACCEPT, Act.REFUSE)
    matching = [t for t in result.traces if t.acts_for("tk01") == wanted]
    assert matching
    for trace in matching:
        assert not any(e.inverse for e in trace.events)
        assert _outcome_of(trace, "tk01") is Phase.ACCEPTED


# ---------------------------------------------------------------------------
# Random mode
# ---------------------------------------------------------------------------


def test_same_seed_same_walks(solo_net):
    model = compile_network(solo_net, DetailLevel.COMPLETE)
    first = simulate_random(model, seed=11, runs=30)
    second = simulate_random(model, seed=11, runs=30)
    assert first == second
    assert first != simulate_random(model, seed=12, runs=30)


def test_random_walk_reads_only_the_table_rows_it_visits(poc1_net):
    # a walk reads the bounded-step rows its transactions pass through, not
    # the whole table, which has over a million rows at these bounds
    model = compile_network(poc1_net, DetailLevel.COMPLETE)
    bounds = Bounds(rerequest=40, redeclare=40, revocations=40)
    bounded_table.cache_clear()
    (trace,) = simulate_random(model, bounds, seed=3, runs=1)
    _, moves = bounded_table(bounds, COMPLETE_ALPHABET)
    assert len(moves) <= 1 + sum(not event.inverse for event in trace.events)


def test_random_walks_are_a_subset_of_exhaustive(solo_net):
    model = compile_network(solo_net, DetailLevel.COMPLETE)
    exhaustive = simulate_exhaustive(model).traces
    for trace in simulate_random(model, seed=42, runs=50):
        assert not trace.exhausted
        assert trace in exhaustive


def test_a_walk_cut_at_its_step_bound_is_bound_exhausted(solo_net, monkeypatch):
    # a happy walk takes more than three steps to quiesce
    monkeypatch.setattr("demoflow.simulator._MAX_WALK_STEPS", 3)
    model = compile_network(solo_net, DetailLevel.HAPPY_FLOW)
    traces = simulate_random(model, seed=1, runs=5)
    assert len(traces) == 5
    for trace in traces:
        assert trace.exhausted
        assert trace.outcome() == "BoundExhausted"
        assert json.loads(trace.to_json())["outcome"] == "BoundExhausted"


# ---------------------------------------------------------------------------
# Trace outcomes and the JSON-lines dump
# ---------------------------------------------------------------------------


def test_outcome_tags_over_complete_level(solo_net):
    model = compile_network(solo_net, DetailLevel.COMPLETE)
    result = simulate_exhaustive(model)
    assert {t.outcome() for t in result.traces} == {"Accepted", "Stopped", "Terminated"}


def test_outcome_aggregation_rules():
    def tagged(*phases, exhausted=False):
        outcomes = tuple((f"tk{i:02d}", ph) for i, ph in enumerate(phases, 1))
        return SimTrace((), outcomes, exhausted).outcome()

    assert tagged(Phase.ACCEPTED, Phase.ACCEPTED) == "Accepted"
    assert tagged(Phase.ACCEPTED, Phase.INITIAL) == "Accepted"
    assert tagged(Phase.ACCEPTED, Phase.STOPPED) == "Stopped"
    assert tagged(Phase.STOPPED, Phase.TERMINATED) == "Terminated"
    assert tagged(Phase.ACCEPTED, Phase.PROMISED) == "Deadlock"
    assert tagged(Phase.ACCEPTED, exhausted=True) == "BoundExhausted"


def test_happy_trace_json_shape(solo_net):
    model = compile_network(solo_net, DetailLevel.HAPPY_FLOW)
    (trace,) = simulate_exhaustive(model).traces
    doc = json.loads(trace.to_json())
    assert set(doc) == {"events", "outcome"}
    assert doc["outcome"] == "Accepted"
    assert doc["events"] == [
        {"tk": "tk01", "act": "Request"},
        {"tk": "tk01", "act": "Promise"},
        {"tk": "tk01", "act": "Execute"},
        {"tk": "tk01", "act": "Declare"},
        {"tk": "tk01", "act": "Accept"},
    ]


def test_inverse_events_are_marked_in_json(solo_net):
    model = compile_network(solo_net, DetailLevel.COMPLETE)
    result = simulate_exhaustive(model)
    trace = next(
        t
        for t in result.traces
        if t.acts_for("tk01")
        == HAPPY_ACTS + (Act.REVOKE_REQUEST, Act.ALLOW)
    )
    doc = json.loads(trace.to_json())
    assert doc["outcome"] == "Terminated"
    acts = [e["act"] for e in doc["events"]]
    assert acts[-5:] == [
        "Accept⁻¹",
        "Declare⁻¹",
        "Execute⁻¹",
        "Promise⁻¹",
        "Request⁻¹",
    ]


# ---------------------------------------------------------------------------
# Mutation: a model missing its Accept must be caught
# ---------------------------------------------------------------------------


def _without_initiator_accept(model):
    mutant = copy.deepcopy(model)
    for pool in mutant.pools:
        for node in list(pool.nodes):
            if node.id.endswith("_i_accept_sendtask"):
                (incoming,) = [f for f in pool.flows if f.target == node.id]
                (outgoing,) = [f for f in pool.flows if f.source == node.id]
                incoming.target = outgoing.target
                pool.flows.remove(outgoing)
                pool.nodes.remove(node)
    mutant.message_flows = [
        mf for mf in mutant.message_flows if "_i_accept_" not in mf.source
    ]
    return mutant


def _without_guards(model, prefix: str):
    mutant = copy.deepcopy(model)
    for pool in mutant.pools:
        for flow in pool.flows:
            if flow.label.startswith(prefix):
                flow.label = ""
    return mutant


# the act and the phase an unguarded loop's node reaches its bound in
_LOOP_BOUNDS = {
    "tk01_i_request_sendtask": ("Request", "Declined"),
    "tk01_e_declare_sendtask": ("Declare", "Rejected"),
}


@pytest.mark.parametrize(
    "label, node",
    [("rerequest", "tk01_i_request_sendtask"), ("redeclare", "tk01_e_declare_sendtask")],
)
def test_unguarded_loop_fails_at_its_bound(solo_net, label, node):
    model = _without_guards(compile_network(solo_net, DetailLevel.WITH_DISSENT), label)
    with pytest.raises(SimulationError) as excinfo:
        simulate_exhaustive(model, max_states=2000)
    assert not isinstance(excinfo.value, StateSpaceLimitExceeded)
    act, phase = _LOOP_BOUNDS[node]
    assert str(excinfo.value) == (
        f"model lets {act} happen at {node} in phase {phase}, "
        "which the engine's bounded step forbids"
    )


def test_unguarded_allow_of_an_unperformed_target_fails(solo_net):
    model = _without_guards(compile_network(solo_net, DetailLevel.COMPLETE), "performed:")
    with pytest.raises(SimulationError, match="Allow") as excinfo:
        simulate_exhaustive(model)
    assert not isinstance(excinfo.value, StateSpaceLimitExceeded)


def test_deleted_accept_task_is_nonconformant(solo_net):
    model = _without_initiator_accept(compile_network(solo_net, DetailLevel.HAPPY_FLOW))
    report = check_conformance(model, LEVEL_ALPHABETS[DetailLevel.HAPPY_FLOW])
    assert report.verdict is Verdict.NONCONFORMANT
    assert (HAPPY_ACTS, Phase.ACCEPTED) in report.missing["tk01"]


# ---------------------------------------------------------------------------
# The full-trace reference
# ---------------------------------------------------------------------------


def _full_traces(model, bounds=Bounds()) -> tuple[frozenset[SimTrace], int]:
    """Every whole interleaved trace and the number of states: a depth-first
    search with a memo of suffix sets, an explicit stack and no reduction.
    A trace is recorded at every quiescent state, where nothing but a
    revocation trigger can happen."""
    sim = _Simulation(model, bounds)
    # suffixes hold event codes and interned outcomes until the end, so
    # the sets hash ints only
    outcomes: dict[tuple, int] = {}
    root = sim.initial()
    memo: dict[tuple, frozenset] = {}
    opened = set()
    stack = [(root, None, None)]
    while stack:
        state, steps, successors = stack.pop()
        if steps is None:
            if state in memo:
                continue
            if state in opened:  # a descendant of itself
                raise SimulationError("simulation state graph has a cycle")
            opened.add(state)
            steps = sim.steps(state)
            successors = [sim.apply(state, step) for step in steps]
            stack.append((state, steps, successors))
            stack.extend((child, None, None) for child, _ in successors)
            continue
        suffixes = set()
        if all(step[0] == _TRIGGER for step in steps):
            suffixes.add(((), outcomes.setdefault(sim.outcomes(state), len(outcomes))))
        for child, emitted in successors:
            if emitted:
                suffixes.update((emitted + tail, outcome) for tail, outcome in memo[child])
            else:
                suffixes |= memo[child]
        memo[state] = frozenset(suffixes)
    decoded = list(outcomes)
    traces = frozenset(
        SimTrace(tuple(map(sim.events.__getitem__, codes)), decoded[outcome])
        for codes, outcome in memo[root]
    )
    return traces, len(memo)


def _projections(traces) -> frozenset[SimTrace]:
    """Each transaction's projection of each trace, as ``simulate_exhaustive``
    reports them: its events with its phase, leaving out a transaction's
    empty projection at Initial."""
    projections = set()
    for trace in traces:
        for tk, phase in trace.outcomes:
            events = tuple(e for e in trace.events if e.tk == tk)
            if events or phase is not Phase.INITIAL:
                projections.add(SimTrace(events, ((tk, phase),)))
    return frozenset(projections)


# ---------------------------------------------------------------------------
# Composition topologies
# ---------------------------------------------------------------------------


def _actor(i: int) -> Actor:
    return Actor(id=f"A{i:02d}", name=f"Actor {i:02d}")


def _tk(n: int, initiator: str, executor: str) -> Transaction:
    return Transaction(
        id=f"TK{n:02d}",
        name=f"step {n:02d}",
        initiator=initiator,
        executor=executor,
        result=Result(id=f"PK{n:02d}", phrase=f"[product {n:02d}] has been made"),
    )


def _chain_net(kind: DependencyKind, length: int) -> TransactionNetwork:
    actors = [_actor(i) for i in range(1, length + 2)]
    tks = [_tk(i, f"A{i:02d}", f"A{i + 1:02d}") for i in range(1, length + 1)]
    deps = [
        Dependency(parent=f"TK{i:02d}", child=f"TK{i + 1:02d}", kind=kind)
        for i in range(1, length)
    ]
    return TransactionNetwork(tuple(actors), tuple(tks), tuple(deps))


def _fan_net(kind: DependencyKind, children: int) -> TransactionNetwork:
    actors = [_actor(i) for i in range(1, children + 3)]
    tks = [_tk(1, "A01", "A02")]
    deps = []
    for j in range(children):
        tks.append(_tk(2 + j, "A02", f"A{3 + j:02d}"))
        deps.append(Dependency(parent="TK01", child=f"TK{2 + j:02d}", kind=kind))
    return TransactionNetwork(tuple(actors), tuple(tks), tuple(deps))


COMPOSITIONS = {
    "chain2-rap": (_chain_net(DependencyKind.RAP, 2), 1, 63),
    "chain3-rap": (_chain_net(DependencyKind.RAP, 3), 1, 209),
    "fan2-rap": (_fan_net(DependencyKind.RAP, 2), 252, 461),
    "chain2-rae": (_chain_net(DependencyKind.RAE, 2), 1, 59),
    "chain2-rad": (_chain_net(DependencyKind.RAD, 2), 6, 157),
}


@pytest.mark.parametrize("name", sorted(COMPOSITIONS))
def test_composition_ordering_holds(name):
    net, expected_traces, expected_states = COMPOSITIONS[name]
    assert not validate_network(net)
    model = compile_network(net, DetailLevel.HAPPY_FLOW)
    traces, states = _full_traces(model)
    assert (len(traces), states) == (expected_traces, expected_states)
    for trace in traces:
        assert check_composition(net, trace) == []
        for tk, phase in trace.outcomes:
            assert phase is Phase.ACCEPTED, f"{name}: {tk} ended {phase}"


def _moved(trace: SimTrace, event: SimEvent, before: SimEvent) -> SimTrace:
    """``trace`` with ``event`` taken out and put back just before ``before``."""
    events = [e for e in trace.events if e != event]
    events.insert(events.index(before), event)
    return SimTrace(tuple(events), trace.outcomes)


# each kind's row of DEPENDENCY_RULES: the parent act that opens the child,
# and whether the parent waits for the child's Accept
@pytest.mark.parametrize(
    "kind,opens,waits",
    [
        (DependencyKind.RAP, Act.PROMISE, True),
        (DependencyKind.RAE, Act.EXECUTE, True),
        (DependencyKind.RAD, Act.DECLARE, False),
    ],
    ids=["RaP", "RaE", "RaD"],
)
def test_composition_checker_spots_violations(kind, opens, waits):
    assert DEPENDENCY_RULES[kind] == (opens, waits)
    net = _chain_net(kind, 2)
    bogus = SimTrace(
        events=tuple(),
        outcomes=(("tk01", Phase.INITIAL), ("tk02", Phase.INITIAL)),
    )
    assert check_composition(net, bogus) == []  # nothing happened, nothing violated

    traces, _ = _full_traces(compile_network(net, DetailLevel.HAPPY_FLOW))
    good = min(traces, key=lambda trace: [e.label() for e in trace.events])
    assert check_composition(net, good) == []
    event = {(e.tk, e.act): e for e in good.events}  # a happy flow performs each act once
    # the child requested just before the parent's opening act
    early = _moved(good, event["tk02", Act.REQUEST], event["tk01", opens])
    assert f"TK02 was requested before TK01 performed {opens.value}" in check_composition(net, early)
    # the parent declares just before the child accepts
    hasty = _moved(good, event["tk01", Act.DECLARE], event["tk02", Act.ACCEPT])
    assert ("TK01 declared before TK02 was accepted" in check_composition(net, hasty)) is waits


def test_never_started_transaction_is_nonconformant():
    # without its one spawn flow the child is never requested: an empty
    # projection in every run, which misses the child's whole language
    model = compile_network(_chain_net(DependencyKind.RAD, 2), DetailLevel.HAPPY_FLOW)
    for pool in model.pools:
        pool.flows = [flow for flow in pool.flows if flow.label != "spawn"]
    report = check_conformance(model, LEVEL_ALPHABETS[DetailLevel.HAPPY_FLOW])
    assert report.verdict is Verdict.NONCONFORMANT
    assert list(report.missing) == ["tk02"]
    assert report.missing["tk02"] == enumerate_language(LEVEL_ALPHABETS[DetailLevel.HAPPY_FLOW])
    assert not report.unexpected


def test_nonconformant_report_renders_its_projections():
    # a child that ends Stopped strands its RaP parent at dissent (ROADMAP
    # item 3), which makes this network NonConformant
    net = _chain_net(DependencyKind.RAP, 2)
    report = check_network_conformance(net, DetailLevel.WITH_DISSENT)
    assert report.verdict is Verdict.NONCONFORMANT
    lines = report.summary().splitlines()
    assert lines[0].startswith("NonConformant: ")
    unexpected = [line for line in lines if line.startswith("  unexpected tk01: [")]
    assert "  unexpected tk01: [Request,Promise] -> Promised" in unexpected
    assert len(unexpected) == len(report.unexpected["tk01"])
    assert unexpected == sorted(unexpected)


# The smallest witness of the re-entry defect (ROADMAP item 3): after a
# revocation the child is re-requested and re-accepted, and its exit into the
# parent fires a second time, so the parent's Execute (RaP) or Declare (RaE)
# happens again in a phase that does not allow it.  The fix for item 3 must
# turn these into passes.
@pytest.mark.xfail(strict=True, raises=SimulationError, reason="ROADMAP item 3: a child's exit re-enters its parent")
@pytest.mark.parametrize("kind", [DependencyKind.RAP, DependencyKind.RAE], ids=lambda kind: kind.value)
def test_two_transaction_chain_is_conformant_at_complete(kind):
    model = compile_network(_chain_net(kind, 2), DetailLevel.COMPLETE)
    report = check_conformance(model, LEVEL_ALPHABETS[DetailLevel.COMPLETE])
    assert report.verdict is Verdict.CONFORMANT


# ---------------------------------------------------------------------------
# The searches against a brute-force enumeration, and pinned exploration results
# ---------------------------------------------------------------------------


def _every_path_traces(model) -> set[SimTrace]:
    """The trace of every path from the initial state to each quiescent
    state, enumerated one path at a time with no memo."""
    sim = _Simulation(model, Bounds())
    traces = set()
    pending = [(sim.initial(), ())]
    while pending:
        state, events = pending.pop()
        steps = sim.steps(state)
        if all(step[0] == _TRIGGER for step in steps):
            decoded = tuple(sim.events[code] for code in events)
            traces.add(SimTrace(decoded, sim.outcomes(state)))
        for step in steps:
            child, emitted = sim.apply(state, step)
            pending.append((child, events + emitted))
    return traces


@pytest.mark.parametrize(
    "net,level",
    [
        (None, DetailLevel.HAPPY_FLOW),
        (None, DetailLevel.WITH_DISSENT),
        (_chain_net(DependencyKind.RAP, 2), DetailLevel.HAPPY_FLOW),
    ],
    ids=["solo-happy", "solo-dissent", "chain2-rap-happy"],
)
def test_memo_matches_every_path_enumeration(solo_net, net, level):
    # both searches: the reference's whole traces and the library's projections
    model = compile_network(net or solo_net, level)
    every_path = _every_path_traces(model)
    assert _full_traces(model)[0] == every_path
    assert simulate_exhaustive(model).traces == _projections(every_path)


def test_full_trace_reference_counts_model_states(solo_net):
    # the reference searches each model state once; the library's search
    # counts (state, histories) pairs, 9,987 here (SOLO_EXPECTED)
    traces, states = _full_traces(compile_network(solo_net, DetailLevel.COMPLETE))
    assert (len(traces), states) == (372, 5319)


def test_poc2_happy_counts_are_pinned(poc2_net):
    # the full-trace reference; the library's search finds 6 projections
    # over 372 states (REFERENCE_STATES)
    traces, states = _full_traces(compile_network(poc2_net, DetailLevel.HAPPY_FLOW))
    assert (len(traces), states) == (252, 6363)


# SHA-256 of the JSON lines of 20 seeded walks (seed 7) over poc1 at complete
POC1_COMPLETE_WALKS_SHA256 = "ecee102068c0b8d15a5d431df7552b76318f2677bc192a9226523272047aa7f9"


def test_poc1_complete_walks_are_pinned(poc1_net):
    model = compile_network(poc1_net, DetailLevel.COMPLETE)
    lines = [trace.to_json() for trace in simulate_random(model, seed=7, runs=20)]
    payload = "".join(line + "\n" for line in lines).encode("utf-8")
    assert hashlib.sha256(payload).hexdigest() == POC1_COMPLETE_WALKS_SHA256


# SHA-256 of the JSON lines of 200 seeded walks (seed 13) over poc2 at
# complete, which reach its two-child RaP join and both RaE splices
POC2_COMPLETE_WALKS_SHA256 = "7f490565c04002dbdea818f5912b396321dcca6721c4da57908fdac8128683e5"

# the same for 50 walks (seed 7) over a fan of two RaD children
FAN2_RAD_WALKS_SHA256 = {
    DetailLevel.WITH_DISSENT: "2c3449cc9c34e3578745097c329cb2a3bdd6c17e8f1b996a07bf16e8befbf17f",
    DetailLevel.COMPLETE: "f005040398f072508a87567e88b55ecf3baa17caed19bc6df899c08d2be04d05",
}


def _traces_sha256(traces) -> str:
    lines = [trace.to_json() for trace in traces]
    return hashlib.sha256("".join(line + "\n" for line in lines).encode("utf-8")).hexdigest()


def _walks_sha256(model, seed: int, runs: int) -> str:
    return _traces_sha256(simulate_random(model, seed=seed, runs=runs))


def test_poc2_complete_walks_are_pinned(poc2_net):
    model = compile_network(poc2_net, DetailLevel.COMPLETE)
    assert _walks_sha256(model, seed=13, runs=200) == POC2_COMPLETE_WALKS_SHA256


@pytest.mark.parametrize("level", list(FAN2_RAD_WALKS_SHA256), ids=lambda level: level.value)
def test_rad_fan_walks_are_pinned(level):
    model = compile_network(_fan_net(DependencyKind.RAD, 2), level)
    assert _walks_sha256(model, seed=7, runs=50) == FAN2_RAD_WALKS_SHA256[level]


def _tree_net(edges) -> TransactionNetwork:
    """TK01 and the children that ``edges`` adds as (parent, child, kind);
    each child is initiated by its parent's executor."""
    executor = {1: "A02"}
    tks = [_tk(1, "A01", "A02")]
    deps = []
    for parent, child, kind in edges:
        executor[child] = f"A{child + 1:02d}"
        tks.append(_tk(child, executor[parent], executor[child]))
        deps.append(Dependency(parent=f"TK{parent:02d}", child=f"TK{child:02d}", kind=kind))
    actors = [_actor(i) for i in range(1, len(tks) + 2)]
    return TransactionNetwork(tuple(actors), tuple(tks), tuple(deps))


# six transactions, two levels deep, every dependency kind
MIXED_TREE = _tree_net([
    (1, 2, DependencyKind.RAP),
    (1, 3, DependencyKind.RAE),
    (1, 4, DependencyKind.RAD),
    (2, 5, DependencyKind.RAD),
    (3, 6, DependencyKind.RAP),
])

# SHA-256 of the JSON lines of 200 seeded walks (seed 5) over MIXED_TREE at complete
MIXED_TREE_COMPLETE_WALKS_SHA256 = "56cfa9e3604e681f18bb2033536fdd2498dfe66d322672f66e38e932d0d75b41"


def test_mixed_tree_complete_walks_are_pinned():
    assert not validate_network(MIXED_TREE)
    traces = simulate_random(compile_network(MIXED_TREE, DetailLevel.COMPLETE), seed=5, runs=200)
    # the pin reaches past the root: some walks play three or more
    # transactions, and every transaction is played by some walk
    assert max(len({event.tk for event in trace.events}) for trace in traces) >= 3
    assert {event.tk for trace in traces for event in trace.events} == {
        f"tk{n:02d}" for n in range(1, 7)
    }
    assert _traces_sha256(traces) == MIXED_TREE_COMPLETE_WALKS_SHA256


# ---------------------------------------------------------------------------
# Per-transaction conformance against the full-trace reference
# ---------------------------------------------------------------------------


def _reference_compensation_order(trace: SimTrace) -> list[str]:
    """What ``check_compensation_order`` must find, replayed event by event
    through ``apply_act``: inverse events of each allowed revocation must
    replay the rollback chain exactly, most recent act first, nothing
    skipped, nothing extra."""
    violations = []
    for tk in sorted({e.tk for e in trace.events}):
        tk_events = [e for e in trace.events if e.tk == tk]
        state = INITIAL_STATE
        chain: Optional[deque] = None
        for event in tk_events:
            if event.inverse:
                if chain is None:
                    if state.pending is None:
                        violations.append(f"{tk}: inverse {event.act.value} outside a revocation")
                        continue
                    try:
                        chain = deque(rollback_chain(state, state.pending[0]))
                    except RevocationError:
                        violations.append(f"{tk}: inverse {event.act.value} for an unperformed act")
                        continue
                if not chain:
                    violations.append(f"{tk}: extra inverse {event.act.value}")
                elif event.act is not chain[0]:
                    violations.append(
                        f"{tk}: expected {chain[0].value} undone next, got {event.act.value}"
                    )
                else:
                    chain.popleft()
                continue
            allow = event.act is Act.ALLOW
            if not allow:
                if chain:
                    violations.append(
                        f"{tk}: {event.act.value} happened before the rollback finished"
                    )
                chain = None
            elif state.pending is None:
                violations.append(f"{tk}: Allow without a pending revocation")
                continue
            try:
                after = apply_act(state, event.act, event.role)
            except (ActNotEnabled, RevocationError) as exc:
                violations.append(f"{tk}: {event.act.value} not enabled ({exc})")
                continue
            if allow and chain is None:
                try:
                    chain = deque(rollback_chain(state, state.pending[0]))
                except RevocationError:
                    chain = deque()
            state = after
        if chain:
            violations.append(f"{tk}: rollback chain left unfinished")
    return violations


def _reference_conformance(model, alphabet, bounds=Bounds()):
    """What ``check_conformance`` must find, computed from every full
    interleaved trace one at a time: (missing, unexpected, the set of
    compensation violations, distinct (transaction, projection) pairs)."""
    traces, _ = _full_traces(model, bounds)
    expected = enumerate_language(alphabet, bounds)
    produced: dict[str, set] = {}
    projections = set()
    violations = set()
    for trace in traces:
        for tk, phase in trace.outcomes:
            acts = trace.acts_for(tk)
            if not acts and phase is Phase.INITIAL:
                continue
            produced.setdefault(tk, set()).add((acts, phase))
            projections.add((tk, tuple(e for e in trace.events if e.tk == tk), phase))
        violations.update(_reference_compensation_order(trace))
    missing = {tk: frozenset(expected - got) for tk, got in produced.items() if expected - got}
    unexpected = {tk: frozenset(got - expected) for tk, got in produced.items() if got - expected}
    return missing, unexpected, violations, len(projections)


def _assert_matches_reference(model, alphabet, bounds=Bounds()) -> int:
    """Check ``check_conformance`` against the reference; returns the states
    it explored, which the partial-order reduction keeps at or below the
    library's search without it."""
    report = check_conformance(model, alphabet, bounds)
    missing, unexpected, violations, projections = _reference_conformance(
        model, alphabet, bounds
    )
    assert report.missing == missing
    assert report.unexpected == unexpected
    assert set(report.compensation_violations) == violations
    assert len(report.compensation_violations) == len(violations)
    assert report.traces == projections
    assert report.states <= _explored(model, False, bounds)[1]
    conformant = not (missing or unexpected or violations)
    assert report.verdict is (Verdict.CONFORMANT if conformant else Verdict.NONCONFORMANT)
    return report.states


def _with_swapped_compensations(model, *pairs: tuple[str, str]):
    """The model with the compensation targets of each pair of throw events
    swapped."""
    mutant = copy.deepcopy(model)
    nodes = {node.id: node for node in mutant.all_nodes()}
    for first, second in pairs:
        a, b = nodes[first], nodes[second]
        a.compensates, b.compensates = b.compensates, a.compensates
    return mutant


def _with_misordered_compensations(model):
    """The model with the compensation targets of three pairs of throw
    events swapped, so some rollbacks undo acts in the wrong order."""
    return _with_swapped_compensations(
        model,
        ("tk01_e_revokedeclare_throw", "tk01_e_revokedeclare_throw_2"),
        ("tk01_e_revokepromise_throw", "tk01_e_revokepromise_throw_3"),
        ("tk01_i_revokerequest_throw", "tk01_i_revokerequest_throw_2"),
    )


# name -> (network, or the name of a fixture network, level, edit of the model)
REFERENCE_CASES = {
    **{f"solo-{level.value}": ("solo", level, None) for level in DetailLevel},
    "poc1-happy": ("poc1", DetailLevel.HAPPY_FLOW, None),
    "poc2-happy": ("poc2", DetailLevel.HAPPY_FLOW, None),
    **{name: (net, DetailLevel.HAPPY_FLOW, None) for name, (net, _, _) in COMPOSITIONS.items()},
    # NonConformant (ROADMAP item 3)
    "chain2-rap-dissent": (_chain_net(DependencyKind.RAP, 2), DetailLevel.WITH_DISSENT, None),
    "chain2-rae-dissent": (_chain_net(DependencyKind.RAE, 2), DetailLevel.WITH_DISSENT, None),
    # NonConformant by its compensation violations alone
    "solo-complete-misordered": ("solo", DetailLevel.COMPLETE, _with_misordered_compensations),
}

# the states check_conformance explores per case, with the partial-order
# reduction; the full-trace reference's are SOLO_EXPECTED's (5,319 at
# complete), COMPOSITIONS' and 615 (poc1), 6,363 (poc2), 1,453 and 1,409
# (chain2 at dissent)
REFERENCE_STATES = {
    "solo-happy": 17,
    "solo-dissent": 117,
    "solo-complete": 9987,
    "poc1-happy": 172,
    "poc2-happy": 372,
    "chain2-rap": 30,
    "chain3-rap": 65,
    "fan2-rap": 89,
    "chain2-rae": 39,
    "chain2-rad": 37,
    "chain2-rap-dissent": 805,
    "chain2-rae-dissent": 777,
    "solo-complete-misordered": 9987,
}


def _reference_model(request, case):
    net, level, edit = REFERENCE_CASES[case]
    if isinstance(net, str):
        net = request.getfixturevalue(f"{net}_net")
    model = compile_network(net, level)
    return edit(model) if edit else model, level


@pytest.mark.parametrize("case", list(REFERENCE_CASES))
def test_conformance_matches_the_full_trace_reference(request, case):
    model, level = _reference_model(request, case)
    assert _assert_matches_reference(model, LEVEL_ALPHABETS[level]) == REFERENCE_STATES[case]


@pytest.mark.parametrize("case", list(REFERENCE_CASES))
def test_projections_match_the_full_trace_reference(request, case):
    model, _ = _reference_model(request, case)
    result = simulate_exhaustive(model)
    assert result.traces == _projections(_full_traces(model)[0])
    assert result.states == REFERENCE_STATES[case]


@st.composite
def _trees(draw, size: int):
    """A network of one to ``size`` transactions, each child hanging off an
    earlier transaction by any dependency kind."""
    edges = [
        (draw(st.integers(1, child - 1)), child, draw(st.sampled_from(list(DependencyKind))))
        for child in range(2, draw(st.integers(1, size)) + 1)
    ]
    return _tree_net(edges)


@settings(max_examples=25, deadline=None)
@given(net=_trees(3), level=st.sampled_from([DetailLevel.HAPPY_FLOW, DetailLevel.WITH_DISSENT]))
def test_generated_networks_match_the_full_trace_reference(net, level):
    bounds = Bounds()
    if level is DetailLevel.WITH_DISSENT:
        # Without the decline and reject loops the full-trace reference stays
        # small, except on a fan of two RaD children: their interleavings
        # make 216,329 full traces, about 18 s for the reference alone.
        bounds = Bounds(rerequest=0, redeclare=0)
        kinds = [dep.kind for dep in net.dependencies if dep.parent == "TK01"]
        assume(kinds.count(DependencyKind.RAD) < 2)
    _assert_matches_reference(compile_network(net, level), LEVEL_ALPHABETS[level], bounds)


@pytest.mark.parametrize(
    "case", ["solo-happy", "solo-dissent", "solo-complete", "solo-complete-misordered"]
)
def test_history_folds_match_the_compensation_reference(request, case):
    # each projection is judged from its trie node's fold, never replayed;
    # the reference replays its decoded trace from the start
    model, level = _reference_model(request, case)
    result = simulate_exhaustive(model, language=enumerate_language(LEVEL_ALPHABETS[level]))
    flagged = 0
    for (tk, history, phase), (acts, violations) in result.projections.items():
        trace = SimTrace(result.histories.decode(history), ((result.transactions[tk], phase),))
        assert acts == trace.acts_for(result.transactions[tk])
        assert list(violations) == _reference_compensation_order(trace)
        assert list(violations) == check_compensation_order(trace)
        flagged += bool(violations)
    assert len(result.projections) == SOLO_EXPECTED[level][0]
    assert (flagged > 0) == case.endswith("misordered")


def test_compensation_violations_are_listed_in_a_fixed_order(solo_net):
    # by transaction, then by projection, whatever order sets iterate in
    model = _with_misordered_compensations(compile_network(solo_net, DetailLevel.COMPLETE))
    report = check_conformance(model, LEVEL_ALPHABETS[DetailLevel.COMPLETE])
    assert report.compensation_violations == [
        "tk01: expected Declare undone next, got Execute",
        "tk01: Execute happened before the rollback finished",
        "tk01: expected Declare undone next, got Promise",
        "tk01: Stop happened before the rollback finished",
        "tk01: expected Accept undone next, got Request",
        "tk01: expected Accept undone next, got Declare",
        "tk01: expected Accept undone next, got Execute",
        "tk01: expected Accept undone next, got Promise",
        "tk01: rollback chain left unfinished",
        "tk01: expected Declare undone next, got Request",
        "tk01: expected Execute undone next, got Promise",
        "tk01: expected Execute undone next, got Request",
        "tk01: expected Promise undone next, got Request",
        "tk01: Request happened before the rollback finished",
    ]


def test_a_compensation_finding_is_reported_end_to_end(solo_net):
    # one swapped pair: the RevokeDeclare rollback undoes Execute before
    # Declare, and the search and the summary report just that
    model = _with_swapped_compensations(
        compile_network(solo_net, DetailLevel.COMPLETE),
        ("tk01_e_revokedeclare_throw", "tk01_e_revokedeclare_throw_2"),
    )
    report = check_conformance(model, LEVEL_ALPHABETS[DetailLevel.COMPLETE])
    assert report.verdict is Verdict.NONCONFORMANT
    assert report.summary().splitlines() == [
        "NonConformant: 372 traces over 9987 states",
        "  compensation: tk01: expected Declare undone next, got Execute",
        "  compensation: tk01: Execute happened before the rollback finished",
    ]


def test_frontier_fan3_rap_happy_is_conformant():
    # the full-trace memo held 756,756 interleaved traces here (about 420 s
    # and 2.6 GB); the per-transaction lanes hold one projection each
    report = check_network_conformance(_fan_net(DependencyKind.RAP, 3), DetailLevel.HAPPY_FLOW)
    assert report.verdict is Verdict.CONFORMANT
    # 4,751 states without the partial-order reduction
    assert (report.traces, report.states) == (4, 159)


def test_frontier_fan2_rap_dissent_projections_are_pinned():
    # a search that kept whole interleaved traces passed 2 GB here after
    # about 4 minutes; the projections take the states conformance takes
    model = compile_network(_fan_net(DependencyKind.RAP, 2), DetailLevel.WITH_DISSENT)
    result = simulate_exhaustive(model)
    assert (len(result.traces), result.states) == (32, 48065)
    report = check_conformance(model, LEVEL_ALPHABETS[DetailLevel.WITH_DISSENT])
    assert (report.traces, report.states) == (32, 48065)


# ---------------------------------------------------------------------------
# The partial-order reduction against the full search
# ---------------------------------------------------------------------------


def _explored(model, reduced: bool, bounds=Bounds()):
    """The projections of the library's search, with or without the
    partial-order reduction, and the states it explored."""
    sim = _Simulation(model, bounds)
    if not reduced:
        sim.persistent_steps = lambda state: None
    result = _explore(sim, 1_000_000)
    return result.traces, result.states


def _assert_reduction_keeps_the_lanes(model, bounds=Bounds()) -> tuple[int, int]:
    """The reduced search's projections are the full search's; returns the
    states of each, the reduced search's first."""
    full, full_states = _explored(model, False, bounds)
    reduced, reduced_states = _explored(model, True, bounds)
    assert reduced == full
    assert reduced_states <= full_states
    return reduced_states, full_states


@pytest.mark.parametrize("case", list(REFERENCE_CASES))
def test_reduction_keeps_the_lanes_of_the_reference_cases(request, case):
    model, _ = _reference_model(request, case)
    assert _assert_reduction_keeps_the_lanes(model)[0] == REFERENCE_STATES[case]


# name -> (network, or the name of a fixture network, reduced and full states)
LARGE_REDUCTION_CASES = {
    "poc1-dissent": ("poc1", 82453, 204701),
    "fan2-rap-dissent": (_fan_net(DependencyKind.RAP, 2), 48065, 55969),
    "chain2-rad-dissent": (_chain_net(DependencyKind.RAD, 2), 6587, 10957),
}


@pytest.mark.parametrize("case", list(LARGE_REDUCTION_CASES))
def test_reduction_keeps_the_lanes_at_dissent(request, case):
    net, *states = LARGE_REDUCTION_CASES[case]
    if isinstance(net, str):
        net = request.getfixturevalue(f"{net}_net")
    model = compile_network(net, DetailLevel.WITH_DISSENT)
    assert list(_assert_reduction_keeps_the_lanes(model)) == states


def _entry_counted_steps(sim, state):
    """The persistent set of the one-tier choice: the first transaction, in
    transaction order, that qualifies when each other transaction's reach
    also counts the entries into it."""
    once = twice = 0
    candidates = []
    for tk, code in enumerate(state):
        spawned = sim.components[code][_SPAWNED]
        mask = sim._touch_mask(code) | sim._entry_masks[tk][spawned]
        twice |= once & mask
        once |= mask
        candidates.append(sim._solo(code))
    for tk, steps in enumerate(candidates):
        if steps and not twice >> tk & 1:
            return steps
    return None


def _entry_counted_states(model, bounds=Bounds()) -> int:
    """The states the reduced search explores with the one-tier choice."""
    sim = _Simulation(model, bounds)
    sim._build_reach_masks()
    sim.persistent_steps = lambda state: _entry_counted_steps(sim, state)
    return _explore(sim, 1_000_000).states


def test_reduction_prefers_the_entry_counted_choice(poc1_net):
    # the one-tier choice explores 199 states here; the second tier cuts
    # them further
    model = compile_network(poc1_net, DetailLevel.HAPPY_FLOW)
    assert _entry_counted_states(model) == 199
    assert _explored(model, True)[1] == REFERENCE_STATES["poc1-happy"]


_GUARDED_NETS = {
    "mixed-tree": MIXED_TREE,
    **{f"chain2-{kind.value}": _chain_net(kind, 2) for kind in DependencyKind},
    **{f"fan2-{kind.value}": _fan_net(kind, 2) for kind in DependencyKind},
}


@pytest.mark.parametrize("net_name", ["solo", "poc1", "poc2", *_GUARDED_NETS])
@pytest.mark.parametrize("level", list(DetailLevel), ids=lambda level: level.value)
def test_guard_records_match_the_labels(request, net_name, level):
    # the branch guards, spawn entries and exits the build reads once, and
    # the entry masks made from them, against the same read off the labels
    # and the flows' transactions
    net = _GUARDED_NETS.get(net_name) or request.getfixturevalue(f"{net_name}_net")
    sim = _Simulation(compile_network(net, level), Bounds())
    sim._build_reach_masks()
    tk_of, target, masks = sim.tk_of, sim.target, sim._reach_masks
    branch_guards, spawns, exits = {}, [], []
    for source in range(len(sim.ids)):
        for f in sim._out(source):
            label = sim.flows[f].label
            if label in ("rerequest", "redeclare"):
                branch_guards[f] = None
            elif label.startswith("performed:"):
                branch_guards[f] = ACT_SLUGS[label[len("performed:"):]]
            if label == "spawn":
                spawns.append((f, source))
                # a spawn guard may place on the child's exit instead, so
                # its source reaches all that the exit's target reaches
                exit_flow = sim.guards[f][2]
                if exit_flow is not None:
                    assert masks[target[exit_flow]] & ~masks[source] == 0
            elif tk_of[target[f]] != tk_of[source]:
                exits.append(f)
    assert sim.branch_guards == branch_guards
    assert sim.spawns == spawns
    assert sorted(sim.exit_of.values()) == exits
    started = [0] * len(sim.tks)
    for f in exits:
        started[tk_of[target[f]]] |= masks[target[f]]
    fresh = started[:]
    for f, _ in spawns:
        fresh[tk_of[target[f]]] |= masks[target[f]]
    assert sim._entry_masks == list(zip(fresh, started))
    if level is not DetailLevel.HAPPY_FLOW:
        assert branch_guards
    if net_name != "solo":
        assert spawns
    if net_name == "mixed-tree":
        assert exits


@settings(max_examples=50, deadline=None)
@given(data=st.data(), level=st.sampled_from([DetailLevel.HAPPY_FLOW, DetailLevel.WITH_DISSENT]))
def test_reduction_keeps_the_lanes_of_generated_networks(data, level):
    if level is DetailLevel.HAPPY_FLOW:
        net = data.draw(_trees(4))
    else:
        # At dissent, four transactions take over 600,000 states without the
        # reduction, and three with a RaD dependency over 130,000 (about 1.5
        # s); chain2-RaD above covers RaD at dissent.
        net = data.draw(_trees(3))
        kinds = [dep.kind for dep in net.dependencies]
        assume(len(kinds) < 2 or DependencyKind.RAD not in kinds)
    model = compile_network(net, level)
    reduced_states, _ = _assert_reduction_keeps_the_lanes(model)
    # each state explores a subset of the steps the one-tier choice
    # explores, so the search reaches no state that choice does not
    assert reduced_states <= _entry_counted_states(model)


@pytest.mark.parametrize(
    "kind, message",
    [
        (DependencyKind.RAP, "model lets Execute happen at tk01_e_execute_task in phase Executed"),
        (DependencyKind.RAE, "model lets Declare happen at tk01_e_declare_sendtask in phase Declared"),
    ],
    ids=["RaP", "RaE"],
)
def test_reduction_raises_the_same_re_entry_error(kind, message):
    # the two strict xfails of test_two_transaction_chain_is_conformant_at_complete
    model = compile_network(_chain_net(kind, 2), DetailLevel.COMPLETE)
    errors = []
    for reduced in (False, True):
        with pytest.raises(SimulationError) as excinfo:
            _explored(model, reduced)
        errors.append(str(excinfo.value))
    assert errors[0] == errors[1]
    assert errors[0] == f"{message}, which the engine's bounded step forbids"


# ---------------------------------------------------------------------------
# Errors the search reports: a cycle, and a step's witness
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "explore",
    [
        simulate_exhaustive,
        lambda model: check_conformance(model, LEVEL_ALPHABETS[DetailLevel.WITH_DISSENT]),
    ],
    ids=["simulate", "conformance"],
)
def test_search_reports_a_cycle(solo_net, explore):
    # a self-loop on the initiator's verdict gateway, which emits no event
    model = compile_network(solo_net, DetailLevel.WITH_DISSENT)
    model.pools[0].flows.append(
        SequenceFlow("sf_loop", "tk01_i_verdict_xor", "tk01_i_verdict_xor")
    )
    with pytest.raises(SimulationError) as excinfo:
        explore(model)
    assert str(excinfo.value) == "simulation state graph has a cycle"
    # the witness replays from the initial state into a state already on its path
    sim = _Simulation(model, Bounds())
    path = [sim.initial()]
    for description in excinfo.value.witness:
        path.append(sim.apply(path[-1], _enabled(sim, path[-1], description))[0])
    assert excinfo.value.witness[-1] == "fire tk01_i_verdict_xor -> tk01_i_verdict_xor"
    assert path[-1] in path[:-1]


def _enabled(sim, state, description):
    """The enabled step of ``state`` that ``describe`` writes as ``description``."""
    (step,) = [step for step in sim.steps(state) if sim.describe(step) == description]
    return step


def test_search_error_carries_a_replayable_witness():
    # the re-entry defect of test_two_transaction_chain_is_conformant_at_complete
    model = compile_network(_chain_net(DependencyKind.RAP, 2), DetailLevel.COMPLETE)
    with pytest.raises(SimulationError) as excinfo:
        simulate_exhaustive(model)
    *leading, last = excinfo.value.witness
    # replayed from the initial state, every step but the last succeeds
    sim = _Simulation(model, Bounds())
    state = sim.initial()
    for description in leading:
        state, _ = sim.apply(state, _enabled(sim, state, description))
    with pytest.raises(SimulationError) as replayed:
        sim.apply(state, _enabled(sim, state, last))
    assert str(replayed.value) == str(excinfo.value)
    assert last == "fire tk01_e_execute_task"


# ---------------------------------------------------------------------------
# Control comes from the flow guards, not from the plumbing words in node ids
# ---------------------------------------------------------------------------


def _with_ids_renamed(model, rename):
    """The model with ``rename`` applied to every node id and every
    reference to one."""
    mutant = copy.deepcopy(model)
    for pool in mutant.pools:
        for node in pool.nodes:
            node.id = rename(node.id)
            node.attached_to = rename(node.attached_to)
            node.compensates = rename(node.compensates)
        for link in pool.flows + pool.associations:
            link.source, link.target = rename(link.source), rename(link.target)
    for link in mutant.message_flows:
        link.source, link.target = rename(link.source), rename(link.target)
    return mutant


def _renamed_plumbing(model):
    """The model with every slug that names no act prefixed by ``z``, in all
    node ids and every reference to them."""

    def rename(node_id):
        meta = parse_node_id(node_id) if node_id else None
        if meta is None or meta.act is not None:
            return node_id
        parts = node_id.split("_")
        parts[2] = "z" + parts[2]
        return "_".join(parts)

    return _with_ids_renamed(model, rename)


@pytest.mark.parametrize(
    "net,level",
    [(None, DetailLevel.COMPLETE)]
    + [
        (shape(kind, 2), DetailLevel.HAPPY_FLOW)
        for shape in (_chain_net, _fan_net)
        for kind in DependencyKind
    ],
    ids=["solo-complete"] + [f"{shape}2-{kind.value}" for shape in ("chain", "fan") for kind in DependencyKind],
)
def test_exploration_ignores_plumbing_slugs(solo_net, net, level):
    model = compile_network(net or solo_net, level)
    renamed = _renamed_plumbing(model)
    assert {n.id for n in renamed.all_nodes()} != {n.id for n in model.all_nodes()}
    expected = simulate_exhaustive(model)
    result = simulate_exhaustive(renamed)
    assert result.states == expected.states
    assert result.traces == expected.traces


# ---------------------------------------------------------------------------
# Models the build rejects
# ---------------------------------------------------------------------------


def _renamed(model, old: str, new: str):
    """The model with node ``old`` renamed ``new`` in every reference."""
    return _with_ids_renamed(model, lambda node_id: new if node_id == old else node_id)


def _with_copied_node(model, node_id: str):
    mutant = copy.deepcopy(model)
    pool = mutant.pools[-1]
    (node,) = [n for p in mutant.pools for n in p.nodes if n.id == node_id]
    pool.nodes.append(copy.copy(node))
    return mutant


def _with_dangling_flows(model):
    # sf_x comes first in model order, sf_y from the node first by id
    mutant = copy.deepcopy(model)
    mutant.pools[0].flows.append(SequenceFlow("sf_x", "tk01_i_done_end", "tk99_i_nowhere_task"))
    mutant.pools[1].flows.append(SequenceFlow("sf_y", "tk01_i_accept_sendtask", "tk99_i_none_task"))
    return mutant


def _two_foreign_nodes(model):
    # the first foreign node in model order is named, not the first by id
    first, second = [n.id for n in model.pools[0].nodes][1:3]
    return _renamed(_renamed(model, first, "Task_2"), second, "Task_1")


REJECTED_MODELS = {
    "foreign-node": (
        lambda m: _renamed(m, "tk01_i_request_sendtask", "Task_1"),
        "node Task_1 does not follow the generated-id grammar; "
        "only generated models can be simulated",
    ),
    "first-foreign-node": (
        _two_foreign_nodes,
        "node Task_2 does not follow the generated-id grammar",
    ),
    "non-decimal-ordinal": (
        lambda m: _renamed(m, "tk01_i_request_sendtask", "tk01_i_request_sendtask_²"),
        "node tk01_i_request_sendtask_² does not follow the generated-id grammar",
    ),
    "over-long-ordinal": (
        lambda m: _renamed(m, "tk01_i_request_sendtask", "tk01_i_request_sendtask_" + "1" * 5000),
        "node tk01_i_request_sendtask_" + "1" * 5000 + " does not follow the generated-id grammar",
    ),
    "copied-node": (
        lambda m: _with_copied_node(m, "tk01_i_declare_catch"),
        "duplicate node id tk01_i_declare_catch",
    ),
    "flow-to-missing-node": (
        _with_dangling_flows,
        "sequence flow sf_x joins an unknown node",
    ),
}


@pytest.mark.parametrize("simulate", [simulate_random, simulate_exhaustive])
@pytest.mark.parametrize("case", list(REJECTED_MODELS))
def test_build_rejects_the_model(poc1_net, case, simulate):
    edit, message = REJECTED_MODELS[case]
    model = edit(compile_network(poc1_net, DetailLevel.HAPPY_FLOW))
    with pytest.raises(SimulationError) as excinfo:
        simulate(model)
    assert str(excinfo.value).startswith(message)


# ---------------------------------------------------------------------------
# The tail cache: the build's grammar check and each node's fields
# ---------------------------------------------------------------------------


def _build_error(model) -> Optional[str]:
    """The message of the build's SimulationError, None if it builds."""
    try:
        _Simulation(model, Bounds())
    except SimulationError as exc:
        return str(exc)
    return None


@settings(max_examples=400, deadline=None)
@given(node_ids, st.integers(min_value=0))
def test_the_build_rejects_exactly_the_ids_off_the_grammar(solo_net, new_id, pick):
    model = compile_network(solo_net, DetailLevel.HAPPY_FLOW)
    nodes = model.all_nodes()
    mutant = _renamed(model, nodes[pick % len(nodes)].id, new_id)
    message = _build_error(mutant)
    off_grammar = message is not None and "does not follow the generated-id grammar" in message
    assert off_grammar == (parse_node_id(new_id) is None)
    # the cache never turns a rejected tail into an accepted one: a second
    # build, and one after an accepted model, give the same message
    assert _build_error(mutant) == message
    assert _build_error(model) is None
    assert _build_error(mutant) == message


def _reparsed(model):
    return parse_model(serialize_model(model))


@pytest.mark.parametrize("read", [None, _reparsed], ids=["compiled", "from-xml"])
@pytest.mark.parametrize("level", list(DetailLevel), ids=lambda level: level.value)
@pytest.mark.parametrize("net_name", ["poc1", "poc2"])
def test_node_fields_and_events_come_from_the_id_table(request, net_name, level, read):
    model = compile_network(request.getfixturevalue(f"{net_name}_net"), level)
    sim = _Simulation(read(model) if read else model, Bounds())
    for node, node_id in enumerate(sim.ids):
        meta, fields = parse_node_id(node_id), sim.meta[node]
        assert (meta.tk, *fields[:4]) == meta
        assert fields.act is meta.act
        assert fields.column == (-1 if meta.act is None else MOVES.index((meta.act, meta.role)))
        if meta.act is None:
            continue
        for inverse in (False, True):
            code = sim._event_code(node, inverse)
            assert sim.events[code] == SimEvent(meta.tk, meta.act, meta.role, inverse)
            assert sim.event_lanes[code] == sim.tk_of[node]
    # one code per event
    assert len(set(sim.events)) == len(sim.events) == len(sim.event_lanes)


def _fill_tail_table(poc1_net) -> None:
    """Read other models' ids: poc1 at every level and a fan of two RaD
    children at complete."""
    models = [compile_network(poc1_net, level) for level in DetailLevel]
    models.append(compile_network(_fan_net(DependencyKind.RAD, 2), DetailLevel.COMPLETE))
    for other in models:
        _Simulation(other, Bounds())
        for node in other.all_nodes():
            parse_node_id(node.id)


@pytest.mark.parametrize("table", ["emptied", "filled", "near-cap"])
def test_poc2_walks_hold_whatever_the_id_table_holds(poc1_net, poc2_net, table):
    read_tail.cache_clear()
    if table == "filled":
        _fill_tail_table(poc1_net)
    elif table == "near-cap":
        # the cache lets tails go partway through the build's grammar check
        for n in range(TAIL_TABLE_CAP - 3):
            parse_node_id(f"tk01_i_filler_task_{n + 1}")
    model = compile_network(poc2_net, DetailLevel.COMPLETE)
    assert _walks_sha256(model, seed=13, runs=200) == POC2_COMPLETE_WALKS_SHA256


def _chain2_rap(level=DetailLevel.HAPPY_FLOW):
    return compile_network(_chain_net(DependencyKind.RAP, 2), level)


def test_unguarded_splice_entry_is_rejected():
    model = _without_guards(_chain2_rap(), "spawn")
    with pytest.raises(SimulationError, match="unrecognized cross-transaction flow"):
        simulate_exhaustive(model)


def test_second_exit_of_a_child_is_rejected():
    model = _chain2_rap()
    pool = next(p for p in model.pools if any(n.id == "tk02_i_request_sendtask" for n in p.nodes))
    pool.flows.append(SequenceFlow("sf_back", "tk02_i_request_sendtask", "tk01_e_declare_sendtask"))
    with pytest.raises(SimulationError, match="unrecognized cross-transaction flow sf_back"):
        simulate_exhaustive(model)


def test_message_across_transactions_is_rejected():
    # a step's enabling reads only its own transaction's component
    model = _chain2_rap()
    message = next(m for m in model.message_flows if m.source.startswith("tk02_"))
    message.target = "tk01_i_promise_catch"
    with pytest.raises(SimulationError, match=f"unrecognized cross-transaction message flow {message.id}$"):
        simulate_exhaustive(model)


def test_event_based_gateway_across_transactions_is_rejected():
    # even as a splice entry: the gateway would arm a catch in another
    # transaction's component
    model = _chain2_rap(DetailLevel.WITH_DISSENT)
    pool = next(p for p in model.pools if any(n.id == "tk01_i_response_ebg" for n in p.nodes))
    pool.flows.append(SequenceFlow("sf_wait", "tk01_i_response_ebg", "tk02_i_stop_catch", "spawn"))
    with pytest.raises(SimulationError, match="unrecognized cross-transaction flow sf_wait$"):
        simulate_exhaustive(model)


def test_child_without_exit_from_a_sole_entry_is_rejected():
    model = _chain2_rap()
    for pool in model.pools:
        pool.flows = [f for f in pool.flows if f.source != "tk02_i_accept_sendtask"]
    with pytest.raises(SimulationError, match="child tk02 has no guarded splice exit"):
        simulate_exhaustive(model)


def test_unknown_phase_guard_is_rejected():
    model = _chain2_rap()
    (exit_flow,) = [f for p in model.pools for f in p.flows if f.label.startswith("phase:")]
    exit_flow.label = "phase:hurried"
    with pytest.raises(SimulationError, match="unknown guard phase:hurried"):
        simulate_exhaustive(model)


def test_unknown_performed_guard_is_rejected(solo_net):
    # read as never performed, it would silently close its branch
    model = compile_network(solo_net, DetailLevel.COMPLETE)
    branch = next(f for p in model.pools for f in p.flows if f.label.startswith("performed:"))
    branch.label = "performed:bogus"
    with pytest.raises(SimulationError) as excinfo:
        simulate_exhaustive(model)
    assert str(excinfo.value) == f"unknown guard performed:bogus on {branch.id}"


def _state_where(sim, done):
    """The first state on the walk that always takes the first step where
    ``done(sim, state)`` holds."""
    state = sim.initial()
    while not done(sim, state):
        state, _ = sim.apply(state, sim.steps(state)[0])
    return state


def _phase_of(sim, state, tk: str) -> Phase:
    return dict(sim.outcomes(state))[tk]


def _working(sim, state) -> _Working:
    """Every transaction's component of ``state``, merged for one step."""
    return _Working(sim, range(len(sim.tks)), state)


def test_spawn_and_phase_guards_steer_a_re_entry():
    sim = _Simulation(_chain2_rap(), Bounds())
    (entry,) = [f for f, flow in enumerate(sim.flows) if flow.label == "spawn"]
    (exit_flow,) = [f for f, flow in enumerate(sim.flows) if flow.label == "phase:promised"]
    resume = sim.target[exit_flow]
    assert sim.ids[resume] == "tk01_e_execute_task"

    fresh = _working(sim, sim.initial())
    sim._place(fresh, entry)  # a child that has not started is entered
    assert sim.target[entry] in fresh.tokens and resume not in fresh.tokens

    started = _state_where(sim, lambda sim, s: _phase_of(sim, s, "tk01") is Phase.PROMISED)
    again = _working(sim, started)
    assert sim.target[entry] in again.tokens
    before = Counter(again.tokens)
    sim._place(again, entry)  # a started child is passed, back into its parent
    assert Counter(again.tokens) == {**before, resume: 1}

    executed = _state_where(sim, lambda sim, s: _phase_of(sim, s, "tk01") is Phase.EXECUTED)
    stale = _working(sim, executed)
    before = Counter(stale.tokens)
    sim._place(stale, entry)  # the parent moved on: the resumption is stale
    sim._place(stale, exit_flow)
    assert Counter(stale.tokens) == before


def test_zone_without_reposition_guards_is_rejected(solo_net):
    # a complete model written without its reposition guards would let the
    # revocation zone swallow the normal flow
    model = _without_guards(compile_network(solo_net, DetailLevel.COMPLETE), "reposition")
    with pytest.raises(SimulationError, match="missing reposition guard"):
        simulate_exhaustive(model)


# ---------------------------------------------------------------------------
# Defensive errors of the step layer, on hand-made steps
# ---------------------------------------------------------------------------


def _solo_sim(solo_net):
    return _Simulation(compile_network(solo_net, DetailLevel.HAPPY_FLOW), Bounds())


def _with_in_flight(sim, state, source: int):
    """``state`` with a message from ``source`` put in flight, its
    transaction's component otherwise as it is."""
    tk = sim.tk_of[source]
    tokens, in_flight, *rest = sim.components[state[tk]]
    code = sim.component_code((tokens, in_flight | 1 << source, *rest))
    return state[:tk] + (code,) + state[tk + 1:]


def _apply_error(sim, state, step) -> str:
    with pytest.raises(SimulationError) as excinfo:
        sim.apply(state, step)
    return str(excinfo.value)


def test_firing_an_unmarked_send_task_underflows(solo_net):
    sim = _solo_sim(solo_net)
    send = sim.ids.index("tk01_i_request_sendtask")
    message = _apply_error(sim, sim.initial(), (_FIRE, send, 0))
    assert message == "token underflow at tk01_i_request_sendtask"


def test_a_join_short_of_its_tokens_underflows():
    model = compile_network(_fan_net(DependencyKind.RAP, 2), DetailLevel.HAPPY_FLOW)
    sim = _Simulation(model, Bounds())
    join = sim.ids.index("tk01_e_rap_par_2")
    assert sim.need[join] == 2
    state = _state_where(sim, lambda sim, s: Counter(_working(sim, s).tokens)[join] == 1)
    message = _apply_error(sim, state, (_FIRE, join, 0))
    assert message == "token underflow at tk01_e_rap_par_2"


def test_delivering_no_message_is_rejected(solo_net):
    sim = _solo_sim(solo_net)
    source, target = map(sim.ids.index, ("tk01_i_request_sendtask", "tk01_e_request_mstart"))
    message = _apply_error(sim, sim.initial(), (_DELIVER, source, target))
    assert message == "no message in flight from tk01_i_request_sendtask"


def test_sending_over_a_message_in_flight_is_rejected(solo_net):
    sim = _solo_sim(solo_net)
    send = sim.ids.index("tk01_i_request_sendtask")
    marked = _state_where(sim, lambda sim, s: send in _working(sim, s).tokens)
    message = _apply_error(sim, _with_in_flight(sim, marked, send), (_FIRE, send, 0))
    assert message == "message from tk01_i_request_sendtask still in flight"


def test_delivery_to_an_unarmed_catch_is_rejected(solo_net):
    sim = _solo_sim(solo_net)
    source, target = map(sim.ids.index, ("tk01_e_promise_sendtask", "tk01_i_promise_catch"))
    state = _with_in_flight(sim, sim.initial(), source)
    message = _apply_error(sim, state, (_DELIVER, source, target))
    assert message == "delivery to unarmed catch tk01_i_promise_catch"
