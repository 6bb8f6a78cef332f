"""Acceptance gate: the seven headline guarantees of this toolkit.

Each test prints exactly one pass/fail line; run with ``pytest -v -s`` to see
them inline.
"""

from __future__ import annotations

import json
import random
import time
from contextlib import contextmanager
from pathlib import Path

from demoflow.compiler import DetailLevel, LEVEL_ALPHABETS, compile_network
from demoflow.coverage import classify_acts, render_matrix
from demoflow.engine import (
    Act,
    Bounds,
    DEAD_PHASES,
    INITIAL_STATE,
    LANDING_PHASE,
    Phase,
    REVOKER,
    Role,
    allowed_acts,
    apply_act,
    revocation_auto_refused,
    rollback_chain,
    run_trace,
)
from demoflow.model import lint_model
from demoflow.network import (
    Actor,
    Dependency,
    DependencyKind,
    Result,
    Transaction,
    TransactionNetwork,
    load_network,
    validate_network,
)
from demoflow.simulator import Verdict, check_composition, check_conformance
from demoflow.xmlio import parse_model, serialize_model

from conftest import make_solo_network
from test_simulator import COMPOSITIONS, _full_traces

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"

I, E = Role.INITIATOR, Role.EXECUTOR
HAPPY = [
    (Act.REQUEST, I),
    (Act.PROMISE, E),
    (Act.EXECUTE, E),
    (Act.DECLARE, E),
    (Act.ACCEPT, I),
]


@contextmanager
def criterion(number: int, description: str):
    try:
        yield
    except BaseException:
        print(f"[acceptance {number}] FAIL: {description}")
        raise
    print(f"[acceptance {number}] PASS: {description}")


def test_criterion_1_first_network_audit_totals():
    with criterion(1, "first bundled audit reports 6/19 of 56 implemented in under a second"):
        net = load_network(FIXTURES / "poc1.json")
        data = serialize_model(compile_network(net, DetailLevel.COMPLETE))
        mapping = json.loads((FIXTURES / "poc1_explicit.json").read_text())
        annotations = json.loads((FIXTURES / "poc1_implicit.json").read_text())

        started = time.perf_counter()
        matrix = classify_acts(net, parse_model(data), mapping=mapping, annotations=annotations)
        report = render_matrix(matrix, fmt="csv")
        elapsed = time.perf_counter() - started

        assert matrix.totals() == (6, 19, 31)
        assert matrix.implemented() == 25
        assert "Total Explicit = 6 (in 56) = 10.7%" in report
        assert "Total Implicit = 19 (in 56) = 33.9%" in report
        assert "Total Implemented = 25 (in 56) = 44.6%" in report
        assert elapsed < 1.0, f"audit took {elapsed:.2f}s"


def test_criterion_2_second_network_cell_level_audit():
    with criterion(2, "second bundled audit has 84 cells summing to 9/27/48"):
        net = load_network(FIXTURES / "poc2.json")
        model = compile_network(net, DetailLevel.WITH_DISSENT)
        mapping = json.loads((FIXTURES / "poc2_explicit.json").read_text())
        annotations = json.loads((FIXTURES / "poc2_implicit.json").read_text())
        matrix = classify_acts(net, model, mapping=mapping, annotations=annotations)

        assert matrix.cell_count() == 84
        assert [matrix.column_sum(tk) for tk in matrix.transactions] == [
            (3, 3, 8),
            (2, 4, 8),
            (1, 5, 8),
            (1, 5, 8),
            (1, 5, 8),
            (1, 5, 8),
        ]
        assert matrix.totals() == (9, 27, 48)
        # the published headline these fixtures transcribe is inconsistent
        # with its own grid; the bundled README documents that it is
        # deliberately not reproduced
        readme = (FIXTURES / "README.md").read_text()
        assert "24 (in 56)" in readme
        report = render_matrix(matrix, fmt="csv")
        assert "(in 84)" in report and "(in 56)" not in report


def test_criterion_3_transaction_engine_oracle():
    with criterion(3, "state machine honours the pattern over 1000 random walks"):
        # the happy path accepts
        assert run_trace(HAPPY).phase is Phase.ACCEPTED
        # decline, renewed request, then the happy remainder accepts
        renegotiated = [
            (Act.REQUEST, I),
            (Act.DECLINE, E),
            (Act.REQUEST, I),
            (Act.PROMISE, E),
            (Act.EXECUTE, E),
            (Act.DECLARE, E),
            (Act.ACCEPT, I),
        ]
        assert run_trace(renegotiated).phase is Phase.ACCEPTED
        # reject then stop terminates in Stopped
        rejected = [
            (Act.REQUEST, I),
            (Act.PROMISE, E),
            (Act.EXECUTE, E),
            (Act.DECLARE, E),
            (Act.REJECT, I),
            (Act.STOP, E),
        ]
        assert run_trace(rejected).phase is Phase.STOPPED

        # each allowed revocation rolls back exactly its chain and lands right
        chains = {
            Act.REVOKE_ACCEPT: (Act.ACCEPT,),
            Act.REVOKE_DECLARE: (Act.ACCEPT, Act.DECLARE, Act.EXECUTE),
            Act.REVOKE_PROMISE: (Act.ACCEPT, Act.DECLARE, Act.EXECUTE, Act.PROMISE),
            Act.REVOKE_REQUEST: (
                Act.ACCEPT,
                Act.DECLARE,
                Act.EXECUTE,
                Act.PROMISE,
                Act.REQUEST,
            ),
        }
        for revocation, chain in chains.items():
            accepted = run_trace(HAPPY)
            pending = apply_act(accepted, revocation, REVOKER[revocation])
            assert rollback_chain(pending, revocation) == chain
            landed = apply_act(pending, Act.ALLOW, REVOKER[revocation].other)
            assert landed.phase is LANDING_PHASE[revocation]

        # a refusal leaves everything unchanged
        accepted = run_trace(HAPPY)
        pending = apply_act(accepted, Act.REVOKE_DECLARE, E)
        refused = apply_act(pending, Act.REFUSE, I)
        assert refused.phase is Phase.ACCEPTED and refused.history == accepted.history

        # revoking an unperformed act can only be auto-refused, phase intact
        requested = run_trace(HAPPY[:1])
        pending = apply_act(requested, Act.REVOKE_DECLARE, E)
        assert revocation_auto_refused(pending)
        back = apply_act(pending, Act.REFUSE, I)
        assert back.phase is Phase.REQUESTED and back.history == requested.history

        # random walks: everything the machine offers must apply cleanly
        rng = random.Random(2024)
        walks = 0
        for _ in range(1000):
            state = INITIAL_STATE
            for _step in range(60):
                options = [
                    (act, role)
                    for role in (I, E)
                    for act in sorted(allowed_acts(state, role), key=lambda a: a.value)
                ]
                if not options:
                    assert state.phase in DEAD_PHASES or state.phase is Phase.ACCEPTED
                    break
                act, role = rng.choice(options)
                state = apply_act(state, act, role)
                assert len(state.history) <= 5
            walks += 1
        assert walks == 1000


def test_criterion_4_single_transaction_conformance():
    with criterion(4, "one-transaction models are conformant at every level"):
        solo = make_solo_network()
        started = time.perf_counter()
        total_states = 0
        for level in DetailLevel:
            model = compile_network(solo, level)
            report = check_conformance(model, LEVEL_ALPHABETS[level], Bounds(1, 1, 1))
            assert report.verdict is Verdict.CONFORMANT, report.summary()
            assert report.missing == {} and report.unexpected == {}
            total_states += report.states
        elapsed = time.perf_counter() - started
        assert total_states < 10**5, total_states
        assert elapsed < 10.0, f"conformance sweep took {elapsed:.2f}s"


def test_criterion_5_composition_ordering():
    with criterion(5, "all five composition shapes respect the dependency ordering"):
        for name, (net, _, _) in sorted(COMPOSITIONS.items()):
            traces, _ = _full_traces(compile_network(net, DetailLevel.HAPPY_FLOW))
            assert traces, name
            for trace in traces:
                assert check_composition(net, trace) == [], name


def test_criterion_6_round_trip_and_determinism():
    with criterion(6, "serialization round-trips byte-identically for both networks"):
        for fixture in ("poc1.json", "poc2.json"):
            net = load_network(FIXTURES / fixture)
            for level in DetailLevel:
                first = serialize_model(compile_network(net, level))
                assert serialize_model(parse_model(first)) == first
                second = serialize_model(compile_network(net, level))
                assert second == first


def _random_network(rng: random.Random) -> TransactionNetwork:
    count = rng.randint(1, 6)
    actors = [Actor(f"A{i:02d}", f"Actor {i:02d}") for i in range(count + 1)]
    transactions, dependencies = [], []
    for i in range(1, count + 1):
        if i == 1:
            initiator = "A00"
        else:
            parent = rng.randint(1, i - 1)
            dependencies.append(
                Dependency(
                    parent=f"TK{parent:02d}",
                    child=f"TK{i:02d}",
                    kind=rng.choice(list(DependencyKind)),
                )
            )
            initiator = f"A{parent:02d}"
        transactions.append(
            Transaction(
                id=f"TK{i:02d}",
                name=f"doing thing {i}",
                initiator=initiator,
                executor=f"A{i:02d}",
                result=Result(id=f"PK{i:02d}", phrase=f"[thing {i}] has been done"),
            )
        )
    return TransactionNetwork(tuple(actors), tuple(transactions), tuple(dependencies))


def test_criterion_7_lint_cleanliness_and_mutation_sensitivity():
    with criterion(7, "100 random networks compile lint-clean; flow deletions are caught"):
        rng = random.Random(7)
        for _ in range(100):
            net = _random_network(rng)
            assert validate_network(net) == []
            model = compile_network(net, DetailLevel.COMPLETE)
            assert lint_model(model) == []

            flows = [
                (pool, flow_index)
                for pool in model.pools
                for flow_index in range(len(pool.flows))
            ]
            pool, flow_index = flows[rng.randrange(len(flows))]
            removed = pool.flows.pop(flow_index)
            assert lint_model(model), f"deleting {removed.id} went unnoticed"
            pool.flows.insert(flow_index, removed)
