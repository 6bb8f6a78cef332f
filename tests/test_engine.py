"""Transaction state machine: transitions, revocations, bounded languages."""

from __future__ import annotations

import itertools
import random

import pytest
from hypothesis import given, settings, strategies as st

from demoflow.engine import (
    Act,
    ActNotEnabled,
    Bounds,
    BoundedState,
    COMPLETE_ALPHABET,
    CORE_ACTS,
    DEAD_PHASES,
    DISSENT_ALPHABET,
    HAPPY_ALPHABET,
    INITIAL_STATE,
    LANDING_PHASE,
    MOVES,
    Phase,
    REVOCATIONS,
    REVOKER,
    RevocationError,
    Role,
    TERMINAL_PHASES,
    TargetNotPerformed,
    TraceError,
    TransactionState,
    _TRANSITIONS,
    allowed_acts,
    apply_act,
    bounded_acts,
    bounded_apply,
    bounded_table,
    enumerate_language,
    revocation_auto_refused,
    rollback_chain,
    run_trace,
)

I, E = Role.INITIATOR, Role.EXECUTOR

HAPPY = [
    (Act.REQUEST, I),
    (Act.PROMISE, E),
    (Act.EXECUTE, E),
    (Act.DECLARE, E),
    (Act.ACCEPT, I),
]


def _state_after(*acts_roles):
    return run_trace(list(acts_roles))


def _role_for(state: TransactionState, act: Act) -> Role:
    """The unique role that can perform this act in this state."""
    if act in (Act.ALLOW, Act.REFUSE):
        return REVOKER[state.pending[0]].other
    if act in REVOCATIONS:
        return REVOKER[act]
    if act is Act.STOP:
        return I if state.phase is Phase.DECLINED else E
    return {
        Act.REQUEST: I,
        Act.PROMISE: E,
        Act.EXECUTE: E,
        Act.DECLARE: E,
        Act.ACCEPT: I,
        Act.DECLINE: E,
        Act.REJECT: I,
    }[act]


def _replay(events):
    state = INITIAL_STATE
    for act in events:
        state = apply_act(state, act, _role_for(state, act))
    return state


# --- core transitions --------------------------------------------------------

def test_happy_flow_reaches_accepted_with_full_history():
    state = run_trace(HAPPY)
    assert state.phase is Phase.ACCEPTED
    assert state.history == CORE_ACTS


def test_decline_then_rerequest_then_happy():
    state = run_trace(
        [(Act.REQUEST, I), (Act.DECLINE, E), (Act.REQUEST, I)] + HAPPY[1:]
    )
    assert state.phase is Phase.ACCEPTED
    assert state.history == CORE_ACTS  # no duplicate request entry


def test_decline_then_stop():
    state = run_trace([(Act.REQUEST, I), (Act.DECLINE, E), (Act.STOP, I)])
    assert state.phase is Phase.STOPPED
    assert state.history == (Act.REQUEST,)


def test_reject_then_redeclare_then_accept():
    state = run_trace(
        HAPPY[:4] + [(Act.REJECT, I), (Act.DECLARE, E), (Act.ACCEPT, I)]
    )
    assert state.phase is Phase.ACCEPTED
    assert state.history == CORE_ACTS


def test_reject_then_stop():
    state = run_trace(HAPPY[:4] + [(Act.REJECT, I), (Act.STOP, E)])
    assert state.phase is Phase.STOPPED
    assert state.history == (Act.REQUEST, Act.PROMISE, Act.EXECUTE, Act.DECLARE)


def test_wrong_role_or_phase_raises():
    with pytest.raises(ActNotEnabled):
        apply_act(INITIAL_STATE, Act.REQUEST, E)
    with pytest.raises(ActNotEnabled):
        apply_act(INITIAL_STATE, Act.PROMISE, E)
    requested = _state_after((Act.REQUEST, I))
    with pytest.raises(ActNotEnabled):
        apply_act(requested, Act.ACCEPT, I)
    with pytest.raises(TraceError, match="step 1"):
        run_trace([(Act.REQUEST, I), (Act.EXECUTE, E)])


def test_history_must_be_core_prefix():
    with pytest.raises(ValueError, match="prefix"):
        TransactionState(Phase.PROMISED, (Act.PROMISE,))


def test_allowed_acts_tables():
    assert allowed_acts(INITIAL_STATE, I) == {Act.REQUEST}
    assert allowed_acts(INITIAL_STATE, E) == frozenset()
    requested = _state_after((Act.REQUEST, I))
    assert allowed_acts(requested, E) == {
        Act.PROMISE, Act.DECLINE, Act.REVOKE_PROMISE, Act.REVOKE_DECLARE,
    }
    assert allowed_acts(requested, I) == {Act.REVOKE_REQUEST, Act.REVOKE_ACCEPT}
    accepted = run_trace(HAPPY)
    assert allowed_acts(accepted, I) == {Act.REVOKE_REQUEST, Act.REVOKE_ACCEPT}
    assert allowed_acts(accepted, E) == {Act.REVOKE_PROMISE, Act.REVOKE_DECLARE}
    stopped = run_trace([(Act.REQUEST, I), (Act.DECLINE, E), (Act.STOP, I)])
    assert allowed_acts(stopped, I) == frozenset()
    assert allowed_acts(stopped, E) == frozenset()


# --- revocations -------------------------------------------------------------

def test_rollback_chain_from_full_history():
    accepted = run_trace(HAPPY)
    assert rollback_chain(accepted, Act.REVOKE_ACCEPT) == (Act.ACCEPT,)
    assert rollback_chain(accepted, Act.REVOKE_DECLARE) == (
        Act.ACCEPT, Act.DECLARE, Act.EXECUTE,
    )
    assert rollback_chain(accepted, Act.REVOKE_PROMISE) == (
        Act.ACCEPT, Act.DECLARE, Act.EXECUTE, Act.PROMISE,
    )
    assert rollback_chain(accepted, Act.REVOKE_REQUEST) == (
        Act.ACCEPT, Act.DECLARE, Act.EXECUTE, Act.PROMISE, Act.REQUEST,
    )


def test_rollback_chain_from_partial_history():
    declared = run_trace(HAPPY[:4])
    assert declared.phase is Phase.DECLARED
    assert rollback_chain(declared, Act.REVOKE_DECLARE) == (Act.DECLARE, Act.EXECUTE)
    assert rollback_chain(declared, Act.REVOKE_PROMISE) == (
        Act.DECLARE, Act.EXECUTE, Act.PROMISE,
    )
    with pytest.raises(TargetNotPerformed):
        rollback_chain(declared, Act.REVOKE_ACCEPT)
    requested = _state_after((Act.REQUEST, I))
    assert rollback_chain(requested, Act.REVOKE_REQUEST) == (Act.REQUEST,)
    with pytest.raises(TargetNotPerformed):
        rollback_chain(requested, Act.REVOKE_PROMISE)


@pytest.mark.parametrize(
    "revocation,landing,kept",
    [
        (Act.REVOKE_ACCEPT, Phase.REJECTED, 4),
        (Act.REVOKE_DECLARE, Phase.PROMISED, 2),
        (Act.REVOKE_PROMISE, Phase.DECLINED, 1),
        (Act.REVOKE_REQUEST, Phase.TERMINATED, 0),
    ],
)
def test_allowed_revocation_lands_and_rolls_back(revocation, landing, kept):
    accepted = run_trace(HAPPY)
    pending = apply_act(accepted, revocation, REVOKER[revocation])
    assert pending.pending == (revocation, REVOKER[revocation])
    resolved = apply_act(pending, Act.ALLOW, REVOKER[revocation].other)
    assert resolved.phase is landing
    assert resolved.history == CORE_ACTS[:kept]
    assert resolved.pending is None


def test_refused_revocation_changes_nothing():
    accepted = run_trace(HAPPY)
    for revocation in REVOCATIONS:
        pending = apply_act(accepted, revocation, REVOKER[revocation])
        resolved = apply_act(pending, Act.REFUSE, REVOKER[revocation].other)
        assert resolved == accepted


@pytest.mark.parametrize(
    "revocation",
    [Act.REVOKE_PROMISE, Act.REVOKE_DECLARE, Act.REVOKE_ACCEPT],
    ids=lambda act: act.value,
)
def test_revoking_unperformed_act_is_refused_even_on_allow(revocation):
    requested = _state_after((Act.REQUEST, I))
    pending = apply_act(requested, revocation, REVOKER[revocation])
    assert revocation_auto_refused(pending)
    decider = REVOKER[revocation].other
    allowed = apply_act(pending, Act.ALLOW, decider)
    assert allowed == apply_act(pending, Act.REFUSE, decider) == requested


def test_revocations_suppressed_in_initial_and_dead_phases():
    for revocation in REVOCATIONS:
        with pytest.raises(ActNotEnabled):
            apply_act(INITIAL_STATE, revocation, REVOKER[revocation])
    stopped = run_trace([(Act.REQUEST, I), (Act.DECLINE, E), (Act.STOP, I)])
    for revocation in REVOCATIONS:
        with pytest.raises(ActNotEnabled):
            apply_act(stopped, revocation, REVOKER[revocation])


def test_pending_revocation_blocks_other_acts():
    accepted = run_trace(HAPPY)
    pending = apply_act(accepted, Act.REVOKE_DECLARE, E)
    with pytest.raises(ActNotEnabled, match="pending"):
        apply_act(pending, Act.REVOKE_ACCEPT, I)
    assert allowed_acts(pending, I) == {Act.ALLOW, Act.REFUSE}
    assert allowed_acts(pending, E) == frozenset()
    for decision in (Act.ALLOW, Act.REFUSE):
        with pytest.raises(RevocationError, match="executor does not decide on RevokeDeclare"):
            apply_act(pending, decision, E)
    with pytest.raises(ActNotEnabled, match="without a pending revocation"):
        apply_act(accepted, Act.ALLOW, I)


def test_run_trace_allow_step():
    state = run_trace(HAPPY + [(Act.REVOKE_DECLARE, E), (Act.ALLOW, I)])
    assert state.phase is Phase.PROMISED
    assert state.history == (Act.REQUEST, Act.PROMISE)


def test_run_trace_names_an_allow_by_the_revoker():
    with pytest.raises(TraceError) as excinfo:
        run_trace(HAPPY + [(Act.REVOKE_DECLARE, E), (Act.ALLOW, E)])
    assert excinfo.value.index == len(HAPPY) + 1
    assert str(excinfo.value) == "step 6: executor does not decide on RevokeDeclare"


# --- bounded languages -------------------------------------------------------

def test_happy_language_is_the_single_trace():
    language = enumerate_language(HAPPY_ALPHABET, Bounds(1, 1, 1))
    assert language == {(tuple(a for a, _ in HAPPY), Phase.ACCEPTED)}


DISSENT_10 = {
    ("Rq", "Pm", "Ex", "Dc", "Ac"),
    ("Rq", "Pm", "Ex", "Dc", "Rj", "St"),
    ("Rq", "Pm", "Ex", "Dc", "Rj", "Dc", "Ac"),
    ("Rq", "Pm", "Ex", "Dc", "Rj", "Dc", "Rj", "St"),
    ("Rq", "Dn", "Rq", "Pm", "Ex", "Dc", "Ac"),
    ("Rq", "Dn", "Rq", "Pm", "Ex", "Dc", "Rj", "St"),
    ("Rq", "Dn", "Rq", "Pm", "Ex", "Dc", "Rj", "Dc", "Ac"),
    ("Rq", "Dn", "Rq", "Pm", "Ex", "Dc", "Rj", "Dc", "Rj", "St"),
    ("Rq", "Dn", "St"),
    ("Rq", "Dn", "Rq", "Dn", "St"),
}

_ABBREV = {
    Act.REQUEST: "Rq", Act.PROMISE: "Pm", Act.EXECUTE: "Ex",
    Act.DECLARE: "Dc", Act.ACCEPT: "Ac", Act.DECLINE: "Dn",
    Act.REJECT: "Rj", Act.STOP: "St",
}


def test_dissent_language_at_bounds_one_is_exactly_ten():
    language = enumerate_language(DISSENT_ALPHABET, Bounds(1, 1, 1))
    assert len(language) == 10
    got = {tuple(_ABBREV[a] for a in events) for events, _ in language}
    assert got == DISSENT_10
    outcomes = [phase for _, phase in language]
    assert outcomes.count(Phase.ACCEPTED) == 4
    assert outcomes.count(Phase.STOPPED) == 6


@pytest.mark.parametrize("rerequest", [0, 1, 2, 3])
@pytest.mark.parametrize("redeclare", [0, 1, 2, 3])
def test_dissent_language_size_formula(rerequest, redeclare):
    # (rerequest+1) promise entries x (accepts + reject-stops) + decline-stops
    expected = (rerequest + 1) * (2 * redeclare + 3)
    language = enumerate_language(DISSENT_ALPHABET, Bounds(rerequest, redeclare, 0))
    assert len(language) == expected


def test_language_walk_has_no_depth_limit():
    # 600 re-requests make runs of over 1,800 acts, deeper than the
    # interpreter's recursion limit; the size is (600 + 1) * (2 * 1 + 3)
    language = enumerate_language(DISSENT_ALPHABET, Bounds(rerequest=600))
    assert len(language) == 3005


def test_complete_language_size_frozen():
    language = enumerate_language(COMPLETE_ALPHABET, Bounds(1, 1, 1))
    assert len(language) == 372
    # sequences are unique even ignoring the outcome tag
    assert len({events for events, _ in language}) == 372


def test_complete_language_spot_members():
    language = {events for events, _ in enumerate_language(COMPLETE_ALPHABET, Bounds(1, 1, 1))}
    R, P, X, D, A = CORE_ACTS
    assert (R, P, X, D, A) in language
    # post-acceptance revoke-accept, allowed, then re-declare to acceptance
    assert (R, P, X, D, A, Act.REVOKE_ACCEPT, Act.ALLOW, D, A) in language
    assert (R, P, X, D, A, Act.REVOKE_ACCEPT, Act.ALLOW, Act.STOP) in language
    assert (R, Act.REVOKE_REQUEST, Act.ALLOW) in language
    # deception attempt: declare never performed, so the refusal is automatic
    assert (R, Act.REVOKE_DECLARE, Act.REFUSE, P, X, D, A) in language
    assert (R, Act.REVOKE_DECLARE, Act.ALLOW, P, X, D, A) not in language


def test_complete_language_replays_through_state_machine():
    language = enumerate_language(COMPLETE_ALPHABET, Bounds(1, 1, 1))
    terminal = {Phase.ACCEPTED, Phase.STOPPED, Phase.TERMINATED}
    for events, outcome in language:
        state = _replay(events)
        assert state.phase is outcome
        assert outcome in terminal


def test_language_outcomes_partition():
    language = enumerate_language(COMPLETE_ALPHABET, Bounds(1, 1, 1))
    by_outcome = {}
    for events, outcome in language:
        by_outcome.setdefault(outcome, set()).add(events)
    assert set(by_outcome) == {Phase.ACCEPTED, Phase.STOPPED, Phase.TERMINATED}
    assert sum(len(v) for v in by_outcome.values()) == len(language)


def _reference_language(alphabet, bounds):
    """The language as enumerated before the bounded step existed: the
    bound rules and loop counters restated here, next to the transitions."""
    results = set()

    def options(state, used):
        rerequest, redeclare, revocations = used
        if state.pending is not None:
            decider = REVOKER[state.pending[0]].other
            if Act.REFUSE not in alphabet:
                return []
            if revocation_auto_refused(state):
                return [(Act.REFUSE, decider)]
            return [(Act.ALLOW, decider), (Act.REFUSE, decider)]
        out = []
        for (phase, act, role), _next in sorted(
            _TRANSITIONS.items(), key=lambda kv: (kv[0][1].value, kv[0][2].value)
        ):
            if phase is not state.phase or act not in alphabet:
                continue
            if phase is Phase.DECLINED and act is Act.REQUEST and rerequest >= bounds.rerequest:
                continue
            if phase is Phase.REJECTED and act is Act.DECLARE and redeclare >= bounds.redeclare:
                continue
            out.append((act, role))
        if (
            state.phase not in DEAD_PHASES
            and state.phase is not Phase.INITIAL
            and revocations < bounds.revocations
        ):
            for revocation in REVOCATIONS:
                if revocation in alphabet:
                    out.append((revocation, REVOKER[revocation]))
        return out

    def walk(state, used, events):
        if state.pending is None and state.phase in TERMINAL_PHASES:
            results.add((events, state.phase))
            if state.phase in DEAD_PHASES:
                return
        for act, role in options(state, used):
            rerequest, redeclare, revocations = used
            if state.phase is Phase.DECLINED and act is Act.REQUEST:
                rerequest += 1
            if state.phase is Phase.REJECTED and act is Act.DECLARE:
                redeclare += 1
            if act in REVOCATIONS:
                revocations += 1
            walk(apply_act(state, act, role), (rerequest, redeclare, revocations), events + (act,))

    walk(INITIAL_STATE, (0, 0, 0), ())
    return frozenset(results)


@pytest.mark.parametrize("alphabet", [HAPPY_ALPHABET, DISSENT_ALPHABET, COMPLETE_ALPHABET],
                         ids=["happy", "dissent", "complete"])
@pytest.mark.parametrize("revocations", [0, 1, 2])
@pytest.mark.parametrize("redeclare", [0, 1, 2])
@pytest.mark.parametrize("rerequest", [0, 1, 2])
def test_language_matches_the_reference_enumerator(rerequest, redeclare, revocations, alphabet):
    bounds = Bounds(rerequest, redeclare, revocations)
    assert enumerate_language(alphabet, bounds) == _reference_language(alphabet, bounds)


def test_language_is_enumerated_once_per_alphabet_and_bounds():
    # every conformance check reads the language; equal arguments share one
    # frozenset
    first = enumerate_language(DISSENT_ALPHABET, Bounds(2, 1, 1))
    assert enumerate_language(DISSENT_ALPHABET, Bounds(2, 1, 1)) is first
    assert enumerate_language(COMPLETE_ALPHABET, Bounds(2, 1, 1)) is not first


# --- the bounded step --------------------------------------------------------

_DECLINED = _state_after((Act.REQUEST, I), (Act.DECLINE, E))
_REJECTED = run_trace(HAPPY[:4] + [(Act.REJECT, I)])
_ACCEPTED = run_trace(HAPPY)


@pytest.mark.parametrize(
    "run, role, removed",
    [
        (BoundedState(_DECLINED), I, set()),
        (BoundedState(_DECLINED, rerequests=1), I, {Act.REQUEST}),
        (BoundedState(_DECLINED, redeclares=1), I, set()),
        (BoundedState(_REJECTED), E, set()),
        (BoundedState(_REJECTED, redeclares=1), E, {Act.DECLARE}),
        (BoundedState(_REJECTED, rerequests=1), E, set()),
        (BoundedState(_ACCEPTED), I, set()),
        (BoundedState(_ACCEPTED, revocations=1), I, {Act.REVOKE_REQUEST, Act.REVOKE_ACCEPT}),
        (BoundedState(_ACCEPTED, revocations=1), E, {Act.REVOKE_PROMISE, Act.REVOKE_DECLARE}),
        (BoundedState(_DECLINED, revocations=1), I, {Act.REVOKE_REQUEST, Act.REVOKE_ACCEPT}),
        # a pending revocation is decided whatever the counts say
        (BoundedState(apply_act(_ACCEPTED, Act.REVOKE_DECLARE, E), 1, 1, 1), I, set()),
        # revoking the unperformed declare can only be refused
        (BoundedState(apply_act(_DECLINED, Act.REVOKE_DECLARE, E)), I, {Act.ALLOW}),
        (BoundedState(apply_act(_DECLINED, Act.REVOKE_DECLARE, E)), E, set()),
    ],
)
def test_bounded_acts_against_allowed_acts(run, role, removed):
    allowed = allowed_acts(run.state, role)
    assert removed <= allowed
    assert bounded_acts(run, role, Bounds(1, 1, 1)) == allowed - removed


def test_bounded_apply_counts_each_loop_once():
    run = BoundedState()
    for act, role in [(Act.REQUEST, I), (Act.DECLINE, E), (Act.REQUEST, I)] + HAPPY[1:4]:
        run = bounded_apply(run, act, role)
    assert (run.rerequests, run.redeclares, run.revocations) == (1, 0, 0)
    run = bounded_apply(bounded_apply(run, Act.REJECT, I), Act.DECLARE, E)
    assert (run.rerequests, run.redeclares, run.revocations) == (1, 1, 0)
    run = bounded_apply(run, Act.REVOKE_DECLARE, E)
    assert (run.rerequests, run.redeclares, run.revocations) == (1, 1, 1)
    run = bounded_apply(run, Act.ALLOW, I)
    assert run.state.phase is Phase.PROMISED
    assert (run.rerequests, run.redeclares, run.revocations) == (1, 1, 1)
    with pytest.raises(ActNotEnabled):
        bounded_apply(run, Act.ACCEPT, I)


# --- the bounded step as a table ---------------------------------------------

def test_table_columns_are_every_act_of_every_role():
    assert len(MOVES) == len(set(MOVES)) == len(Act) * len(Role)


def _read_every_row(bounds, alphabet=COMPLETE_ALPHABET):
    """The whole table: reading rows in ascending order numbers every state."""
    states, moves = bounded_table(bounds, alphabet)
    row = 0
    while row < len(states):
        moves[row]
        row += 1
    return states, moves


@pytest.mark.parametrize(
    "alphabet", [HAPPY_ALPHABET, DISSENT_ALPHABET, COMPLETE_ALPHABET],
    ids=["happy", "dissent", "complete"],
)
@pytest.mark.parametrize(
    "bounds", [Bounds(*b) for b in itertools.product(range(3), repeat=3)], ids=repr
)
def test_table_rows_are_the_bounded_step(bounds, alphabet):
    states, moves = _read_every_row(bounds, alphabet)
    assert states[0] == BoundedState() and len(set(states)) == len(states)
    assert len(moves) == len(states)
    for number, run in enumerate(states):
        row = moves[number]
        for role in Role:
            allowed = {act for (act, r), after in zip(MOVES, row) if r is role and after >= 0}
            assert allowed == bounded_acts(run, role, bounds) & alphabet
        for (act, role), after in zip(MOVES, row):
            if after >= 0:
                assert states[after] == bounded_apply(run, act, role)


@pytest.mark.parametrize(
    "alphabet, rows, edges",
    [(HAPPY_ALPHABET, 6, 5), (DISSENT_ALPHABET, 27, 26), (COMPLETE_ALPHABET, 146, 272)],
    ids=["happy", "dissent", "complete"],
)
def test_table_reach_per_alphabet(alphabet, rows, edges):
    # the alphabet's own table holds what the complete table reaches over it
    states, moves = bounded_table(Bounds(), COMPLETE_ALPHABET)
    columns = [column for column, (act, _) in enumerate(MOVES) if act in alphabet]
    reached, frontier, taken = {0}, [0], 0
    while frontier:
        row = frontier.pop()
        for after in (moves[row][column] for column in columns):
            if after >= 0:
                taken += 1
                if after not in reached:
                    reached.add(after)
                    frontier.append(after)
    assert (len(reached), taken) == (rows, edges)
    states, moves = _read_every_row(Bounds(), alphabet)
    assert (len(states), sum(after >= 0 for row in moves.values() for after in row)) == (rows, edges)


def test_table_plays_only_the_rows_read():
    # the complete table at these bounds has over a million rows; the
    # language walk plays only the states its alphabet reaches
    bounds = Bounds(rerequest=40, redeclare=40, revocations=40)
    bounded_table.cache_clear()
    enumerate_language.cache_clear()
    enumerate_language(DISSENT_ALPHABET, bounds)
    reached, frontier = {BoundedState()}, [BoundedState()]
    while frontier:
        run = frontier.pop()
        for role in Role:
            for act in bounded_acts(run, role, bounds) & DISSENT_ALPHABET:
                after = bounded_apply(run, act, role)
                if after not in reached:
                    reached.add(after)
                    frontier.append(after)
    states, moves = bounded_table(bounds, DISSENT_ALPHABET)
    assert set(states) == reached and len(moves) == len(states)
    assert bounded_table.cache_info().currsize == 1


# --- properties --------------------------------------------------------------

@given(st.integers(min_value=0, max_value=2 ** 32 - 1))
@settings(max_examples=200, deadline=None)
def test_apply_act_agrees_with_allowed_acts(seed):
    rng = random.Random(seed)
    state = INITIAL_STATE
    for _ in range(30):
        enabled = [
            (act, role)
            for role in (I, E)
            for act in allowed_acts(state, role)
        ]
        for act in Act:
            for role in (I, E):
                if (act, role) in enabled:
                    continue
                with pytest.raises((ActNotEnabled, RevocationError)):
                    apply_act(state, act, role)
        if not enabled:
            break
        act, role = rng.choice(enabled)
        state = apply_act(state, act, role)
        assert tuple(state.history) == CORE_ACTS[: len(state.history)]


@given(st.integers(min_value=0, max_value=2 ** 32 - 1))
@settings(max_examples=100, deadline=None)
def test_random_walk_phase_history_consistency(seed):
    rng = random.Random(seed)
    state = INITIAL_STATE
    for _ in range(40):
        enabled = [
            (act, role) for role in (I, E) for act in allowed_acts(state, role)
        ]
        if not enabled:
            break
        act, role = rng.choice(enabled)
        before = state
        state = apply_act(state, act, role)
        if act in (Act.DECLINE, Act.REJECT, Act.STOP):
            assert state.history == before.history
        if act is Act.REFUSE:
            assert state.phase is before.phase
            assert state.history == before.history
    assert state.phase in Phase
