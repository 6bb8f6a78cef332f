"""Executable state machine for the complete business-transaction pattern.

One transaction instance moves between two actor roles (initiator, executor)
through coordination acts plus the single production act (execute):

    happy flow     request -> promise -> execute -> declare -> accept
    dissent        decline (with re-request or stop), reject (with
                   re-declare or stop)
    revocation     revoke request / promise / declare / accept, each decided
                   by the counterparty with allow or refuse; an allowed
                   revocation rolls performed acts back in inverse
                   chronological order and repositions the transaction

This module is the ground truth the generated BPMN collaborations are
verified against: the simulator's projected trace language must equal the
bounded language enumerated here.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from functools import lru_cache
from typing import Iterable, Optional


class Act(Enum):
    REQUEST = "Request"
    PROMISE = "Promise"
    EXECUTE = "Execute"
    DECLARE = "Declare"
    ACCEPT = "Accept"
    DECLINE = "Decline"
    REJECT = "Reject"
    REVOKE_REQUEST = "RevokeRequest"
    REVOKE_PROMISE = "RevokePromise"
    REVOKE_DECLARE = "RevokeDeclare"
    REVOKE_ACCEPT = "RevokeAccept"
    ALLOW = "Allow"
    REFUSE = "Refuse"
    STOP = "Stop"


class Role(Enum):
    INITIATOR = "initiator"
    EXECUTOR = "executor"

    @property
    def other(self) -> "Role":
        return Role.EXECUTOR if self is Role.INITIATOR else Role.INITIATOR


class Phase(Enum):
    INITIAL = "Initial"
    REQUESTED = "Requested"
    PROMISED = "Promised"
    EXECUTED = "Executed"
    DECLARED = "Declared"
    ACCEPTED = "Accepted"
    REJECTED = "Rejected"
    DECLINED = "Declined"
    STOPPED = "Stopped"
    TERMINATED = "Terminated"


CORE_ACTS: tuple[Act, ...] = (
    Act.REQUEST,
    Act.PROMISE,
    Act.EXECUTE,
    Act.DECLARE,
    Act.ACCEPT,
)

REVOCATIONS: tuple[Act, ...] = (
    Act.REVOKE_REQUEST,
    Act.REVOKE_PROMISE,
    Act.REVOKE_DECLARE,
    Act.REVOKE_ACCEPT,
)

# Who performs each revocation; the other role decides on it.
REVOKER: dict[Act, Role] = {
    Act.REVOKE_REQUEST: Role.INITIATOR,
    Act.REVOKE_ACCEPT: Role.INITIATOR,
    Act.REVOKE_PROMISE: Role.EXECUTOR,
    Act.REVOKE_DECLARE: Role.EXECUTOR,
}

# The act whose prior performance a revocation presupposes.  Revoking an act
# that was never performed is a deception attempt and is refused automatically.
REVOCATION_TARGET: dict[Act, Act] = {
    Act.REVOKE_REQUEST: Act.REQUEST,
    Act.REVOKE_PROMISE: Act.PROMISE,
    Act.REVOKE_DECLARE: Act.DECLARE,
    Act.REVOKE_ACCEPT: Act.ACCEPT,
}

# How much of the performed-act prefix survives an allowed revocation, and
# where the transaction lands afterwards.  RevokeDeclare keeps the promise
# (it is re-emitted, not undone) and resumes from Promised; RevokePromise
# keeps only the request and lands in Declined; RevokeRequest undoes
# everything and terminates; RevokeAccept undoes just the accept and lands
# in Rejected.
_KEPT_PREFIX: dict[Act, int] = {
    Act.REVOKE_ACCEPT: 4,
    Act.REVOKE_DECLARE: 2,
    Act.REVOKE_PROMISE: 1,
    Act.REVOKE_REQUEST: 0,
}

LANDING_PHASE: dict[Act, Phase] = {
    Act.REVOKE_ACCEPT: Phase.REJECTED,
    Act.REVOKE_DECLARE: Phase.PROMISED,
    Act.REVOKE_PROMISE: Phase.DECLINED,
    Act.REVOKE_REQUEST: Phase.TERMINATED,
}

# (phase, act, role) -> next phase, for core and dissent acts.
_TRANSITIONS: dict[tuple[Phase, Act, Role], Phase] = {
    (Phase.INITIAL, Act.REQUEST, Role.INITIATOR): Phase.REQUESTED,
    (Phase.REQUESTED, Act.PROMISE, Role.EXECUTOR): Phase.PROMISED,
    (Phase.REQUESTED, Act.DECLINE, Role.EXECUTOR): Phase.DECLINED,
    (Phase.DECLINED, Act.REQUEST, Role.INITIATOR): Phase.REQUESTED,
    (Phase.DECLINED, Act.STOP, Role.INITIATOR): Phase.STOPPED,
    (Phase.PROMISED, Act.EXECUTE, Role.EXECUTOR): Phase.EXECUTED,
    (Phase.EXECUTED, Act.DECLARE, Role.EXECUTOR): Phase.DECLARED,
    (Phase.DECLARED, Act.ACCEPT, Role.INITIATOR): Phase.ACCEPTED,
    (Phase.DECLARED, Act.REJECT, Role.INITIATOR): Phase.REJECTED,
    (Phase.REJECTED, Act.DECLARE, Role.EXECUTOR): Phase.DECLARED,
    (Phase.REJECTED, Act.STOP, Role.EXECUTOR): Phase.STOPPED,
}

# Who performs each core act (and so who rolls it back).
PERFORMER: dict[Act, Role] = {act: role for (_, act, role) in _TRANSITIONS if act in CORE_ACTS}

# Phases where the transaction is over for good: no acts of any kind.
DEAD_PHASES = frozenset({Phase.STOPPED, Phase.TERMINATED})

# Accepted is terminal for core acts but still open to revocation (revoking
# an accepted product is the whole point of revoke-accept).
TERMINAL_PHASES = frozenset({Phase.ACCEPTED, Phase.STOPPED, Phase.TERMINATED})


class ActNotEnabled(ValueError):
    pass


class RevocationError(ValueError):
    pass


class TargetNotPerformed(RevocationError):
    pass


@dataclass(frozen=True)
class TransactionState:
    phase: Phase = Phase.INITIAL
    history: tuple[Act, ...] = ()
    pending: Optional[tuple[Act, Role]] = None  # (revocation act, triggering role)

    def __post_init__(self) -> None:
        if tuple(self.history) != CORE_ACTS[: len(self.history)]:
            raise ValueError(f"history must be a prefix of the core acts, got {self.history}")


INITIAL_STATE = TransactionState()


# (phase, role) -> acts the role may perform with no revocation pending.
_ALLOWED: dict[tuple[Phase, Role], frozenset[Act]] = {
    (phase, role): frozenset(
        [act for (p, act, r) in _TRANSITIONS if p is phase and r is role]
        + [r for r in REVOCATIONS if REVOKER[r] is role and phase not in DEAD_PHASES | {Phase.INITIAL}]
    )
    for phase in Phase for role in Role
}
_DECISIONS = frozenset({Act.ALLOW, Act.REFUSE})


def allowed_acts(state: TransactionState, role: Role) -> frozenset[Act]:
    """Acts apply_act would accept for this role in this state.

    Revocations are included from Requested onward even when their target act
    is unperformed; those are enabled but resolve to an automatic refusal.
    """
    if state.pending is not None:
        return _DECISIONS if role is REVOKER[state.pending[0]].other else frozenset()
    return _ALLOWED[(state.phase, role)]


def apply_act(state: TransactionState, act: Act, role: Role) -> TransactionState:
    """Apply one act; raises ActNotEnabled if the state machine refuses it,
    and RevocationError for an Allow or Refuse by the revoker.

    Revocation acts mark a revocation pending; the other role's Allow or
    Refuse resolves it.  Allow rolls the undone acts out of the history and
    repositions the transaction, unless the revocation targets an unperformed
    act, which is refused automatically; Refuse changes nothing.  Core acts
    never duplicate entries in the performed-act history (a re-request or
    re-declare re-emits, it does not re-perform).
    """
    if act in _DECISIONS:
        if state.pending is None:
            raise ActNotEnabled(f"{act.value} without a pending revocation")
        revocation = state.pending[0]
        if role is not REVOKER[revocation].other:
            raise RevocationError(f"{role.value} does not decide on {revocation.value}")
        if act is Act.REFUSE or revocation_auto_refused(state):
            return TransactionState(state.phase, state.history)
        return TransactionState(LANDING_PHASE[revocation], state.history[: _KEPT_PREFIX[revocation]])
    if state.pending is not None:
        raise ActNotEnabled(f"{act.value} while a revocation is pending")
    if act in REVOCATIONS:
        if state.phase is Phase.INITIAL:
            raise ActNotEnabled("revocations are suppressed before the request")
        if state.phase in DEAD_PHASES:
            raise ActNotEnabled(f"{act.value} in dead phase {state.phase.value}")
        if REVOKER[act] is not role:
            raise ActNotEnabled(f"{act.value} is not {role.value}'s revocation")
        return TransactionState(state.phase, state.history, pending=(act, role))
    try:
        next_phase = _TRANSITIONS[(state.phase, act, role)]
    except KeyError:
        raise ActNotEnabled(
            f"{act.value} by {role.value} is not enabled in phase {state.phase.value}"
        ) from None
    history = state.history
    if act in CORE_ACTS and act not in history:
        history = history + (act,)
    return TransactionState(next_phase, history, pending=None)


def rollback_chain(state: TransactionState, revocation: Act) -> tuple[Act, ...]:
    """Acts an allowed revocation undoes, most recent first.

    E.g. with all five acts performed, RevokeDeclare undoes
    (Accept, Declare, Execute) — the promise stays and is re-emitted.
    Raises TargetNotPerformed when the revoked act is not in the history.
    """
    if revocation not in REVOCATIONS:
        raise RevocationError(f"{revocation.value} is not a revocation act")
    if REVOCATION_TARGET[revocation] not in state.history:
        raise TargetNotPerformed(
            f"{REVOCATION_TARGET[revocation].value} was never performed"
        )
    return tuple(reversed(state.history[_KEPT_PREFIX[revocation]:]))


def revocation_auto_refused(state: TransactionState) -> bool:
    """True when the pending revocation targets an unperformed act."""
    if state.pending is None:
        raise RevocationError("no pending revocation")
    return REVOCATION_TARGET[state.pending[0]] not in state.history


class TraceError(ValueError):
    def __init__(self, index: int, message: str):
        super().__init__(f"step {index}: {message}")
        self.index = index


def run_trace(steps: Iterable[tuple[Act, Role]]) -> TransactionState:
    """Run a sequence of (act, role) steps from the initial state."""
    state = INITIAL_STATE
    for index, (act, role) in enumerate(steps):
        try:
            state = apply_act(state, act, role)
        except (ActNotEnabled, RevocationError) as exc:
            raise TraceError(index, str(exc)) from exc
    return state


# ---------------------------------------------------------------------------
# Bounded language enumeration (the conformance oracle's side of the fence).
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Bounds:
    """Loop bounds that keep the bounded language finite.

    rerequest counts Declined->Requested transitions, redeclare counts
    Rejected->Declared transitions, revocations counts revocation episodes,
    each when its revocation act is performed (allowed, refused or auto-refused).
    """
    rerequest: int = 1
    redeclare: int = 1
    revocations: int = 1


@dataclass(frozen=True)
class BoundedState:
    """A transaction state plus how often each bounded loop has been taken."""

    state: TransactionState = INITIAL_STATE
    rerequests: int = 0
    redeclares: int = 0
    revocations: int = 0


def bounded_acts(run: BoundedState, role: Role, bounds: Bounds) -> frozenset[Act]:
    """allowed_acts less the loop acts whose bound is spent, and less Allow
    when the pending revocation can only be auto-refused."""
    state = run.state
    acts = allowed_acts(state, role)
    if state.pending is not None:
        return acts - {Act.ALLOW} if revocation_auto_refused(state) else acts
    if run.revocations >= bounds.revocations:
        acts = acts.difference(REVOCATIONS)
    if state.phase is Phase.DECLINED and run.rerequests >= bounds.rerequest:
        acts = acts - {Act.REQUEST}
    elif state.phase is Phase.REJECTED and run.redeclares >= bounds.redeclare:
        acts = acts - {Act.DECLARE}
    return acts


def bounded_apply(run: BoundedState, act: Act, role: Role) -> BoundedState:
    """apply_act, counting the loop the act takes, if any."""
    phase = run.state.phase
    return BoundedState(
        apply_act(run.state, act, role),
        run.rerequests + (act is Act.REQUEST and phase is Phase.DECLINED),
        run.redeclares + (act is Act.DECLARE and phase is Phase.REJECTED),
        run.revocations + (act in REVOCATIONS),
    )


HAPPY_ALPHABET = frozenset(CORE_ACTS)
DISSENT_ALPHABET = HAPPY_ALPHABET | {Act.DECLINE, Act.REJECT, Act.STOP}
COMPLETE_ALPHABET = frozenset(Act)

# the columns of ``bounded_table``'s moves: roles, then acts, in declaration order
MOVES: tuple[tuple[Act, Role], ...] = tuple((act, role) for role in Role for act in Act)


class _Moves(dict):
    """``bounded_table``'s moves, each row played the first time it is read."""

    def __init__(self, bounds: Bounds, alphabet: frozenset[Act]):
        self.bounds, self.alphabet = bounds, alphabet
        self.states, self.rows = [BoundedState()], {BoundedState(): 0}

    def __missing__(self, row: int) -> tuple[int, ...]:
        run, states, rows = self.states[row], self.states, self.rows
        moves = [-1] * len(MOVES)
        allowed = (bounded_acts(run, role, self.bounds) & self.alphabet for role in Role)
        for column in sorted(MOVES.index((act, role)) for role, acts in zip(Role, allowed) for act in acts):
            after = bounded_apply(run, *MOVES[column])
            moves[column] = rows.setdefault(after, len(states))
            if moves[column] == len(states):
                states.append(after)
        return self.setdefault(row, tuple(moves))


@lru_cache(maxsize=8)
def bounded_table(bounds: Bounds, alphabet: frozenset[Act]) -> tuple[list[BoundedState], _Moves]:
    """The bounded step over ``alphabet``: the states numbered so far, from
    ``BoundedState()``, and per row the next row for each of ``MOVES`` (-1
    where ``bounded_acts`` or the alphabet forbids it).  A row is played, in
    ``MOVES`` order, when first read, so a caller pays only for the rows it
    reaches; read in ascending order, rows number breadth-first."""
    moves = _Moves(bounds, alphabet)
    return moves.states, moves


@lru_cache(maxsize=8)
def enumerate_language(
    alphabet: frozenset[Act], bounds: Bounds = Bounds()
) -> frozenset[tuple[tuple[Act, ...], Phase]]:
    """All bounded runs from Initial to a terminal outcome, as act sequences.

    A run is recorded whenever the transaction sits in Accepted, Stopped or
    Terminated with no revocation pending; from Accepted the walk also
    continues into still-affordable revocations, so both the plain accepted
    run and its post-acceptance revocation extensions are members.
    Auto-refused resolutions are canonically labeled Refuse.  The walk reads
    ``bounded_table`` with its own stack, so runs may be as long as bounds
    allow.  Enumerated once per alphabet and bounds, as the table is; the
    frozenset is shared by every caller.
    """
    states, moves = bounded_table(bounds, alphabet)
    columns = [(column, act) for column, (act, _) in enumerate(MOVES) if act in alphabet]
    results: set[tuple[tuple[Act, ...], Phase]] = set()
    stack: list[tuple[int, tuple[Act, ...]]] = [(0, ())]
    while stack:
        row, events = stack.pop()
        state = states[row].state
        if state.pending is None and state.phase in TERMINAL_PHASES:
            results.add((events, state.phase))
        nexts = moves[row]
        stack += [(nexts[column], events + (act,)) for column, act in columns if nexts[column] >= 0]
    return frozenset(results)
