"""Pattern compiler: model sizes, act census, naming, determinism, lint."""

from __future__ import annotations

import copy
import dataclasses
import hashlib
import random
from pathlib import Path

import pytest

from demoflow import compiler
from demoflow.compiler import (
    CompileError,
    DetailLevel,
    INITIAL_GATEWAY_NAME,
    LEVEL_ALPHABETS,
    compile_network,
)
from demoflow.engine import (
    Act,
    COMPLETE_ALPHABET,
    CORE_ACTS,
    DISSENT_ALPHABET,
    HAPPY_ALPHABET,
    Phase,
    REVOCATIONS,
    REVOCATION_TARGET,
    REVOKER,
    Role,
    TransactionState,
    rollback_chain,
)
from demoflow.model import ROLE_TAG, SLUG_FOR_ACT, NodeKind, lint_model, parse_node_id
from demoflow.network import DependencyKind, load_network
from demoflow.xmlio import parse_model, serialize_model

from conftest import make_solo_network
from test_simulator import _chain_net, _fan_net
from test_xmlio import XML_SHA256

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"

LEVELS = list(DetailLevel)

# (nodes, sequence flows, message flows) of the one-transaction collaboration.
SOLO_SIZES = {
    DetailLevel.HAPPY_FLOW: (12, 10, 4),
    DetailLevel.WITH_DISSENT: (34, 36, 10),
    DetailLevel.COMPLETE: (115, 127, 27),
}

# Node totals for the bundled example networks.
POC1_SIZES = {
    DetailLevel.HAPPY_FLOW: 42,
    DetailLevel.WITH_DISSENT: 130,
    DetailLevel.COMPLETE: 454,
}
POC2_SIZES = {
    DetailLevel.HAPPY_FLOW: 64,
    DetailLevel.WITH_DISSENT: 196,
    DetailLevel.COMPLETE: 682,
}


def _sizes(model):
    return (
        len(model.all_nodes()),
        sum(len(p.flows) for p in model.pools),
        len(model.message_flows),
    )


@pytest.mark.parametrize("level", LEVELS)
def test_solo_model_sizes(solo_net, level):
    assert _sizes(compile_network(solo_net, level)) == SOLO_SIZES[level]


@pytest.mark.parametrize("level", LEVELS)
def test_solo_model_lints_clean(solo_net, level):
    assert lint_model(compile_network(solo_net, level)) == []


@pytest.mark.parametrize("level", LEVELS)
def test_poc1_sizes_and_lint(poc1_net, level):
    model = compile_network(poc1_net, level)
    assert len(model.pools) == 5
    assert len(model.all_nodes()) == POC1_SIZES[level]
    assert lint_model(model) == []


@pytest.mark.parametrize("level", LEVELS)
def test_poc2_sizes_and_lint(poc2_net, level):
    model = compile_network(poc2_net, level)
    assert len(model.pools) == 7
    assert len(model.all_nodes()) == POC2_SIZES[level]
    assert lint_model(model) == []


def test_pools_follow_actor_order_and_names(poc1_net):
    model = compile_network(poc1_net, DetailLevel.HAPPY_FLOW)
    assert [p.id for p in model.pools] == [
        "pool_a01",
        "pool_a02",
        "pool_a03",
        "pool_a04",
        "pool_a05",
    ]
    by_actor = {a.id: a.name for a in poc1_net.actors}
    for pool in model.pools:
        assert pool.name == by_actor[pool.actor_id]
        assert pool.process_id == pool.id.replace("pool_", "proc_", 1)


def test_only_roots_keep_plain_start_events(poc1_net):
    model = compile_network(poc1_net, DetailLevel.WITH_DISSENT)
    kinds = [n.kind for n in model.all_nodes()]
    assert kinds.count(NodeKind.START_EVENT) == 1
    assert kinds.count(NodeKind.MESSAGE_START_EVENT) == len(poc1_net.transactions)


def _act_census(model) -> dict[tuple[str, Act], list[str]]:
    """Which (transaction, act) pairs have representing nodes, and which
    nodes, in id order; transaction keys are the slugs in node ids."""
    census: dict[tuple[str, Act], list[str]] = {}
    for node in model.all_nodes():
        meta = parse_node_id(node.id)
        if meta is not None and meta.act is not None:
            census.setdefault((meta.tk, meta.act), []).append(node.id)
    for nodes in census.values():
        nodes.sort()
    return census


def _node_index(model) -> dict:
    return {node.id: node for node in model.all_nodes()}


def test_happy_act_census(solo_net):
    census = _act_census(compile_network(solo_net, DetailLevel.HAPPY_FLOW))
    assert {act for _, act in census} == set(CORE_ACTS)
    sizes = {act: len(nodes) for (_, act), nodes in census.items()}
    assert sizes == {
        Act.REQUEST: 2,
        Act.PROMISE: 2,
        Act.EXECUTE: 1,
        Act.DECLARE: 2,
        Act.ACCEPT: 2,
    }


@pytest.mark.parametrize(
    "level,expected_acts",
    [
        (DetailLevel.HAPPY_FLOW, 5),
        (DetailLevel.WITH_DISSENT, 8),
        (DetailLevel.COMPLETE, 14),
    ],
)
def test_census_covers_level_alphabet(solo_net, level, expected_acts):
    census = _act_census(compile_network(solo_net, level))
    acts = {act for _, act in census}
    assert len(acts) == expected_acts
    assert acts == LEVEL_ALPHABETS[level]


def test_level_alphabets_map():
    assert LEVEL_ALPHABETS[DetailLevel.HAPPY_FLOW] == HAPPY_ALPHABET
    assert LEVEL_ALPHABETS[DetailLevel.WITH_DISSENT] == DISSENT_ALPHABET
    assert LEVEL_ALPHABETS[DetailLevel.COMPLETE] == COMPLETE_ALPHABET


def test_compile_is_deterministic(poc1_net):
    first = compile_network(poc1_net, DetailLevel.COMPLETE)
    second = compile_network(poc1_net, DetailLevel.COMPLETE)
    assert first == second


def test_level_may_be_given_by_value(poc1_net):
    assert compile_network(poc1_net, "happy") == compile_network(poc1_net, DetailLevel.HAPPY_FLOW)


def test_unknown_level_is_rejected_before_compiling(poc1_net, monkeypatch):
    def never(*args):
        raise AssertionError("compilation started")

    monkeypatch.setattr("demoflow.compiler.validate_network", never)
    with pytest.raises(ValueError, match="bogus"):
        compile_network(poc1_net, "bogus")


def test_splice_and_reposition_guards(poc2_net):
    # poc2: TK01 -RaP-> TK02 -RaE-> TK03 -RaP-> {TK04, TK05}, TK01 -RaE-> TK06
    model = compile_network(poc2_net, DetailLevel.COMPLETE)
    flows = [f for pool in model.pools for f in pool.flows]
    guarded = {}
    for flow in flows:
        guarded.setdefault(flow.label, []).append(flow)
    # each from the act that opens the child, or from a split after it
    assert sorted((f.source, f.target) for f in guarded["spawn"]) == [
        ("tk01_e_execute_task", "tk06_i_entry_par"),
        ("tk01_e_promise_sendtask", "tk02_i_entry_par"),
        ("tk02_e_execute_task", "tk03_i_entry_par"),
        ("tk03_e_rap_par", "tk04_i_entry_par"),
        ("tk03_e_rap_par", "tk05_i_entry_par"),
    ]
    # single children resume the parent directly; TK03's two join first
    assert sorted((f.source, f.target) for f in guarded["phase:promised"]) == [
        ("tk02_i_accept_sendtask", "tk01_e_execute_task"),
        ("tk03_e_rap_par_2", "tk03_e_execute_task"),
    ]
    assert sorted((f.source, f.target) for f in guarded["phase:executed"]) == [
        ("tk03_i_accept_sendtask", "tk02_e_declare_sendtask"),
        ("tk06_i_accept_sendtask", "tk01_e_declare_sendtask"),
    ]
    # three reposition splits per role and transaction
    assert len(guarded["reposition"]) == 6 * 6
    assert all(
        f.source.split("_")[2].startswith("revoke") for f in guarded["reposition"]
    )
    happy = compile_network(poc2_net, DetailLevel.HAPPY_FLOW)
    assert not any(f.label == "reposition" for pool in happy.pools for f in pool.flows)


# The splice of one parent and one or two children of each kind at happy:
# the flows out of the opening act, across transactions and through the
# kind's gateways.  RaP and RaE children run inside the parent's flow and
# give up their end events; RaD children run beside it and keep theirs.
SPLICES = {
    (DependencyKind.RAP, 1): [
        ("tk01_e_promise_sendtask", "tk02_i_request_sendtask", "spawn"),
        ("tk02_i_accept_sendtask", "tk01_e_execute_task", "phase:promised"),
    ],
    (DependencyKind.RAP, 2): [
        ("tk01_e_promise_sendtask", "tk01_e_rap_par", ""),
        ("tk01_e_rap_par", "tk02_i_request_sendtask", "spawn"),
        ("tk01_e_rap_par", "tk03_i_request_sendtask", "spawn"),
        ("tk01_e_rap_par_2", "tk01_e_execute_task", "phase:promised"),
        ("tk02_i_accept_sendtask", "tk01_e_rap_par_2", ""),
        ("tk03_i_accept_sendtask", "tk01_e_rap_par_2", ""),
    ],
    (DependencyKind.RAE, 1): [
        ("tk01_e_execute_task", "tk02_i_request_sendtask", "spawn"),
        ("tk02_i_accept_sendtask", "tk01_e_declare_sendtask", "phase:executed"),
    ],
    (DependencyKind.RAE, 2): [
        ("tk01_e_execute_task", "tk01_e_rae_par", ""),
        ("tk01_e_rae_par", "tk02_i_request_sendtask", "spawn"),
        ("tk01_e_rae_par", "tk03_i_request_sendtask", "spawn"),
        ("tk01_e_rae_par_2", "tk01_e_declare_sendtask", "phase:executed"),
        ("tk02_i_accept_sendtask", "tk01_e_rae_par_2", ""),
        ("tk03_i_accept_sendtask", "tk01_e_rae_par_2", ""),
    ],
    (DependencyKind.RAD, 1): [
        ("tk01_e_declare_sendtask", "tk01_e_rad_par", ""),
        ("tk01_e_rad_par", "tk01_e_accept_catch", ""),
        ("tk01_e_rad_par", "tk02_i_request_sendtask", "spawn"),
    ],
    (DependencyKind.RAD, 2): [
        ("tk01_e_declare_sendtask", "tk01_e_rad_par", ""),
        ("tk01_e_rad_par", "tk01_e_accept_catch", ""),
        ("tk01_e_rad_par", "tk02_i_request_sendtask", "spawn"),
        ("tk01_e_rad_par", "tk03_i_request_sendtask", "spawn"),
    ],
}


@pytest.mark.parametrize("kind,children", SPLICES, ids=[f"{k.value}-{n}" for k, n in SPLICES])
def test_splice_anchor_and_guard_per_kind(kind, children):
    model = compile_network(_fan_net(kind, children), DetailLevel.HAPPY_FLOW)
    anchor = SPLICES[kind, children][0][0]
    spliced = sorted(
        (f.source, f.target, f.label)
        for pool in model.pools
        for f in pool.flows
        if f.source == anchor or f.source[:4] != f.target[:4] or "_par" in f.source + f.target
    )
    assert spliced == SPLICES[kind, children]
    child_ends = {n.id for n in model.all_nodes() if n.id.endswith("_i_done_end")} - {"tk01_i_done_end"}
    assert len(child_ends) == (children if kind is DependencyKind.RAD else 0)


@pytest.mark.parametrize("level", LEVELS)
@pytest.mark.parametrize("kind,children", SPLICES, ids=[f"{k.value}-{n}" for k, n in SPLICES])
def test_spliced_models_lint_clean(kind, children, level):
    assert lint_model(compile_network(_fan_net(kind, children), level)) == []


def test_equal_node_names_share_one_string(poc2_net):
    nodes = compile_network(poc2_net, DetailLevel.COMPLETE).all_nodes()
    first: dict[str, str] = {}
    for node in nodes:
        assert first.setdefault(node.name, node.name) is node.name, node.id
    assert len(first) < len(nodes) / 2


def test_replays_share_no_record_and_leave_the_pattern_as_derived(poc2_net):
    # every level's pattern is replayed per transaction; splicing removes
    # nodes and flows (the RaP chain's end events, the RaD fan's starts) from
    # the replayed lists only, and callers may change a model in place
    models = [compile_network(poc2_net, DetailLevel.COMPLETE)]
    for net in (_chain_net(DependencyKind.RAP, 3), _fan_net(DependencyKind.RAD, 2)):
        models += [compile_network(net, level) for level in LEVELS]
    models.append(compile_network(poc2_net, DetailLevel.COMPLETE))
    first, again = (serialize_model(model) for model in (models[0], models[-1]))
    assert first == again
    assert hashlib.sha256(again).hexdigest() == XML_SHA256[("poc2_net", DetailLevel.COMPLETE)][0]
    records = [record for model in models for record in _records(model)]
    assert len({id(record) for record in records}) == len(records)


def test_the_revocation_zone_is_derived_once_per_level(poc2_net, monkeypatch):
    episodes = []

    def add_episode(*args):
        episodes.append(args[2])
        derive(*args)

    derive = compiler._add_episode
    monkeypatch.setattr(compiler, "_add_episode", add_episode)
    compiler._pattern.cache_clear()
    for level in LEVELS * 2:
        compile_network(poc2_net, level)
    assert sorted(episodes, key=REVOCATIONS.index) == list(REVOCATIONS)


def _records(model):
    """Every list a model holds, and every record in them."""
    for items in (model.pools, model.message_flows, *(
        owned for pool in model.pools for owned in (pool.nodes, pool.flows, pool.associations)
    )):
        yield items
        yield from items


@pytest.mark.parametrize("name", ["{}", "{0}", "{{}}", "%s", '&<>"'])
@pytest.mark.parametrize("level", LEVELS, ids=lambda level: level.value)
def test_names_are_formatted_into_their_templates_once(name, level):
    solo = make_solo_network()
    net = dataclasses.replace(solo, transactions=(dataclasses.replace(solo.transactions[0], name=name),))
    expected = {"tk01_i_entry_start": f"Start {name}", "tk01_e_done_end": f"{name} done"}
    if level is DetailLevel.COMPLETE:
        expected |= {
            "tk01_e_revokepromise_catch": f"Consider RevokePromise {name}",
            "tk01_i_terminated_tend": f"{name} terminated",
        }
    model = compile_network(net, level)
    for found in (model, parse_model(serialize_model(model))):
        names = {node.id: node.name for node in found.all_nodes()}
        assert {node_id: names[node_id] for node_id in expected} == expected


def test_compile_rejects_invalid_network():
    cyclic = load_network(FIXTURES / "cyclic.json")
    with pytest.raises(CompileError, match="CycleDetected"):
        compile_network(cyclic, DetailLevel.HAPPY_FLOW)


def test_arming_gateways_and_handlers_named(solo_net):
    model = compile_network(solo_net, DetailLevel.COMPLETE)
    armed = [n for n in model.all_nodes() if n.name == INITIAL_GATEWAY_NAME]
    assert len(armed) == 2  # one per role
    assert all(n.kind is NodeKind.PARALLEL_GATEWAY for n in armed)
    handlers = {n.name for n in model.all_nodes() if n.kind is NodeKind.COMPENSATION_HANDLER}
    assert handlers == {"Request⁻¹", "Promise⁻¹", "Execute⁻¹", "Declare⁻¹", "Accept⁻¹"}


def test_complete_solo_kind_census(solo_net):
    model = compile_network(solo_net, DetailLevel.COMPLETE)
    counts: dict[NodeKind, int] = {}
    for node in model.all_nodes():
        counts[node.kind] = counts.get(node.kind, 0) + 1
    assert counts == {
        NodeKind.START_EVENT: 1,
        NodeKind.MESSAGE_START_EVENT: 1,
        NodeKind.END_EVENT: 6,
        NodeKind.TERMINATE_END_EVENT: 2,
        NodeKind.TASK: 1,
        NodeKind.SEND_TASK: 25,
        NodeKind.MESSAGE_CATCH: 30,
        NodeKind.EXCLUSIVE_GATEWAY: 8,
        NodeKind.PARALLEL_GATEWAY: 8,
        NodeKind.EVENT_BASED_GATEWAY: 10,
        NodeKind.COMPENSATION_BOUNDARY: 5,
        NodeKind.COMPENSATION_HANDLER: 5,
        NodeKind.COMPENSATION_THROW: 13,
    }


def _allowed_rollback(model, revocation: Act, first: Role) -> list[Act]:
    """The acts compensated on the allow path of ``revocation``, in the order
    the two sides' throws fire.  Both sides run from the decision: the
    decider down its ``performed:`` branch, the revoker from its wait for
    the answer.  A side runs, ``first`` before the other, until it waits for
    a message not yet sent, and stops at its reposition split or its
    terminate event."""
    nodes = _node_index(model)
    outs: dict[str, list[tuple[str, str]]] = {}
    for pool in model.pools:
        for flow in pool.flows:
            outs.setdefault(flow.source, []).append((flow.target, flow.label))
    delivers = {flow.source: flow.target for flow in model.message_flows}
    slug = SLUG_FOR_ACT[revocation]
    decider = REVOKER[revocation].other
    allowed = f"performed:{SLUG_FOR_ACT[REVOCATION_TARGET[revocation]]}"
    (start,) = [t for t, label in outs[f"tk01_{ROLE_TAG[decider]}_{slug}_xor"] if label == allowed]
    at = {decider: start, decider.other: f"tk01_{ROLE_TAG[decider.other]}_{slug}_ebg"}
    sent: set[str] = set()
    undone: list[Act] = []

    def enter(node: str) -> None:
        kind = nodes[node].kind
        if kind is NodeKind.COMPENSATION_THROW:
            undone.append(parse_node_id(nodes[node].compensates).act)
        elif kind is NodeKind.SEND_TASK:
            sent.add(delivers[node])

    def next_node(node: str):
        kind = nodes[node].kind
        if kind in (NodeKind.PARALLEL_GATEWAY, NodeKind.TERMINATE_END_EVENT):
            return None
        if kind is NodeKind.EVENT_BASED_GATEWAY:
            (after,) = [t for t, _ in outs[node] if t in sent] or [None]
            return after
        ((after, _),) = outs[node]
        return after if nodes[after].kind is not NodeKind.MESSAGE_CATCH or after in sent else None

    enter(start)
    moved = True
    while moved:
        moved = False
        for role in (first, first.other):
            while (after := next_node(at[role])) is not None:
                enter(after)
                at[role] = after
                moved = True
    ends = {nodes[node].kind for node in at.values()}
    assert ends <= {NodeKind.PARALLEL_GATEWAY, NodeKind.TERMINATE_END_EVENT}, at
    return undone


@pytest.mark.parametrize("revocation", REVOCATIONS)
def test_allow_path_compensates_the_engine_rollback_chain(solo_net, revocation):
    model = compile_network(solo_net, DetailLevel.COMPLETE)
    performed = TransactionState(Phase.ACCEPTED, CORE_ACTS)
    # the same throws fire whichever side runs first: a side compensates
    # only while it holds the turn
    for first in Role:
        assert _allowed_rollback(model, revocation, first) == list(rollback_chain(performed, revocation))


@pytest.mark.parametrize("level", LEVELS, ids=lambda level: level.value)
def test_zone_message_flows_join_a_send_task_to_a_catch_across_pools(solo_net, level):
    model = compile_network(solo_net, level)
    assert len(model.message_flows) == SOLO_SIZES[level][2]
    nodes = _node_index(model)
    pool_of = {node.id: pool.id for pool in model.pools for node in pool.nodes}
    for flow in model.message_flows:
        assert nodes[flow.source].kind is NodeKind.SEND_TASK, flow.id
        assert nodes[flow.target].kind in (NodeKind.MESSAGE_CATCH, NodeKind.MESSAGE_START_EVENT), flow.id
        assert pool_of[flow.source] != pool_of[flow.target], flow.id
        assert parse_node_id(flow.source).slug == parse_node_id(flow.target).slug, flow.id


def _delete_flow(model, pool_index, flow_index):
    mutant = copy.deepcopy(model)
    del mutant.pools[pool_index].flows[flow_index]
    return mutant


@pytest.mark.parametrize("level", LEVELS)
def test_every_flow_deletion_is_caught_solo(solo_net, level):
    model = compile_network(solo_net, level)
    for pool_index, pool in enumerate(model.pools):
        for flow_index in range(len(pool.flows)):
            mutant = _delete_flow(model, pool_index, flow_index)
            assert lint_model(mutant), (
                f"deleting {pool.flows[flow_index].id} went unnoticed"
            )


def test_sampled_flow_deletions_caught_poc1(poc1_net):
    model = compile_network(poc1_net, DetailLevel.COMPLETE)
    rng = random.Random(7)
    spots = [
        (pi, fi)
        for pi, pool in enumerate(model.pools)
        for fi in range(len(pool.flows))
    ]
    for pool_index, flow_index in rng.sample(spots, 25):
        mutant = _delete_flow(model, pool_index, flow_index)
        assert lint_model(mutant)
