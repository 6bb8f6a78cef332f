"""Shared fixtures: bundled example networks and a one-transaction network,
and a strategy of node ids for property tests."""

from __future__ import annotations

import json
from pathlib import Path

import pytest
from hypothesis import strategies as st

from demoflow.model import ACT_SLUGS, NodeKind
from demoflow.network import TransactionNetwork, load_network, parse_network

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"


_KIND_TAGS = [kind.value for kind in NodeKind]
_ID_FRAGMENTS = ["_", "i", "e", "tk01", "2", "10", "1234", "²", "٣", "\n", ""] + _KIND_TAGS + list(ACT_SLUGS)
_piece = st.lists(st.sampled_from(_ID_FRAGMENTS), max_size=3).map("".join)
# Node ids for property tests: ids shaped like the generated-id grammar, with
# any field or suffix swapped for fragments, and ids made of fragments alone.
node_ids = st.builds(
    "{}_{}_{}_{}{}".format,
    _piece,
    st.sampled_from(["i", "e"]) | _piece,
    _piece,
    st.sampled_from(_KIND_TAGS) | _piece,
    st.sampled_from(["", "_2", "_10", "_123456789", "_1234567890", "_" + "1" * 5000, "_²", "_٣", "_\n"])
    | _piece,
) | st.lists(st.sampled_from(_ID_FRAGMENTS), max_size=12).map("".join)


def make_solo_network() -> TransactionNetwork:
    """A single transaction between two actors; the smallest legal network."""
    return parse_network(
        json.dumps(
            {
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
        )
    )


@pytest.fixture(scope="session")
def solo_net() -> TransactionNetwork:
    return make_solo_network()


@pytest.fixture(scope="session")
def poc1_net() -> TransactionNetwork:
    return load_network(FIXTURES / "poc1.json")


@pytest.fixture(scope="session")
def poc2_net() -> TransactionNetwork:
    return load_network(FIXTURES / "poc2.json")
