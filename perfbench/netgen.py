"""Deterministic transaction-network generator for the benchmark.

Every network is built as a JSON document from a ``random.Random`` seeded by
the workload seed, so one seed always yields the same documents.  The seed
picks identifiers, names and, for random trees, the shape and dependency
kinds; chains and fans keep their shape, so their exploration cost does not
depend on the seed.

Shapes:

- ``chain``: TK1 -> TK2 -> ... -> TKk, every link of one dependency kind;
- ``fan``: one root whose executor initiates k children of one kind;
- ``random_tree``: each transaction after the first hangs off a uniformly
  chosen earlier one, with a uniformly chosen kind (the shape the acceptance
  gate uses for its random networks).
"""

from __future__ import annotations

import random

KINDS = ("RaP", "RaE", "RaD")

_WORDS = (
    "budget", "invoice", "permit", "order", "claim", "contract", "audit",
    "grant", "payment", "license", "survey", "report", "tender", "review",
)


class _Builder:
    """Accumulates one network document with seeded, collision-free names."""

    def __init__(self, rng: random.Random, name: str):
        self.rng = rng
        # ids start at a seeded offset, so each seed names things differently
        self.base = rng.randrange(10, 90)
        self.doc = {"name": name, "actors": [], "transactions": [], "dependencies": []}

    def actor(self, index: int) -> str:
        actor_id = f"A{self.base + index}"
        self.doc["actors"].append({"id": actor_id, "name": f"{self.rng.choice(_WORDS).title()} office {index}"})
        return actor_id

    def transaction(self, index: int, initiator: str, executor: str) -> str:
        tk_id = f"TK{self.base + index}"
        subject = self.rng.choice(_WORDS)
        self.doc["transactions"].append(
            {
                "id": tk_id,
                "name": f"handling {subject} case {index}",
                "initiator": initiator,
                "executor": executor,
                "result": {"id": f"PK{self.base + index}", "phrase": f"[{subject} {index}] has been handled"},
            }
        )
        return tk_id

    def depend(self, parent: str, child: str, kind: str) -> None:
        self.doc["dependencies"].append({"parent": parent, "child": child, "kind": kind})


def chain(length: int, kind: str, rng: random.Random) -> dict:
    """A chain of ``length`` transactions, each the ``kind`` child of the last."""
    b = _Builder(rng, f"chain{length}-{kind}")
    actors = [b.actor(i) for i in range(length + 1)]
    previous = None
    for i in range(length):
        tk = b.transaction(i, actors[i], actors[i + 1])
        if previous is not None:
            b.depend(previous, tk, kind)
        previous = tk
    return b.doc


def fan(children: int, kind: str, rng: random.Random) -> dict:
    """A root transaction with ``children`` children of one ``kind``."""
    b = _Builder(rng, f"fan{children}-{kind}")
    actors = [b.actor(i) for i in range(children + 2)]
    root = b.transaction(0, actors[0], actors[1])
    for j in range(children):
        b.depend(root, b.transaction(1 + j, actors[1], actors[2 + j]), kind)
    return b.doc


def random_tree(size: int, rng: random.Random) -> dict:
    """A tree of ``size`` transactions with random parents and kinds."""
    b = _Builder(rng, f"tree{size}")
    actors = [b.actor(i) for i in range(size + 1)]
    tks = [b.transaction(0, actors[0], actors[1])]
    for i in range(1, size):
        parent = rng.randrange(i)
        # a child is initiated by its parent's executor
        tk = b.transaction(i, actors[parent + 1], actors[i + 1])
        b.depend(tks[parent], tk, rng.choice(KINDS))
        tks.append(tk)
    return b.doc
