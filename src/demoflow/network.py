"""Transaction-network model: parsing, validation, execution order.

A network is a set of actors, a set of business transactions (each with an
initiating and an executing actor and a product phrase), and parent->child
dependencies that say when a child transaction is started relative to its
parent; ``DEPENDENCY_RULES`` states each kind's rule.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass, field
from enum import Enum
from pathlib import Path
from typing import Iterable, NamedTuple, Union

from .engine import Act
from .model import slugify_actor, slugify_tk

ID_PATTERN = re.compile(r"^[A-Za-z][A-Za-z0-9_]*$")

# Exactly one bracketed segment, non-empty, no stray brackets around it.
PHRASE_PATTERN = re.compile(r"^[^\[\]]*\[[^\[\]]+\][^\[\]]*$")

# A character XML 1.0 cannot carry (section 2.2, Char): a C0 control other than
# tab, LF and CR, a surrogate, or U+FFFE / U+FFFF.
NON_XML_CHAR = re.compile("[\x00-\x08\x0b\x0c\x0e-\x1f\ud800-\udfff\ufffe\uffff]")


class NetworkFormatError(ValueError):
    """Raised when a network document is structurally malformed.

    Covers JSON syntax problems, missing or mistyped fields, malformed id
    tokens, duplicate ids and dangling references.  Semantic rule breaches
    (cycles, role mismatches, ...) are reported by validate_network instead.
    """


class DependencyKind(Enum):
    RAP = "RaP"
    RAE = "RaE"
    RAD = "RaD"


class DependencyRule(NamedTuple):
    opens: Act  # the parent act after which the child is requested
    waits: bool  # whether the parent goes on past that act only once the child accepted


#: Each dependency kind's rule, in the order the compiler splices the kinds
#: into a parent (after Promise, Execute or Declare; Dietz, Enterprise
#: Ontology, 2006).  RaP and RaE children run inside the parent's flow, so
#: the parent's next act, and so its Declare, waits for their Accept; RaD
#: children run beside it.
DEPENDENCY_RULES: dict[DependencyKind, DependencyRule] = {
    DependencyKind.RAP: DependencyRule(Act.PROMISE, waits=True),
    DependencyKind.RAE: DependencyRule(Act.EXECUTE, waits=True),
    DependencyKind.RAD: DependencyRule(Act.DECLARE, waits=False),
}


@dataclass(frozen=True)
class Actor:
    id: str
    name: str


@dataclass(frozen=True)
class Result:
    id: str
    phrase: str


@dataclass(frozen=True)
class Transaction:
    id: str
    name: str
    initiator: str
    executor: str
    result: Result


@dataclass(frozen=True)
class Dependency:
    parent: str
    child: str
    kind: DependencyKind


@dataclass(frozen=True)
class Violation:
    rule: str
    subjects: tuple[str, ...]
    message: str

    def __str__(self) -> str:
        return f"error: {self.rule} [{', '.join(self.subjects)}]: {self.message}"


@dataclass(frozen=True)
class TransactionNetwork:
    actors: tuple[Actor, ...]
    transactions: tuple[Transaction, ...]
    dependencies: tuple[Dependency, ...] = ()

    def actor(self, actor_id: str) -> Actor:
        return self._actor_index[actor_id]

    def transaction(self, tk_id: str) -> Transaction:
        return self._tk_index[tk_id]

    def children_of(self, tk_id: str) -> tuple[Dependency, ...]:
        return tuple(d for d in self.dependencies if d.parent == tk_id)

    def roots(self) -> tuple[Transaction, ...]:
        with_parent = {d.child for d in self.dependencies}
        return tuple(t for t in self.transactions if t.id not in with_parent)

    @property
    def _actor_index(self) -> dict[str, Actor]:
        return {a.id: a for a in self.actors}

    @property
    def _tk_index(self) -> dict[str, Transaction]:
        return {t.id: t for t in self.transactions}


def _require(doc: dict, key: str, kind: type, where: str):
    if key not in doc:
        raise NetworkFormatError(f"{where}: missing field '{key}'")
    value = doc[key]
    if not isinstance(value, kind):
        raise NetworkFormatError(
            f"{where}: field '{key}' must be {kind.__name__}, got {type(value).__name__}"
        )
    return value


def _check_id(token: str, where: str) -> str:
    if not ID_PATTERN.match(token):
        raise NetworkFormatError(f"{where}: malformed id token {token!r}")
    return token


def parse_network(source: Union[str, bytes, dict]) -> TransactionNetwork:
    """Parse a network document (JSON text or an already-decoded dict).

    Raises NetworkFormatError for syntax problems, duplicate ids and
    references to undeclared actors/transactions.  Semantic validation is a
    separate step (validate_network).
    """
    if isinstance(source, (str, bytes)):
        try:
            doc = json.loads(source)
        except json.JSONDecodeError as exc:
            raise NetworkFormatError(f"invalid JSON: {exc}") from exc
        except RecursionError:
            raise NetworkFormatError("invalid JSON: nested too deeply") from None
    else:
        doc = source
    if not isinstance(doc, dict):
        raise NetworkFormatError("network document must be a JSON object")

    actors = []
    seen: set[str] = set()
    for i, entry in enumerate(_require(doc, "actors", list, "network")):
        where = f"actors[{i}]"
        if not isinstance(entry, dict):
            raise NetworkFormatError(f"{where}: must be an object")
        actor_id = _check_id(_require(entry, "id", str, where), where)
        if actor_id in seen:
            raise NetworkFormatError(f"{where}: duplicate id {actor_id!r}")
        seen.add(actor_id)
        actors.append(Actor(id=actor_id, name=_require(entry, "name", str, where)))

    transactions = []
    for i, entry in enumerate(_require(doc, "transactions", list, "network")):
        where = f"transactions[{i}]"
        if not isinstance(entry, dict):
            raise NetworkFormatError(f"{where}: must be an object")
        tk_id = _check_id(_require(entry, "id", str, where), where)
        if tk_id in seen:
            raise NetworkFormatError(f"{where}: duplicate id {tk_id!r}")
        seen.add(tk_id)
        result_doc = _require(entry, "result", dict, where)
        result_id = _check_id(_require(result_doc, "id", str, f"{where}.result"), f"{where}.result")
        if result_id in seen:
            raise NetworkFormatError(f"{where}.result: duplicate id {result_id!r}")
        seen.add(result_id)
        transactions.append(
            Transaction(
                id=tk_id,
                name=_require(entry, "name", str, where),
                initiator=_require(entry, "initiator", str, where),
                executor=_require(entry, "executor", str, where),
                result=Result(id=result_id, phrase=_require(result_doc, "phrase", str, f"{where}.result")),
            )
        )

    actor_ids = {a.id for a in actors}
    tk_ids = {t.id for t in transactions}
    for t in transactions:
        for ref in (t.initiator, t.executor):
            if ref not in actor_ids:
                raise NetworkFormatError(
                    f"transaction {t.id}: reference to undeclared actor {ref!r}"
                )

    # absent and null mean none
    listed = doc.get("dependencies")
    if listed is not None and not isinstance(listed, list):
        raise NetworkFormatError(
            f"network: field 'dependencies' must be list, got {type(listed).__name__}"
        )
    dependencies = []
    for i, entry in enumerate(listed or []):
        where = f"dependencies[{i}]"
        if not isinstance(entry, dict):
            raise NetworkFormatError(f"{where}: must be an object")
        parent = _require(entry, "parent", str, where)
        child = _require(entry, "child", str, where)
        kind_token = _require(entry, "kind", str, where)
        for ref in (parent, child):
            if ref not in tk_ids:
                raise NetworkFormatError(f"{where}: reference to undeclared transaction {ref!r}")
        try:
            kind = DependencyKind(kind_token)
        except ValueError:
            raise NetworkFormatError(
                f"{where}: unknown dependency kind {kind_token!r} (expected RaP, RaE or RaD)"
            ) from None
        dependencies.append(Dependency(parent=parent, child=child, kind=kind))

    return TransactionNetwork(
        actors=tuple(actors),
        transactions=tuple(transactions),
        dependencies=tuple(dependencies),
    )


def load_network(path: Union[str, Path]) -> TransactionNetwork:
    return parse_network(Path(path).read_text(encoding="utf-8"))


def validate_network(net: TransactionNetwork) -> list[Violation]:
    """Check semantic well-formedness; returns an empty list iff the net is sound."""
    violations: list[Violation] = []

    def add(rule: str, subjects: Iterable[str], message: str) -> None:
        violations.append(Violation(rule, tuple(subjects), message))

    if not net.transactions:
        add("NoRootTransaction", (), "network has no transactions")
        return violations

    def check_name(subject: Union[Actor, Transaction], noun: str) -> None:
        # actor and transaction names are the only network text written into
        # the BPMN (as pool names and inside node names)
        if not subject.name.strip():
            add("EmptyName", (subject.id,), f"{noun} name must be non-empty")
        bad = NON_XML_CHAR.search(subject.name)
        if bad:
            add(
                "NonXmlName",
                (subject.id,),
                f"{noun} name contains U+{ord(bad.group()):04X}, which XML 1.0 cannot carry",
            )

    for actor in net.actors:
        check_name(actor, "actor")
    for tk in net.transactions:
        check_name(tk, "transaction")
        if tk.initiator == tk.executor:
            add(
                "SelfLoopTransaction",
                (tk.id, tk.initiator),
                "initiator and executor must be distinct actors",
            )
        if not PHRASE_PATTERN.match(tk.result.phrase):
            add(
                "BadResultPhrase",
                (tk.id, tk.result.id),
                "result phrase must contain exactly one non-empty [bracketed] segment",
            )

    parents: dict[str, list[Dependency]] = {}
    for dep in net.dependencies:
        parents.setdefault(dep.child, []).append(dep)
    for child, deps in parents.items():
        if len(deps) > 1:
            add(
                "MultipleParents",
                (child,) + tuple(d.parent for d in deps),
                "a transaction may have at most one parent dependency",
            )

    # distinct ids that the compiler would write as one: transactions share a
    # node-id prefix, actors a pool and process id
    for items, slug, noun in (
        (net.transactions, slugify_tk, "transaction"),
        (net.actors, slugify_actor, "actor"),
    ):
        by_slug: dict[str, list[str]] = {}
        for item in items:
            by_slug.setdefault(slug(item.id), []).append(item.id)
        for token, ids in by_slug.items():
            if len(ids) > 1:
                add(
                    "IdCollision",
                    ids,
                    f"{noun} ids {', '.join(ids)} are all written as {token!r} in the BPMN",
                )

    tk_index = {t.id: t for t in net.transactions}
    for dep in net.dependencies:
        parent, child = tk_index[dep.parent], tk_index[dep.child]
        if child.initiator != parent.executor:
            add(
                "CompositionRuleBreach",
                (dep.parent, dep.child),
                f"child initiator {child.initiator} must be the parent executor {parent.executor}",
            )

    # Cycle check over the parent->child edges (each child has <=1 parent, so a
    # cycle is a parent chain that revisits a transaction).
    edges = {d.child: d.parent for d in net.dependencies if len(parents.get(d.child, [])) == 1}
    for tk in net.transactions:
        seen = [tk.id]
        current = tk.id
        while current in edges:
            current = edges[current]
            if current in seen:
                cycle = seen[seen.index(current):] + [current]
                if tk.id == min(cycle):  # report each cycle once
                    add(
                        "CycleDetected",
                        tuple(cycle),
                        "dependency chain forms a cycle",
                    )
                break
            seen.append(current)

    if not net.roots():
        add(
            "NoRootTransaction",
            tuple(t.id for t in net.transactions),
            "every transaction has a parent; at least one root is required",
        )

    return violations


class NetworkStructureError(ValueError):
    """Raised by execution_order when the dependency graph is unusable."""


def execution_order(net: TransactionNetwork) -> list[str]:
    """Deterministic start order: by depth below the roots, then ascending id.

    Every parent precedes all of its children.  Raises NetworkStructureError
    on cycles or multiple parents (run validate_network first for details).
    """
    parent_edge: dict[str, str] = {}
    for dep in net.dependencies:
        if dep.child in parent_edge:
            raise NetworkStructureError(f"transaction {dep.child} has multiple parents")
        parent_edge[dep.child] = dep.parent

    depths: dict[str, int] = {}

    def depth_of(tk_id: str, trail: tuple[str, ...] = ()) -> int:
        if tk_id in depths:
            return depths[tk_id]
        if tk_id in trail:
            raise NetworkStructureError(f"dependency cycle through {tk_id}")
        if tk_id not in parent_edge:
            depths[tk_id] = 0
        else:
            depths[tk_id] = depth_of(parent_edge[tk_id], trail + (tk_id,)) + 1
        return depths[tk_id]

    for tk in net.transactions:
        depth_of(tk.id)

    return sorted((t.id for t in net.transactions), key=lambda tk_id: (depths[tk_id], tk_id))
