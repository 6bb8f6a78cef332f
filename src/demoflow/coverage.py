"""Audit an existing BPMN model for transaction-pattern coverage.

Every (transaction, act) pair of the complete fourteen-act pattern is
classified as Explicit (a model node realizes the act), Implicit (domain
experts state the act happens tacitly — e.g. promising by starting the work)
or NotImplemented.  Explicit evidence comes from a mapping file or, opt-in,
from heuristic node-name / node-id matching; Implicit status comes only from
an annotation file, never from inference: by looking at a model alone one
cannot distinguish an implicit act from an absent one.

The rendered matrix lists one row per act, one column per transaction,
row/column sum triplets "(explicit/implicit/not-implemented)" and footer
totals with one-decimal percentages.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from decimal import Decimal, ROUND_HALF_UP
from enum import Enum
from typing import Iterable, Mapping, Optional

from .engine import Act
from .model import SLUG_FOR_ACT, BpmnModel, parse_node_id, slugify_tk
from .network import TransactionNetwork


class ActStatus(Enum):
    EXPLICIT = "Explicit"
    IMPLICIT = "Implicit"
    NOT_IMPLEMENTED = "NotImplemented"


_INITIALS = {
    ActStatus.EXPLICIT: "E",
    ActStatus.IMPLICIT: "I",
    ActStatus.NOT_IMPLEMENTED: "N",
}

# Matrix row order: the five core acts, the dissent acts, then the revocation
# machinery.
ROW_ORDER: tuple[Act, ...] = (
    Act.REQUEST,
    Act.PROMISE,
    Act.EXECUTE,
    Act.DECLARE,
    Act.ACCEPT,
    Act.DECLINE,
    Act.REJECT,
    Act.REVOKE_REQUEST,
    Act.REVOKE_PROMISE,
    Act.REVOKE_DECLARE,
    Act.REVOKE_ACCEPT,
    Act.ALLOW,
    Act.STOP,
    Act.REFUSE,
)

# "<act> " lowercased, per row: every heuristic needle of the act starts so.
_NEEDLE_STARTS: tuple[str, ...] = tuple(f"{act.value} ".lower() for act in ROW_ORDER)


class UnknownAnnotationKey(ValueError):
    """A mapping or annotation document is not a list of objects, or one of
    its entries names an unknown transaction or act."""


@dataclass
class CoverageMatrix:
    transactions: tuple[str, ...]  # transaction ids, one column each
    cells: dict[tuple[str, Act], ActStatus]
    evidence: dict[tuple[str, Act], tuple[str, ...]] = field(default_factory=dict)
    warnings: list[str] = field(default_factory=list)

    def status(self, transaction: str, act: Act) -> ActStatus:
        return self.cells[(transaction, act)]

    def row_sum(self, act: Act) -> tuple[int, int, int]:
        return self._sum((tk, act) for tk in self.transactions)

    def column_sum(self, transaction: str) -> tuple[int, int, int]:
        return self._sum((transaction, act) for act in ROW_ORDER)

    def totals(self) -> tuple[int, int, int]:
        return self._sum(self.cells)

    def implemented(self) -> int:
        explicit, implicit, _ = self.totals()
        return explicit + implicit

    def cell_count(self) -> int:
        return len(ROW_ORDER) * len(self.transactions)

    def _sum(self, keys: Iterable[tuple[str, Act]]) -> tuple[int, int, int]:
        counts = {status: 0 for status in ActStatus}
        for key in keys:
            counts[self.cells[key]] += 1
        return (
            counts[ActStatus.EXPLICIT],
            counts[ActStatus.IMPLICIT],
            counts[ActStatus.NOT_IMPLEMENTED],
        )


def _entries(document: Optional[Iterable[Mapping]], source: str) -> list[Mapping]:
    """The entries of a mapping or annotation document, each checked to be an
    object; the document may come straight from a user's JSON file."""
    if document is None:
        return []
    if isinstance(document, (Mapping, str, bytes)) or not isinstance(document, Iterable):
        raise UnknownAnnotationKey(
            f"{source} must be a list of objects, not {type(document).__name__}"
        )
    entries = list(document)
    for entry in entries:
        if not isinstance(entry, Mapping):
            raise UnknownAnnotationKey(f"{source} entry {entry!r} is not an object")
    return entries


def _act_from(value: str) -> Optional[Act]:
    for act in Act:
        if act.value == value:
            return act
    return None


def classify_acts(
    net: TransactionNetwork,
    model: BpmnModel,
    mapping: Optional[Iterable[Mapping]] = None,
    annotations: Optional[Iterable[Mapping]] = None,
    heuristic_names: bool = False,
) -> CoverageMatrix:
    """Classify all 14 × |transactions| cells.

    ``mapping`` entries {transaction, act, nodeId} assert an explicit
    realization; a nodeId absent from the model is ignored with a warning.
    ``annotations`` entries {transaction, act, status: "implicit", note}
    assert implicitness.  With ``heuristic_names`` a node whose name contains
    "<act> <transaction name>" (case-insensitive), or whose generated id
    carries the matching transaction and act tags, also counts as explicit.
    Explicit wins over Implicit on conflict, with a warning.  A document that
    is not a list of objects, or an entry that names an unknown transaction
    or act, raises ``UnknownAnnotationKey``; a network with no transactions,
    which has no cells to classify, raises ``ValueError``.
    """
    if not net.transactions:
        raise ValueError("network has no transactions")
    transactions = tuple(sorted(tk.id for tk in net.transactions))
    tk_index = {tk_id: net.transaction(tk_id) for tk_id in transactions}
    node_ids = {node.id for node in model.all_nodes()}

    explicit: dict[tuple[str, Act], list[str]] = {}
    implicit: dict[tuple[str, Act], list[str]] = {}
    warnings: list[str] = []

    def resolve_key(entry: Mapping, source: str) -> tuple[str, Act]:
        tk_id = entry.get("transaction")
        act = _act_from(entry.get("act", ""))
        if not isinstance(tk_id, str) or tk_id not in tk_index:
            raise UnknownAnnotationKey(f"{source} entry names unknown transaction {tk_id!r}")
        if act is None:
            raise UnknownAnnotationKey(
                f"{source} entry names unknown act {entry.get('act')!r}"
            )
        return tk_id, act

    for entry in _entries(mapping, "mapping"):
        key = resolve_key(entry, "mapping")
        node_id = entry.get("nodeId", "")
        if not isinstance(node_id, str) or node_id not in node_ids:
            warnings.append(
                f"mapping for ({key[0]}, {key[1].value}) references missing node "
                f"{node_id!r}; ignored"
            )
            continue
        explicit.setdefault(key, []).append(node_id)

    for entry in _entries(annotations, "annotation"):
        key = resolve_key(entry, "annotation")
        status = entry.get("status")
        if status != "implicit":
            raise UnknownAnnotationKey(
                f"annotation for ({key[0]}, {key[1].value}) has status {status!r}; "
                "only \"implicit\" is accepted"
            )
        implicit.setdefault(key, []).append(entry.get("note", ""))

    if heuristic_names:
        # One pass over the nodes, in model order: each node's id, the
        # positions of the nodes per lowercased name, and the positions of
        # the nodes carrying each (transaction slug, act slug) id tag.
        ids: list[str] = []
        named: dict[str, list[int]] = {}
        tagged: dict[tuple[str, str], list[int]] = {}
        for position, node in enumerate(model.all_nodes()):
            ids.append(node.id)
            named.setdefault(node.name.lower(), []).append(position)
            meta = parse_node_id(node.id)
            if meta is not None:
                tagged.setdefault((meta.tk, meta.slug), []).append(position)
        for act, start in zip(ROW_ORDER, _NEEDLE_STARTS):
            # only a name that contains the start of the act's needles can
            # contain one of them
            names = [name for name in named if start in name]
            act_slug = SLUG_FOR_ACT[act]
            for tk_id in transactions:
                needle = f"{act.value} {tk_index[tk_id].name}".lower()
                hits = set(tagged.get((slugify_tk(tk_id), act_slug), ()))
                for name in names:
                    if needle in name:
                        hits.update(named[name])
                if hits:
                    # in model order, after the mapping's nodes, each once
                    nodes = explicit.setdefault((tk_id, act), [])
                    for position in sorted(hits):
                        if ids[position] not in nodes:
                            nodes.append(ids[position])

    cells: dict[tuple[str, Act], ActStatus] = {}
    evidence: dict[tuple[str, Act], tuple[str, ...]] = {}
    for tk_id in transactions:
        for act in ROW_ORDER:
            key = (tk_id, act)
            if key in explicit:
                if key in implicit:
                    warnings.append(
                        f"({tk_id}, {act.value}) is annotated implicit but has an "
                        "explicit node; Explicit wins"
                    )
                cells[key] = ActStatus.EXPLICIT
                evidence[key] = tuple(explicit[key])
            elif key in implicit:
                cells[key] = ActStatus.IMPLICIT
                evidence[key] = tuple(note for note in implicit[key] if note)
            else:
                cells[key] = ActStatus.NOT_IMPLEMENTED
    return CoverageMatrix(
        transactions=transactions, cells=cells, evidence=evidence, warnings=warnings
    )


def _percent(count: int, total: int) -> str:
    value = (Decimal(100 * count) / Decimal(total)).quantize(
        Decimal("0.1"), rounding=ROUND_HALF_UP
    )
    return str(value)


def _footer_lines(matrix: CoverageMatrix) -> list[str]:
    explicit, implicit, _ = matrix.totals()
    total = matrix.cell_count()
    return [
        f"Total Explicit = {explicit} (in {total}) = {_percent(explicit, total)}%",
        f"Total Implicit = {implicit} (in {total}) = {_percent(implicit, total)}%",
        f"Total Implemented = {explicit + implicit} (in {total}) = "
        f"{_percent(explicit + implicit, total)}%",
    ]


def _triplet(sums: tuple[int, int, int]) -> str:
    return f"({sums[0]}/{sums[1]}/{sums[2]})"


def render_matrix(matrix: CoverageMatrix, fmt: str = "csv") -> str:
    """Render as CSV (default) or an aligned text grid, with sum triplets
    "(explicit/implicit/not-implemented)" and footer totals."""
    if fmt not in ("csv", "text"):
        raise ValueError(f"unknown format {fmt!r}")

    header = ["Act", *matrix.transactions, "(e/i/n)"]
    rows = [header]
    for act in ROW_ORDER:
        row = [act.value]
        row += [_INITIALS[matrix.status(tk, act)] for tk in matrix.transactions]
        row.append(_triplet(matrix.row_sum(act)))
        rows.append(row)
    sum_row = ["Sum"]
    sum_row += [_triplet(matrix.column_sum(tk)) for tk in matrix.transactions]
    sum_row.append(_triplet(matrix.totals()))
    rows.append(sum_row)
    footer = _footer_lines(matrix)

    if fmt == "csv":
        lines = [",".join(row) for row in rows] + footer
        return "\n".join(lines) + "\n"

    widths = [max(len(row[i]) for row in rows) for i in range(len(header))]
    lines = [
        "  ".join(cell.ljust(widths[i]) for i, cell in enumerate(row)).rstrip()
        for row in rows
    ]
    lines += footer
    return "\n".join(lines) + "\n"
