"""Command-line front end for the demoflow pipeline.

Subcommands:

* ``validate``    — structural soundness of a transaction network file
* ``generate``    — compile a network into a BPMN collaboration file, refusing
  a model that fails lint (``lint_model``)
* ``analyze``     — audit a BPMN model for transaction-act coverage
* ``simulate``    — token-play a compiled network, exhaustively or randomly
* ``conformance`` — compare a compiled network's traces with the engine

Exit codes: 0 success, 1 validation or conformance failure, 2 usage or I/O
error, 3 inconclusive (exploration passed ``--max-states`` before it
finished with nothing definite found, or ran out of memory).  A conformance
search that passes ``--max-states`` after a finding, a projection outside
the engine's language or a compensation violation, ends NonConformant (1),
with the findings so far and a witness to the first one; its missing
projections are left undecided.  All diagnostics go to stderr; artifacts are
written only to the files named on the command line, and identical
invocations over identical inputs produce byte-identical artifacts.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from .compiler import DetailLevel, compile_network
from .coverage import classify_acts, render_matrix
from .engine import Bounds
from .model import lint_model
from .network import load_network, validate_network
from .simulator import (
    MAX_STATES,
    SimulationError,
    StateSpaceLimitExceeded,
    Verdict,
    check_network_conformance,
    simulate_exhaustive,
    simulate_random,
)
from .xmlio import parse_model, serialize_model

def _fail(violations: list) -> bool:
    """Print violations to stderr; return True when there are any."""
    for violation in violations:
        print(violation, file=sys.stderr)
    return bool(violations)


def _load_json(path: str):
    text = Path(path).read_text(encoding="utf-8")
    try:
        return json.loads(text)
    except RecursionError:
        raise ValueError(f"{path}: JSON nested too deeply") from None


def cmd_validate(args) -> int:
    net = load_network(args.network)
    if _fail(validate_network(net)):
        return 1
    print(
        f"{args.network}: valid network with {len(net.transactions)} transaction(s)",
        file=sys.stderr,
    )
    return 0


def cmd_generate(args) -> int:
    net = load_network(args.network)
    if _fail(validate_network(net)):
        return 1
    model = compile_network(net, args.level)
    # a valid network can still compile to ids the BPMN cannot hold apart
    if _fail([f"error: {finding}" for finding in lint_model(model)]):
        return 1
    Path(args.out).write_bytes(serialize_model(model, layout=args.layout_grid))
    return 0


def cmd_analyze(args) -> int:
    model = parse_model(Path(args.model).read_bytes())
    net = load_network(args.network)
    mapping = _load_json(args.mapping) if args.mapping else None
    annotations = _load_json(args.annotations) if args.annotations else None
    matrix = classify_acts(
        net,
        model,
        mapping=mapping,
        annotations=annotations,
        heuristic_names=args.heuristic_names,
    )
    for warning in matrix.warnings:
        print(f"warning: {warning}", file=sys.stderr)
    report = render_matrix(matrix, fmt=args.format)
    Path(args.report).write_bytes(report.encode("utf-8"))
    return 0


def _bounds(args) -> Bounds:
    return Bounds(
        rerequest=args.max_rerequest,
        redeclare=args.max_redeclare,
        revocations=args.max_revocations,
    )


def cmd_simulate(args) -> int:
    net = load_network(args.network)
    if _fail(validate_network(net)):
        return 1
    model = compile_network(net, args.level)
    if args.random:
        traces = simulate_random(model, _bounds(args), seed=args.seed, runs=args.runs)
        lines = [trace.to_json() for trace in traces]
        print(
            f"{len(lines)} run(s), {len(set(lines))} distinct trace(s)",
            file=sys.stderr,
        )
    else:
        result = simulate_exhaustive(model, _bounds(args), args.max_states)
        lines = sorted(trace.to_json() for trace in result.traces)
        print(
            f"{len(lines)} trace(s) over {result.states} explored state(s)",
            file=sys.stderr,
        )
    if args.traces:
        payload = "".join(line + "\n" for line in lines)
        Path(args.traces).write_bytes(payload.encode("utf-8"))
    return 0


def cmd_conformance(args) -> int:
    net = load_network(args.network)
    if _fail(validate_network(net)):
        return 1
    report = check_network_conformance(
        net, args.level, _bounds(args), max_states=args.max_states
    )
    print(report.summary(), file=sys.stderr)
    return 0 if report.verdict is Verdict.CONFORMANT else 1


def _int_at_least(text: str, minimum: int) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected an integer, got {text!r}") from None
    if value < minimum:
        raise argparse.ArgumentTypeError(f"must be at least {minimum}, got {value}")
    return value


def _positive_int(text: str) -> int:
    return _int_at_least(text, 1)


def _non_negative_int(text: str) -> int:
    return _int_at_least(text, 0)


def _add_bounds(p: argparse.ArgumentParser) -> None:
    for flag, help_text in (
        ("--max-rerequest", "re-requests allowed after a decline"),
        ("--max-redeclare", "re-declarations allowed after a reject"),
        ("--max-revocations", "revocation episodes allowed"),
    ):
        p.add_argument(flag, type=_non_negative_int, default=1, metavar="N", help=help_text)


def _add_max_states(p: argparse.ArgumentParser) -> None:
    p.add_argument(
        "--max-states",
        type=_positive_int,
        default=MAX_STATES,
        metavar="N",
        help="stop after exploring N states: inconclusive (exit 3) unless "
        "conformance found a definite violation (exit 1)",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="demoflow",
        description="Compile, audit and simulate DEMO transaction networks as BPMN collaborations.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    levels = [level.value for level in DetailLevel]

    p = sub.add_parser("validate", help="check a transaction network file")
    p.add_argument("network", help="transaction network JSON file")
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("generate", help="compile a network into BPMN")
    p.add_argument("network", help="transaction network JSON file")
    p.add_argument("--level", required=True, choices=levels, help="detail level")
    p.add_argument("--out", required=True, help="output BPMN file")
    p.add_argument(
        "--layout-grid",
        action="store_true",
        help="embed a simple grid diagram layout",
    )
    p.set_defaults(func=cmd_generate)

    p = sub.add_parser("analyze", help="audit a BPMN model for act coverage")
    p.add_argument("model", help="BPMN model file")
    p.add_argument("--network", required=True, help="transaction network JSON file")
    p.add_argument("--mapping", help="explicit act-to-node mapping JSON file")
    p.add_argument("--annotations", help="implicit-act annotation JSON file")
    p.add_argument(
        "--heuristic-names",
        action="store_true",
        help="also match acts by node naming conventions",
    )
    p.add_argument("--report", required=True, help="output report file")
    p.add_argument("--format", choices=["csv", "text"], default="csv")
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("simulate", help="token-play a compiled network")
    p.add_argument("network", help="transaction network JSON file")
    p.add_argument("--level", required=True, choices=levels, help="detail level")
    mode = p.add_mutually_exclusive_group()
    mode.add_argument(
        "--exhaustive",
        action="store_true",
        help="explore every run; report each transaction's projections (default)",
    )
    mode.add_argument("--random", action="store_true", help="seeded random walks")
    p.add_argument("--seed", type=int, default=0, help="random mode seed")
    p.add_argument("--runs", type=_positive_int, default=100, help="random mode run count")
    _add_bounds(p)
    _add_max_states(p)
    p.add_argument("--traces", help="write traces to this JSON-lines file")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("conformance", help="check a network against the engine")
    p.add_argument("network", help="transaction network JSON file")
    p.add_argument("--level", required=True, choices=levels, help="detail level")
    _add_bounds(p)
    _add_max_states(p)
    p.set_defaults(func=cmd_conformance)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except StateSpaceLimitExceeded as exc:
        print(f"inconclusive: {exc}", file=sys.stderr)
        return 3
    except (ValueError, SimulationError) as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        if getattr(exc, "witness", ()):
            print(f"witness: {'; '.join(exc.witness)}", file=sys.stderr)
        return 1
    except MemoryError:
        pass  # reported below, once the exception and the tables it holds are freed
    print("inconclusive: out of memory; lower --max-states or the loop bounds", file=sys.stderr)
    return 3


if __name__ == "__main__":
    raise SystemExit(main())
