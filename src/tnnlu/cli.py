"""Batch command-line front end.

Commands: decompose, detect, check-tnn, identities-selftest, generate.
Matrices are read from a file, stdin ("-"), or an --inline string with
";"-separated rows.  Output is plain text or a structured JSON document;
either way all rationals are emitted exactly as "p" or "p/q" and identical
invocations produce byte-identical output.

Exit codes: 0 success, 2 usage, 3 parse error, 4 class not found,
5 not totally nonnegative, 6 size guard, 7 bad input.  --max-bruteforce
bounds only the exponential minor sweep: check-tnn refuses a reject past
it, and decompose --method neville runs its exact TNN check and witness
sweep only within it.  A check-tnn accept and auto decompose, --trace
included, answer at every size.  --unchecked changes nothing: every
method's checks always run.
"""

from __future__ import annotations

import argparse
import functools
import re
import sys
from typing import Optional, Sequence

from .core import MAX_BRUTEFORCE, Mat, _cells, format_matrix, format_scalar, parse_matrix
from .errors import NotInClassError, NotTotallyNonnegativeError, ParseError, SizeGuardError
from .identities import selftest
from .mclass import ClassDesc, certify, detect_class
from .neville import NevilleTrace, _neville, _tnn_gate, _traced, format_trace
from .tnn import is_tnn, random_tnn

_EXIT_CODES = (
    (ParseError, "parse-error", 3),
    (NotInClassError, "class-not-found", 4),
    (NotTotallyNonnegativeError, "not-tnn", 5),
    (SizeGuardError, "size-guard", 6),
    (IndexError, "bad-input", 7),
    (ValueError, "bad-input", 7),
)


def _class_payload(desc: Optional[ClassDesc]):
    return None if desc is None else {"r": list(desc.r), "c": list(desc.c)}


def _braced(indices) -> str:
    return "{" + ",".join(map(str, indices)) + "}"


def _class_text(desc: Optional[ClassDesc]) -> str:
    return "none" if desc is None else f"r = {_braced(desc.r)}, c = {_braced(desc.c)}"


def _read_matrix(args: argparse.Namespace) -> Mat:
    if getattr(args, "inline", None) is not None:
        rows = [chunk.strip() for chunk in args.inline.split(";") if chunk.strip()]
        if not rows:
            raise ParseError("empty inline matrix")
        width = len(rows[0].split())
        text = f"{len(rows)} {width}\n" + "\n".join(rows) + "\n"
        return parse_matrix(text)
    if args.input == "-":
        return parse_matrix(sys.stdin.read())
    try:
        with open(args.input, "r", encoding="utf-8") as handle:
            return parse_matrix(handle.read())
    except (OSError, UnicodeDecodeError) as exc:
        raise ParseError(f"cannot read {args.input}: {exc}") from exc


def _cmd_decompose(args: argparse.Namespace) -> dict:
    A = _read_matrix(args)
    if args.method == "neville":
        pair, moves = _neville(A, args.max_bruteforce)
    else:
        pair, moves = certify(A), None
        if args.method == "auto" and args.trace and (run := _tnn_gate(A)) is not None:
            moves = run[1]  # pass 1's moves, whose pair is this one
    payload = {
        "command": "decompose",
        "method": args.method,
        "class": _class_payload(pair.desc),
        "L": pair.L,
        "U": pair.U,
    }
    text = f"method: {args.method}\nclass: {_class_text(pair.desc)}\n"
    text += f"L:\n{format_matrix(pair.L)}U:\n{format_matrix(pair.U)}"
    if args.trace:  # the moves become Fractions only here
        trace = None if moves is None else format_trace(NevilleTrace(tuple(map(_traced, moves))))
        payload["trace"] = None if trace is None else trace.splitlines()
        text += "trace:\n" + ("unavailable\n" if trace is None else trace)
    payload["_text"] = text
    return payload


def _cmd_detect(args: argparse.Namespace) -> dict:
    A = _read_matrix(args)
    desc = detect_class(A)
    return {
        "command": "detect",
        "class": _class_payload(desc),
        "_text": f"class: {_class_text(desc)}\n",
    }


def _cmd_check_tnn(args: argparse.Namespace) -> dict:
    A = _read_matrix(args)
    report = is_tnn(A, max_size=args.max_bruteforce)
    witness, witness_text = None, "witness: none"
    if report.witness is not None:
        rows, cols, value = report.witness
        witness = {"rows": list(rows), "cols": list(cols), "minor": format_scalar(value)}
        witness_text = f"witness: [{_braced(rows)}|{_braced(cols)}] = {format_scalar(value)}"
    return {
        "command": "check-tnn",
        "is_tnn": report.is_tnn,
        "witness": witness,
        "_text": f"is_tnn: {'true' if report.is_tnn else 'false'}\n{witness_text}\n",
    }


def _cmd_generate(args: argparse.Namespace) -> dict:
    m, n = args.size
    if m < 0 or n < 0 or args.factors < 0:
        raise ValueError("size and factors must be nonnegative")
    A = random_tnn(m, n, seed=args.seed, factors=args.factors)
    return {
        "command": "generate",
        "rows": m,
        "cols": n,
        "seed": args.seed,
        "factors": args.factors,
        "matrix": A,
        "_text": format_matrix(A),
    }


def _cmd_selftest(args: argparse.Namespace) -> dict:
    results = selftest(seed=args.seed, instances=args.instances)
    failures = sum(entry["failures"] for entry in results.values())
    lines = [
        f"{name}: {entry['instances']} instances, {entry['failures']} failures"
        for name, entry in results.items()
    ]
    lines.append("ok" if failures == 0 else f"FAILED: {failures} failures")
    return {
        "command": "identities-selftest",
        "seed": args.seed,
        "instances": args.instances,
        "results": results,
        "ok": failures == 0,
        "_exit": 0 if failures == 0 else 1,
        "_text": "\n".join(lines) + "\n",
    }


@functools.cache
def _parsers() -> tuple[argparse.ArgumentParser, dict[str, argparse.ArgumentParser]]:
    """The command-line parser and its commands' own parsers by name, built once per process."""
    parser = argparse.ArgumentParser(
        prog="tnnlu",
        description="Exact LU decomposition of totally nonnegative matrices.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p: argparse.ArgumentParser, with_input: bool = True) -> None:
        # argparse takes "-2/3" for an option, not a value: no option here
        # starts with "-" and a digit, so let any such token be a value
        p._negative_number_matcher = re.compile(r"-\d")
        p.add_argument(
            "--format",
            choices=("text", "structured"),
            default="text",
            help="output format (structured = JSON)",
        )
        if with_input:
            p.add_argument("input", nargs="?", default="-", help="matrix file, or - for stdin")
            p.add_argument("--inline", help='inline matrix, rows separated by ";"')
            p.add_argument(
                "--max-bruteforce",
                type=int,
                default=MAX_BRUTEFORCE,
                metavar="N",
                help="size guard (N >= 0) of the minor sweep: check-tnn refuses a reject past "
                "it, and neville's exact TNN check and witness sweep run only within it "
                "(default %(default)s)",
            )

    p = sub.add_parser("decompose", help="factor a matrix as L*U with its class")
    add_common(p)
    p.add_argument(
        "--method",
        choices=("auto", "explicit", "neville", "reconstruct"),
        default="auto",
        help="auto = certified class factorization; --trace adds neville's moves when TNN",
    )
    p.add_argument("--trace", action="store_true", help="include the elimination move list")
    p.add_argument(
        "--unchecked",
        action="store_true",
        help="accepted and ignored: every method's checks always run",
    )
    p.set_defaults(func=_cmd_decompose)

    p = sub.add_parser("detect", help="report the unique class of a matrix, or none")
    add_common(p)
    p.set_defaults(func=_cmd_detect)

    p = sub.add_parser(
        "check-tnn", help="polynomial TNN test; a failure names the first negative minor"
    )
    add_common(p)
    p.set_defaults(func=_cmd_check_tnn)

    p = sub.add_parser("generate", help="emit a seeded random totally nonnegative matrix")
    add_common(p, with_input=False)
    p.add_argument("--size", type=int, nargs=2, metavar=("M", "N"), required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--factors", type=int, default=12)
    p.set_defaults(func=_cmd_generate)

    p = sub.add_parser("identities-selftest", help="run the determinantal identity suites")
    add_common(p, with_input=False)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--instances", type=int, default=100)
    p.set_defaults(func=_cmd_selftest)

    return parser, sub.choices


def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process and reused by `main`."""
    return _parsers()[0]


def emit_structured(payload: dict) -> str:
    """Deterministic JSON rendering of a result payload, each `Mat` in it as
    `_cells`' rows.  `json` is imported here, on first use, so that text
    output starts without it."""
    import json

    visible = {k: v for k, v in payload.items() if not k.startswith("_")}
    return json.dumps(visible, indent=2, default=_cells) + "\n"


def main(argv: Optional[Sequence[str]] = None) -> int:
    """Run one command line (``sys.argv[1:]`` if None) and return its exit code.  Its command's
    own parser parses it once; a line with no command first, or one with arguments left over,
    goes to the top parser, so usage errors read as they always have."""
    parser, commands = _parsers()
    argv = list(sys.argv[1:] if argv is None else argv)
    args, extras = None, True
    if argv and argv[0] in commands:
        args, extras = commands[argv[0]].parse_known_args(argv[1:], argparse.Namespace(command=argv[0]))
    if extras:
        args = parser.parse_args(argv)
    try:
        if getattr(args, "max_bruteforce", 0) < 0:
            raise ValueError(f"--max-bruteforce must be nonnegative, got {args.max_bruteforce}")
        payload = args.func(args)
    except Exception as exc:
        for exc_type, category, code in _EXIT_CODES:
            if isinstance(exc, exc_type):
                print(f"error: {category}: {exc}", file=sys.stderr)
                return code
        raise
    if args.format == "structured":
        sys.stdout.write(emit_structured(payload))
    else:
        sys.stdout.write(payload["_text"])
    return int(payload.get("_exit", 0))


if __name__ == "__main__":
    sys.exit(main())
