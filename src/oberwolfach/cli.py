"""Command-line surface.

Subcommands:

* ``solve``    -- build a verified factorization and write it out.
* ``verify``   -- independently re-check a previously exported file.
* ``selftest`` -- solve and verify every admissible instance up to a bound.
* ``tables``   -- audit (``--check``) or export (``--dump``) the embedded
  construction tables.

Exit codes: 0 success, 2 proven nonexistence, 1 usage, domain or internal
error.  Every error is one ``error: ...`` line on stderr.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from functools import lru_cache
from json.encoder import encode_basestring_ascii as quote

from . import serialize, tables
from .checker import (
    Nonexistent,
    verify_admissible_decomposition,
    verify_cap_complementarity,
    verify_id_factorization,
)
from .core import CycleType, clip, parse_cycle_type
from .hosts import DESCRIBED_KINDS, strip_id, strip_vertex
from .solver import check_order, solve

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_NONEXISTENT = 2


def cmd_solve(args: argparse.Namespace) -> int:
    try:
        check_order(args.n)
        ftype = parse_cycle_type(args.factor, args.n)
        result = solve(args.n, ftype)
    except (ValueError, RuntimeError) as exc:  # bad input; a failed build or check
        print(f"error: {clip(str(exc), 300)}", file=sys.stderr)
        return EXIT_ERROR
    if isinstance(result, Nonexistent):
        print(
            f"nonexistent: no {ftype.text()}-factorization of the order-{args.n} "
            f"complete symmetric digraph ({result.reason})",
            file=sys.stderr,
        )
        return EXIT_NONEXISTENT
    # every format is written factor by factor, as it is made
    chunks = serialize.FORMATS[args.format](serialize.document_for_solution(result))
    if args.out is None:
        sys.stdout.writelines(chunks)
        return EXIT_OK
    try:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.writelines(chunks)
    except OSError as exc:
        reason = exc.strerror or exc
        print(f"error: cannot write {args.out}: {reason}", file=sys.stderr)
        return EXIT_ERROR
    return EXIT_OK


def cmd_verify(args: argparse.Namespace) -> int:
    try:
        with open(args.input, "r", encoding="utf-8") as fh:
            cert = serialize.read_certificate(serialize.parse_json(fh.read()))
        refusal = _refusal(cert)
    except (OSError, ValueError, KeyError, TypeError, RecursionError) as exc:
        refusal = f"malformed input: {exc}"
    if refusal:
        # some messages echo the input; the line stays short whatever it holds
        print(f"error: {clip(refusal, 300)}", file=sys.stderr)
        return EXIT_ERROR
    if cert.host.kind == "JStar":
        # a JStar document names no table, so every id is one of its vertices
        ids = [strip_id(v) for v in cert.vertices]
        dec = tables.AdmissibleDecomposition(
            cert.host.m_or_n,
            tuple(tuple(tuple(map(ids.__getitem__, c)) for c in f) for f in cert.factors),
        )
        report = verify_admissible_decomposition(cert.host.m_or_n, dec)
        types_ok = all(
            t.lengths == cert.ftype.lengths for t in dec.cycle_types()
        )
        report.add("cycle_type", types_ok, f"expected {cert.ftype.text()}")
    else:
        # checked against the host's description; no host arc set is built
        report = verify_id_factorization(cert.host, cert.factors, cert.ftype)
    print(_report_json(report))
    return EXIT_OK if report.passed else EXIT_ERROR


def _report_json(report) -> str:
    """``json.dumps(report.to_json(), indent=2)``, byte for byte, written
    in its fixed layout.  Only ``indent`` makes the encoder run in Python,
    so, as in ``serialize.to_json``, each string is quoted by the C
    function ``json.dumps`` quotes a lone string with."""
    checks = ",\n".join(
        f'    {{\n      "name": {quote(name)},\n'
        f'      "ok": {"true" if ok else "false"},\n'
        f'      "detail": {quote(detail)}\n    }}'
        for name, ok, detail in report.checks
    )
    block = f"[\n{checks}\n  ]" if checks else "[]"
    passed = "true" if report.passed else "false"
    return f'{{\n  "passed": {passed},\n  "checks": {block}\n}}'


def _refusal(cert: serialize.FactorizationDocument) -> str:
    """Why ``verify`` refuses to check ``cert``, or "" when it does not."""
    kind = cert.host.kind
    size = cert.host.m_or_n
    host_order = cert.host.order
    if host_order > cert.named:
        # An unspanned host fails anyway; refusing here keeps a huge declared
        # size from building a huge host.
        return (
            f"malformed input: {kind} host of size {size} has "
            f"{host_order} vertices, the factors name only {cert.named}"
        )
    if kind != "JStar" and kind not in DESCRIBED_KINDS:
        return f"unknown host kind {clip(repr(kind))}"
    # factors have order n: the complete host's, or 2m for the blow-ups and
    # for JStar, whose factors fold onto the m-block circulant blow-up
    factor_order = size if kind == "CompleteSymmetric" else 2 * size
    if not cert.n == factor_order == cert.ftype.order:
        return (
            f"malformed input: declared n = {cert.n} does not match the "
            f"{kind} host of size {size} (order {factor_order}) and factor_type "
            f"{clip(cert.ftype.text())} (order {cert.ftype.order})"
        )
    return ""


def _even_types(n: int) -> list:
    def parts(total: int, mx: int):
        if total == 0:
            yield ()
            return
        for p in range(min(mx, total), 1, -2):
            for rest in parts(total - p, p):
                yield (p,) + rest

    return [CycleType(t) for t in parts(n, n)]


# selftest enumerates every even type of each order from 6 up to --max-n:
# 19,597 types up to 62, but the counts p(n/2) grow fast (about 2.1e8
# types at n = 202)
SELFTEST_MAX_N = 62


def cmd_selftest(args: argparse.Namespace) -> int:
    if not 6 <= args.max_n <= SELFTEST_MAX_N:
        print(f"error: --max-n must be in 6..{SELFTEST_MAX_N}", file=sys.stderr)
        return EXIT_ERROR
    failures = 0
    for n in range(6, args.max_n + 1, 4):
        types = _even_types(n)
        solved = nonexistent = failed = 0
        for ftype in types:
            try:
                result = solve(n, ftype)
            except Exception as exc:  # report, keep going
                print(f"n={n} {ftype.text()}: ERROR {exc}")
                failed += 1
                continue
            if isinstance(result, Nonexistent):
                if (n, ftype.lengths) == (6, (6,)):
                    nonexistent += 1
                else:
                    print(f"n={n} {ftype.text()}: unexpected nonexistence")
                    failed += 1
            else:  # solve raises on a factorization that fails its check
                solved += 1
        failures += failed
        print(
            f"n={n}: {len(types)} types, {solved} solved, "
            f"{nonexistent} nonexistent, {failed} failed"
        )
    return EXIT_OK if failures == 0 else EXIT_ERROR


def cmd_tables(args: argparse.Namespace) -> int:
    if args.dump:
        print(json.dumps(tables_dump(), indent=2))
        return EXIT_OK
    left = tables.left_cap()
    centre = tables.centre_piece()
    pattern_ok = left.patterns() == tables.X_PATTERN
    print(f"left cap pattern: {'ok' if pattern_ok else 'FAIL'}")
    rows = [
        (
            f"cap {family} anchor {anchor}",
            verify_cap_complementarity(left, tables.right_cap(family, anchor), centre),
        )
        for family, anchor in sorted(tables.RIGHT_CAPS)
    ]
    decs = [
        (f"decomposition {CycleType(key).text()}", tables.small_decomposition(key))
        for key in tables.small_types()
    ]
    decs.append(("decomposition figure [4,8]", tables.figure_4_8_decomposition()))
    decs.append(("supplemental [2,4^2]", tables.supplemental_2_4_4()))
    rows += [
        (label, verify_admissible_decomposition(dec.m, dec, tables.X_PATTERN))
        for label, dec in decs
    ]
    for label, report in rows:
        print(f"{label}: {'ok' if report.passed else 'FAIL'}")
        for name, detail in report.failures():
            print(f"    {name}: {detail}")
    print(
        f"{len(tables.RIGHT_CAPS)} cap rows + {len(decs) - 1} decomposition rows "
        "+ 1 supplemental"
    )
    passed = pattern_ok and all(report.passed for _, report in rows)
    return EXIT_OK if passed else EXIT_ERROR


def tables_dump() -> dict:
    """All embedded tables in the core text forms, for external audit."""
    data: dict = {
        "pattern": [
            sorted(strip_vertex(v).text() for v in p) for p in tables.X_PATTERN
        ],
        "left_cap": list(tables.LEFT_CAP_PATHS),
        "centre": [list(pair) for pair in tables.CENTRE_PAIRS],
        "right_caps": {
            f"{family}:{anchor}": [list(row) for row in rows]
            for (family, anchor), (_, _, rows) in sorted(tables.RIGHT_CAPS.items())
        },
        "small_decompositions": {
            CycleType(key).text(): [list(row) for row in rows]
            for key, rows in sorted(tables.SMALL_DECOMPS.items())
        },
        "figure_4_8": [list(row) for row in tables.FIGURE_4_8],
        "supplemental_2_4_4": [list(row) for row in tables.SUPPLEMENTAL_2_4_4],
    }
    return data


def _out_path(text: str) -> str:
    """An ``--out`` value: a path, never empty (empty is not stdout)."""
    if not text:
        raise argparse.ArgumentTypeError("empty path")
    return text


class _Parser(argparse.ArgumentParser):
    """Reports a usage error as one ``error:`` line and exit 1, since exit 2
    means proven nonexistence here.  Subcommand parsers share the class."""

    def error(self, message: str):
        print(f"error: {clip(' '.join(message.splitlines()), 300)}", file=sys.stderr)
        sys.exit(EXIT_ERROR)

    def parse_known_args(self, args=None, namespace=None):
        # argparse turns a joined "--opt=--" into [] and skips type= and
        # choices=; every option here takes one value, so a list is refused
        namespace, extras = super().parse_known_args(args, namespace)
        for action in self._actions:
            if action.option_strings and isinstance(
                getattr(namespace, action.dest, None), list
            ):
                self.error(f"argument {action.option_strings[0]}: expected one argument")
        return namespace, extras


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="oberwolfach",
        description=(
            "Construct and certify directed 2-factorizations of complete "
            "symmetric digraphs with even cycle lengths (order 2 mod 4)."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_solve = sub.add_parser("solve", help="construct a verified factorization")
    p_solve.add_argument("--n", type=int, required=True, help="number of vertices")
    p_solve.add_argument(
        "--factor", required=True, help='cycle type, e.g. "[2^3,4]" or "[2,2,2,4]"'
    )
    p_solve.add_argument(
        "--format", default="json", choices=sorted(serialize.FORMATS)
    )
    p_solve.add_argument(
        "--out", type=_out_path, default=None, help="output file (default stdout)"
    )
    p_solve.set_defaults(func=cmd_solve)

    p_verify = sub.add_parser("verify", help="re-check an exported JSON file")
    p_verify.add_argument("input")
    p_verify.set_defaults(func=cmd_verify)

    p_self = sub.add_parser("selftest", help="solve+verify all types up to --max-n")
    p_self.add_argument("--max-n", type=int, default=14)
    p_self.set_defaults(func=cmd_selftest)

    p_tables = sub.add_parser("tables", help="audit or export the embedded tables")
    group = p_tables.add_mutually_exclusive_group(required=True)
    group.add_argument("--check", action="store_true")
    group.add_argument("--dump", action="store_true")
    p_tables.set_defaults(func=cmd_tables)

    return parser


@lru_cache(maxsize=1)
def _parser() -> argparse.ArgumentParser:
    # built once per process: parsing leaves no state in the parser
    return build_parser()


def main(argv=None) -> int:
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:  # -h, or a usage error already reported
        return exc.code
    try:
        code = args.func(args)
        sys.stdout.flush()
    except OSError as exc:  # the commands catch every other I/O error
        reason = exc.strerror or exc
        print(f"error: cannot write standard output: {reason}", file=sys.stderr)
        # the exit flush would fail again on the unwritten buffer
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_ERROR
    return code


if __name__ == "__main__":
    sys.exit(main())
