"""Seeded inputs for the three workloads, and the operation each one times.

* ``sweep``: every order n = 2 (mod 4) from 6 to 38, up to 40 seeded even
  cycle types per order, each solved and exported (the enumeration use).
* ``split_heavy``: one seeded type at n = 54, 66, 70 and 98, whose jump sets
  need paired circulants in the Hamiltonian split.
* ``certify``: certificates at n = 74, 82, 86, 94 and 106 (prime n/2, so the
  split is free) plus seeded corrupted copies, each checked by
  ``oberwolfach verify`` in process.

The package receives only the generated ``(n, F)`` inputs and files, through
its public API: ``solve(n, F)``, ``serialize`` and ``cli.main``.
"""

from __future__ import annotations

import io
import json
import random
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from typing import Callable

import certs

WORKLOADS = ("sweep", "split_heavy", "certify")
SWEEP_ORDERS = tuple(range(6, 39, 4))
SWEEP_TYPES_PER_ORDER = 40
SPLIT_HEAVY_ORDERS = (54, 66, 70, 98)
CERTIFY_ORDERS = (74, 82, 86, 94, 106)
NONEXISTENT = (6, (6,))  # the one impossible instance in the domain


@dataclass(frozen=True)
class Instance:
    n: int
    lengths: tuple  # ascending even cycle lengths summing to n

    @property
    def label(self) -> str:
        return f"n={self.n} {list(self.lengths)}"


@dataclass(frozen=True)
class Op:
    """One timed operation: ``run(pkg)`` returns ``(ok, output_bytes, detail)``,
    where ``ok`` says whether the package's verdict was the expected one."""

    label: str
    arcs: int  # n(n-1), the arcs the operation certifies
    run: Callable


def even_types(n: int) -> list:
    """Every multiset of even parts >= 2 summing to ``n``, as ascending tuples."""

    def parts(total: int, largest: int):
        if total == 0:
            yield ()
            return
        for p in range(min(largest, total), 1, -2):
            for rest in parts(total - p, p):
                yield rest + (p,)

    return list(parts(n, n))


def random_even_type(rng: random.Random, n: int) -> tuple:
    """A seeded even cycle type of order ``n`` with at least one cycle longer
    than 2 (the all-2s type is the round robin, which skips the construction)."""
    while True:
        parts, rest = [], n
        while rest:
            p = 2 * rng.randint(1, rest // 2)
            parts.append(p)
            rest -= p
        if max(parts) > 2:
            return tuple(sorted(parts))


def instances(workload: str, seed: int) -> list:
    if workload == "sweep":
        out = []
        for n in SWEEP_ORDERS:
            types = even_types(n)
            if len(types) > SWEEP_TYPES_PER_ORDER:
                rng = random.Random(seed * 1_000_003 + n)
                types = sorted(rng.sample(types, SWEEP_TYPES_PER_ORDER))
            out += [Instance(n, t) for t in types]
        return out
    orders = {"split_heavy": SPLIT_HEAVY_ORDERS, "certify": CERTIFY_ORDERS}[workload]
    return [
        Instance(n, random_even_type(random.Random(seed * 1_000_003 + n), n))
        for n in orders
    ]


def solve_op(inst: Instance) -> Op:
    """``solve(n, F)`` and export to JSON; ``(6, [6])`` must be Nonexistent."""
    impossible = (inst.n, inst.lengths) == NONEXISTENT

    def run(pkg):
        result = pkg.ow.solve(inst.n, pkg.ow.CycleType(inst.lengths))
        if isinstance(result, pkg.ow.Nonexistent):
            return impossible, b"nonexistent\n", "reported nonexistent"
        doc = pkg.serialize.document_for_solution(result)
        return not impossible, pkg.serialize.to_json(doc).encode(), "solved"

    return Op(inst.label, inst.n * (inst.n - 1), run)


def run_cli(pkg, argv: list) -> tuple:
    """``cli.main(argv)`` in process, output captured: ``(exit code, output)``."""
    out = io.StringIO()
    with redirect_stdout(out), redirect_stderr(out):
        try:
            code = pkg.cli.main(argv)
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue()


def verify_op(path: str, expected_exit: int, label: str, n: int) -> Op:
    """``cli.main(["verify", path])``: parse, host build, check and report."""

    def run(pkg):
        code, text = run_cli(pkg, ["verify", path])
        output = f"exit {code}\n{text}".encode()
        return code == expected_exit, output, f"exit {code}, expected {expected_exit}"

    return Op(label, n * (n - 1), run)


@dataclass
class Certificate:
    """A file the ``certify`` workload verifies, and the verdict it must get."""

    path: str
    inst: Instance
    kind: str  # "clean" or the corruption operation

    @property
    def clean(self) -> bool:
        return self.kind == "clean"


def write_certificates(pkg, insts: list, seed: int, workdir) -> tuple:
    """Solve each instance, write its certificate and one corrupted copy per
    corruption operation.  Returns ``(certificates, problems, blob)``; ``blob``
    is every written byte, in order, for the determinism digest."""
    files, problems, blob = [], [], []
    for inst in insts:
        result = pkg.ow.solve(inst.n, pkg.ow.CycleType(inst.lengths))
        text = pkg.serialize.to_json(pkg.serialize.document_for_solution(result))
        rng = random.Random(f"corrupt:{seed}:{inst.n}")
        variants = [("clean", text)]
        data = json.loads(text)
        for op in certs.OPERATIONS:
            bad = certs.dumps(certs.corrupt(data, op, rng))
            if bad == text:
                problems.append(f"{inst.label}: corruption {op} left the file unchanged")
            variants.append((op, bad))
        for name, body in variants:
            path = workdir / f"n{inst.n}-{name}.json"
            path.write_text(body, encoding="utf-8")
            files.append(Certificate(str(path), inst, name))
            blob.append(body.encode())
    return files, problems, b"".join(blob)


def certificate_ops(files: list) -> list:
    return [
        verify_op(c.path, 0 if c.clean else 1, f"{c.inst.label} {c.kind}", c.inst.n)
        for c in files
    ]
