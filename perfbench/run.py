"""Benchmark of the oberwolfach solver and certifier.

    python3 perfbench/run.py --workload {sweep,split_heavy,certify} \\
        --seed N --seconds S --trace {0,1}

Run from the root of a source checkout; the package is imported from
``src/``.  Each run sets up (import, table warm-up, seeded inputs), times
whole passes over the workload's operations until they add up to
``--seconds`` (at least two passes), checks every output, and prints one
JSON object as the last line of standard output:

* ``--trace 0``: the end-to-end metrics, measured with tracing off.  Between
  operations, off the clock and spread evenly over the run, it sets up again
  for ``setup_s`` and, on ``certify``, launches the CLI.
* ``--trace 1``: untraced and traced passes in alternation; a traced pass
  records a span per call of the package functions in ``TARGETS``.  Prints
  the per-layer metrics and the tracing overhead, and re-derives the output
  digest in two child processes with different ``PYTHONHASHSEED`` values.

A summary of the run (machine, Python, seed, sample counts, output digest,
operation latency and its tail, CLI process time, failures) goes to
standard error and to
``.perfbench_out/result-<workload>-seed<seed>-trace<trace>.json``; the spans
of a traced run go to ``.perfbench_out/trace-<workload>-seed<seed>.json``.
See ``perfbench/README.md`` for why each workload exists.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import importlib
import json
import os
import platform
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass, field
from pathlib import Path
from types import SimpleNamespace

import certs
import spans
import stats
import workloads

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
PKG = "oberwolfach"
OUT = ROOT / ".perfbench_out"

SETUPS = 12  # set-ups per untraced run; setup_s is their mean
MIN_PASSES = 2  # two passes at least, so the pass-to-pass digest is compared
CLI_LAUNCHES = 7  # sequential `python -m oberwolfach.cli verify` processes, certify only
RUN_LIMIT_S = 160.0  # everything but interpreter exit fits in this
PASS_LIMIT_S = 90.0  # watchdog on one pass; a split_heavy pass takes ~9 s
HASH_SEEDS = ("1", "2")

END_TO_END_UNITS = {
    "setup_s": "s",
    "wall_s": "s",
    "arcs_per_s": "arcs/s",
    "peak_rss_mb": "MB",
}


def _host_arcs(args, result) -> int:
    return len(getattr(args[0], "arcs", ())) if args else 0


def _result_len(args, result) -> int:
    return len(result) if isinstance(result, str) else 0


def _text_arg_len(args, result) -> int:
    return len(args[0]) if args and isinstance(args[0], str) else 0


TARGETS = (
    spans.Target("solver", "solve"),
    spans.Target("solver", "wh_decompose"),
    spans.Target("solver", "small_order_solve"),
    spans.Target("solver", "round_robin_two_cycles"),
    spans.Target("caps", "w_star_factorization"),
    spans.Target("caps", "j_decompose"),
    spans.Target("caps", "is_admissible"),
    spans.Target("hosts", "w_star"),
    spans.Target("hosts", "fold"),
    spans.Target("hosts", "h_star"),
    spans.Target("hosts", "complete_symmetric"),
    spans.Target("hstar", "factorize_h_star"),
    spans.Target("checker", "verify_factorization", _host_arcs),
    spans.Target("checker", "brute_force_factorization"),
    spans.Target("serialize", "to_json", _result_len),
    spans.Target("serialize", "from_json", _text_arg_len),
    spans.Target("cli", "main"),
)


def per_layer_units() -> dict:
    units = {}
    for t in TARGETS:
        units[f"{t.key}.self_s"] = "s"
        units[f"{t.key}.calls"] = "count"
    units.update(
        {
            "hosts.w_star.calls_per_solve": "calls/solve",
            "caps.is_admissible.calls_per_solve": "calls/solve",
            "checker.verify_factorization.arcs_per_s": "arcs/s",
            "serialize.to_json.bytes_per_s": "B/s",
            "serialize.from_json.bytes_per_s": "B/s",
            "trace_overhead_frac": "frac",
        }
    )
    return units


class PassTimeout(BaseException):
    """Raised by the pass watchdog.  A BaseException, like KeyboardInterrupt,
    so that no ``except Exception`` in the package can swallow it."""


@contextmanager
def watchdog(limit_s: float):
    def fire(signum, frame):
        raise PassTimeout

    previous = signal.signal(signal.SIGALRM, fire)
    signal.setitimer(signal.ITIMER_REAL, limit_s)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


@dataclass
class Tally:
    """Checks made in a run, and the ones that failed."""

    attempted: int = 0
    failures: list = field(default_factory=list)

    def check(self, ok: bool, detail: str) -> None:
        self.attempted += 1
        if not ok:
            self.failures.append(detail)


@dataclass
class Prepared:
    pkg: SimpleNamespace
    insts: list
    ops: list
    files: list  # certify's certificates, else empty
    blob: bytes  # bytes set-up wrote, prefixed to the output digest
    problems: list
    checks: int  # checks set-up made, failed ones are in ``problems``


@dataclass
class PassResult:
    wall_s: float
    lat_ns: list
    arcs_done: int
    digest: str
    outputs: list
    failures: list
    timed_out: bool
    traced: bool = False


def package_modules() -> dict:
    return {n: m for n, m in sys.modules.items() if n == PKG or n.startswith(PKG + ".")}


def load_package() -> SimpleNamespace:
    """Import the package afresh from ``src/``, as a new process would."""
    for name in package_modules():
        del sys.modules[name]
    ow = importlib.import_module(PKG)
    if not Path(ow.__file__).resolve().is_relative_to(SRC):
        raise ImportError(f"{PKG} was imported from {ow.__file__}, not from {SRC}")
    return SimpleNamespace(
        ow=ow,
        serialize=importlib.import_module(f"{PKG}.serialize"),
        cli=importlib.import_module(f"{PKG}.cli"),
    )


def set_up(workload: str, seed: int, workdir: Path) -> Prepared:
    pkg = load_package()
    warm, _ = workloads.run_cli(pkg, ["tables", "--check"])  # parses every lazy table
    problems = [] if warm == 0 else [f"warm-up `tables --check` exited {warm}"]
    insts = workloads.instances(workload, seed)
    if workload == "certify":
        files, bad, blob = workloads.write_certificates(pkg, insts, seed, workdir)
        problems += bad
        ops = workloads.certificate_ops(files)
        checks = 1 + sum(not c.clean for c in files)
    else:
        files, blob = [], b""
        ops = [workloads.solve_op(i) for i in insts]
        checks = 1
    return Prepared(pkg, insts, ops, files, blob, problems, checks)


def run_pass(prep: Prepared, limit_s: float, tracer=None, keep=False,
             between=None, measured=0.0) -> PassResult:
    """One pass over the operations.  ``between(seconds)`` runs after each
    operation, off the pass clock; ``seconds`` is the run's measured time so
    far, ``measured`` from earlier passes plus this pass's."""
    gc.collect()
    lat, outputs, failures = [], [], []
    arcs_done = 0
    digest = hashlib.sha256(prep.blob)
    current = t0 = None
    timed_out = False
    paused = 0.0
    start = time.perf_counter()
    try:
        with watchdog(limit_s):
            for op in prep.ops:
                current = op
                t0 = time.perf_counter_ns()
                try:
                    with tracer.span("bench.op") if tracer else nullcontext():
                        ok, out, detail = op.run(prep.pkg)
                except Exception as exc:  # one failed operation, keep going
                    ok, out, detail = False, b"", f"raised {type(exc).__name__}: {exc}"
                lat.append(time.perf_counter_ns() - t0)
                t0 = None
                if ok:
                    arcs_done += op.arcs
                else:
                    failures.append(f"{op.label}: {detail}")
                digest.update(op.label.encode() + b"\n" + out)
                if keep:
                    outputs.append(out)
                if between:
                    t1 = time.perf_counter()
                    between(measured + t1 - start - paused)
                    paused += time.perf_counter() - t1
    except PassTimeout:
        timed_out = True
        if t0 is not None:  # the stopped operation took at least this long
            lat.append(time.perf_counter_ns() - t0)
        where = f"in {current.label}" if t0 is not None else "between operations"
        failures.append(
            f"watchdog: pass stopped after {time.perf_counter() - start:.1f} s {where}"
        )
    wall = time.perf_counter() - start - paused
    return PassResult(wall, lat, arcs_done, digest.hexdigest(), outputs, failures, timed_out)


def run_passes(prep, seconds, deadline, tally, tracer=None, between=None) -> list:
    """Whole passes until they add up to ``seconds``, at least ``MIN_PASSES``.
    With a ``tracer``, every second pass is traced and each kind gets
    ``seconds`` and ``MIN_PASSES``: alternating keeps an untraced pass next to
    each traced one, so the overhead compares passes that saw the same machine.
    ``between`` is handed to each untraced pass (see ``run_pass``)."""
    kinds = 2 if tracer else 1
    passes: list = []
    measured = 0.0
    while len(passes) < MIN_PASSES * kinds or measured < seconds * kinds:
        remaining = deadline - time.perf_counter()
        if passes and remaining < 1.5 * passes[-1].wall_s:
            tally.check(False, f"run budget spent after {len(passes)} passes")
            break
        limit = max(1.0, min(PASS_LIMIT_S, remaining))
        if tracer and len(passes) % 2:
            tracer.install(TARGETS)
            try:
                p = run_pass(prep, limit, tracer)
            finally:
                tracer.uninstall()
            p.traced = True
        else:
            p = run_pass(prep, limit, keep=not passes, between=between, measured=measured)
        passes.append(p)
        measured += p.wall_s
        tally.attempted += len(p.lat_ns)
        tally.failures += p.failures
        if p.timed_out:
            break
    return passes


def recheck(prep: Prepared, first: PassResult, tally: Tally) -> None:
    """The plain-data recheck, off the clock, of every certificate produced."""
    if prep.files:
        for c in prep.files:
            text = Path(c.path).read_text(encoding="utf-8")
            problems = certs.recheck(text, c.inst.n, c.inst.lengths)
            verdict = "; ".join(problems[:2]) or "accepted"
            tally.check(bool(problems) != c.clean, f"recheck {c.inst.label} {c.kind}: {verdict}")
        return
    for inst, out in zip(prep.insts, first.outputs):
        if not out or out == b"nonexistent\n":
            continue  # a failed operation, or a verdict the operation checked
        problems = certs.recheck(out.decode(), inst.n, inst.lengths)
        tally.check(not problems, f"recheck {inst.label}: {'; '.join(problems[:2])}")


def child_env(**extra) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    env.update(extra)
    return env


def cli_launch(path: str, deadline: float, tally: Tally, times: list) -> None:
    """One ``python -m oberwolfach.cli verify`` process, timed in wall ms."""
    t0 = time.perf_counter()
    try:
        proc = subprocess.run(
            [sys.executable, "-m", f"{PKG}.cli", "verify", path],
            cwd=ROOT,
            env=child_env(),
            stdout=subprocess.DEVNULL,
            stderr=subprocess.DEVNULL,
            timeout=max(1.0, deadline - t0),
        )
    except subprocess.TimeoutExpired:
        tally.check(False, "cli verify process exceeded the run budget")
        return
    times.append((time.perf_counter() - t0) * 1e3)
    tally.check(proc.returncode == 0, f"cli verify process exited {proc.returncode}")


def digest_probe(args, digest: str, deadline: float, tally: Tally) -> dict:
    """Re-derive the output digest in fresh processes with other hash seeds."""
    seen = {}
    for hash_seed in HASH_SEEDS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload]
        cmd += ["--seed", str(args.seed), "--digest"]
        try:
            proc = subprocess.run(
                cmd,
                cwd=ROOT,
                env=child_env(PYTHONHASHSEED=hash_seed),
                capture_output=True,
                text=True,
                timeout=max(1.0, deadline - time.perf_counter()),
            )
            lines = proc.stdout.split()
            seen[hash_seed] = lines[-1] if proc.returncode == 0 and lines else "failed"
        except subprocess.TimeoutExpired:
            seen[hash_seed] = "timed out"
        tally.check(
            seen[hash_seed] == digest,
            f"PYTHONHASHSEED={hash_seed}: digest {seen[hash_seed]} != {digest}",
        )
    return seen


def end_to_end(setup_times, passes) -> dict:
    """Means over the whole run: the machine's speed drifts between states
    every few seconds, and a mean over samples spread across the run weighs
    each state by the time it lasted, where a median takes the state of one
    sample.  Peak RSS is this process's over the run, set-ups included; on
    ``certify`` the set-up's solves set it, not the verify passes."""
    lat = [x for p in passes for x in p.lat_ns]
    walls = [p.wall_s for p in passes if not p.timed_out] or [passes[-1].wall_s]
    return {
        "setup_s": statistics.fmean(setup_times),
        "wall_s": statistics.fmean(walls),
        "arcs_per_s": sum(p.arcs_done for p in passes) / (sum(lat) / 1e9),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }


def per_layer(summary: dict, passes: list) -> dict:
    npass = max(1, sum(p.traced for p in passes))
    zero = {"calls": 0, "self_ns": 0, "total_ns": 0, "work": 0}
    row = {t.key: summary.get(t.key, zero) for t in TARGETS}
    out = {}
    for key, r in row.items():
        out[f"{key}.self_s"] = r["self_ns"] / 1e9 / npass
        out[f"{key}.calls"] = r["calls"] / npass
    solves = row["solver.solve"]["calls"]
    for key in ("hosts.w_star", "caps.is_admissible"):
        out[f"{key}.calls_per_solve"] = row[key]["calls"] / solves if solves else 0.0

    def rate(key):
        r = row[key]
        return r["work"] / (r["self_ns"] / 1e9) if r["self_ns"] else 0.0

    out["checker.verify_factorization.arcs_per_s"] = rate("checker.verify_factorization")
    out["serialize.to_json.bytes_per_s"] = rate("serialize.to_json")
    out["serialize.from_json.bytes_per_s"] = rate("serialize.from_json")
    pairs = zip(passes[0::2], passes[1::2])  # (untraced, traced) neighbours
    ratios = [t.wall_s / u.wall_s for u, t in pairs if t.traced]
    out["trace_overhead_frac"] = statistics.median(ratios) - 1.0 if ratios else 0.0
    return out


def layer_shares(summary: dict, passes: list) -> dict:
    """Self time per module (and the benchmark's own ``bench``) as a share
    of the traced passes' wall time."""
    total = sum(p.wall_s for p in passes if p.traced) * 1e9
    shares: dict = {}
    for key, r in summary.items():
        module = key.split(".", 1)[0]
        shares[module] = shares.get(module, 0.0) + r["self_ns"] / total
    return dict(sorted(shares.items(), key=lambda kv: -kv[1]))


def op_tails(workload: str, passes: list) -> dict:
    kind = "verify" if workload == "certify" else "solve"
    lat_ms = [x / 1e6 for p in passes for x in p.lat_ns]
    p50 = stats.median_of_columns([p.lat_ns for p in passes]) / 1e6
    out = {"op": kind, "samples": len(lat_ms), f"{kind}_ms_p50": p50}
    q = stats.tail_percentile(len(lat_ms))
    if q is not None:
        out[f"{kind}_ms_p{q}"] = stats.percentile(lat_ms, q)
        out["tail_samples_beyond"] = stats.samples_beyond(len(lat_ms), q)
    return out


def machine() -> dict:
    return {
        "platform": platform.platform(),
        "machine": platform.machine(),
        "processor": platform.processor(),
        "cpus": os.cpu_count(),
        "python": sys.version,
        "implementation": platform.python_implementation(),
    }


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--digest",
        action="store_true",
        help="set up once, run one pass and print its output digest "
        "(the determinism probe's child processes)",
    )
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    deadline = time.perf_counter() + RUN_LIMIT_S
    os.environ.pop("OBERWOLFACH_CACHE", None)  # no solution cache outside the checkout
    if not (SRC / PKG / "__init__.py").is_file():
        print(f"error: no package source at {SRC / PKG}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    workdir = OUT / f"work-{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        return measure(args, deadline, workdir)
    except ImportError as exc:
        print(f"error: cannot import {PKG}: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def measure(args, deadline: float, workdir: Path) -> int:
    tally = Tally()
    if args.digest:
        prep = set_up(args.workload, args.seed, workdir)
        p = run_pass(prep, PASS_LIMIT_S)
        print(p.digest)
        return 0 if not p.failures and not prep.problems else 1

    setup_times: list = []

    def timed_set_up() -> Prepared:
        t0 = time.perf_counter()
        fresh = set_up(args.workload, args.seed, workdir)
        setup_times.append(time.perf_counter() - t0)
        return fresh

    def timed_set_up_again() -> None:
        """Set up once more, for ``setup_s`` only; the passes keep the
        package modules they started with, so nothing mixes the two.  Its
        garbage is collected here, not on the pass clock."""
        in_use = package_modules()
        try:
            timed_set_up()
        finally:
            for name in package_modules():
                del sys.modules[name]
            sys.modules.update(in_use)
            gc.collect()

    prep = timed_set_up()
    tally.attempted += prep.checks
    tally.failures += prep.problems

    cli_ms: list = []
    launches = CLI_LAUNCHES if prep.files else 0
    clean_largest = max((c for c in prep.files if c.clean), key=lambda c: c.inst.n, default=None)

    setups_done, launches_done = 1, 0

    def off_clock(measured_s: float) -> None:
        """Set up again and launch the CLI when their turn has come: the
        k-th set-up at k/SETUPS and the k-th launch at (k + 1/2)/launches
        of the run's ``--seconds``."""
        nonlocal setups_done, launches_done
        while setups_done < SETUPS and measured_s >= setups_done * args.seconds / SETUPS:
            setups_done += 1
            timed_set_up_again()
        while launches_done < launches and measured_s >= (launches_done + 0.5) * args.seconds / launches:
            launches_done += 1
            cli_launch(clean_largest.path, deadline, tally, cli_ms)

    tracer = spans.Tracer(PKG) if args.trace else None
    between = None if args.trace else off_clock
    passes = run_passes(prep, args.seconds, deadline, tally, tracer, between)
    first = passes[0]
    tally.check(
        len({p.digest for p in passes}) == 1,
        f"output digest differs between passes: {[p.digest[:12] for p in passes]}",
    )
    recheck(prep, first, tally)

    info = {"workload": args.workload, "seed": args.seed, "trace": args.trace}
    info.update(
        passes=len(passes),
        pass_walls_s=[p.wall_s for p in passes],
        ops_per_pass=len(prep.ops),
        sha256=first.digest,
    )
    info.update(op_tails(args.workload, [p for p in passes if not p.traced]))
    if args.trace:
        info["digest_by_hash_seed"] = digest_probe(args, first.digest, deadline, tally)
        summary = spans.summarize(tracer.spans)
        metrics = per_layer(summary, passes)
        info.update(
            traced_passes=sum(p.traced for p in passes),
            spans=len(tracer.spans),
            absent=tracer.absent,
            layer_shares=layer_shares(summary, passes),
        )
        tracer.write(OUT / f"trace-{args.workload}-seed{args.seed}.json")
        units = per_layer_units()
    else:
        if time.perf_counter() < deadline:
            off_clock(float("inf"))  # those a short run left due
        if cli_ms:
            info["cli_proc_ms_mean"] = statistics.fmean(cli_ms)
            info["cli_proc_ms_p50"] = statistics.median(cli_ms)
        info["cli_launches_ms"] = cli_ms
        metrics = end_to_end(setup_times, passes)
        units = END_TO_END_UNITS

    failed = len(tally.failures)
    info.update(
        attempted=tally.attempted,
        failed=failed,
        fail_frac=failed / tally.attempted,
        failures=tally.failures[:20],
        setup_times_s=setup_times,
        machine=machine(),
    )
    result = {
        "correct": failed == 0,
        "attempted": tally.attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }
    (OUT / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps({"result": result, "info": info}, indent=2) + "\n", encoding="utf-8"
    )
    print(json.dumps(info, sort_keys=True), file=sys.stderr)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
