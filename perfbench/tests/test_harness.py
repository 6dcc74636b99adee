"""Tests of the benchmark harness itself: the percentile rule, span
self-time arithmetic, the tracer, the corruption generator and the plain
recheck, and agreement between the metrics emitted and BENCHMARK.json.

    python3 -m pytest perfbench/tests -q
"""

import io
import json
import random
import statistics
import sys
import time
import types
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(ROOT / "src"))

import certs  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import stats  # noqa: E402
import workloads  # noqa: E402


# -- percentile and sample-count rule ---------------------------------------


def test_nearest_rank_percentile():
    xs = list(range(1, 101))
    assert stats.percentile(xs, 50) == 50
    assert stats.percentile(xs, 90) == 90
    assert stats.percentile(xs, 100) == 100
    assert stats.percentile([7.0], 95) == 7.0
    with pytest.raises(ValueError):
        stats.percentile([], 50)


def test_rank_uses_exact_arithmetic():
    # 0.95 * 200 is 190.00000000000003 in floating point
    assert stats.rank(200, 95) == 190
    assert stats.samples_beyond(200, 95) == 10


@pytest.mark.parametrize(
    "count, expected",
    [(8, None), (99, None), (100, 90), (199, 90), (200, 95), (999, 95), (1000, 99)],
)
def test_tail_needs_ten_samples_beyond(count, expected):
    assert stats.tail_percentile(count) == expected
    if expected is not None:
        assert stats.samples_beyond(count, expected) >= stats.TAIL_BEYOND


def test_quartile_spread_matches_statistics():
    vs = [10.0, 11.0, 9.5, 10.2, 10.8, 9.9, 10.1, 10.4, 9.7, 10.6]
    q1, _, q3 = statistics.quantiles(vs, n=4)
    assert stats.quartile_spread(vs) == pytest.approx((q3 - q1) / statistics.median(vs))


def test_median_of_columns_takes_each_operations_median_first():
    passes = [[1, 10, 20, 50], [1, 30, 21, 50], [1, 11, 90, 50]]
    # per operation: 1, 11, 21, 50; their median is (11 + 21) / 2
    assert stats.median_of_columns(passes) == 16
    # a pass stopped by the watchdog after two operations
    assert stats.median_of_columns([[1, 10, 20], [3, 12]]) == 11


# -- span self-time arithmetic ------------------------------------------------


def test_self_time_subtracts_direct_children_only():
    span_list = [
        ("op", 0, 100, -1, 0),
        ("a", 10, 40, 0, 5),
        ("leaf", 15, 25, 1, 0),
        ("b", 50, 70, 0, 0),
        ("a", 80, 90, 0, 7),
        None,  # a call interrupted before it finished
    ]
    s = spans.summarize(span_list)
    assert s["op"] == {"calls": 1, "self_ns": 100 - 30 - 20 - 10, "total_ns": 100, "work": 0}
    assert s["a"] == {"calls": 2, "self_ns": (30 - 10) + 10, "total_ns": 40, "work": 12}
    assert s["leaf"]["self_ns"] == 10
    assert s["b"]["self_ns"] == 20
    assert sum(r["self_ns"] for r in s.values()) == 100


@pytest.fixture
def fake_package(monkeypatch):
    """``fakepkg.lib.outer`` calls ``inner``; ``fakepkg.user`` imports
    ``outer`` by name, as the package's modules do."""
    pkg = types.ModuleType("fakepkg")
    lib = types.ModuleType("fakepkg.lib")
    source = "def inner(x):\n    return x + 1\n\ndef outer(x):\n    return inner(x) * 2\n"
    exec(source, lib.__dict__)
    user = types.ModuleType("fakepkg.user")
    user.outer = lib.outer
    for name, mod in (("fakepkg", pkg), ("fakepkg.lib", lib), ("fakepkg.user", user)):
        monkeypatch.setitem(sys.modules, name, mod)
    return lib, user


def test_tracer_wraps_every_binding_and_restores(fake_package):
    lib, user = fake_package
    original = lib.outer
    tracer = spans.Tracer("fakepkg")
    tracer.install(
        [
            spans.Target("lib", "outer", lambda args, result: args[0]),
            spans.Target("lib", "inner"),
            spans.Target("lib", "gone"),
            spans.Target("missing_module", "f"),
        ]
    )
    assert tracer.absent == ["lib.gone", "missing_module.f"]
    assert user.outer is lib.outer is not original
    with tracer.span("bench.op"):
        assert user.outer(3) == 8
    tracer.uninstall()
    assert user.outer is lib.outer is original

    keys = [s[0] for s in tracer.spans]
    parents = [s[3] for s in tracer.spans]
    assert keys == ["bench.op", "lib.outer", "lib.inner"]
    assert parents == [-1, 0, 1]
    summary = spans.summarize(tracer.spans)
    assert summary["lib.outer"]["work"] == 3
    assert summary["lib.inner"]["calls"] == 1


# -- watchdog --------------------------------------------------------------


def test_watchdog_stops_a_hung_pass_and_reports_it():
    def fast(pkg):
        return True, b"ok", ""

    def hang(pkg):
        time.sleep(30)
        return True, b"", ""

    ops = [
        workloads.Op("fast", 2, fast),
        workloads.Op("hung", 2, hang),
        workloads.Op("after", 2, fast),
    ]
    prep = run.Prepared(None, [], ops, [], b"", [], 0)
    started = time.perf_counter()
    p = run.run_pass(prep, limit_s=0.3)
    assert time.perf_counter() - started < 5
    assert p.timed_out
    assert len(p.lat_ns) == 2 and p.lat_ns[1] >= 0.25e9
    assert p.arcs_done == 2
    assert p.failures and "in hung" in p.failures[0]


def test_failed_operation_is_counted_and_the_pass_goes_on():
    def boom(pkg):
        raise RuntimeError("no decomposition")

    ops = [workloads.Op("boom", 2, boom), workloads.Op("ok", 3, lambda pkg: (True, b"", ""))]
    p = run.run_pass(run.Prepared(None, [], ops, [], b"", [], 0), limit_s=5)
    assert not p.timed_out and len(p.lat_ns) == 2
    assert p.arcs_done == 3
    assert p.failures == ["boom: raised RuntimeError: no decomposition"]


def test_work_between_operations_is_off_the_pass_clock():
    def op(pkg):
        time.sleep(0.02)
        return True, b"", ""

    seen = []

    def between(measured_s):
        seen.append(measured_s)
        time.sleep(0.1)

    ops = [workloads.Op(f"op{i}", 1, op) for i in range(3)]
    p = run.run_pass(run.Prepared(None, [], ops, [], b"", [], 0), 5, between=between, measured=1.0)
    assert 0.06 <= p.wall_s < 0.15
    # each call sees the earlier passes' time plus this pass's on-clock time,
    # not the 0.1 s pauses before it
    for k, s in enumerate(seen, start=1):
        assert 0.02 * k <= s - 1.0 < 0.02 * k + 0.05


# -- plain recheck and corruption generator --------------------------------


@pytest.fixture(scope="module")
def certificate():
    import oberwolfach as ow
    from oberwolfach import serialize

    result = ow.solve(14, ow.CycleType([4, 10]))
    return serialize.to_json(serialize.document_for_solution(result))


def test_recheck_accepts_a_solution(certificate):
    assert certs.recheck(certificate, 14, (4, 10)) == []


def test_recheck_judges_against_the_requested_instance(certificate):
    assert certs.recheck(certificate, 14, (2, 2, 10))
    assert certs.recheck("[]", 14, (4, 10)) == ["top level is not an object"]
    assert certs.recheck("{", 14, (4, 10))[0].startswith("not JSON")


@pytest.mark.parametrize("op", certs.OPERATIONS)
def test_every_corruption_changes_the_file_and_is_rejected(certificate, op, tmp_path):
    from oberwolfach import cli

    data = json.loads(certificate)
    for seed in range(20):
        bad = certs.dumps(certs.corrupt(data, op, random.Random(seed)))
        assert bad != certificate
        assert certs.recheck(bad, 14, (4, 10))
    assert json.loads(certificate) == data, "corrupt() must not modify its input"
    path = tmp_path / f"{op}.json"
    path.write_text(bad)
    with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()):
        assert cli.main(["verify", str(path)]) == 1


def test_corruption_is_seeded(certificate):
    data = json.loads(certificate)
    for op in certs.OPERATIONS:
        one = certs.corrupt(data, op, random.Random(11))
        two = certs.corrupt(data, op, random.Random(11))
        assert one == two
    with pytest.raises(ValueError):
        certs.corrupt(data, "shuffle", random.Random(0))


def test_package_layout_round_trips(certificate):
    assert certs.dumps(json.loads(certificate)) == certificate


# -- inputs ----------------------------------------------------------------


def test_even_types_counts_partitions():
    assert len(workloads.even_types(6)) == 3
    assert len(workloads.even_types(38)) == 490  # partitions of 19
    assert all(sum(t) == 22 and all(p % 2 == 0 for p in t) for t in workloads.even_types(22))


def test_inputs_are_seeded():
    sweep = workloads.instances("sweep", 3)
    assert len(sweep) == 255
    assert workloads.Instance(*workloads.NONEXISTENT) in sweep
    assert sweep == workloads.instances("sweep", 3)
    assert sweep != workloads.instances("sweep", 4)
    for name, orders in (
        ("split_heavy", workloads.SPLIT_HEAVY_ORDERS),
        ("certify", workloads.CERTIFY_ORDERS),
    ):
        insts = workloads.instances(name, 3)
        assert tuple(i.n for i in insts) == orders
        assert all(sum(i.lengths) == i.n and max(i.lengths) > 2 for i in insts)
        assert insts == workloads.instances(name, 3)


# -- the emitted metrics are the ones BENCHMARK.json declares -------------


def test_metric_names_and_units_match_benchmark_json():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {w["name"] for w in spec["workloads"]} == set(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.per_layer_units()
