import argparse
import hashlib
import json
import os
import stat
import subprocess
import sys
import tempfile
import threading
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from broken_stages import BENT_2_2_2, CASES, break_stage, patch_table
from oberwolfach import serialize, tables
from oberwolfach.checker import VerificationReport
from oberwolfach.cli import _report_json, build_parser, main
from oberwolfach.core import parse_cycle_type, parse_vertex
from oberwolfach.serialize import from_json, to_json

FIXTURE = Path(__file__).resolve().parent.parent / "fixtures" / "j12_4_8_decomposition.json"


def run_cli(*args):
    proc = subprocess.run(
        [sys.executable, "-m", "oberwolfach.cli", *args],
        capture_output=True,
        text=True,
    )
    return proc


def test_solve_json_verified(tmp_path):
    out = tmp_path / "out.json"
    proc = run_cli(
        "solve", "--n", "14", "--factor", "[2,4,8]", "--format", "json",
        "--out", str(out),
    )
    assert proc.returncode == 0, proc.stderr
    data = json.loads(out.read_text())
    assert data["n"] == 14
    assert data["verified"] is True
    assert data["factor_type"] == [2, 4, 8]
    assert len(data["factors"]) == 13


def test_solve_verify_roundtrip(tmp_path):
    out = tmp_path / "out.json"
    assert run_cli(
        "solve", "--n", "10", "--factor", "[2^2,6]", "--out", str(out)
    ).returncode == 0
    proc = run_cli("verify", str(out))
    assert proc.returncode == 0
    report = json.loads(proc.stdout)
    assert report["passed"] is True


def test_json_roundtrip_byte_identical(tmp_path):
    out = tmp_path / "out.json"
    run_cli("solve", "--n", "6", "--factor", "[2,4]", "--out", str(out))
    text = out.read_text()
    assert to_json(from_json(text)) == text


def test_verify_detects_mutation(tmp_path):
    out = tmp_path / "out.json"
    run_cli("solve", "--n", "6", "--factor", "[2,4]", "--out", str(out))
    data = json.loads(out.read_text())
    # retarget one vertex of one cycle
    data["factors"][0][0][0] = "y2"
    out.write_text(json.dumps(data))
    proc = run_cli("verify", str(out))
    assert proc.returncode == 1


def test_verify_fixture():
    proc = run_cli("verify", str(FIXTURE))
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert json.loads(proc.stdout)["passed"] is True


def test_nonexistent_exit_code():
    proc = run_cli("solve", "--n", "6", "--factor", "[6]")
    assert proc.returncode == 2
    assert "nonexistent" in proc.stderr


def test_domain_error_exit_code():
    assert run_cli("solve", "--n", "12", "--factor", "[12]").returncode == 1
    assert run_cli("solve", "--n", "14", "--factor", "[3,11]").returncode == 1
    assert run_cli("solve", "--n", "14", "--factor", "(nonsense)").returncode == 1


def test_dot_output_one_statement_per_arc():
    proc = run_cli("solve", "--n", "6", "--factor", "[2,4]", "--format", "dot")
    assert proc.returncode == 0
    statements = [l for l in proc.stdout.splitlines() if "->" in l]
    assert len(statements) == 30  # 5 factors x 6 arcs


def test_edges_output():
    proc = run_cli("solve", "--n", "6", "--factor", "[2^3]", "--format", "edges")
    lines = [l for l in proc.stdout.splitlines() if l]
    assert len(lines) == 30
    assert lines[0].split()[0] == "1"


def test_tables_check():
    proc = run_cli("tables", "--check")
    assert proc.returncode == 0
    assert "16 cap rows + 13 decomposition rows" in proc.stdout


def test_tables_check_output_is_pinned():
    """One loop prints every row; the passing report is the same bytes as
    when the cap, decomposition and supplemental rows had a loop each."""
    proc = run_cli("tables", "--check")
    assert proc.returncode == 0
    assert hashlib.sha256(proc.stdout.encode()).hexdigest() == (
        "35e6659e64a469622894ac00bb7ab9f76612752d351267db73fd167a7a111496"
    )


def test_tables_dump_output_is_pinned():
    """The external-audit export of every embedded table, byte for byte."""
    proc = run_cli("tables", "--dump")
    assert proc.returncode == 0
    assert hashlib.sha256(proc.stdout.encode()).hexdigest() == (
        "59c95b1042a448aa4dbf0226efe60a8c789a61c9c203d95272e43626edc40754"
    )


def test_a_failing_supplemental_row_prints_its_checks(capsys, monkeypatch):
    from oberwolfach import cli, tables

    real = tables.supplemental_2_4_4()
    # factor 1 twice and factor 9 missing: the arcs no longer partition
    factors = real.id_factors[:8] + real.id_factors[:1]
    broken = tables.AdmissibleDecomposition(real.m, factors)
    monkeypatch.setattr(cli.tables, "supplemental_2_4_4", lambda: broken)
    assert main(["tables", "--check"]) == 1
    lines = capsys.readouterr().out.splitlines()
    at = lines.index("supplemental [2,4^2]: FAIL")
    details = lines[at + 1 : -1]
    assert details and all(line.startswith("    ") and ": " in line for line in details)
    assert lines[-1] == "16 cap rows + 13 decomposition rows + 1 supplemental"


def test_tables_check_reports_a_non_admissible_table_row(capsys, monkeypatch):
    """A table row that is not admissible loads, and ``tables --check``
    prints its table's ``FAIL`` line and its ``admissible`` line, exit 1,
    with no traceback."""
    patch_table(monkeypatch, (2, 2, 2), BENT_2_2_2)
    assert main(["tables", "--check"]) == 1
    out, err = capsys.readouterr()
    lines = out.splitlines()
    at = lines.index("decomposition [2^3]: FAIL")
    assert lines[at + 1] == "    admissible: inadmissible factors: [0]"
    assert err == ""


def test_tables_check_reports_a_table_of_another_type(capsys, monkeypatch):
    """The [2,6] rows under the [4^2] key, on the same four blocks, fail
    only the ``cycle_type`` clause."""
    patch_table(monkeypatch, (4, 4), tables.PIECES[(2, 6)])
    assert main(["tables", "--check"]) == 1
    lines = capsys.readouterr().out.splitlines()
    assert [line for line in lines if "FAIL" in line or line[:1] == " "] == [
        "decomposition [4^2]: FAIL",
        "    cycle_type: expected [4^2]",
    ]


@pytest.mark.parametrize(
    "argv",
    [
        ["solve", "--n", "10", "--factor", "[10]"],
        ["verify", str(FIXTURE)],
        ["selftest", "--max-n", "6"],
        ["tables", "--dump"],
    ],
    ids=["solve", "verify", "selftest", "tables"],
)
def test_a_closed_stdout_is_one_error_line(argv):
    """With stdout a pipe whose read end is closed, every subcommand writes
    one ``error:`` line naming standard output and exits 1, with no
    traceback from the write or from the flush at exit."""
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "oberwolfach.cli", *argv],
            stdout=write_end,
            stderr=subprocess.PIPE,
            text=True,
        )
    finally:
        os.close(write_end)
    assert proc.returncode == 1
    assert proc.stderr.count("\n") == 1, proc.stderr
    assert proc.stderr.startswith("error: cannot write standard output: ")
    assert "Traceback" not in proc.stderr and "None" not in proc.stderr


def test_tables_dump_parses():
    proc = run_cli("tables", "--dump")
    data = json.loads(proc.stdout)
    assert len(data["right_caps"]) == 16
    assert len(data["small_decompositions"]) == 12


def test_selftest_small():
    proc = run_cli("selftest", "--max-n", "6")
    assert proc.returncode == 0
    assert "3 types, 2 solved, 1 nonexistent, 0 failed" in proc.stdout


@pytest.mark.parametrize("max_n", ["-6", "2", "5", "63", "202"])
def test_selftest_refuses_orders_outside_6_to_62(capsys, monkeypatch, max_n):
    """Below 6 there is nothing to check; above 62 the types number more
    than 19,597 and grow as the partition numbers.  The bound is refused
    before any type is enumerated or solved."""
    from oberwolfach import cli

    def refuse(*args):
        raise AssertionError("selftest started")

    monkeypatch.setattr(cli, "_even_types", refuse)
    monkeypatch.setattr(cli, "solve", refuse)
    assert main(["selftest", "--max-n", max_n]) == 1
    out, err = capsys.readouterr()
    assert (out, err) == ("", "error: --max-n must be in 6..62\n")


def test_main_callable_directly(capsys, tmp_path):
    out = tmp_path / "x.json"
    assert main(["solve", "--n", "6", "--factor", "[2,4]", "--out", str(out)]) == 0
    assert json.loads(out.read_text())["verified"] is True


@settings(max_examples=100, deadline=None, database=None)
@given(
    checks=st.lists(
        st.tuples(st.text(max_size=6), st.booleans(), st.text(max_size=12)),
        max_size=5,
    )
)
def test_the_verify_report_is_json_dumps_with_indent_2(checks):
    """``verify`` writes its report in a fixed layout, byte for byte as
    ``json.dumps(report.to_json(), indent=2)`` writes it: any names and
    details, non-ASCII, quotes and control characters included, and no
    checks at all."""
    report = VerificationReport()
    for name, ok, detail in checks:
        report.add(name, ok, detail)
    assert _report_json(report) == json.dumps(report.to_json(), indent=2)


def test_verify_other_host_kinds(capsys, tmp_path):
    from oberwolfach.core import parse_cycle_type
    from oberwolfach.hosts import HostDescriptor
    from oberwolfach.hstar import factorize_h_star
    from oberwolfach.serialize import FactorizationDocument

    ftype = parse_cycle_type("[4,6]")
    hf = factorize_h_star(ftype, 5)
    host = HostDescriptor("HStar", 5)
    doc = FactorizationDocument(
        n=10,
        ftype=ftype,
        host=host,
        factors=hf.id_factors,
        vertices=host.vertex_table,
        named=10,
        verified=True,
    )
    path = tmp_path / "hstar.json"
    path.write_text(to_json(doc))
    assert main(["verify", str(path)]) == 0
    assert json.loads(capsys.readouterr().out)["passed"] is True


def test_solve_out_unwritable_is_one_line_error(capsys, tmp_path):
    out = tmp_path / "missing" / "out.json"
    assert main(["solve", "--n", "6", "--factor", "[2,4]", "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: cannot write ")
    assert len(err.strip().splitlines()) == 1
    assert not out.exists()


SOLVE_14 = ["solve", "--n", "14", "--factor", "[14]"]


def _solved(capsys) -> str:
    """The certificate ``SOLVE_14`` writes to standard output."""
    assert main(SOLVE_14) == 0
    return capsys.readouterr().out


@pytest.mark.parametrize(
    "fault",
    [OSError(28, "No space left on device"), KeyboardInterrupt()],
    ids=["disk-full", "interrupt"],
)
def test_a_failed_write_keeps_the_earlier_out_file(capsys, monkeypatch, tmp_path, fault):
    """A write that fails after 3 chunks, by a full disk or an interrupt,
    leaves the earlier file's bytes and no temporary file beside it."""
    out = tmp_path / "out.json"
    out.write_text("earlier\n")
    real = serialize.FORMATS["json"]

    def failing(doc):
        for i, chunk in enumerate(real(doc)):
            if i == 3:
                raise fault
            yield chunk

    monkeypatch.setitem(serialize.FORMATS, "json", failing)
    if isinstance(fault, OSError):
        assert main([*SOLVE_14, "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err == f"error: cannot write {out}: No space left on device\n"
    else:
        with pytest.raises(KeyboardInterrupt):
            main([*SOLVE_14, "--out", str(out)])
    assert out.read_text() == "earlier\n"
    assert os.listdir(tmp_path) == ["out.json"]


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full")
def test_solve_out_dev_full_is_one_error_line(capsys):
    assert main([*SOLVE_14, "--out", "/dev/full"]) == 1
    out, err = capsys.readouterr()
    assert (out, err) == ("", "error: cannot write /dev/full: No space left on device\n")


def test_a_device_or_fifo_out_is_written_in_place(capsys, monkeypatch, tmp_path):
    """``/dev/null`` and a FIFO, read by a thread, get every byte, written in
    place: no temporary file is made, so no rename can replace them."""
    want = _solved(capsys)
    written = []
    real = serialize.FORMATS["json"]

    def recorded(doc):
        for chunk in real(doc):
            written.append(chunk)
            yield chunk

    def refused(**kwargs):
        raise AssertionError("a temporary file was made")

    monkeypatch.setitem(serialize.FORMATS, "json", recorded)
    monkeypatch.setattr(tempfile, "mkstemp", refused)
    assert main([*SOLVE_14, "--out", os.devnull]) == 0
    assert "".join(written) == want
    fifo = tmp_path / "fifo"
    os.mkfifo(fifo)
    got = []
    reader = threading.Thread(target=lambda: got.append(fifo.read_text()), daemon=True)
    reader.start()
    assert main([*SOLVE_14, "--out", str(fifo)]) == 0
    reader.join(timeout=60)
    assert got == [want]


def test_solve_out_replaces_a_symlinks_target_and_keeps_its_mode(capsys, tmp_path):
    """``--out`` naming a symlink replaces the file it points to, which
    keeps its mode, and leaves the link a link."""
    want = _solved(capsys)
    target = tmp_path / "target.json"
    target.write_text("earlier\n")
    target.chmod(0o640)
    link = tmp_path / "link.json"
    link.symlink_to(target)
    assert main([*SOLVE_14, "--out", str(link)]) == 0
    assert link.is_symlink() and target.read_text() == want
    assert stat.S_IMODE(target.stat().st_mode) == 0o640
    assert sorted(os.listdir(tmp_path)) == ["link.json", "target.json"]


def test_a_new_out_file_gets_the_mode_open_gives(tmp_path):
    """A new ``--out`` file is 0666 less the umask, as ``open`` makes it,
    not the 0600 of a temporary file."""
    out = tmp_path / "new.json"
    umask = os.umask(0o027)
    try:
        assert main([*SOLVE_14, "--out", str(out)]) == 0
    finally:
        os.umask(umask)
    assert stat.S_IMODE(out.stat().st_mode) == 0o640


def test_out_in_a_directory_that_refuses_new_files_is_kept(capsys, monkeypatch, tmp_path):
    """A writable ``--out`` in a directory where no file can be made is not
    written in place, which would lose it to a failed write: exit 1, one
    ``error:`` line, and the file keeps its bytes."""
    out = tmp_path / "out.json"
    out.write_text("earlier\n")

    def refused(**kwargs):
        raise PermissionError(13, "Permission denied")

    monkeypatch.setattr(tempfile, "mkstemp", refused)
    assert main([*SOLVE_14, "--out", str(out)]) == 1
    assert capsys.readouterr().err == f"error: cannot write {out}: Permission denied\n"
    assert out.read_text() == "earlier\n"


@pytest.mark.parametrize("case", CASES)
def test_solve_failed_check_is_one_line_error(capsys, monkeypatch, tmp_path, case):
    """A solve whose final check fails (a RuntimeError) is one ``error:``
    line naming the broken stage, exit 1, and no ``--out`` file."""
    n, spec = break_stage(monkeypatch, case)
    out = tmp_path / "out.json"
    assert main(["solve", "--n", str(n), "--factor", spec, "--out", str(out)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1
    assert lines[0].startswith(f"error: {CASES[case]} failed verification: ")
    assert not out.exists()


@pytest.mark.parametrize("argv", [["--out", ""], ["--out="]], ids=["split", "joined"])
def test_solve_out_empty_is_a_usage_error(capsys, argv):
    """An empty ``--out`` is refused, not read as "write to stdout"."""
    assert main(["solve", "--n", "10", "--factor", "[10]", *argv]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err == "error: argument --out: empty path\n"


def _verify_all(capsys, tmp_path, text):
    """``verify`` of ``text``: exit code, stdout and stderr."""
    path = tmp_path / "input.json"
    path.write_text(text)
    code = main(["verify", str(path)])
    return (code, *capsys.readouterr())


def _verify_text(capsys, tmp_path, text):
    code, _, err = _verify_all(capsys, tmp_path, text)
    return code, err


def _assert_malformed(code, err):
    assert code == 1
    assert err.startswith("error: malformed input: ")
    assert len(err.strip().splitlines()) == 1


def test_verify_top_level_list_is_malformed(capsys, tmp_path):
    _assert_malformed(*_verify_text(capsys, tmp_path, "[1, 2, 3]"))


def test_verify_non_list_factors_is_malformed(capsys, tmp_path):
    data = json.loads(FIXTURE.read_text())
    data["factors"] = 5
    _assert_malformed(*_verify_text(capsys, tmp_path, json.dumps(data)))


def test_verify_too_small_w_star_is_malformed(capsys, tmp_path):
    doc = {
        "n": 6,
        "factor_type": [6],
        "host": {"kind": "WStar", "m": 3},
        "factors": [],
        "verified": True,
        "seed": 0,
    }
    _assert_malformed(*_verify_text(capsys, tmp_path, json.dumps(doc)))


def test_solve_huge_exponent_is_rejected_before_expansion(capsys):
    code = main(["solve", "--n", "14", "--factor", "[2^1000000000000000]"])
    assert code == 1
    err = capsys.readouterr().err
    assert err == "error: cycle lengths sum to 2000000000000000, not 14\n"


def test_verify_huge_declared_host_is_malformed(capsys, tmp_path):
    import time

    data = json.loads(FIXTURE.read_text())
    for kind in ("CompleteSymmetric", "WStar", "HStar", "JStar"):
        data["host"] = {"kind": kind, "m": 100000}
        start = time.perf_counter()
        _assert_malformed(*_verify_text(capsys, tmp_path, json.dumps(data)))
        assert time.perf_counter() - start < 0.5


def _solved_certificate(tmp_path):
    path = tmp_path / "cert.json"
    assert main(["solve", "--n", "14", "--factor", "[4,10]", "--out", str(path)]) == 0
    return json.loads(path.read_text())


def test_verify_declared_n_must_match_host_and_type(capsys, tmp_path):
    data = _solved_certificate(tmp_path)
    for n in (7, 16):
        data["n"] = n
        _assert_malformed(*_verify_text(capsys, tmp_path, json.dumps(data)))
    data["n"] = 14
    data["factor_type"] = [4, 12]
    _assert_malformed(*_verify_text(capsys, tmp_path, json.dumps(data)))
    fixture = json.loads(FIXTURE.read_text())  # JStar m = 6 folds to order 12
    fixture["n"] = 16
    _assert_malformed(*_verify_text(capsys, tmp_path, json.dumps(fixture)))


def test_verify_vertex_tokens_canonical_or_malformed(capsys, tmp_path):
    from oberwolfach.hosts import HostDescriptor
    from strip import DirectedCycle, TwoRegularDigraph, verify_objects

    clean = _solved_certificate(tmp_path)
    token = clean["factors"][0][0][0]
    for variant in (" " + token, token + " ", token[0] + "0" + token[1:]):
        data = json.loads(json.dumps(clean))
        data["factors"][0][0][0] = variant
        _assert_malformed(*_verify_text(capsys, tmp_path, json.dumps(data)))
    # a canonical token outside the host still gets the full report
    data = json.loads(json.dumps(clean))
    data["factors"][0][0][0] = token[0] + "7"
    path = tmp_path / "foreign.json"
    path.write_text(json.dumps(data))
    assert main(["verify", str(path)]) == 1
    printed = capsys.readouterr().out
    factors = [
        TwoRegularDigraph(DirectedCycle(map(parse_vertex, c)) for c in f)
        for f in data["factors"]
    ]
    expected = verify_objects(
        HostDescriptor("CompleteSymmetric", 14), factors, parse_cycle_type("[4,10]")
    )
    assert printed == json.dumps(expected.to_json(), indent=2) + "\n"
    details = {c["name"]: c["detail"] for c in json.loads(printed)["checks"]}
    assert details["coverage"] == "missing 2, extra 2"
    assert details["spanning"] == "non-spanning factors: [0]"


def test_solve_refuses_orders_above_the_cap(capsys):
    import time

    start = time.perf_counter()
    for factor in ("[1000000000000002]", "[2^500000000000001]"):
        code = main(["solve", "--n", "1000000000000002", "--factor", factor])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error: n = 1000000000000002 is above the largest")
        assert len(err.strip().splitlines()) == 1
    assert time.perf_counter() - start < 0.5


@pytest.mark.parametrize("n", ["-6", "-2", "0"])
def test_solve_refuses_orders_below_2(capsys, n):
    """The CLI refuses the order with the library's one line, before the
    factor spec's sum is compared with it."""
    assert main(["solve", "--n", n, "--factor", "[2]"]) == 1
    assert capsys.readouterr().err == f"error: n = {n} is below the least order 2\n"


# one edit per schema rule: a value of the wrong JSON type, which int() or
# bool() would once have coerced into a passing certificate
_SCHEMA_EDITS = (
    (("n",), 14.9, "n must be an integer, not a number"),
    (("n",), True, "n must be an integer, not a boolean"),
    (("factor_type",), [4.5, 10], "factor_type[0] must be an integer, not a number"),
    (("factor_type",), ["4", "10"], "factor_type[0] must be an integer, not a string"),
    (("factor_type",), [4, True], "factor_type[1] must be an integer, not a boolean"),
    (("factor_type",), "[4,10]", "factor_type must be an array, not a string"),
    (("host", "m"), 14.2, "host.m must be an integer, not a number"),
    (("host", "m"), "14", "host.m must be an integer, not a string"),
    (("host", "m"), True, "host.m must be an integer, not a boolean"),
    (("host", "kind"), ["WStar"], "host.kind must be a string, not an array"),
    (("host",), ["CompleteSymmetric", 14], "host must be an object, not an array"),
    (("verified",), "no", "verified must be a boolean, not a string"),
    (("verified",), 1, "verified must be a boolean, not an integer"),
    (("factors",), {"0": []}, "factors must be an array, not an object"),
    (("factors", 3), "x0", "factors[3] must be an array, not a string"),
    (("factors", 3, 1), {"x0": "x1"}, "factors[3][1] must be an array, not an object"),
)


def test_verify_checks_field_types_before_anything_else(capsys, tmp_path):
    """Each schema violation on a real certificate exits 1 with one line
    naming the field and the JSON type found."""
    clean = _solved_certificate(tmp_path)
    for keys, value, message in _SCHEMA_EDITS:
        data = json.loads(json.dumps(clean))
        node = data
        for key in keys[:-1]:
            node = node[key]
        node[keys[-1]] = value
        code, err = _verify_text(capsys, tmp_path, json.dumps(data))
        assert (code, err) == (1, f"error: malformed input: {message}\n")
    for key in ("n", "factor_type", "host", "factors", "verified"):
        data = {k: v for k, v in clean.items() if k != key}
        code, err = _verify_text(capsys, tmp_path, json.dumps(data))
        assert (code, err) == (1, f"error: malformed input: missing field {key}\n")


# a certificate written before 0.3.0 ends with a seed, always 0
_LEGACY_TAIL = ',\n  "seed": 0\n}\n'


def test_verify_reads_a_certificate_with_a_seed_as_one_without(capsys, tmp_path):
    """A certificate in the format before 0.3.0, the same text with
    ``"seed": 0`` after ``verified``, gets the same exit code, stdout and
    stderr as the text without it: clean, with a factor dropped, with a
    foreign vertex and with a shared vertex."""
    path = tmp_path / "cert.json"
    assert main(["solve", "--n", "14", "--factor", "[4,10]", "--out", str(path)]) == 0
    clean = path.read_text()
    dropped = json.loads(clean)
    del dropped["factors"][5]
    foreign = json.loads(clean)
    foreign["factors"][2][0][1] = "x9"
    shared = json.loads(clean)
    shared["factors"][0][1][0] = shared["factors"][0][0][0]
    texts = [clean] + [json.dumps(d, indent=2) + "\n" for d in (dropped, foreign, shared)]
    codes = []
    for text in texts:
        assert text.endswith("\n}\n") and '"seed"' not in text
        legacy = text[: -len("\n}\n")] + _LEGACY_TAIL
        result = _verify_all(capsys, tmp_path, text)
        assert _verify_all(capsys, tmp_path, legacy) == result
        codes.append(result[0])
    assert codes == [0, 1, 1, 1]


@pytest.mark.parametrize(
    "seed", [0, -7, 1.5, False, "3", None, [1], {"seed": 0}], ids=repr
)
def test_verify_ignores_a_seed_of_any_json_type(capsys, tmp_path, seed):
    """``seed`` is no field of the schema, so a value of any JSON type is
    read as if the key were absent, as any other unnamed key is."""
    clean = _solved_certificate(tmp_path)
    result = _verify_all(capsys, tmp_path, json.dumps(clean))
    assert result[0] == 0
    assert _verify_all(capsys, tmp_path, json.dumps(dict(clean, seed=seed))) == result


def test_verify_error_lines_stay_short(capsys, tmp_path):
    """No error line echoes an unbounded piece of the input."""
    clean = _solved_certificate(tmp_path)
    edits = (
        ("factor_type", list(range(2, 1_000_000))),
        ("factors", [[["z" * 1_000_000, "x0"]]] + clean["factors"]),
        ("factors", [[["x0"] * 100_000]] + clean["factors"]),
        ("host", {"kind": "K" * 1_000_000, "m": 14}),
        ("host", {"kind": "CompleteSymmetric", "m": 9 * 10**4299}),
        ("host", {"kind": "WStar", "m": 9 * 10**4299}),
    )
    for key, value in edits:
        data = dict(clean, **{key: value})
        code, err = _verify_text(capsys, tmp_path, json.dumps(data))
        assert code == 1
        assert err.startswith("error: ") and err.count("\n") == 1, err[:200]
        assert len(err.encode()) < 1024, err[:200]
    try:
        parse_vertex("z" * 1_000_000)
    except ValueError as exc:
        assert len(str(exc)) < 200


def test_main_reuses_its_parser(capsys, tmp_path):
    """Repeated in-process calls of ``main`` give identical results."""
    path = tmp_path / "cert.json"
    assert main(["solve", "--n", "10", "--factor", "[4,6]", "--out", str(path)]) == 0
    broken = tmp_path / "broken.json"
    data = json.loads(path.read_text())
    del data["factors"][2]
    broken.write_text(json.dumps(data))
    runs = []
    for _ in range(2):
        for p in (path, broken):
            code = main(["verify", str(p)])
            runs.append((code, capsys.readouterr()))
    assert runs[:2] == runs[2:]
    assert [code for code, _ in runs] == [0, 1, 0, 1]


@pytest.mark.parametrize(
    "argv",
    [
        ["solve", "--n", "14", "--factor", "[14]", "--seed", "3"],
        ["solve", "--n", "14"],
        ["solve", "--n", "abc", "--factor", "[14]"],
        ["solve", "--n", "14", "--factor", "[14]", "--bogus"],
        ["solve", "--n", "14", "--factor", "[14]", "a\nb"],
        ["selftest", "--seed", "3"],
        [],
    ],
)
def test_usage_errors_exit_1_with_one_line(capsys, argv):
    """Exit 2 means proven nonexistence, so a usage error must not use it."""
    assert main(argv) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err.count("\n") == 1 and err.startswith("error: "), err


def _subcommand_options():
    """(subcommand, option) for every long option of every subcommand."""
    (sub,) = [
        a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction)
    ]
    return [
        (name, option)
        for name, parser in sub.choices.items()
        for action in parser._actions
        for option in action.option_strings
        if option.startswith("--") and option != "--help"
    ]


_REQUIRED = {"solve": ["--n", "10", "--factor", "[10]"]}


@pytest.mark.parametrize("command, option", _subcommand_options())
def test_an_option_joined_to_a_double_dash_is_a_usage_error(capsys, command, option):
    """``--opt=--`` reaches argparse's handler as an empty list, past
    ``type=`` and ``choices=``; it is refused like a missing value, with one
    line and exit 1, and nothing is written."""
    argv = [command, *_REQUIRED.get(command, []), f"{option}=--"]
    assert main(argv) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err.count("\n") == 1 and err.startswith(f"error: argument {option}"), err


def test_every_subcommand_option_is_probed():
    assert set(_subcommand_options()) == {
        ("solve", "--n"),
        ("solve", "--factor"),
        ("solve", "--format"),
        ("solve", "--out"),
        ("selftest", "--max-n"),
        ("tables", "--check"),
        ("tables", "--dump"),
    }


def test_help_exits_0_and_offers_no_seed(capsys):
    for command in ("solve", "selftest"):
        assert main([command, "-h"]) == 0
        assert "--seed" not in capsys.readouterr().out


def test_factor_digits_are_ascii(capsys):
    # Arabic-Indic 4 and 10: int() reads them, the spec grammar does not
    assert main(["solve", "--n", "14", "--factor", "[٤,١٠]"]) == 1
    assert capsys.readouterr().err.startswith("error: bad factor spec component")
    with pytest.raises(ValueError):
        parse_cycle_type("[٤,١٠]", 14)


@pytest.mark.parametrize(
    "factor",
    ["[" + "a" * 5000 + "]", "[2^" + "0" * 1000 + "]"],
    ids=["long-component", "long-zero-exponent"],
)
def test_factor_error_echo_is_clipped(capsys, factor):
    assert main(["solve", "--n", "14", "--factor", factor]) == 1
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and len(err.encode()) < 200, len(err)


@pytest.mark.parametrize(
    "factor",
    ["[" + "9" * 5000 + "]", "[2^" + "9" * 5000 + "]"],
    ids=["length", "exponent"],
)
def test_factor_numbers_of_thousands_of_digits_are_refused(capsys, factor):
    """A length or exponent of thousands of digits is a bad component, refused
    before ``int()`` meets the interpreter's digit limit."""
    assert main(["solve", "--n", "14", "--factor", factor]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: bad factor spec component: ")
    assert err.count("\n") == 1 and len(err.encode()) < 200, err


@pytest.mark.parametrize("field", ["n", "host.m", "factor_type", "note"])
def test_verify_integer_of_thousands_of_digits_is_one_plain_line(capsys, tmp_path, field):
    """An integer literal longer than the interpreter converts is named as
    such, not with the interpreter's advice to change its limit, in a field
    of the schema or under a key the schema ignores (``note``)."""
    data = json.loads(FIXTURE.read_text())
    if field == "host.m":
        data["host"]["m"] = "HUGE"
    elif field == "factor_type":
        data["factor_type"] = ["HUGE"]
    else:
        data[field] = "HUGE"
    text = json.dumps(data).replace('"HUGE"', "-" + "9" * 5000)
    code, err = _verify_text(capsys, tmp_path, text)
    _assert_malformed(code, err)
    assert err == "error: malformed input: an integer literal has more than 4300 digits\n"


@pytest.mark.parametrize("digits", [300, 301, 5000])
def test_verify_vertex_block_numbers_of_over_300_digits_are_bad_tokens(
    capsys, tmp_path, digits
):
    """A block number of at most 300 digits names a foreign vertex, whose
    arcs the report counts as extra; a longer one is a bad vertex token,
    refused before ``int()`` meets the interpreter's digit limit."""
    data = _solved_certificate(tmp_path)
    token = "y" + "9" * digits
    data["factors"][0][0][0] = token
    path = tmp_path / "input.json"
    path.write_text(json.dumps(data))
    code = main(["verify", str(path)])
    out, err = capsys.readouterr()
    assert code == 1
    if digits <= 300:
        assert err == ""
        details = {c["name"]: c["detail"] for c in json.loads(out)["checks"]}
        assert details["coverage"] == "missing 2, extra 2"
        assert details["spanning"] == "non-spanning factors: [0]"
    else:
        _assert_malformed(code, err)
        assert err.startswith(f"error: malformed input: bad vertex token: '{token[:59]}")
        assert f"({digits + 3} characters)" in err
