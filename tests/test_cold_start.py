"""What every process pays before its first solve: importing the package
and loading the embedded tables.  The records are named tuples, so the
import pulls in neither ``dataclasses`` nor ``inspect``, each distinct
table token is parsed once per process, and the table audit builds each
arc-code set it asks for once."""

import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import oberwolfach
from oberwolfach import tables
from oberwolfach.core import parse_vertex
from oberwolfach.hosts import strip_id

# Every embedded table, as written: paths, cycles and the rows that hold them.
TABLES = (
    tables.LEFT_CAP_PATHS,
    tables.CENTRE_PAIRS,
    tables.RIGHT_CAPS,
    tables.PIECES,
    tables.FIGURE_4_8,
)


def _child(snippet: str) -> str:
    """The stdout of a fresh interpreter running ``snippet`` on the package
    this process imports, writing no bytecode; it must exit 0."""
    package_root = str(Path(oberwolfach.__file__).resolve().parent.parent)
    pythonpath = os.pathsep.join(filter(None, [package_root, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-B", "-c", snippet],
        capture_output=True,
        text=True,
        env={"PATH": "/usr/bin:/bin", "PYTHONPATH": pythonpath},
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def _strings(obj):
    if isinstance(obj, str):
        yield obj
    elif isinstance(obj, (tuple, dict)):
        for item in obj.values() if isinstance(obj, dict) else obj:
            yield from _strings(item)


def _tokens() -> set:
    return {t for text in _strings(TABLES) for t in re.findall(r"[^\s()]+", text)}


def test_cli_import_loads_neither_dataclasses_nor_inspect():
    added = _child(
        "import sys\n"
        "before = set(sys.modules)\n"
        "import oberwolfach.cli\n"
        "print(*sorted(set(sys.modules) - before))\n"
    ).split()
    assert "oberwolfach.cli" in added
    assert not {"dataclasses", "inspect"} & set(added), added


def test_every_table_token_resolves_as_parsed():
    tokens = _tokens()
    assert tokens == {f"{side}{i}" for side in "xy" for i in range(10)}
    for t in tokens:
        assert tables._token_id(t) == strip_id(parse_vertex(t)), t


@pytest.mark.parametrize("text, bad", [("x0 z1", "'z1'"), ("y2 x01 x3", "'x01'")])
def test_a_malformed_table_token_is_refused_every_time(text, bad):
    for _ in range(2):  # a refusal is not cached
        with pytest.raises(ValueError, match=f"^bad vertex token: {bad}$"):
            tables._p(text)


def test_a_cold_table_check_parses_each_token_once():
    out = _child(
        "import contextlib, io\n"
        "from oberwolfach import cli, tables\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    code = cli.main(['tables', '--check'])\n"
        "print(code, tables._token_id.cache_info().misses)\n"
    )
    assert out.split() == ["0", str(len(_tokens()))] == ["0", "20"]


def test_a_cold_table_check_builds_each_arc_code_set_once():
    """The audit asks for the opened host's arc codes at seven widths,
    m = 2..8, in turn; each set is built once."""
    out = _child(
        "import contextlib, io\n"
        "from oberwolfach import cli, hosts\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    code = cli.main(['tables', '--check'])\n"
        "print(code, hosts.arc_codes.cache_info().misses)\n"
    )
    assert out.split() == ["0", "7"]
