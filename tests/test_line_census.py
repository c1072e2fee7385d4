"""The line census (``tests/line_census.py``) fails on an unreached line that
its allowlist does not list and on an allowlist entry that lists no
unreached line; run end to end on a two-function package."""

import json
import os
import subprocess
import sys
from pathlib import Path

import line_census
import pytest

CENSUS = Path(line_census.__file__)

MODULE = '''\
def reached(x):
    return [v for v in x]


def unreached(x):
    if x:
        return 1
    return 2
'''


def test_lines_belong_to_their_function(tmp_path):
    path = tmp_path / "mod.py"
    path.write_text(MODULE)
    lines = line_census.executable_lines(path)
    assert lines[1] == ("reached", "def reached(x):")
    assert lines[2] == ("reached", "return [v for v in x]")  # its comprehension's too
    assert lines[6] == ("unreached", "if x:")
    assert 3 not in lines and 4 not in lines


LINES = {"mod.py": {1: ("<module>", "def f():"), 2: ("f", "return 1"), 3: ("f", "return 2")}}


@pytest.mark.parametrize("allowed, problems", [
    ({("mod.py", "f", "return 2"): "why"}, []),
    ({}, ["mod.py:3 (f) is not reached and not listed: return 2"]),
    ({("mod.py", "f", "return 2"): "why", ("mod.py", "f", "return 1"): "why"},
     ["stale entry, no unreached line matches it: mod.py (f): return 1"]),
    ({("mod.py", "f", "return 2"): "why", ("mod.py", "g", "return 3"): "why"},
     ["stale entry, no unreached line matches it: mod.py (g): return 3"]),
], ids=["listed", "unlisted", "listed-but-reached", "listed-but-gone"])
def test_census_names_each_unlisted_line_and_stale_entry(allowed, problems):
    assert line_census.census(LINES, {"mod.py": {1, 2}}, allowed) == (problems, 1)


@pytest.mark.parametrize("entries, message", [
    ([{"file": "mod.py", "function": "f", "text": "return 2"}], "entry 0 needs"),
    ([{"file": "mod.py", "function": "f", "text": "return 2", "reason": "why"}] * 2,
     "entry 1 repeats"),
], ids=["no-reason", "repeated"])
def test_a_malformed_allowlist_is_rejected(tmp_path, entries, message):
    path = tmp_path / "allow.json"
    path.write_text(json.dumps(entries))
    with pytest.raises(ValueError, match=message):
        line_census.load_allowlist(path)


def run_census(tmp_path, entries):
    """(exit code, output) of the census of ``pkg`` under a one-test suite
    that calls ``reached`` only, with ``entries`` as the allowlist."""
    allowlist = tmp_path / "allow.json"
    allowlist.write_text(json.dumps(entries))
    proc = subprocess.run(
        [sys.executable, str(CENSUS), "--source", str(tmp_path / "src" / "pkg"),
         "--allowlist", str(allowlist), "-p", "no:cacheprovider", "test_pkg.py"],
        cwd=tmp_path, env={**os.environ, "PYTHONPATH": str(tmp_path / "src")},
        capture_output=True, text=True, timeout=120)
    return proc.returncode, proc.stdout


def test_census_end_to_end(tmp_path):
    (tmp_path / "src" / "pkg").mkdir(parents=True)
    (tmp_path / "src" / "pkg" / "__init__.py").write_text("")
    (tmp_path / "src" / "pkg" / "mod.py").write_text(MODULE)
    (tmp_path / "test_pkg.py").write_text(
        "from pkg.mod import reached\n\n\ndef test_reached():\n    assert reached([1]) == [1]\n")
    unreached = [{"file": "mod.py", "function": "unreached", "text": text, "reason": "why"}
                 for text in ("if x:", "return 1", "return 2")]

    code, out = run_census(tmp_path, unreached)
    assert code == 0, out
    assert "census: 3 of 6 executable lines under pkg reached; 3 allowlist entries" in out

    stale = {"file": "mod.py", "function": "reached", "text": "return [v for v in x]",
             "reason": "why"}
    code, out = run_census(tmp_path, unreached[1:] + [stale])
    assert code == 1
    assert out.splitlines()[-2:] == [
        "mod.py:6 (unreached) is not reached and not listed: if x:",
        "stale entry, no unreached line matches it: mod.py (reached): return [v for v in x]",
    ]
