"""Line census: which executable lines of ``src/hilbench`` the tier-1 suite runs.

Runs the tier-1 suite (pytest, with any arguments given) in this process under
a ``sys.settrace`` hook that records the lines run in files under the source
directory, and takes each file's executable lines from its code objects'
``co_lines()``.  A line that the suite does not reach must be listed in the
allowlist, ``line_census_allowlist.json``, with the reason no test can reach
it.  An entry names its line by file, function (the qualified name of the
def, class or module that holds it) and source text, not by number, so that
an edit elsewhere in the file does not move it.

Exits 0 when every unreached line is listed and every entry names an
unreached line.  Otherwise it exits 1 and names each unlisted unreached line
and each stale entry.  A failing suite fails the census with pytest's exit
code.  Stdlib only; the suite's subprocesses and forked workers are not
traced.  Run it from the repository root:

    PYTHONPATH=src python tests/line_census.py
"""

from __future__ import annotations

import argparse
import json
import sys
import threading
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
SOURCE = REPO / "src" / "hilbench"
ALLOWLIST = Path(__file__).resolve().with_name("line_census_allowlist.json")
#: The tier-1 suite's own pytest arguments.
TIER1_ARGS = ["-q", "--continue-on-collection-errors"]


def executable_lines(path: Path) -> dict[int, tuple[str, str]]:
    """``{line: (function, source text)}`` of every line that an instruction
    of the compiled file maps to.  A line belongs to the innermost def, class
    or module that maps to it; comprehensions and lambdas belong to theirs."""
    text = path.read_text(encoding="utf-8")
    source = text.splitlines()
    owners: dict[int, tuple[int, str]] = {}  # line: (nesting depth, function)
    todo = [(compile(text, str(path), "exec"), 0, "<module>")]
    while todo:
        code, depth, owner = todo.pop()
        for _start, _end, line in code.co_lines():
            if line is not None and line > 0 and owners.get(line, (-1,))[0] < depth:
                owners[line] = (depth, owner)
        for const in code.co_consts:
            if hasattr(const, "co_lines"):
                named = not const.co_name.startswith("<")
                todo.append((const, depth + named,
                             getattr(const, "co_qualname", const.co_name) if named else owner))
    return {line: (owner, source[line - 1].strip()) for line, (_depth, owner) in owners.items()}


def trace_lines(source: Path, run):
    """Call ``run()`` under a trace hook; return its result and ``{path:
    set of lines}`` of the lines it ran in files under ``source``."""
    root = source.resolve()
    reached: dict[Path, set[int]] = {}
    tracers = {}  # co_filename: its line tracer, or None outside ``source``

    def on_call(frame, _event, _arg):
        name = frame.f_code.co_filename
        try:
            return tracers[name]
        except KeyError:
            pass
        tracer = None
        path = Path(name).resolve()
        if root in path.parents:
            add = reached.setdefault(path, set()).add

            def tracer(frame, event, _arg):
                if event == "line":
                    add(frame.f_lineno)
                return tracer
        tracers[name] = tracer
        return tracer

    previous = sys.gettrace(), threading.gettrace()
    threading.settrace(on_call)
    sys.settrace(on_call)
    try:
        result = run()
    finally:
        sys.settrace(previous[0])
        threading.settrace(previous[1])
    return result, reached


def load_allowlist(path: Path) -> dict[tuple[str, str, str], str]:
    """``{(file, function, text): reason}`` of the allowlist file."""
    entries = {}
    for i, entry in enumerate(json.loads(path.read_text(encoding="utf-8"))):
        key = tuple(entry.get(k) for k in ("file", "function", "text"))
        if not all(isinstance(v, str) and v for v in (*key, entry.get("reason"))):
            raise ValueError(f"{path}: entry {i} needs a non-empty file, function, text "
                             "and reason")
        if key in entries:
            raise ValueError(f"{path}: entry {i} repeats {key}")
        entries[key] = entry["reason"]
    return entries


def census(lines: dict[str, dict[int, tuple[str, str]]], reached: dict[str, set[int]],
           allowed: dict[tuple[str, str, str], str]) -> tuple[list[str], int]:
    """The problems of a census and the number of unreached lines: each
    unreached line that no entry lists, then each entry that lists no
    unreached line.  ``lines`` and ``reached`` are keyed by file name."""
    problems, listed = [], set()
    n_unreached = 0
    for name, file_lines in lines.items():
        hit = reached.get(name, set())
        for line, (function, text) in sorted(file_lines.items()):
            if line in hit:
                continue
            n_unreached += 1
            key = (name, function, text)
            if key in allowed:
                listed.add(key)
            else:
                problems.append(f"{name}:{line} ({function}) is not reached and not "
                                f"listed: {text}")
    for name, function, text in allowed.keys() - listed:
        problems.append(f"stale entry, no unreached line matches it: {name} ({function}): "
                        f"{text}")
    return problems, n_unreached


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        description="Run the tier-1 suite under a line trace and check every unreached line "
                    "of the source directory against the allowlist; other arguments go to "
                    "pytest.")
    parser.add_argument("--source", type=Path, default=SOURCE)
    parser.add_argument("--allowlist", type=Path, default=ALLOWLIST)
    args, pytest_args = parser.parse_known_args(argv)
    allowed = load_allowlist(args.allowlist)
    source = args.source.resolve()

    import pytest
    code, reached = trace_lines(source, lambda: pytest.main(TIER1_ARGS + pytest_args))
    if code != 0:
        print(f"census: the suite failed (pytest exit code {int(code)}); no census taken")
        return int(code)
    files = sorted(source.rglob("*.py"))
    lines = {p.relative_to(source).as_posix(): executable_lines(p) for p in files}
    hits = {p.relative_to(source).as_posix(): reached.get(p, set()) for p in files}
    problems, n_unreached = census(lines, hits, allowed)
    total = sum(map(len, lines.values()))
    print(f"census: {total - n_unreached} of {total} executable lines under {source.name} "
          f"reached; {len(allowed)} allowlist entries")
    for problem in problems:
        print(problem)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
