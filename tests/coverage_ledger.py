"""Coverage ledger: every function line of src/torictower that tier-1 never
runs is listed in tests/coverage_ledger.json with its reason.

    PYTHONPATH=src python tests/coverage_ledger.py     (CPython 3.12 or later)

The script runs the tier-1 suite in this process under a sys.monitoring
collector.  Each LINE event records its line and returns DISABLE, so a
location costs one callback however often it runs.  A function's first line
(its `def`, first decorator or lambda) counts as run when the function
starts (PY_START), since no LINE event reports it on every version.  The
function lines are the lines of every function, method, lambda and generator
expression compiled from the package's modules; module and class bodies run
at import and are not counted.  A line that runs only in a child process
(the forked suite of `verify --suite all`) never reports here.

The lines that never ran are compared with the ledger, whose entries are
keyed by file, function (its qualified name) and line text, each with a
reason.  The script prints the mismatches and exits 1 on a line that never
ran and is not listed, on a listed line that ran or is gone, on an entry with
no reason, and when tier-1 fails.  Tier-1 runs with a fixed Hypothesis seed,
so one tree gives one result on one interpreter.
"""

import inspect
import json
import linecache
import os
import sys
from collections import Counter

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PACKAGE = os.path.join(ROOT, "src", "torictower")
LEDGER = os.path.join(ROOT, "tests", "coverage_ledger.json")


def _functions(code):
    """The function code objects nested in `code` (class bodies are walked,
    not counted)."""
    for const in code.co_consts:
        if isinstance(const, type(code)):
            if const.co_flags & inspect.CO_OPTIMIZED:  # a function, not a class body
                yield const
            yield from _functions(const)


def function_lines():
    """{(file, qualified name, line number)} over the package's functions."""
    lines = set()
    for name in sorted(os.listdir(PACKAGE)):
        if name.endswith(".py"):
            path = os.path.join(PACKAGE, name)
            with open(path, encoding="utf-8") as fh:
                module = compile(fh.read(), path, "exec")
            for code in _functions(module):
                lines.update((name, code.co_qualname, line) for _, _, line in code.co_lines() if line is not None)
    return lines


def run_tier1():
    """pytest's exit code on tier-1, and the function lines that ran."""
    mon = sys.monitoring
    tool, events = mon.COVERAGE_ID, mon.events
    ran = set()

    def record(code, line):
        path = code.co_filename
        if os.path.dirname(path) == PACKAGE:
            ran.add((os.path.basename(path), code.co_qualname, line))
        return mon.DISABLE

    mon.use_tool_id(tool, "coverage_ledger")
    mon.register_callback(tool, events.LINE, record)
    mon.register_callback(tool, events.PY_START, lambda code, offset: record(code, code.co_firstlineno))
    mon.set_events(tool, events.LINE | events.PY_START)
    try:
        code = pytest.main(["-q", "--continue-on-collection-errors", "--hypothesis-seed=0"])
    finally:
        mon.set_events(tool, 0)
        mon.free_tool_id(tool)
    return code, ran


def keyed(lines):
    """A Counter of (file, function, stripped line text) over `lines`."""
    return Counter((name, function, linecache.getline(os.path.join(PACKAGE, name), line).strip())
                   for name, function, line in lines)


def main():
    if not hasattr(sys, "monitoring"):
        print("coverage_ledger.py needs sys.monitoring (CPython 3.12 or later)")
        return 1
    os.chdir(ROOT)
    code, ran = run_tier1()
    import torictower

    if os.path.dirname(os.path.realpath(torictower.__file__)) != os.path.realpath(PACKAGE):
        print(f"tier-1 imported torictower from {torictower.__file__}, not {PACKAGE}")
        return 1
    if code != 0:
        print(f"tier-1 failed (pytest exit code {code}): a failing test leaves lines unrun")
        return 1
    with open(LEDGER, encoding="utf-8") as fh:
        entries = json.load(fh)
    listed = Counter((e["file"], e["function"], e["line"]) for e in entries)
    never_ran = keyed(function_lines() - ran)
    failures = 0
    for e in entries:
        if not e.get("reason"):
            print(f"NO REASON {e['file']}: {e['function']}: {e['line']}")
            failures += 1
    for (name, function, text), n in sorted((never_ran - listed).items()):
        print(f"UNLISTED  {name}: {function}: {text}" + (f" (x{n})" if n > 1 else ""))
        failures += 1
    for (name, function, text), n in sorted((listed - never_ran).items()):
        print(f"STALE     {name}: {function}: {text} is listed but ran or is gone" + (f" (x{n})" if n > 1 else ""))
        failures += 1
    print(f"{sum(never_ran.values())} function lines never ran, {len(entries)} listed, {failures} failures")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
