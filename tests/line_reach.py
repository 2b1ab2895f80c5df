"""Lines of ``src/haarfactor`` that the test suite, or the program's own
traffic, never runs.

Runs pytest in this process under a line tracer (``sys.settrace`` for the
calling thread, ``threading.settrace`` for every thread started after it,
so the stripes of ``haarsys._striped`` count too) that records only frames
of ``src/haarfactor``, then prints each module's executable lines that no
test reached, as line ranges, and the total.  A module's executable lines
are the lines its compiled code objects, nested ones included, map
instructions to.  Lines that run only in a subprocess count as unreached.

With ``--traffic`` it traces the program's traffic instead of pytest: one
seed-0 pass of each workload that ``bench/workloads.py`` builds (its
artifacts go to a temporary directory), then each command of ``cli.main``
at its defaults, with every printed report discarded.  The lines it leaves
unreached are those that only tests run, or that nothing runs.

Usage (from the repository root; pytest does not collect this file)::

    python tests/line_reach.py                 # runs ``pytest tests -q``
    python tests/line_reach.py tests/test_cli.py -q -x
    python tests/line_reach.py --traffic

The suite takes about twice as long as without the tracer.  The exit code
is pytest's, or with ``--traffic`` 0 once every job and command has run.
"""

import contextlib
import io
import os
import sys
import tempfile
import threading
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "haarfactor"


def executable_lines(path: Path) -> set[int]:
    """Every line that an instruction of the module's code maps to."""
    lines, stack = set(), [compile(path.read_text(), str(path), "exec")]
    while stack:
        code = stack.pop()
        lines.update(line for _, _, line in code.co_lines() if line)
        stack.extend(c for c in code.co_consts if hasattr(c, "co_lines"))
    return lines


def ranges(lines) -> str:
    """``1-3, 7`` for the lines 1, 2, 3 and 7."""
    spans: list[list[int]] = []
    for line in sorted(lines):
        if spans and line == spans[-1][1] + 1:
            spans[-1][1] = line
        else:
            spans.append([line, line])
    return ", ".join(f"{a}-{b}" if a != b else f"{a}" for a, b in spans)


def traced_run(run) -> tuple[int, dict[str, set[int]]]:
    """``run()``'s exit code and, per file of the package, the lines run."""
    prefix = str(PACKAGE) + os.sep
    reached: dict[str, set[int]] = {}
    kept: dict[str, set[int] | None] = {}

    def local(frame, event, arg):
        if event == "line":
            kept[frame.f_code.co_filename].add(frame.f_lineno)
        return local

    def start(frame, event, arg):
        name = frame.f_code.co_filename
        if name not in kept:
            real = os.path.realpath(name)
            kept[name] = (
                reached.setdefault(real, set()) if real.startswith(prefix) else None
            )
        return local if kept[name] is not None else None

    threading.settrace(start)
    sys.settrace(start)
    try:
        code = run()
    finally:
        sys.settrace(None)
        threading.settrace(None)
    return int(code), reached


def traffic() -> int:
    """One seed-0 pass of each benchmark workload, then every command at its
    defaults (``compose`` and ``check-distribution`` refuse for want of
    ``--in``), printing nothing."""
    sys.path.insert(0, str(ROOT / "bench"))
    import workloads
    from haarfactor import cli

    quiet = io.StringIO()
    with tempfile.TemporaryDirectory() as work, contextlib.redirect_stdout(
        quiet
    ), contextlib.redirect_stderr(quiet):
        for name in workloads.WORKLOADS:
            for job in workloads.build(name, 0, Path(work) / name):
                job.run()
        for command in sorted(cli._HANDLERS):
            cli.main([command])
    return 0


def main(argv: list[str]) -> int:
    os.chdir(ROOT)
    sys.path.insert(0, str(ROOT / "src"))
    if argv == ["--traffic"]:
        code, reached = traced_run(traffic)
    else:
        import pytest

        args = argv or ["tests", "-q", "-p", "no:cacheprovider"]
        code, reached = traced_run(lambda: pytest.main(args))
    total = missed = 0
    for path in sorted(PACKAGE.glob("*.py")):
        lines = executable_lines(path)
        unreached = lines - reached.get(str(path.resolve()), set())
        total += len(lines)
        missed += len(unreached)
        if unreached:
            print(f"{path.name}: {len(unreached)} of {len(lines)} unreached: "
                  f"{ranges(unreached)}")
    print(f"unreached: {missed} of {total} executable lines in src/haarfactor")
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
