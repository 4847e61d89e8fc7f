#!/usr/bin/env python3
"""Which ``src/`` functions does the product reach?  A reach census.

Every ``def`` under ``src/repro`` is a *defined* function.  The census
hooks ``sys.setprofile`` / ``threading.setprofile`` and drives the
product's three surfaces in this one process:

* ``repro.fidelity.main()`` — the paper scoreboard;
* every ``examples/*.py`` through ``runpy`` at ``REPRO_DURATION_SCALE=0.2``;
* the benchmark suite as ``benchmarks/suite/run.py`` drives it at its
  default seed, through the suite's own ``child.py`` and ``kernels.py``
  (imported read-only, no bytecode written): each workload's timed
  repetition and its check pass (``run_until_idle=True`` plus the
  per-workload oracles), and one sample of every ``--layers`` kernel.
  ``sweep_seeds`` runs on the suite's 2-worker pool and once more on
  ``SweepRunner(workers=1)``: a pool worker is a separate process the
  profile hook cannot see, so the inline run is what reaches the task's
  own code (``_execute_task`` and the experiment it builds).

A function whose code object ran at least once is *reached*.  Every
unreached function needs exactly one entry in ``tools/census.txt``::

    repro.obs.perfetto:write_network_trace  api
    repro.faults.plan:FaultSpec.resolve     pending 1b

``api`` is a documented entry a user calls (with a test); ``pending
<item>`` names the open ROADMAP item that owns it.  The census exits 1 on
an unreached function with no entry, on an entry that names a reached or
missing function, and on a ``pending`` entry whose item is not open in
``ROADMAP.md`` (landed, or gone), so the list cannot rot.  Names are
``module:qualname``; a nested function is ``outer.<locals>.inner``, and a
qualname defined twice in a module (a property and its setter) takes
``#2``, ``#3`` … in source order.  The surfaces' own output is discarded;
the counts and any errors go to stdout.  Stdlib only; ~50 s on a 2-core
box.

Usage::

    python tools/census.py
"""

from __future__ import annotations

import ast
import contextlib
import io
import os
import re
import runpy
import sys
import threading
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
LIST = ROOT / "tools" / "census.txt"
ROADMAP = ROOT / "ROADMAP.md"
SUITE = ROOT / "benchmarks" / "suite"
REASON = re.compile(r"api|pending \S+")
ITEM = re.compile(r"(\d+)\. \*\*|\s+- \*\*(\d+[a-z])\.|\s+- (?:\*\*)?\(([a-z])\) ")


def defined_functions(src: Path = SRC) -> dict[tuple[str, int], str]:
    """``(file, first line) -> module:qualname`` for every ``def`` under
    ``src/repro``.

    The first line is what the code object reports: the first decorator's
    line for a decorated function, else the ``def`` line.
    """
    functions: dict[tuple[str, int], str] = {}
    for path in sorted((src / "repro").rglob("*.py")):
        module = ".".join(path.relative_to(src).with_suffix("").parts)
        module = module.removesuffix(".__init__")
        seen: dict[str, int] = {}

        def visit(node: ast.AST, prefix: str) -> None:
            for child in ast.iter_child_nodes(node):
                if isinstance(child, ast.ClassDef):
                    visit(child, f"{prefix}{child.name}.")
                elif isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    qualname = prefix + child.name
                    seen[qualname] = seen.get(qualname, 0) + 1
                    if seen[qualname] > 1:
                        qualname += f"#{seen[qualname]}"
                    first = min([child.lineno] + [d.lineno for d in child.decorator_list])
                    functions[str(path), first] = f"{module}:{qualname}"
                    visit(child, f"{prefix}{child.name}.<locals>.")
                else:
                    visit(child, prefix)

        visit(ast.parse(path.read_text(encoding="utf-8")), "")
    return functions


def read_list(path: Path = LIST) -> tuple[dict[str, str], list[str]]:
    """The checked-in entries (name -> reason) and any malformed lines."""
    entries: dict[str, str] = {}
    errors: list[str] = []
    for number, line in enumerate(path.read_text().splitlines(), 1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        name, _, reason = line.partition(" ")
        reason = " ".join(reason.split())
        where = f"{path.name}:{number}"
        if not REASON.fullmatch(reason):
            errors.append(f"{where}: {name} has reason {reason!r}; "
                          f"want 'api' or 'pending <ROADMAP item>'")
        elif name in entries:
            errors.append(f"{where}: {name} is listed twice")
        entries[name] = reason
    return entries, errors


def open_items(path: Path = ROADMAP) -> set[str]:
    """Labels of the open items under ROADMAP's ``## Open items``: ``10``,
    ``1a``, ``4(b)``.

    An item is closed when the text after its bold title (and its
    ``[aims …]`` tag) starts with "Landed"; the parts of a closed item
    are closed too.
    """
    section = path.read_text(encoding="utf-8").split("\n## Open items", 1)[1]
    lines = section.split("\n#", 1)[0].splitlines()
    labels: set[str] = set()
    top, top_open = "", False
    for number, line in enumerate(lines):
        match = ITEM.match(line)
        if not match:
            continue
        heading = [line]
        for more in lines[number + 1:]:
            if not more.strip() or more.lstrip().startswith("- ") or ITEM.match(more):
                break
            heading.append(more.strip())
        after = " ".join(heading).split("**", 2)[-1]
        is_open = not re.match(r"\s*(\[[^\]]*\]\s*)?Landed", after)
        if match[1]:
            top, top_open = match[1], is_open
            label = top
        else:
            is_open = is_open and top_open
            label = match[2] or f"{top}({match[3]})"
        if is_open:
            labels.add(label)
    return labels


def closed_pending(entries: dict[str, str], labels: set[str]) -> list[str]:
    """One error per ``pending <item>`` entry whose item is not open."""
    return [f"pending on an item that is not open in ROADMAP.md: {name} ({reason})"
            for name, reason in sorted(entries.items())
            if reason.startswith("pending ") and reason.split()[1] not in labels]


def run_fidelity() -> None:
    from repro import fidelity
    fidelity.main()


def run_examples() -> None:
    os.environ["REPRO_DURATION_SCALE"] = "0.2"
    for path in sorted((ROOT / "examples").glob("*.py")):
        try:
            runpy.run_path(str(path), run_name="__main__")
        except SystemExit as stop:
            if stop.code not in (None, 0):
                raise RuntimeError(f"{path.name} exited {stop.code}") from None


def run_workloads() -> None:
    from repro.sweep import SweepRunner

    sys.path.insert(0, str(SUITE))
    sys.dont_write_bytecode = True       # the suite directory stays untouched
    try:
        import child
        import kernels
        from run import DEFAULT_SEED
        from workloads import READ_TPP, WORKLOADS, WRITE_TPP

        request = {"seed": DEFAULT_SEED}
        for workload in WORKLOADS.values():
            if workload.name == "sweep_seeds":
                child.run_sweep(workload, request, None)
                SweepRunner(workers=1, duration_s=workload.duration_s).run(
                    workload.build(DEFAULT_SEED).expand()).canonical_json()
                report = child.check_sweep(workload, request)
            else:
                child.run_experiment(workload, request, None)
                report = child.check_experiment(workload, request)
            if report["violations"]:
                raise RuntimeError(f"{workload.name}: {report['violations']}")
        for kernel in (kernels.heap_kernel, kernels.tcpu_kernel(READ_TPP),
                       kernels.tcpu_kernel(WRITE_TPP), kernels.codec_kernel,
                       kernels.collect_kernel):
            kernel()
    finally:
        sys.dont_write_bytecode = False
        sys.path.remove(str(SUITE))


def reached_code(surfaces) -> set[tuple[str, int]]:
    """``(file, first line)`` of every code object called under the surfaces."""
    called: set = set()

    def hook(frame, event, arg):
        if event == "call":
            called.add(frame.f_code)

    sys.setprofile(hook)
    threading.setprofile(hook)
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            for surface in surfaces:
                surface()
    finally:
        sys.setprofile(None)
        threading.setprofile(None)
    return {(code.co_filename, code.co_firstlineno) for code in called}


def check(defined: dict[tuple[str, int], str], reached: set[tuple[str, int]],
          entries: dict[str, str]) -> tuple[set[str], list[str]]:
    """The unreached names, and one error per unreached function without an
    entry, per entry naming a reached function and per entry naming none."""
    unreached = {name for key, name in defined.items() if key not in reached}
    names = set(defined.values())
    errors = [f"unreached and not listed: {name}"
              for name in sorted(unreached - set(entries))]
    errors += [f"listed but reached: {name} ({entries[name]})"
               for name in sorted(set(entries) & (names - unreached))]
    errors += [f"listed but not defined in src/: {name}"
               for name in sorted(set(entries) - names)]
    return unreached, errors


def main() -> int:
    sys.path.insert(0, str(SRC))
    defined = defined_functions()
    reached = reached_code((run_fidelity, run_examples, run_workloads))
    entries, errors = read_list()
    unreached, mismatches = check(defined, reached, entries)
    errors += mismatches + closed_pending(entries, open_items())
    reasons = Counter(entries[name] for name in unreached & set(entries))
    print(f"{len(defined)} functions defined in src/, {len(defined) - len(unreached)} "
          f"reached, {len(unreached)} unreached")
    for reason in sorted(reasons):
        print(f"  {reasons[reason]:4d}  {reason}")
    for error in errors:
        print(error)
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
