#!/usr/bin/env python3
"""Run every ```` ```python ```` block of a markdown file, each on its own.

Each block runs in a fresh interpreter, from a new temporary working
directory (the sweep example writes ``out/sweep/`` and the observability
examples write trace files into the current directory), with the repo's
``src/`` on ``PYTHONPATH``.  A block that raises fails the run, so an
example cannot go on naming an API the code no longer has — which is also
why every block must be self-contained: no block sees another's names.

Exit status 0 when every block runs, 1 otherwise (each failure is reported
as ``file:line`` plus the tail of the block's stderr).  Stdlib only.

Usage::

    python tools/run_readme_blocks.py [file.md]      # default: README.md
"""

from __future__ import annotations

import os
import re
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
FENCE = re.compile(r"^```python\n(.*?)^```", re.M | re.S)
TIMEOUT_S = 600


def python_blocks(text: str) -> list[tuple[int, str]]:
    """``(line of the opening fence, source)`` for every python block."""
    return [(text.count("\n", 0, match.start()) + 1, match.group(1))
            for match in FENCE.finditer(text)]


def run_block(source: str, env: dict) -> tuple[bool, str]:
    """Run one block from a temporary directory; (ok, stderr tail)."""
    with tempfile.TemporaryDirectory() as cwd:
        try:
            done = subprocess.run([sys.executable, "-c", source], cwd=cwd,
                                  env=env, capture_output=True, text=True,
                                  timeout=TIMEOUT_S)
        except subprocess.TimeoutExpired:
            return False, f"timed out after {TIMEOUT_S} s"
    tail = "\n".join(done.stderr.strip().splitlines()[-6:])
    return done.returncode == 0, tail


def main(argv: list[str]) -> int:
    path = Path(argv[0]) if argv else ROOT / "README.md"
    paths = [str(ROOT / "src"), os.environ.get("PYTHONPATH", "")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, paths)))
    blocks = python_blocks(path.read_text())
    failures = 0
    for line, source in blocks:
        start = time.perf_counter()
        ok, tail = run_block(source, env)
        print(f"{path.name}:{line}: {'ok' if ok else 'FAILED'} "
              f"({time.perf_counter() - start:.1f} s)")
        if not ok:
            failures += 1
            print("    " + tail.replace("\n", "\n    "))
    print(f"{len(blocks) - failures}/{len(blocks)} python blocks ran")
    return 1 if failures or not blocks else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
