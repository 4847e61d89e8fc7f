"""``tools/check_doc_links.py`` resolves ``file.py::Symbol`` citations in the
docs and ``NAME.md`` citations in Python sources; ``tools/run_readme_blocks.py``
fails a README python block that does not run on its own."""

import importlib.util
import subprocess
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
CHECKER = [sys.executable, str(REPO / "tools" / "check_doc_links.py")]


def test_repo_docs_resolve():
    done = subprocess.run(CHECKER, capture_output=True, text=True)
    assert done.returncode == 0, done.stderr


def test_stale_symbol_citation_fails_with_file_and_line(tmp_path):
    doc = tmp_path / "stale.md"
    doc.write_text(
        "Fine: `tests/test_sim.py::TestPeriodicProcess` and "
        "`core/tcpu.py::TCPU::counters`.\n"
        "Gone: `tests/test_port_link.py::TestDeliverBurst`.\n"
        "Half gone: `core/tcpu.py::TCPU::telemetry_counters`.\n")
    done = subprocess.run(CHECKER + [str(doc)], capture_output=True, text=True)
    assert done.returncode == 1
    errors = done.stderr.splitlines()
    assert len(errors) == 2
    assert errors[0].startswith(f"{doc}:2:") and "TestDeliverBurst" in errors[0]
    assert errors[1].startswith(f"{doc}:3:") and "telemetry_counters" in errors[1]


def test_source_citing_a_missing_document_fails_with_file_and_line(tmp_path):
    source = tmp_path / "module.py"
    source.write_text(
        '"""A module.\n'
        '\n'
        'The deviation is documented in DESIGN.md.\n'
        '"""\n'
        '# see docs/NOWHERE.md as well\n')
    done = subprocess.run(CHECKER + [str(source)], capture_output=True, text=True)
    assert done.returncode == 1
    errors = done.stderr.splitlines()
    assert len(errors) == 2
    assert errors[0].startswith(f"{source}:3:") and "DESIGN.md" in errors[0]
    assert errors[1].startswith(f"{source}:5:") and "docs/NOWHERE.md" in errors[1]


def test_source_citing_existing_documents_passes(tmp_path):
    source = tmp_path / "module.py"
    source.write_text(
        '"""Recorded in docs/PAPER_MAP.md; see also ARCHITECTURE.md\n'
        'and the README.md at the root."""\n')
    done = subprocess.run(CHECKER + [str(source)], capture_output=True, text=True)
    assert done.returncode == 0, done.stderr


BLOCK_RUNNER = [sys.executable, str(REPO / "tools" / "run_readme_blocks.py")]


def test_block_runner_fails_a_fragment_and_runs_elsewhere(tmp_path):
    doc = tmp_path / "doc.md"
    doc.write_text(
        "```python\n"
        "open('out.txt', 'w').write('written')\n"
        "```\n"
        "```bash\n"
        "exit 1\n"
        "```\n"
        "```python\n"
        "result.journeys\n"
        "```\n")
    done = subprocess.run(BLOCK_RUNNER + [str(doc)], capture_output=True,
                          text=True, cwd=tmp_path)
    assert done.returncode == 1
    lines = done.stdout.splitlines()
    assert lines[0].startswith("doc.md:1: ok")
    assert lines[1].startswith("doc.md:7: FAILED")
    assert "NameError" in done.stdout
    assert lines[-1] == "1/2 python blocks ran"
    # Each block runs from its own temporary directory, not the caller's.
    assert not (tmp_path / "out.txt").exists()


def test_readme_python_blocks_compile():
    # Tier-1's cheap half of the docs job's README run: every block parses.
    spec = importlib.util.spec_from_file_location(
        "run_readme_blocks", REPO / "tools" / "run_readme_blocks.py")
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    blocks = tool.python_blocks((REPO / "README.md").read_text())
    assert len(blocks) >= 7
    for line, source in blocks:
        compile(source, f"README.md:{line}", "exec")
