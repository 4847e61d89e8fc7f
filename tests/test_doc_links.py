"""``tools/check_doc_links.py`` resolves ``file.py::Symbol`` citations in the
docs and ``NAME.md`` citations in Python sources."""

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
