"""The benchmark suite binds ``repro`` by name; a run that cannot start must
fail here, not in the benchmark pipeline.

``benchmarks/suite/`` is frozen (``BENCHMARK.json`` lists it as the
benchmark's own files), reads the components' public counters attribute by
attribute (``child.py::experiment_counts``), wraps public methods by
``(class, name)`` (``spans.py::span_targets``) and drives standalone layers
in its ``--layers`` kernels (``kernels.py``: the TCPU, the codec, a bare
``Simulator`` and a delta ``CollectPlane``).  Renaming any of those, or
moving a pinned digest, breaks every later benchmark run; these tests spawn
the suite's own code in a child process the way ``run.py`` does, so the
break is a red tier-1 test first.  Nothing under ``benchmarks/suite/`` is imported into the
test process or edited.
"""

import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parent.parent
SUITE = REPO / "benchmarks" / "suite"
ENV = dict(os.environ, PYTHONHASHSEED="0",
           PYTHONPATH=os.pathsep.join([str(REPO / "src"), str(SUITE)]))
SEED = 1
PINS = json.loads((SUITE / "expected.json").read_text(encoding="utf-8"))[str(SEED)]


def child(workload: str, mode: str) -> dict:
    """One ``child.py`` repetition in ``run.py``'s form; its JSON report."""
    request = {"workload": workload, "seed": SEED, "mode": mode,
               "spawned_at": time.time()}
    done = subprocess.run([sys.executable, str(SUITE / "child.py"), json.dumps(request)],
                          cwd=REPO, env=ENV, capture_output=True, text=True,
                          timeout=120)
    assert done.returncode == 0, done.stderr[-2000:]
    return json.loads(done.stdout.strip().splitlines()[-1])


def test_every_span_target_resolves():
    # Tracer.install wraps vars(cls)[method]: the method must be defined on
    # the class itself, under that name.
    probe = ("from spans import span_targets\n"
             "targets = span_targets()\n"
             "missing = [f'{cls.__name__}.{method}' for cls, method, _ in targets\n"
             "           if method not in vars(cls)]\n"
             "assert len(targets) >= 18 and not missing, missing\n")
    done = subprocess.run([sys.executable, "-c", probe], cwd=REPO, env=ENV,
                          capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr[-2000:]


def test_every_layer_kernel_runs_once():
    # ``run.py --layers`` runs kernels.main(): each kernel body repeated for
    # SAMPLES samples of >= MIN_SAMPLE_S.  Shrunk to one sample of one body
    # each, the same main() exercises every kernel it lists.
    probe = ("import kernels\n"
             "kernels.MIN_SAMPLE_S, kernels.SAMPLES = 1e-12, 1\n"
             "kernels.main()\n")
    done = subprocess.run([sys.executable, "-c", probe], cwd=REPO, env=ENV,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr[-2000:]
    report = json.loads(done.stdout.strip().splitlines()[-1])
    assert "collect.iso_parts_per_s" in report and len(report) >= 5
    for name, entry in report.items():
        assert len(entry["samples"]) == 1 and entry["samples"][0] > 0, name


@pytest.mark.parametrize("workload", ["monitor_collect", "probe_write"])
def test_child_runs_and_lands_on_its_pin(workload):
    timed = child(workload, "timed")
    assert timed["violations"] == []
    assert timed["ops_attempted"] > 0 and timed["ops_failed"] == 0
    assert timed["digest"] == PINS[workload]
    assert timed["events"] == timed["counts"]["net.events"] > 0
    assert timed["counts"]["core.tpp_hops"] > 0
    assert timed["counts"]["endhost.tpps_completed"] > 0

    check = child(workload, "check")
    assert check["violations"] == []
    assert check["checked"]["packets"] > 0
