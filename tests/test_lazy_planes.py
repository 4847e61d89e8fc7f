"""Lazy planes: an experiment imports only the layers it runs.

The packages that re-export a plane (``apps``, ``collect``, ``faults``,
``net``, ``obs``, ``sweep``) resolve each name on first use from one export
table (``repro.lazy_exports``).  Two rules follow, and both are checked here:

* **import budget** — after the benchmark suite's own imports, no plane a
  bare run does not use is in ``sys.modules``; declaring a plane loads it;
* **no import in the timed region** — a plane is imported when a scenario
  declares or builds it, never inside ``Experiment.run`` or
  ``ResultSummary.from_result``, so ``events_per_s`` never pays for it.

Import state belongs to a process, so each check runs in a fresh
interpreter.  The lazy surface must still be the same public API: every
name in ``__all__`` resolves, star-imports and ``dir()`` list it.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parent.parent
SUITE = REPO / "benchmarks" / "suite"
ENV = dict(os.environ,
           PYTHONPATH=os.pathsep.join([str(REPO / "src"), str(SUITE)]))

#: The imports of ``benchmarks/suite/workloads.py`` that name a plane.
SUITE_IMPORTS = """
import json, sys
import repro.session
from repro.sweep import SweepSpec
from repro.obs import RecorderSpec
import repro.apps.microburst
"""

#: Packages (and everything under them) a run that declares no collector,
#: fault plan, sweep pool, trace export or message traffic never touches.
UNUSED = (
    "repro.collect.shard", "repro.collect.virtual", "repro.collect.delta",
    "repro.faults", "repro.sweep.runner",
    "repro.apps.conga", "repro.apps.losslocal", "repro.apps.netsight",
    "repro.apps.netverify", "repro.apps.rcp", "repro.apps.sketches",
    "repro.net.flows", "repro.net.tcp", "repro.obs.perfetto",
    "concurrent.futures", "multiprocessing",
)

LOADED = ("print(json.dumps(sorted(m for m in sys.modules for p in {unused!r}"
          " if m == p or m.startswith(p + '.'))))").format(unused=UNUSED)

PACKAGES = ("repro.apps", "repro.collect", "repro.faults", "repro.net",
            "repro.obs", "repro.sweep")


def fresh(code: str):
    """Run ``code`` in a new interpreter; the JSON it printed last."""
    done = subprocess.run([sys.executable, "-c", code], cwd=REPO, env=ENV,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr[-2000:]
    return json.loads(done.stdout.strip().splitlines()[-1])


class TestImportBudget:
    def test_suite_imports_load_no_unused_plane(self):
        assert fresh(SUITE_IMPORTS + LOADED) == []

    def test_a_bare_probe_run_loads_no_unused_plane(self):
        code = SUITE_IMPORTS + (
            "from workloads import WORKLOADS\n"
            "WORKLOADS['probe_read'].build(1).run(1e-3)\n") + LOADED
        assert fresh(code) == []

    @pytest.mark.parametrize("declare,plane", [
        (".collector(shards=2)", "repro.collect.virtual"),
        (".faults(seed=1, corrupt_links=1, loss_rate=0.1)", "repro.faults.plan"),
    ])
    def test_declaring_a_plane_loads_it(self, declare, plane):
        # The positive control: the budget test above would pass vacuously
        # if nothing were ever loaded.
        code = SUITE_IMPORTS + (
            f"before = {plane!r} in sys.modules\n"
            f"repro.session.Scenario('dumbbell'){declare}\n"
            f"print(json.dumps([before, {plane!r} in sys.modules]))\n")
        assert fresh(code) == [False, True]

    @pytest.mark.parametrize("kwargs,loaded", [("hosts_per_side=2", False),
                                               ("num_stages=2", True)])
    def test_only_a_switch_knob_loads_the_switch_at_declaration(self, kwargs, loaded):
        # A sweep's parent process declares and never builds, so checking
        # the builder's own keywords must not import the switch model.
        code = SUITE_IMPORTS + (
            f"repro.session.Scenario('dumbbell', {kwargs})\n"
            "print(json.dumps('repro.switches.switch' in sys.modules))\n")
        assert fresh(code) is loaded

    @pytest.mark.parametrize("workload", ["probe_read", "probe_write",
                                          "probe_recorded", "monitor_collect",
                                          "forward_bare"])
    def test_run_and_summary_import_nothing(self, workload):
        # The region the suite times: run -> ResultSummary -> canonical JSON.
        code = (
            "import json, sys\n"
            "from workloads import WORKLOADS\n"
            "from repro.session import ResultSummary\n"
            f"experiment = WORKLOADS[{workload!r}].build(1).build(1e-3)\n"
            "before = set(sys.modules)\n"
            "summary = ResultSummary.from_result(experiment.run(1e-3))\n"
            "json.dumps(summary.as_jsonable(), sort_keys=True)\n"
            "print(json.dumps(sorted(set(sys.modules) - before)))\n")
        assert fresh(code) == []


class TestLazySurface:
    @pytest.mark.parametrize("package", PACKAGES)
    def test_every_exported_name_resolves(self, package):
        code = (
            "import importlib, json\n"
            f"package = importlib.import_module({package!r})\n"
            "listed = sorted(set(dir(package)) & set(package.__all__))\n"
            "missing = [name for name in package.__all__\n"
            "           if getattr(package, name, None) is None]\n"
            "namespace = {}\n"
            f"exec('from {package} import *', namespace)\n"
            "print(json.dumps([package.__all__, listed, missing,\n"
            "                  sorted(set(package.__all__) - set(namespace))]))\n")
        exported, listed, missing, unbound = fresh(code)
        assert exported and exported == sorted(set(exported))
        assert listed == exported          # dir() lists names not yet loaded
        assert missing == [] and unbound == []

    @pytest.mark.parametrize("package", PACKAGES)
    def test_unknown_name_raises_naming_the_package(self, package):
        module = __import__(package, fromlist=["_"])
        with pytest.raises(AttributeError,
                           match=f"module '{package}' has no attribute 'nope'"):
            module.nope

    def test_app_modules_stay_attributes_of_the_package(self):
        code = ("import json, repro.apps\n"
                "print(json.dumps(repro.apps.conga.__name__))\n")
        assert fresh(code) == "repro.apps.conga"

    def test_pool_workers_import_planes_after_fork(self):
        # Declaring loads each plane's spec module in the parent; building
        # (the fault injector, the collect plane, the recorder) happens in
        # the forked workers.  The pooled artifact must equal the serial one.
        code = """
import json, sys
from repro.session import Scenario
from repro.sweep import SweepRunner, SweepSpec
base = (Scenario("dumbbell", seed=1, hosts_per_side=2)
        .tpp("monitor", "PUSH [Switch:SwitchID]")
        .workload("messages", offered_load=0.3)
        .collector(shards=2, epoch_s=0.01)
        .faults(seed=3, corrupt_links=1, loss_rate=0.05)
        .flight_recorder(capacity=256))
sweep = SweepSpec(base).replicate(2)
unbuilt = [m for m in ("repro.faults.injector", "repro.obs.flightrec")
           if m not in sys.modules]
pooled = SweepRunner(workers=2, duration_s=0.02).run(sweep)
serial = SweepRunner(workers=1, duration_s=0.02).run(sweep)
print(json.dumps([unbuilt, len(pooled.completed),
                  pooled.canonical_json() == serial.canonical_json()]))
"""
        assert fresh(code) == [["repro.faults.injector"], 2, True]
