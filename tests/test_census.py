"""``tools/census.py``: naming every ``def`` under ``src/repro``, reading the
checked-in list, mapping called code objects back to their ``def``, and the
mismatches that fail the census.  The full census (every product
surface under the profiler) runs in CI's docs job; these tests exercise its
parts on small trees."""

import importlib.util
import textwrap
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parent.parent


def load_census():
    spec = importlib.util.spec_from_file_location("census", REPO / "tools" / "census.py")
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    return tool


census = load_census()

FIXTURE = """\
import functools


def plain():
    return 1


@functools.lru_cache(maxsize=None)
def cached(x):
    return x


class Box:
    @property
    def size(self):
        return self._size

    @size.setter
    def size(self, value):
        self._size = value

    def outer(self):
        def inner():
            return 2
        return inner()
"""


@pytest.fixture
def tree(tmp_path):
    """A one-module ``src/repro`` tree holding ``FIXTURE``."""
    package = tmp_path / "src" / "repro" / "pkg"
    package.mkdir(parents=True)
    (tmp_path / "src" / "repro" / "__init__.py").write_text("")
    (package / "__init__.py").write_text("def exported():\n    return 0\n")
    (package / "mod.py").write_text(FIXTURE)
    return tmp_path / "src"


def write_list(tmp_path, text):
    path = tmp_path / "census.txt"
    path.write_text(textwrap.dedent(text))
    return path


class TestDefinedFunctions:
    def test_names_nested_duplicate_and_package_functions(self, tree):
        names = sorted(census.defined_functions(tree).values())
        assert names == ["repro.pkg.mod:Box.outer", "repro.pkg.mod:Box.outer.<locals>.inner",
                         "repro.pkg.mod:Box.size", "repro.pkg.mod:Box.size#2",
                         "repro.pkg.mod:cached", "repro.pkg.mod:plain",
                         "repro.pkg:exported"]

    def test_decorated_function_keys_on_its_first_decorator(self, tree):
        lines = {name: line for (_, line), name in census.defined_functions(tree).items()}
        source = FIXTURE.splitlines()
        assert source[lines["repro.pkg.mod:cached"] - 1].startswith("@functools")
        assert source[lines["repro.pkg.mod:plain"] - 1] == "def plain():"
        assert source[lines["repro.pkg.mod:Box.size#2"] - 1].strip() == "@size.setter"

    def test_called_code_maps_back_to_its_def(self, tree):
        # The census's premise: a code object's (file, first line) is the key
        # defined_functions gives its def, decorators and nesting included.
        path = tree / "repro" / "pkg" / "mod.py"
        spec = importlib.util.spec_from_file_location("census_fixture_mod", path)
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)

        def surface():
            module.cached(3)
            box = module.Box()
            box.size = 4
            box.outer()

        reached = census.reached_code([surface])
        defined = census.defined_functions(tree)
        unreached, _ = census.check(defined, reached, {})
        assert unreached == {"repro.pkg.mod:plain", "repro.pkg.mod:Box.size",
                             "repro.pkg:exported"}


class TestReadList:
    def test_reasons_comments_and_blank_lines(self, tmp_path):
        entries, errors = census.read_list(write_list(tmp_path, """\
            # a comment
            repro.a:f   api

            repro.a:g   pending   1b
            """))
        assert errors == []
        assert entries == {"repro.a:f": "api", "repro.a:g": "pending 1b"}

    def test_malformed_reason_and_duplicate_entry_are_errors(self, tmp_path):
        _, errors = census.read_list(write_list(tmp_path, """\
            repro.a:f   unused
            repro.a:g   pending
            repro.a:h   api
            repro.a:h   pending 4(b)
            """))
        assert len(errors) == 3
        assert errors[0].startswith("census.txt:1: repro.a:f") and "'unused'" in errors[0]
        assert errors[1].startswith("census.txt:2: repro.a:g")
        assert errors[2] == "census.txt:4: repro.a:h is listed twice"

    def test_checked_in_list_is_well_formed_and_names_defined_functions(self):
        entries, errors = census.read_list()
        assert errors == []
        assert set(entries) <= set(census.defined_functions().values())


class TestCheck:
    DEFINED = {("m.py", 1): "repro.m:a", ("m.py", 5): "repro.m:b", ("m.py", 9): "repro.m:c"}

    def test_every_unreached_function_listed_passes(self):
        unreached, errors = census.check(self.DEFINED, {("m.py", 1)},
                                         {"repro.m:b": "api", "repro.m:c": "pending 1b"})
        assert unreached == {"repro.m:b", "repro.m:c"}
        assert errors == []

    def test_unreached_function_without_an_entry_fails(self):
        _, errors = census.check(self.DEFINED, {("m.py", 1)}, {"repro.m:b": "api"})
        assert errors == ["unreached and not listed: repro.m:c"]

    def test_entry_for_a_reached_function_fails(self):
        _, errors = census.check(self.DEFINED, {("m.py", 1), ("m.py", 9)},
                                 {"repro.m:a": "api", "repro.m:b": "api"})
        assert errors == ["listed but reached: repro.m:a (api)"]

    def test_entry_for_a_missing_function_fails(self):
        _, errors = census.check(self.DEFINED, {("m.py", 1), ("m.py", 5), ("m.py", 9)},
                                 {"repro.m:gone": "pending 1a"})
        assert errors == ["listed but not defined in src/: repro.m:gone"]


ROADMAP_FIXTURE = """\
# ROADMAP

1. **An aim, not an item.** Above the open items.

## Open items

1. **Re-pin the suite.** [aims 1, 2] Still open.
   - **1a. The suite half.** The `src/` half
     landed earlier.
   - **1b. New workloads.**
3. **One ECMP group per (switch, port set).** [aims 1, 3] Landed, with
   its pins.
   - (a) A part of a landed item.
4. **Two witnesses.** [aims 3, 4]
   - **(a) Micro-bursts.** Every sample.
   - (b) **Packet histories.** Each history.
16. **Topology as data: every builder emits link rows, and one
    constructor builds them.** Landed, except one builder.

### Parked

7. **A parked item.**
"""


class TestPendingItems:
    def test_open_items_skip_landed_items_and_their_parts(self, tmp_path):
        path = tmp_path / "ROADMAP.md"
        path.write_text(ROADMAP_FIXTURE)
        assert census.open_items(path) == {"1", "1a", "1b", "4", "4(a)", "4(b)"}

    def test_pending_on_a_closed_or_unknown_item_fails(self):
        entries = {"repro.m:a": "api", "repro.m:b": "pending 1b",
                   "repro.m:c": "pending 3", "repro.m:d": "pending 4(z)"}
        assert census.closed_pending(entries, {"1b", "4"}) == [
            "pending on an item that is not open in ROADMAP.md: repro.m:c (pending 3)",
            "pending on an item that is not open in ROADMAP.md: repro.m:d (pending 4(z))"]

    def test_checked_in_pending_entries_name_open_items(self):
        entries, _ = census.read_list()
        assert census.closed_pending(entries, census.open_items()) == []
