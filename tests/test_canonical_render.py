"""The sweep's canonical renderer against the stdlib encoder it replaces.

``repro.sweep.runner.render_canonical(value)`` must equal
``json.dumps(value, sort_keys=True, indent=2) + "\\n"`` byte for byte, and
raise ``TypeError`` wherever that call does.  The stdlib call is the
oracle: CPython runs it through its pure-Python encoder (the C encoder only
serves ``indent=None``), which is exactly the code path the renderer
avoids.  Trees are generated with hypothesis and cover the shapes the
renderer special-cases (flat lists, lists of flat rows, rows with an empty
row among them) and the scalars whose spelling json owns (NaN, infinities,
-0.0, bool / None / number dict keys, str / int / float subclasses,
``IntEnum``, escapes and row-boundary-shaped strings).
"""

import enum
import json

from hypothesis import given, settings, strategies as st

from repro.apps.microburst import MICROBURST_TPP_SOURCE, MicroburstAggregator
from repro.endhost import PacketFilter
from repro.net import mbps
from repro.session import Scenario
from repro.sweep import SweepRunner, SweepSpec
from repro.sweep.runner import render_canonical


class Text(str):
    pass


class Int(int):
    pass


class Real(float):
    pass


class Level(enum.IntEnum):
    LOW = 1
    HIGH = 2


def oracle(value):
    return json.dumps(value, sort_keys=True, indent=2) + "\n"


def outcome(render, value):
    """The rendered text, or ``TypeError`` when rendering raises it."""
    try:
        return render(value)
    except TypeError:
        return TypeError


TRICKY_TEXT = st.sampled_from([
    "", "],\n  [", '"],\n    ["', "]", "[", ",", "\n", "\x00\x1f\x7f",
    "café", " \U0001f600", '\\"', "NaN", "-0.0"])
TEXT = st.one_of(st.text(max_size=8), TRICKY_TEXT,
                 st.builds(Text, st.text(max_size=4)))
FLOATS = st.one_of(st.floats(), st.sampled_from(
    [float("nan"), float("inf"), float("-inf"), -0.0, 0.0, 1e300, 5e-324]),
    st.builds(Real, st.floats()))
INTS = st.one_of(st.integers(), st.integers(min_value=2 ** 64),
                 st.builds(Int, st.integers()), st.sampled_from(list(Level)))
SCALARS = st.one_of(st.none(), st.booleans(), INTS, FLOATS, TEXT)
#: Key strategies, one per dict: a dict's keys must sort against each other.
KEYS = st.sampled_from([
    TEXT, INTS, FLOATS, st.booleans(), st.none(),
    st.one_of(st.integers(), st.floats(), st.booleans(), st.sampled_from(
        list(Level))),
    st.one_of(st.text(max_size=3), st.integers()),      # unsortable: TypeError
    st.tuples(st.integers()),                           # bad key: TypeError
])
UNSERIALIZABLE = st.sampled_from([b"bytes", {1, 2}, object(), 1j])
ROW = st.one_of(st.lists(SCALARS, max_size=4), st.tuples(FLOATS, TEXT, INTS),
                st.tuples(SCALARS))
ROWS = st.lists(ROW, min_size=1, max_size=6)


def containers(children):
    return st.one_of(
        st.lists(children, max_size=4),
        st.lists(children, max_size=3).map(tuple),
        KEYS.flatmap(lambda keys: st.dictionaries(keys, children, max_size=4)),
        ROWS,
    )


TREES = st.recursive(st.one_of(SCALARS, ROWS, st.lists(SCALARS, max_size=5)),
                     containers, max_leaves=24)


class TestAgainstJsonDumps:
    @settings(max_examples=600, deadline=None)
    @given(TREES)
    def test_trees_render_byte_identically(self, tree):
        assert outcome(render_canonical, tree) == outcome(oracle, tree)

    @settings(max_examples=100, deadline=None)
    @given(st.recursive(st.one_of(SCALARS, UNSERIALIZABLE), containers,
                        max_leaves=8))
    def test_unserializable_values_raise_where_json_does(self, tree):
        assert outcome(render_canonical, tree) == outcome(oracle, tree)

    def test_special_shapes(self):
        nan = float("nan")
        for value in ([], {}, [[]], [[], [1]], [[1], []], [[1], [2, [3]]],
                      [[nan, float("inf"), -0.0], ("a", Level.HIGH)],
                      [["],\n    [", "]"], ["\n", 1]],
                      {None: [[1]]}, {True: [[1]], False: 0},
                      {Level.LOW: [], 2.5: {}},
                      [{"a": [[1, 2], [3]]}], Text("x"), Real(1.5), nan):
            assert render_canonical(value) == oracle(value), value

    def test_bad_keys_and_values_raise_type_error(self):
        for value in ({(1,): 1}, {"a": 1, 2: 3}, [b"x"], [[1, object()]]):
            assert outcome(oracle, value) is TypeError
            assert outcome(render_canonical, value) is TypeError


def test_a_sweep_seeds_shaped_artifact_renders_equal():
    # The benchmark's sweep shape: 3 loads x 4 replicates of a micro-burst
    # monitored dumbbell, 12 tasks, whose merged series is most of the text.
    base = (Scenario("dumbbell", seed=5, name="render", hosts_per_side=3,
                     link_rate_bps=mbps(50))
            .tpp("monitor", MICROBURST_TPP_SOURCE, num_hops=6,
                 filter=PacketFilter(protocol="udp"),
                 aggregator=MicroburstAggregator)
            .workload("messages", offered_load=0.3, message_bytes=4000))
    sweep = (SweepSpec(base)
             .axis("workload.messages.offered_load", (0.2, 0.3, 0.4))
             .replicate(4))
    result = SweepRunner(workers=1, duration_s=0.02).run(sweep)
    assert len(result.completed) == 12
    artifact = result.canonical_artifact()
    series = artifact["merged"]["parts"]["app:monitor"]["parts"]["queue_series"]
    assert len(series["samples"]) > 1000
    same = result.canonical_json() == oracle(artifact)   # no 5 MB diff on failure
    assert same
