"""Generated commutativity suite for every registered summary type.

Commuter-style: rather than hand-writing law tests per summary type, the
suite enumerates :data:`repro.collect.SUMMARY_TYPES` and drives the
generators in ``tools/gen_merge_cases.py`` (derived from each type's
constructor/field structure) under hypothesis.  Every law the collection
plane's scale-out story rests on is machine-checked per type:

* commutativity / associativity / identity of ``merge``;
* sharded-fold-vs-serial equality over random partitions and shard
  orders — the exact claim behind shard-count invariance and the
  aggregation tree's shape-freeness;
* delta round-trip exactness (``apply_delta(diff(a, b)) == b``) along
  growth chains of cumulative snapshots, directly and through a
  ``DeltaChannel``/``DeltaDecoder`` pair, across random interleavings of
  many channels into one decoder;
* for series, the prefix-tail ``diff`` against its multiset definition
  (the ``Counter`` path, kept below as the oracle).

Equality everywhere is canonical-JSON byte-identity.  A new summary type
only has to register itself (``@register_summary``) and give the tool a
generator; the whole suite then applies automatically — and parametrized
enumeration fails loudly if a registered type has no generator at all.

``REPRO_HYPOTHESIS_PROFILE=quick`` shrinks the sweep for CI's docs job.
"""

import importlib.util
import pickle
import random
from collections import Counter
from pathlib import Path

import pytest
from hypothesis import given, strategies as st

from repro.collect import (DeltaChannel, DeltaDecoder, SUMMARY_TYPES,
                           SeriesSummary, summary_copy)

_TOOL = Path(__file__).resolve().parent.parent / "tools" / "gen_merge_cases.py"
_spec = importlib.util.spec_from_file_location("gen_merge_cases", _TOOL)
gen_merge_cases = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(gen_merge_cases)

TYPE_NAMES = sorted(SUMMARY_TYPES)

_seeds = st.integers(min_value=0, max_value=2**32 - 1)


def _case(type_name, seed, instances=3):
    rng = random.Random(seed)
    params = gen_merge_cases.case_params(type_name, rng)
    return rng, params, [gen_merge_cases.make_summary(type_name, rng, params)
                         for _ in range(instances)]


class TestGeneratorCoverage:
    def test_every_registered_type_has_a_generator(self):
        # The registry is the source of truth: registering a new summary
        # type without teaching the generator about it fails here, not
        # silently shrinking the suite's coverage.
        for type_name, cls in SUMMARY_TYPES.items():
            rng = random.Random(0)
            instance = gen_merge_cases.make_summary(type_name, rng)
            assert isinstance(instance, cls)
            assert type(gen_merge_cases.empty_like(instance)) is cls

    def test_registry_contains_the_known_monoids(self):
        assert {"CounterSummary", "HistogramSummary", "TopKSummary",
                "SeriesSummary", "SummaryBundle"} <= set(SUMMARY_TYPES)


@pytest.mark.parametrize("type_name", TYPE_NAMES)
class TestGeneratedLaws:
    """One hypothesis sweep of every law, per registered type."""

    @given(seed=_seeds)
    def test_commutativity(self, type_name, seed):
        _, _, (a, b, _) = _case(type_name, seed)
        assert gen_merge_cases.canonical(gen_merge_cases.merged(a, b)) \
            == gen_merge_cases.canonical(gen_merge_cases.merged(b, a))

    @given(seed=_seeds)
    def test_associativity(self, type_name, seed):
        _, _, (a, b, c) = _case(type_name, seed)
        left = gen_merge_cases.merged(gen_merge_cases.merged(a, b), c)
        right = gen_merge_cases.merged(a, gen_merge_cases.merged(b, c))
        assert gen_merge_cases.canonical(left) == gen_merge_cases.canonical(right)

    @given(seed=_seeds)
    def test_identity(self, type_name, seed):
        _, _, (a, _, _) = _case(type_name, seed)
        empty = gen_merge_cases.empty_like(a)
        assert gen_merge_cases.canonical(gen_merge_cases.merged(a, empty)) \
            == gen_merge_cases.canonical(a)
        assert gen_merge_cases.canonical(gen_merge_cases.merged(empty, a)) \
            == gen_merge_cases.canonical(a)

    @given(seed=_seeds, shard_count=st.integers(min_value=1, max_value=5))
    def test_sharded_fold_equals_serial(self, type_name, seed, shard_count):
        rng, _, instances = _case(type_name, seed, instances=6)
        serial = gen_merge_cases.canonical(gen_merge_cases.merged(*instances))
        shards = [[] for _ in range(shard_count)]
        for instance in instances:
            shards[rng.randrange(shard_count)].append(instance)
        partials = [gen_merge_cases.merged(*shard) for shard in shards if shard]
        rng.shuffle(partials)
        assert gen_merge_cases.canonical(gen_merge_cases.merged(*partials)) \
            == serial

    @given(seed=_seeds)
    def test_delta_roundtrip_reconstructs_exactly(self, type_name, seed):
        # apply(diff(a, b)) == b along a cumulative growth chain, when the
        # type can express the transition; the channel's full-keyframe
        # fallback covers the rest (checked by test_channel_stream below).
        rng, params, _ = _case(type_name, seed)
        state = gen_merge_cases.make_summary(type_name, rng, params)
        prev = summary_copy(state)
        for _ in range(4):
            gen_merge_cases.grow(state, rng)
            if not hasattr(state, "diff"):
                pytest.skip(f"{type_name} has no diff/apply_delta pair")
            try:
                payload = state.diff(prev)
            except ValueError:
                prev = summary_copy(state)
                continue
            replayed = summary_copy(prev)
            replayed.apply_delta(payload)
            assert gen_merge_cases.canonical(replayed) \
                == gen_merge_cases.canonical(state)
            prev = summary_copy(state)

    @given(seed=_seeds, keyframe_every=st.sampled_from([0, 2, 3]))
    def test_channel_stream_tracks_sender_state(self, type_name, seed,
                                                keyframe_every):
        # Keyframes are forced the way a shard's NACK forces them
        # (``needs_full``), interleaved with the delta stream.
        rng, params, _ = _case(type_name, seed)
        state = gen_merge_cases.make_summary(type_name, rng, params)
        channel = DeltaChannel()
        decoder = DeltaDecoder()
        for _ in range(5):
            gen_merge_cases.grow(state, rng)
            if keyframe_every and (channel.seq + 1) % keyframe_every == 0:
                channel.needs_full = True
            decoded = decoder.decode(("chan",), channel.encode(state))
            assert decoded is not None
            assert gen_merge_cases.canonical(decoded) \
                == gen_merge_cases.canonical(state)
        assert decoder.gaps == 0


class TestInterleavedChannels:
    @given(seed=_seeds)
    def test_many_channels_interleave_through_one_decoder(self, seed):
        # One shard decodes many sources' delta channels with units
        # arriving in a random interleaving; every channel's reconstruction
        # must still track its own sender exactly (channels are
        # independent — the property the shard's flush loop relies on).
        rng = random.Random(seed)
        sources = {}
        for type_name in TYPE_NAMES:
            params = gen_merge_cases.case_params(type_name, rng)
            sources[type_name] = {
                "state": gen_merge_cases.make_summary(type_name, rng, params),
                "channel": DeltaChannel(),
                "keyframe_every": rng.choice((0, 2)),
            }
        decoder = DeltaDecoder()
        pushes = [name for name in sources for _ in range(4)]
        rng.shuffle(pushes)
        latest_decoded = {}
        for name in pushes:
            source = sources[name]
            gen_merge_cases.grow(source["state"], rng)
            channel, every = source["channel"], source["keyframe_every"]
            if every and (channel.seq + 1) % every == 0:
                channel.needs_full = True
            unit = channel.encode(source["state"])
            decoded = decoder.decode((name,), unit)
            assert decoded is not None
            latest_decoded[name] = gen_merge_cases.canonical(decoded)
            assert latest_decoded[name] \
                == gen_merge_cases.canonical(source["state"])
        assert decoder.gaps == 0 and not decoder.take_resyncs()


def _multiset_difference(current, prev):
    """``SeriesSummary.diff`` by definition: the Counter path, as oracle."""
    added = Counter(current.samples)
    added.subtract(prev.samples)
    assert all(n >= 0 for n in added.values())
    return sorted((sample for sample, n in added.items() for _ in range(n)),
                  key=SeriesSummary._sort_key)


class TestSeriesTailDelta:
    """``diff`` ships the tail when the base is a prefix — and that tail is
    exactly the multiset difference, whichever path computed it."""

    @given(seed=_seeds, in_time_order=st.booleans())
    def test_diff_equals_multiset_difference_along_growth_chains(
            self, seed, in_time_order):
        # in_time_order: an observing aggregator (times never decrease, with
        # ties inside and across snapshots) — mostly the prefix path; else
        # arbitrary times, mostly the Counter path.  Same answer either way.
        rng = random.Random(seed)
        state, clock = SeriesSummary(), 0.0
        prev = state.copy()
        for _ in range(5):
            for _ in range(rng.randrange(0, 6)):
                clock = clock + rng.choice((0.0, 0.5)) if in_time_order \
                    else round(rng.uniform(0.0, 10.0), 1)
                state.add(clock, rng.choice(gen_merge_cases._WORDS),
                          rng.randrange(0, 100))
            payload = state.diff(prev)
            assert payload["add"] == _multiset_difference(state, prev)
            replayed = prev.copy()
            replayed.apply_delta(payload)
            assert gen_merge_cases.canonical(replayed) \
                == gen_merge_cases.canonical(state)
            prev = state.copy()

    def test_tie_with_a_smaller_key_defeats_the_prefix_but_round_trips(self):
        state = SeriesSummary([(1.0, "m", 1), (2.0, "m", 2)])
        prev = state.copy()
        state.add(2.0, "a", 3)              # sorts *before* the base's last
        assert state.samples[:len(prev)] != prev.samples
        payload = state.diff(prev)
        assert payload["add"] == [(2.0, "a", 3)]
        prev.apply_delta(payload)
        assert prev == state and prev.as_dict() == state.as_dict()

    def test_a_base_that_is_not_a_subset_still_raises(self):
        state = SeriesSummary([(1.0, "a", 1), (2.0, "b", 2)])
        with pytest.raises(ValueError):
            state.diff(SeriesSummary([(1.0, "a", 1), (1.5, "gone", 9)]))
        with pytest.raises(ValueError):     # same length, different content
            state.diff(SeriesSummary([(1.0, "a", 1), (2.0, "b", 3)]))

    def test_pending_tail_survives_pickling(self):
        state = SeriesSummary([(1.0, "a", 1)])
        assert state.samples                # canonical prefix of one ...
        state.add(3.0, "z", 3)
        state.add(0.5, (2, 1), 2)           # ... and an unsorted pending tail
        clone = pickle.loads(pickle.dumps(state))
        assert clone.as_dict() == state.as_dict()
        assert clone == state and len(clone) == 3


class TestToolCli:
    def test_run_report_is_clean_for_all_types(self):
        report = gen_merge_cases.run(cases=5, seed=11)
        assert report["ok"], report["violations"]
        assert set(report["types"]) == set(SUMMARY_TYPES)

    def test_main_exit_status(self, capsys):
        assert gen_merge_cases.main(["--cases", "2", "--seed", "3"]) == 0
        out = capsys.readouterr().out
        for type_name in TYPE_NAMES:
            assert type_name in out
