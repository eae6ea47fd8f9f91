"""Tests for the §VI-A selection pool, §IV multi-widget sequences, and the
profile-rotating variant."""

import pytest

from repro.core.hashcore import HashCore
from repro.core.rotation import RotatingHashCore, SelectionHashCore
from repro.errors import ConfigError, GenerationError
from repro.machine.cpu import Machine
from repro.widgetgen.pool import WidgetPool

from tests.conftest import seed_of


@pytest.fixture(scope="module")
def pool(leela_profile, test_params):
    return WidgetPool(leela_profile, test_params, pool_size=10)


class TestWidgetPool:
    def test_pool_is_deterministic(self, leela_profile, test_params, pool):
        other = WidgetPool(leela_profile, test_params, pool_size=10)
        assert other.fingerprint() == pool.fingerprint()

    def test_pool_tag_changes_members(self, leela_profile, test_params, pool):
        other = WidgetPool(leela_profile, test_params, pool_size=10, pool_tag=b"v2")
        assert other.fingerprint() != pool.fingerprint()

    def test_members_distinct(self, pool):
        fingerprints = {widget.fingerprint() for widget in pool.widgets}
        assert len(fingerprints) == len(pool)

    def test_storage_accounting(self, pool):
        assert pool.storage_bytes() == sum(w.code_bytes() for w in pool.widgets)

    def test_selection_deterministic(self, pool):
        seed = seed_of("select")
        a = [w.fingerprint() for w in pool.select(seed, 3)]
        b = [w.fingerprint() for w in pool.select(seed, 3)]
        assert a == b

    def test_selection_order_matters(self, pool):
        a = pool.select(seed_of("o1"), 4)
        b = pool.select(seed_of("o2"), 4)
        assert [w.name for w in a] != [w.name for w in b]

    def test_selection_without_replacement(self, pool):
        chosen = pool.select(seed_of("nr"), len(pool))
        assert len({w.fingerprint() for w in chosen}) == len(pool)

    def test_all_members_reachable(self, pool):
        seen = set()
        for tag in range(40):
            for widget in pool.select(seed_of(tag), 2):
                seen.add(widget.fingerprint())
        assert len(seen) == len(pool)

    def test_bad_count_rejected(self, pool):
        with pytest.raises(GenerationError):
            pool.select(seed_of("x"), 0)
        with pytest.raises(GenerationError):
            pool.select(seed_of("x"), len(pool) + 1)

    def test_tiny_pool_rejected(self, leela_profile, test_params):
        with pytest.raises(GenerationError):
            WidgetPool(leela_profile, test_params, pool_size=1)


class TestSelectionHashCore:
    def test_deterministic_and_verifiable(self, pool, machine):
        fn = SelectionHashCore(pool, machine=machine, widgets_per_hash=2)
        digest = fn.hash(b"select-me")
        assert len(digest) == 32
        assert fn.verify(b"select-me", digest)
        assert not fn.verify(b"select-me!", digest)

    def test_input_sensitivity(self, pool, machine):
        fn = SelectionHashCore(pool, machine=machine)
        assert fn.hash(b"a") != fn.hash(b"b")

    def test_pow_protocol(self, pool):
        from repro.core.pow import PowFunction

        assert isinstance(SelectionHashCore(pool), PowFunction)

    def test_cache_stats_count_selections_and_jit_builds(
        self, leela_profile, test_params
    ):
        # Two members, both selected: each builds its JIT artifact on the
        # first hash and reuses it on the second.  A fresh machine, so the
        # counts are this core's alone.
        fresh_pool = WidgetPool(leela_profile, test_params, pool_size=2)
        fn = SelectionHashCore(fresh_pool, machine=Machine(),
                               widgets_per_hash=2)
        fn.hash(b"pool-stats")
        stats = fn.cache_stats()
        assert (stats["widgets"], stats["selections"]) == (2, 1)
        assert stats["tiers"]["jit_artifacts"] == {"builds": 2, "reuses": 0}
        assert stats["widget_cache"]["capacity"] == 0  # the pool is the cache
        fn.hash(b"pool-stats")
        assert fn.cache_stats()["tiers"]["jit_artifacts"] == {
            "builds": 2, "reuses": 2,
        }

    def test_selection_larger_than_pool_rejected(self, pool):
        # Rejected at construction, not on every hash: a miner built this
        # way would otherwise skip each nonce as a poisoned seed.
        with pytest.raises(ValueError):
            SelectionHashCore(pool, widgets_per_hash=len(pool) + 1)
        whole = SelectionHashCore(pool, widgets_per_hash=len(pool))
        assert whole.widgets_per_hash == len(pool)

    def test_agrees_across_instances(self, pool, leela_profile, test_params, machine):
        # A second node builds the pool independently and verifies.
        other_pool = WidgetPool(leela_profile, test_params, pool_size=10)
        a = SelectionHashCore(pool, machine=machine)
        b = SelectionHashCore(other_pool, machine=machine)
        assert a.hash(b"consensus") == b.hash(b"consensus")


class TestMultiWidget:
    def test_sequence_length(self, leela_profile, test_params):
        hashcore = HashCore(profile=leela_profile, params=test_params,
                            widgets_per_hash=3)
        trace = hashcore.hash_with_trace(b"seq")
        assert len(trace.widgets) == 3
        assert len(trace.results) == 3

    def test_subwidgets_differ(self, leela_profile, test_params):
        hashcore = HashCore(profile=leela_profile, params=test_params,
                            widgets_per_hash=3)
        trace = hashcore.hash_with_trace(b"seq")
        fingerprints = {w.fingerprint() for w in trace.widgets}
        assert len(fingerprints) == 3

    def test_digest_depends_on_count(self, leela_profile, test_params):
        one = HashCore(profile=leela_profile, params=test_params, widgets_per_hash=1)
        two = HashCore(profile=leela_profile, params=test_params, widgets_per_hash=2)
        assert one.hash(b"k") != two.hash(b"k")

    def test_verifiable(self, leela_profile, test_params):
        hashcore = HashCore(profile=leela_profile, params=test_params,
                            widgets_per_hash=2)
        digest = hashcore.hash(b"v")
        assert hashcore.verify(b"v", digest)

    def test_invalid_count_rejected(self, leela_profile, test_params):
        with pytest.raises(ValueError):
            HashCore(profile=leela_profile, params=test_params, widgets_per_hash=0)

    def test_trace_compat_fields(self, leela_profile, test_params):
        hashcore = HashCore(profile=leela_profile, params=test_params,
                            widgets_per_hash=2)
        trace = hashcore.hash_with_trace(b"compat")
        assert trace.widget is trace.widgets[0]
        assert trace.result is trace.results[0]


class TestRotatingHashCore:
    @pytest.fixture(scope="class")
    def profiles(self, machine):
        from repro.profiling.profiler import profile_workload
        from repro.workloads import get_workload

        return [
            profile_workload(get_workload("leela"), machine),
            profile_workload(get_workload("matrix"), machine),
        ]

    def test_deterministic(self, profiles, test_params, machine):
        a = RotatingHashCore(profiles, machine=machine, params=test_params)
        b = RotatingHashCore(profiles, machine=machine, params=test_params)
        assert a.hash(b"rot") == b.hash(b"rot")

    def test_profiles_actually_rotate(self, profiles, test_params, machine):
        fn = RotatingHashCore(profiles, machine=machine, params=test_params)
        indices = {fn.profile_index(fn.seed_of(str(i).encode())) for i in range(32)}
        assert indices == {0, 1}

    def test_rotation_changes_widget_character(self, profiles, test_params, machine):
        fn = RotatingHashCore(profiles, machine=machine, params=test_params)
        # Find one input per profile and compare the widgets' FP share.
        mixes = {}
        for i in range(32):
            data = f"char-{i}".encode()
            index = fn.profile_index(fn.seed_of(data))
            if index in mixes:
                continue
            trace = fn.hash_with_trace(data)
            mix = trace.result.counters.mix_fractions()
            mixes[index] = mix["fp_alu"] + mix["vector"]
            if len(mixes) == 2:
                break
        assert mixes[1] > mixes[0] + 0.2  # matrix-profile widgets are FP-heavy

    def test_profile_order_is_consensus(self, profiles, test_params, machine):
        forward = RotatingHashCore(profiles, machine=machine, params=test_params)
        backward = RotatingHashCore(list(reversed(profiles)), machine=machine,
                                    params=test_params)
        digests_differ = any(
            forward.hash(str(i).encode()) != backward.hash(str(i).encode())
            for i in range(4)
        )
        assert digests_differ

    def test_empty_profiles_rejected(self, test_params):
        with pytest.raises(ConfigError):
            RotatingHashCore([], params=test_params)

    def test_verify(self, profiles, test_params, machine):
        fn = RotatingHashCore(profiles, machine=machine, params=test_params)
        digest = fn.hash(b"check")
        assert fn.verify(b"check", digest)


class TestBakedSuiteProfiles:
    def test_baked_suite_matches_measurement(self):
        """Suite constants must equal fresh measurements (consensus
        anti-drift check, mirroring the Leela default-profile test)."""
        from repro.core.suite_profiles import (
            SUITE_PROFILE_DICTS,
            measure_suite_profiles,
        )

        assert measure_suite_profiles() == SUITE_PROFILE_DICTS

    def test_suite_profiles_cached_and_ordered(self):
        from repro.core.suite_profiles import suite_profiles

        profiles = suite_profiles()
        assert profiles is suite_profiles()
        assert [p.name for p in profiles] == sorted(p.name for p in profiles)

    def test_rotating_over_baked_suite(self, test_params, machine):
        from repro.core.rotation import RotatingHashCore
        from repro.core.suite_profiles import suite_profiles

        fn = RotatingHashCore(suite_profiles(), machine=machine,
                              params=test_params)
        digest = fn.hash(b"baked")
        assert fn.verify(b"baked", digest)
