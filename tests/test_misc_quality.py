"""Cross-cutting quality gates: error hierarchy, protocol compliance,
widget caching, chi-square stat, docstring coverage."""

import inspect
import pkgutil

import pytest

import repro
from repro import errors


class TestErrorHierarchy:
    def test_every_error_derives_from_repro_error(self):
        for name in dir(errors):
            obj = getattr(errors, name)
            if inspect.isclass(obj) and issubclass(obj, Exception):
                assert issubclass(obj, errors.ReproError), name

    def test_specific_errors_catchable_as_base(self):
        with pytest.raises(errors.ReproError):
            raise errors.ChainError("x")


class TestPowProtocolCompliance:
    def test_hashcore_variants_satisfy_protocol(self, leela_profile, test_params):
        from repro.core.hashcore import HashCore
        from repro.core.pow import PowFunction
        from repro.core.rotation import RotatingHashCore, SelectionHashCore
        from repro.widgetgen.pool import WidgetPool

        assert isinstance(HashCore(profile=leela_profile, params=test_params),
                          PowFunction)
        assert isinstance(RotatingHashCore([leela_profile], params=test_params),
                          PowFunction)
        pool = WidgetPool(leela_profile, test_params, pool_size=2)
        assert isinstance(SelectionHashCore(pool), PowFunction)

    def test_variants_override_only_the_widget_choice(self):
        from repro.core.hashcore import HashCore
        from repro.core.rotation import RotatingHashCore, SelectionHashCore

        shared = {"seed_of", "hash", "hash_batch", "hash_with_trace", "verify"}
        for variant in (RotatingHashCore, SelectionHashCore):
            assert issubclass(variant, HashCore)
            assert not shared & set(vars(variant)), variant.__name__

    def test_hash_batch_matches_hash_for_every_variant(self, leela_profile,
                                                       test_params):
        from repro.core.hashcore import HashCore
        from repro.core.rotation import RotatingHashCore, SelectionHashCore
        from repro.core.suite_profiles import suite_profiles
        from repro.widgetgen.pool import WidgetPool

        pool = WidgetPool(leela_profile, test_params, pool_size=4)
        variants = {
            "hashcore": HashCore(profile=leela_profile, params=test_params),
            "multi-widget": HashCore(profile=leela_profile, params=test_params,
                                     widgets_per_hash=2),
            "rotating": RotatingHashCore(suite_profiles(), params=test_params),
            "selection": SelectionHashCore(pool, widgets_per_hash=2),
        }
        datas = [b"batch-a", b"batch-b", b"batch-a"]
        for name, core in variants.items():
            assert core.hash_batch(datas) == [core.hash(d) for d in datas], (
                name
            )


class TestWidgetCache:
    def test_cache_returns_identical_widget(self, leela_profile, test_params):
        from repro.core.hashcore import HashCore

        hashcore = HashCore(profile=leela_profile, params=test_params,
                            widget_cache_size=4)
        seed = hashcore.seed_of(b"cache-me")
        first = hashcore.widget_for(seed)
        second = hashcore.widget_for(seed)
        assert first is second  # cache hit returns the same object

    def test_cache_does_not_change_digests(self, leela_profile, test_params):
        from repro.core.hashcore import HashCore

        plain = HashCore(profile=leela_profile, params=test_params)
        cached = HashCore(profile=leela_profile, params=test_params,
                          widget_cache_size=8)
        assert plain.hash(b"same") == cached.hash(b"same")

    def test_cache_evicts_lru(self, leela_profile, test_params):
        from repro.core.hashcore import HashCore

        hashcore = HashCore(profile=leela_profile, params=test_params,
                            widget_cache_size=2)
        seeds = [hashcore.seed_of(str(i).encode()) for i in range(3)]
        first = hashcore.widget_for(seeds[0])
        hashcore.widget_for(seeds[1])
        hashcore.widget_for(seeds[2])  # evicts seeds[0]
        again = hashcore.widget_for(seeds[0])
        assert again is not first  # regenerated, not cached

    def test_negative_cache_rejected(self, leela_profile, test_params):
        from repro.core.hashcore import HashCore

        with pytest.raises(ValueError):
            HashCore(profile=leela_profile, params=test_params,
                     widget_cache_size=-1)

    def test_cache_enabled_by_default(self, leela_profile, test_params):
        from repro.core.hashcore import HashCore

        assert HashCore.DEFAULT_WIDGET_CACHE_SIZE > 0
        hashcore = HashCore(profile=leela_profile, params=test_params)
        seed = hashcore.seed_of(b"default-cache")
        assert hashcore.widget_for(seed) is hashcore.widget_for(seed)

    def test_cache_size_zero_bypasses(self, leela_profile, test_params):
        from repro.core.hashcore import HashCore

        hashcore = HashCore(profile=leela_profile, params=test_params,
                            widget_cache_size=0)
        seed = hashcore.seed_of(b"no-cache")
        first = hashcore.widget_for(seed)
        second = hashcore.widget_for(seed)
        assert first is not second  # regenerated every call
        assert first.fingerprint() == second.fingerprint()  # still deterministic
        assert not hashcore._widget_cache  # nothing retained

    def test_cache_refresh_changes_eviction_victim(self, leela_profile,
                                                   test_params):
        from repro.core.hashcore import HashCore

        hashcore = HashCore(profile=leela_profile, params=test_params,
                            widget_cache_size=2)
        seeds = [hashcore.seed_of(str(i).encode()) for i in range(3)]
        first = hashcore.widget_for(seeds[0])
        second = hashcore.widget_for(seeds[1])
        # Re-touching seeds[0] makes seeds[1] the least recently used, so
        # inserting seeds[2] must evict seeds[1], not seeds[0].
        assert hashcore.widget_for(seeds[0]) is first
        hashcore.widget_for(seeds[2])
        assert hashcore.widget_for(seeds[0]) is first  # survived
        assert hashcore.widget_for(seeds[1]) is not second  # evicted


class TestChiSquare:
    def test_uniform_sample_low_statistic(self):
        from repro.analysis.stats import chi_square_uniform
        from repro.rng import Xoshiro256

        rng = Xoshiro256(3)
        samples = [rng.next_u64() % 1000 for _ in range(8000)]
        stat = chi_square_uniform(samples, bins=16, upper=1000)
        assert stat < 40  # chi2(15) 99th percentile ≈ 30.6; margin for noise

    def test_biased_sample_high_statistic(self):
        from repro.analysis.stats import chi_square_uniform

        samples = [5] * 1000  # all in one bucket
        stat = chi_square_uniform(samples, bins=10, upper=100)
        assert stat > 1000

    def test_input_validation(self):
        from repro.analysis.stats import chi_square_uniform
        from repro.errors import ReproError

        with pytest.raises(ReproError):
            chi_square_uniform([], bins=4, upper=16)
        with pytest.raises(ReproError):
            chi_square_uniform([1], bins=1, upper=16)
        with pytest.raises(ReproError):
            chi_square_uniform([99], bins=4, upper=16)


class TestDocstringCoverage:
    """Every public module, class, and function in repro must carry a
    docstring — deliverable (e) of the reproduction."""

    def _public_modules(self):
        for info in pkgutil.walk_packages(repro.__path__, prefix="repro."):
            if "._" not in info.name:
                yield __import__(info.name, fromlist=["_"])

    def test_all_modules_documented(self):
        undocumented = [
            module.__name__
            for module in self._public_modules()
            if not (module.__doc__ or "").strip()
        ]
        assert not undocumented, undocumented

    def test_public_classes_and_functions_documented(self):
        undocumented = []
        for module in self._public_modules():
            for name, obj in vars(module).items():
                if name.startswith("_"):
                    continue
                if getattr(obj, "__module__", None) != module.__name__:
                    continue  # re-exports documented at their home
                if inspect.isclass(obj) or inspect.isfunction(obj):
                    if not (obj.__doc__ or "").strip():
                        undocumented.append(f"{module.__name__}.{name}")
        assert not undocumented, undocumented
