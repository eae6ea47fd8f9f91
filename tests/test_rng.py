"""Unit tests for the deterministic PRNGs."""

import pytest
from hypothesis import given, strategies as st

from repro.rng import MASK64, Xoshiro256, splitmix64


class TestSplitmix64:
    def test_known_vector(self):
        # Reference values from the SplitMix64 stream seeded at 0: the
        # first output is splitmix64 applied to state 0.
        assert splitmix64(0) == 0xE220A8397B1DCDAF

    def test_known_vector_second(self):
        # Second stream element: state advances by the golden gamma.
        assert splitmix64(0x9E3779B97F4A7C15) == 0x6E789E6AA1B965F4

    def test_output_is_64_bit(self):
        for x in (0, 1, MASK64, 123456789):
            assert 0 <= splitmix64(x) <= MASK64

    def test_deterministic(self):
        assert splitmix64(42) == splitmix64(42)

    def test_distinct_inputs_distinct_outputs(self):
        outputs = {splitmix64(i) for i in range(1000)}
        assert len(outputs) == 1000


class TestXoshiro256:
    @pytest.mark.parametrize(
        ("seed", "outputs", "state"),
        [
            (
                0,
                (0x422EA740D0977210, 0xE062B061B42E2928,
                 0x5A071FC5930841B6, 0x01334EF8ED3CC2BD),
                (0x82178FF358EB75A6, 0xB4C031A204B8126D,
                 0xCA764F8C90A81C79, 0x4ED49AF06B8BA080),
            ),
            (
                0x0123456789ABCDEF,
                (0x3819987C267EB726, 0xEBB1DAD2ABE079BC,
                 0xAEECEAC96215A262, 0x7B6E5C2D0A220D5C),
                (0xF3F37C6BB7BE0748, 0x621E30A8C1B08985,
                 0xF6023C704B21E41F, 0xDBCACE5A025ECDCE),
            ),
        ],
    )
    def test_known_answers(self, seed, outputs, state):
        # Every widget is drawn from this stream, so these pin consensus.
        rng = Xoshiro256(seed)
        assert tuple(rng.next_u64() for _ in range(4)) == outputs
        assert rng.getstate() == state

    def test_deterministic_stream(self):
        a = Xoshiro256(7)
        b = Xoshiro256(7)
        assert [a.next_u64() for _ in range(20)] == [b.next_u64() for _ in range(20)]

    def test_different_seeds_differ(self):
        a = [Xoshiro256(1).next_u64() for _ in range(4)]
        b = [Xoshiro256(2).next_u64() for _ in range(4)]
        assert a != b

    def test_seed_zero_is_not_degenerate(self):
        # SplitMix64 seeding guarantees a non-zero state even for seed 0.
        rng = Xoshiro256(0)
        outputs = {rng.next_u64() for _ in range(100)}
        assert len(outputs) == 100
        assert any(rng_state != 0 for rng_state in Xoshiro256(0).getstate())

    def test_random_in_unit_interval(self):
        rng = Xoshiro256(3)
        for _ in range(1000):
            assert 0.0 <= rng.random() < 1.0

    def test_random_mean_near_half(self):
        rng = Xoshiro256(5)
        sample = [rng.random() for _ in range(5000)]
        assert abs(sum(sample) / len(sample) - 0.5) < 0.02

    def test_randint_bounds(self):
        rng = Xoshiro256(11)
        values = [rng.randint(3, 9) for _ in range(500)]
        assert min(values) == 3
        assert max(values) == 9

    def test_randint_single_point(self):
        assert Xoshiro256(1).randint(5, 5) == 5

    def test_randint_empty_range_raises(self):
        with pytest.raises(ValueError):
            Xoshiro256(1).randint(5, 4)

    def test_choice_covers_all_elements(self):
        rng = Xoshiro256(13)
        seen = {rng.choice("abcd") for _ in range(200)}
        assert seen == set("abcd")

    def test_choice_empty_raises(self):
        with pytest.raises(ValueError):
            Xoshiro256(1).choice([])

    def test_shuffle_is_permutation(self):
        rng = Xoshiro256(17)
        items = list(range(50))
        shuffled = list(items)
        rng.shuffle(shuffled)
        assert sorted(shuffled) == items
        assert shuffled != items  # astronomically unlikely to be identity

    @pytest.mark.parametrize("length", [0, 1, 2, 512, 2048])
    def test_shuffle_is_next_u64_fisher_yates(self, length):
        # The widget generator and the pointer ring shuffle with this, so
        # both the permutation and the state it leaves are consensus.
        shuffled, reference = list(range(length)), list(range(length))
        rng, ref_rng = Xoshiro256(0x5EED + length), Xoshiro256(0x5EED + length)
        rng.shuffle(shuffled)
        for i in range(length - 1, 0, -1):
            j = ref_rng.next_u64() % (i + 1)
            reference[i], reference[j] = reference[j], reference[i]
        assert shuffled == reference
        assert rng.getstate() == ref_rng.getstate()

    def test_sample_weighted_respects_zero_weight(self):
        rng = Xoshiro256(19)
        draws = {rng.sample_weighted([0.0, 1.0, 0.0]) for _ in range(100)}
        assert draws == {1}

    def test_sample_weighted_proportions(self):
        rng = Xoshiro256(23)
        counts = [0, 0]
        for _ in range(4000):
            counts[rng.sample_weighted([3.0, 1.0])] += 1
        assert 0.70 < counts[0] / 4000 < 0.80

    def test_sample_weighted_rejects_non_positive_total(self):
        with pytest.raises(ValueError):
            Xoshiro256(1).sample_weighted([0.0, 0.0])

    @given(st.integers(min_value=0, max_value=MASK64))
    def test_outputs_stay_64_bit(self, seed):
        rng = Xoshiro256(seed)
        for _ in range(8):
            assert 0 <= rng.next_u64() <= MASK64
