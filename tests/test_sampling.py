"""Generator portability, reproducibility, and distributional correctness."""

import array
import hashlib
import math
from bisect import bisect_right

import numpy as np
import pytest

from hermite_counts import (
    DataError,
    DomainError,
    HermiteParams,
    OverflowGuard,
    SampleBatch,
    SplitMix64,
    adaptive_pmf,
    sample_hermite,
    sample_poisson,
    thin_params,
    thin_sample,
)
from hermite_counts import sampling
from hermite_counts.sampling import sample_binomial

from conftest import gof_pvalue, poisson_table_exact

GOF_ALPHA = 0.01


class TestSplitMix64:
    def test_reference_stream(self):
        # first outputs of the reference implementation for seed 0
        rng = SplitMix64(0)
        assert [rng.next_u64() for _ in range(4)] == [
            0xE220A8397B1DCDAF,
            0x6E789E6AA1B965F4,
            0x06C45D188009454F,
            0xF88BB8A8724C81EC,
        ]

    def test_floats_in_unit_interval(self):
        rng = SplitMix64(991)
        xs = [rng.next_float() for _ in range(10_000)]
        assert all(0.0 <= x < 1.0 for x in xs)
        assert 0.45 < np.mean(xs) < 0.55

    def test_seed_masked_to_64_bits(self):
        assert SplitMix64(1 << 64).next_u64() == SplitMix64(0).next_u64()

    @pytest.mark.parametrize("seed, start", [(0, 0), (12345, 7), (2**64 - 1, 1000)], ids=str)
    def test_block_uniforms_are_the_scalar_outputs(self, seed, start):
        # the block form mixes a cached progression (1 .. B) * gamma plus
        # start * gamma + seed, filled B at a time: counts on both sides of
        # each chunk boundary, and an offset that wraps past 2**64
        block = sampling._BLOCK
        rng = SplitMix64(seed)
        for _ in range(start):
            rng.next_u64()
        outputs = [rng.next_u64() >> 11 for _ in range(3 * block + 5)]
        for count in (1, block - 1, block, block + 1, 3 * block + 5):
            v = sampling._uniforms(seed, start, count)
            assert v.dtype == np.int64 and v.tolist() == outputs[:count], count


class TestSamplePoisson:
    def test_zero_rate(self):
        rng = SplitMix64(1)
        assert sample_poisson(0.0, rng) == 0

    def test_negative_rate_rejected(self):
        with pytest.raises(DomainError):
            sample_poisson(-1.0, SplitMix64(1))

    def test_mean_band(self):
        rng = SplitMix64(5)
        draws = [sample_poisson(2.0, rng) for _ in range(100_000)]
        assert abs(np.mean(draws) - 2.0) < 4.0 * np.sqrt(2.0 / 100_000)

    def test_gof_inversion_regime(self):
        rng = SplitMix64(7)
        draws = [sample_poisson(2.0, rng) for _ in range(100_000)]
        assert gof_pvalue(draws, poisson_table_exact(2.0, 30)) > GOF_ALPHA

    def test_gof_rejection_regime(self):
        # rate above 30 exercises the logistic-envelope rejection sampler
        rng = SplitMix64(8)
        draws = [sample_poisson(50.0, rng) for _ in range(100_000)]
        assert gof_pvalue(draws, poisson_table_exact(50.0, 140)) > GOF_ALPHA


class ScriptedUniforms:
    """A generator stand-in whose ``next_float`` returns the given uniforms in turn."""

    def __init__(self, uniforms):
        self.uniforms = list(uniforms)
        self.used = 0

    def next_float(self):
        u = self.uniforms[self.used]
        self.used += 1
        return u


class TestRareStreamBranches:
    """Branches that random seeds almost never reach; each one decides how
    many uniforms a draw takes, so a reimplementation must keep them."""

    @pytest.mark.parametrize(
        "uniforms",
        [
            [0.5, 0.3],  # accepted at once
            [0.0, 0.5, 0.3],  # u = 0 is skipped
            # u below exp(-(alpha + beta/2)) ~ 9e-6 maps to n < 0, skipped
            [1e-6, 0.5, 0.3],
            [0.5, 0.0, 0.5, 0.3],  # v = 0 is skipped
        ],
        ids=["accept", "u-zero", "n-negative", "v-zero"],
    )
    def test_rejection_skips(self, uniforms):
        rng = ScriptedUniforms(uniforms)
        assert sample_poisson(40.0, rng) == 40
        assert rng.used == len(uniforms)

    def test_inversion_stops_where_the_terms_underflow(self):
        # at rate 0.1 the rounded cdf ends at 0.9999999999999998, below the
        # largest uniform 1 - 2**-53, so the search ends where the term is 0
        rng = ScriptedUniforms([1.0 - 2.0**-53])
        assert sample_poisson(0.1, rng) == 122
        assert rng.used == 1


class TestSampleBinomial:
    def test_edge_probabilities(self):
        rng = SplitMix64(2)
        assert sample_binomial(10, 0.0, rng) == 0
        assert sample_binomial(10, 1.0, rng) == 10
        assert sample_binomial(0, 0.3, rng) == 0

    def test_inversion_path_moments(self):
        # counts above 64 take the cdf-inversion branch
        rng = SplitMix64(3)
        draws = [sample_binomial(200, 0.3, rng) for _ in range(50_000)]
        assert abs(np.mean(draws) - 60.0) < 4.0 * np.sqrt(200 * 0.3 * 0.7 / 50_000)

    def test_negative_trials_rejected(self):
        with pytest.raises(DomainError):
            sample_binomial(-1, 0.5, SplitMix64(2))

    @pytest.mark.parametrize("trials, p", [(10, 1.5), (100, -0.5), (10, math.nan)])
    def test_probability_outside_the_unit_interval_rejected(self, trials, p):
        # these returned 10, 0 and 0 with no error
        with pytest.raises(DomainError, match=r"^p must be a real number in \[0, 1\]"):
            sample_binomial(trials, p, SplitMix64(2))

    def test_complement_branch(self):
        rng = SplitMix64(4)
        draws = [sample_binomial(200, 0.97, rng) for _ in range(20_000)]
        assert abs(np.mean(draws) - 194.0) < 4.0 * np.sqrt(200 * 0.97 * 0.03 / 20_000)


class TestSampleHermite:
    def test_point_mass_all_zero(self):
        batch = sample_hermite(HermiteParams((0.0, 0.0)), 50, seed=9)
        assert batch.values == (0,) * 50

    def test_doubled_poisson_support_is_even(self):
        batch = sample_hermite(HermiteParams((0.0, 0.5)), 10_000, seed=11)
        assert all(v % 2 == 0 for v in batch.values)

    def test_mean_band(self):
        batch = sample_hermite(HermiteParams((1.0, 0.5)), 100_000, seed=42)
        assert abs(batch.mean() - 2.0) < 4.0 * np.sqrt(3.0 / 100_000)

    def test_reproducible(self):
        first = sample_hermite(HermiteParams((1.0, 0.5)), 100, seed=42)
        second = sample_hermite(HermiteParams((1.0, 0.5)), 100, seed=42)
        assert first.values == second.values

    def test_frozen_prefix(self):
        # regression pin: the declared generator makes this portable
        batch = sample_hermite(HermiteParams((1.0, 0.5)), 10, seed=42)
        assert batch.values == (2, 0, 2, 2, 2, 0, 1, 1, 0, 2)

    def test_rate_guard(self):
        with pytest.raises(OverflowGuard):
            sample_hermite(HermiteParams((2e6,)), 1, seed=1)

    def test_bad_size(self):
        with pytest.raises(DomainError):
            sample_hermite(HermiteParams((1.0,)), 0, seed=1)

    @pytest.mark.parametrize(
        "a", [(2.0,), (0.5,), (1.0, 0.5), (2.0, 1.0), (1.0, 0.5, 0.25)], ids=str
    )
    def test_gof_against_table(self, a):
        params = HermiteParams(a)
        seed = 202 + [(2.0,), (0.5,), (1.0, 0.5), (2.0, 1.0), (1.0, 0.5, 0.25)].index(a)
        batch = sample_hermite(params, 100_000, seed=seed)
        table = adaptive_pmf(params, 1e-12)
        assert gof_pvalue(batch.values, table.probs) > GOF_ALPHA


class TestThinSample:
    def test_identity_at_one(self):
        batch = sample_hermite(HermiteParams((1.0, 0.5)), 100, seed=13)
        assert thin_sample(batch, 1.0, seed=14).values == batch.values

    def test_zeros_stay_zero(self):
        batch = sample_hermite(HermiteParams((0.0, 0.0)), 100, seed=15)
        assert thin_sample(batch, 0.5, seed=16).values == (0,) * 100

    def test_bad_fraction(self):
        batch = sample_hermite(HermiteParams((1.0,)), 10, seed=17)
        with pytest.raises(DomainError):
            thin_sample(batch, 0.0, seed=18)

    def test_negative_count_rejected(self):
        with pytest.raises(DomainError):
            thin_sample(SampleBatch((3, 70, -1, 2), seed=0), 0.5, seed=1)

    @pytest.mark.parametrize(
        "counts, named",
        [((2.5, 3.9), "2.5"), ((3, 2**63, 0.5), str(2**63)), ((1, 2**70), str(2**70)), ((4, math.nan), "nan")],
        ids=["fractional", "int64-overflow", "beyond-uint64", "nan"],
    )
    def test_count_it_cannot_thin_is_refused_by_name(self, counts, named):
        # sample_binomial has no answer for a fraction, and int64 holds no 2**63
        with pytest.raises(DomainError, match=f"got {named}$"):
            thin_sample(SampleBatch(counts, seed=0), 0.5, seed=1)

    def test_counts_are_checked_at_one_too(self):
        # p = 1 keeps every count, but a count sample_binomial refuses is refused here as well
        with pytest.raises(DomainError, match="got -1$"):
            thin_sample(SampleBatch((-1, 2.5), seed=1), 1.0, seed=1)
        counts = (True, np.int32(70), np.uint64(3), False, 5)
        kept = thin_sample(SampleBatch(counts, seed=0), 1.0, seed=2).values
        assert kept == counts and all(type(x) is int for x in kept)

    @pytest.mark.parametrize("counts, named", [((3, None), "None"), ((3, "4"), "'4'")], ids=["None", "string"])
    def test_count_that_is_no_number_is_refused_by_name(self, counts, named):
        with pytest.raises(DomainError, match=f"got {named}$"):
            thin_sample(SampleBatch(counts, seed=0), 0.5, seed=1)

    @pytest.mark.parametrize(
        "values, refusal",
        [
            ({1, 2}, "batch values must be a sequence of whole numbers, got {1, 2}"),
            (None, "batch values must be a sequence of whole numbers, got None"),
            ({1: 2}, "batch values must be a sequence of whole numbers, got {1: 2}"),
            (((1, 2),), "trial count must be a whole number in [0, 9223372036854775807], got (1, 2)"),
            ([[1], [1, 2]], "trial count must be a whole number in [0, 9223372036854775807], got [1]"),
            ([[1], [2]], "trial count must be a whole number in [0, 9223372036854775807], got [1]"),
            ("ab", "batch values must be a sequence of whole numbers, got 'ab'"),
            ((-1, 2), "trial count must be a whole number in [0, 9223372036854775807], got -1"),
        ],
        ids=["set", "None", "dict", "nested", "ragged", "one-element-rows", "string", "negative"],
    )
    def test_malformed_batch_is_refused_by_name(self, values, refusal):
        # a set, None or a dict failed on slicing or len() with a bare TypeError,
        # a nested or ragged batch in numpy with a ValueError, and one-element
        # rows were thinned as if each were a count; the batch's mean reads
        # the counts by the same rule
        for read in (lambda batch: thin_sample(batch, 0.5, seed=1), SampleBatch.mean):
            with pytest.raises(DomainError) as refused:
                read(SampleBatch(values, seed=0))
            assert str(refused.value) == refusal

    def test_empty_batch_has_no_mean(self):
        with pytest.raises(DataError, match="empty"):
            thin_sample(SampleBatch((), seed=0), 0.5, seed=1).mean()

    @pytest.mark.parametrize("values", [(10**400,), (-(10**400), 0)], ids=["above", "below"])
    def test_batch_mean_beyond_the_double_range_is_refused(self, values):
        with pytest.raises(DomainError, match=f"^trial count .* got {values[0]}$"):
            SampleBatch(values, seed=0).mean()

    @pytest.mark.parametrize("container", [lambda x: array.array("q", x), np.array], ids=["array.array", "ndarray"])
    def test_the_callers_counts_are_left_as_they_are(self, container):
        # the batch is thinned in place in a copy; numpy would share an array.array's buffer
        counts = container([5, 70, 3] * 2000)
        thin_sample(SampleBatch(counts, seed=0), 0.5, seed=1)
        assert list(counts) == [5, 70, 3] * 2000

    def test_bool_and_numpy_integer_counts_thin_as_ints(self):
        counts = (True, np.int32(70), np.uint64(3), False, np.int64(200))
        ints = SampleBatch(tuple(int(x) for x in counts), seed=0)
        assert thin_sample(SampleBatch(counts, seed=0), 0.3, seed=2).values == thin_sample(ints, 0.3, seed=2).values

    def test_gof_against_thinned_law(self):
        params = HermiteParams((1.0, 0.5))
        batch = sample_hermite(params, 100_000, seed=42)
        thinned = thin_sample(batch, 0.5, seed=43)
        target = adaptive_pmf(thin_params(params, 0.5), 1e-12)
        assert gof_pvalue(thinned.values, target.probs) > GOF_ALPHA


def stream_digest(values) -> str:
    return hashlib.sha256(np.asarray(values, dtype="<i8").tobytes()).hexdigest()


SEEDS = (0, 42, 2**64 - 1)
FRACTIONS = (0.3, 0.5, 0.97)

#: A count whose (1 - q)**x underflows, so it runs x literal trials against q.
UNDERFLOW_COUNT = {0.3: 3_000, 0.5: 300_000, 0.97: 30_000}


def golden_counts(p: float, n: int = 70_000) -> tuple[int, ...]:
    # 0..199 scrambled: literal trials up to 64, cdf inversion above; the
    # underflow count sits inside, and the stream crosses many blocks.
    counts = [(k * 7919) % 200 for k in range(n)]
    counts.insert(n * 3 // 7, UNDERFLOW_COUNT[p])
    return tuple(counts)


#: SHA-256 of the thinned streams, computed by the scalar sample_binomial loop.
GOLDEN_THIN = {
    (0, 0.3): "b4eec2a32c7c789488e4f4ff07bbb81f979b8c4b1db66946179c89ba89b8450e",
    (0, 0.5): "3454ccd8773642adc851d6291547465d7afed6acf8b64baa007c642a7c345387",
    (0, 0.97): "77f9a670899ecbade03d882e3588053ef4eb07a21009e93737743c7e9a800434",
    (42, 0.3): "08d012ba40f7f05b8e44fcd2ad937d44e3e383ffb9b46356069e0f6b9b66a2c0",
    (42, 0.5): "db1eb8d39d27f40ad9ec4c6cf133d9b0ea36c278cce3f668e5b55420fc5f2544",
    (42, 0.97): "752e762c40da8272feb7e1bd14d371b7c794c89363b834840293dc655262018c",
    (2**64 - 1, 0.3): "6f491234ecd8bf536ced18b0a286e919d980564ec80625091caba4fee072a5a3",
    (2**64 - 1, 0.5): "b57b527b44983ea442f72fc7b4251cb41cf969bea746cddd96c9aca43ba0b437",
    (2**64 - 1, 0.97): "c35fcc2a0a366989997ba9cdaf2c98d74b1baa42a205f4d5d978b7b0a5e91bf3",
}

#: SHA-256 of 5000 draws, on both sides of the inversion/rejection threshold.
GOLDEN_HERMITE = {
    (0, (1.0, 0.5, 0.25)): "a35872f4a4b11dc7b2580d69f27b162155dc4cbcfc0c3c4f8785af9fbd253fa7",
    (0, (29.5,)): "cb3da22567c265b46a789f873476b276989fae0f204cdeb5790e379d581c2175",
    (0, (30.5, 2.0)): "67627f7c25584376e68ad56a2eb327e2c33290f3ebb3b3c2122cc74c8e27dd91",
    (0, (0.0, 0.7)): "793aedea26866ac4228eed724f11af68b943543b56e31134442b07d59f190d4f",
    (42, (1.0, 0.5, 0.25)): "b963707f9eb4deae39da9e6f4b4cabb78431784e2b8f3a455c5edac42dd7b397",
    (42, (29.5,)): "ee7b590aa2b0818133100163d7f3b2d024bfc5ae4b05ed7943e268b544714afc",
    (42, (30.5, 2.0)): "a0fa3f2358e7910758f16c38032b51c8958cd30777b28c32569e42b39201ebf4",
    (42, (0.0, 0.7)): "0ddab56e969e30c803b4358238968fcc583bb529d1b97f9364f5a2234a14561b",
    (2**64 - 1, (1.0, 0.5, 0.25)): "99fd567957867601340bc3452a4e0918d583c1a7548b3cabacbeec382dd86997",
    (2**64 - 1, (29.5,)): "9e854237950ce9f86f2ffa9672b3738e2e91ed8edae7a8181cfce0959be5c4f0",
    (2**64 - 1, (30.5, 2.0)): "a5b50bf1f7472646cb6ab335c5ffe1390701afc76144a6e1d596e907ecf561d5",
    (2**64 - 1, (0.0, 0.7)): "141a6a73beddfa5c1599ea886a3d813a3a47b0c48e354e3b08a1fab665857bc0",
}

#: SHA-256 of 5000 draws at the extremes of both Poisson samplers: a rate whose
#: cdf search ends at once, the largest inverted rate, rejection at two
#: components, and rejection far out to the component rate limit.
GOLDEN_HERMITE_RATES = {
    (0, (0.001,)): "4532a272aec3b4ec6662e3feef59fba1f990658e18a943b08be84f19e219c005",
    (0, (30.0,)): "c8b71d1662acc105e37662b989ba0ffc9bfc3acddaa3107ac2188a5f2bd0a2e0",
    (0, (40.0, 10.0)): "6bc8f41ec173f71aecc1a5e8aec3c6cc16740de0b8b6a27cc96befe3665fd672",
    (0, (1e4,)): "cc7575c663763c1d4fabbd6629433e27dbbc1235d69efe33fa49340873af8a86",
    (0, (1e6,)): "d13403180d49b57bdaf2e1d1886dc842220c23d8ed434bc4b662b0fd6f52e6f8",
    (42, (0.001,)): "3eabc61139f4a9b0bdd093137a7bea5d265c77e6a986b30d5c5acbc6a555c117",
    (42, (30.0,)): "a181ef5d9ae284dcbfcbdf0eff29a3582dc0329da311f5569f33abf608410e02",
    (42, (40.0, 10.0)): "189b09b3c1aea315265a49a38abafac5bdd21a2a1a838d28ebfede8bed38395b",
    (42, (1e4,)): "c6711206da5e91913fa32f7dc715cac64139a507665294a4584aa2a4b26d9de2",
    (42, (1e6,)): "d330b6355de7ac27acf4ead9190543b8d66c15a12558b21691e84eea40af8414",
    (2**64 - 1, (0.001,)): "1bfffea3d452808151d5bf70d7446d01ed21cf653ff14ccee3c16cbabb78ab10",
    (2**64 - 1, (30.0,)): "bbdae2258a0e6dea982190d8d49254e0ae368021b12b3a578167e46bb966edc1",
    (2**64 - 1, (40.0, 10.0)): "00610004fab62fc095ac90954852bef1b25fa51a4f185f5d4bd41caa855651ae",
    (2**64 - 1, (1e4,)): "4f4234e58bccb32ca7a99914837a1d49b8f1130c781dbb6b34a9922406c94e87",
    (2**64 - 1, (1e6,)): "6265387b949fdf00336f361fad4b875977d7930b08a61f375fbf289db665c34c",
}

#: SHA-256 of 5000 draws with many components in the rejection regime, or one
#: beside an inverted and a zero component, computed by sample_poisson over one
#: SplitMix64 per seed.
GOLDEN_HERMITE_REJECTION = {
    (0, (40.0,) * 8): "4f2ed085c0ab178ababe46ec5f8958c1c874b84c97665270abe6a76ac4e41045",
    (0, (0.3, 0.0, 31.0)): "e2d5097bde3567749fde6605ca3335bdf19baaf02547c34d22dcc1cc32a639fd",
    (42, (40.0,) * 8): "2c27b3815aec84ba34b2bd2822ccf5bf7c6cbe0675bfea0c106e2281f74f12d6",
    (42, (0.3, 0.0, 31.0)): "d01c0345d70458aba639aa9e0f09e8496828eb5398b05204e1595cfaf9b54624",
    (2**64 - 1, (40.0,) * 8): "5773d2f71708a263d5ffb928ad612fc6e39da60a2261f5e6483a846c8a85e052",
    (2**64 - 1, (0.3, 0.0, 31.0)): "3b937302a85eba564f25aa8d3ee97ee0c7600cb4fc493ff99cc1cc3677dc5201",
}

#: derive_seed(seed, stream); (seed, 1) seeds the stream of ``sample --thin``.
GOLDEN_DERIVED_SEEDS = {
    (0, 1): 17629623748622851610,
    (42, 1): 527119514220057781,
    (-1, 1): 11632374133438027796,
    (2**64 + 5, 1): 15540687011558237927,
    (2**64 - 1, 2): 1861275276511547602,
    (7, 0): 7191089600892374487,
}


class TestGoldenStreams:
    @pytest.mark.parametrize("p", FRACTIONS)
    @pytest.mark.parametrize("seed", SEEDS)
    def test_thin_sample_stream(self, seed, p):
        batch = SampleBatch(golden_counts(p), seed=0)
        assert stream_digest(thin_sample(batch, p, seed).values) == GOLDEN_THIN[(seed, p)]

    @pytest.mark.parametrize("a", sorted({a for _, a in GOLDEN_HERMITE}), ids=str)
    @pytest.mark.parametrize("seed", SEEDS)
    def test_sample_hermite_stream(self, seed, a):
        values = sample_hermite(HermiteParams(a), 5000, seed).values
        assert stream_digest(values) == GOLDEN_HERMITE[(seed, a)]

    @pytest.mark.parametrize("a", sorted({a for _, a in GOLDEN_HERMITE_RATES}), ids=str)
    @pytest.mark.parametrize("seed", SEEDS)
    def test_sample_hermite_stream_at_extreme_rates(self, seed, a):
        values = sample_hermite(HermiteParams(a), 5000, seed).values
        assert stream_digest(values) == GOLDEN_HERMITE_RATES[(seed, a)]

    @pytest.mark.parametrize("a", sorted({a for _, a in GOLDEN_HERMITE_REJECTION}), ids=str)
    @pytest.mark.parametrize("seed", SEEDS)
    def test_sample_hermite_stream_in_the_rejection_regime(self, seed, a):
        values = sample_hermite(HermiteParams(a), 5000, seed).values
        assert stream_digest(values) == GOLDEN_HERMITE_REJECTION[(seed, a)]

    @pytest.mark.parametrize("seed, stream", sorted(GOLDEN_DERIVED_SEEDS), ids=str)
    def test_derived_seed(self, seed, stream):
        assert sampling.derive_seed(seed, stream) == GOLDEN_DERIVED_SEEDS[(seed, stream)]

    @pytest.mark.parametrize("p", FRACTIONS)
    def test_thin_sample_matches_scalar_oracle(self, p):
        counts = golden_counts(p, n=3_000)
        rng = SplitMix64(42)
        expected = tuple(sample_binomial(x, p, rng) for x in counts)
        assert thin_sample(SampleBatch(counts, seed=0), p, 42).values == expected

    @pytest.mark.parametrize("seed", [-1, 0, 2**64 - 1, 2**64 + 5])
    @pytest.mark.parametrize("block", [1, 3, 64])
    @pytest.mark.parametrize(
        "a", [(1.0, 0.5, 0.25), (40.0, 10.0), (1e4,), (30.5, 2.0), (0.0, 0.7), (35.0, 0.0, 2.0, 1e3)], ids=str
    )
    def test_sample_hermite_matches_scalar_oracle(self, monkeypatch, a, block, seed):
        # blocks of 1 and 3 uniforms put a block edge between the two uniforms
        # of many rejection attempts; seeds outside [0, 2**64) are masked
        monkeypatch.setattr(sampling, "_BLOCK", block)
        rng = SplitMix64(seed)
        expected = tuple(sum(i * sample_poisson(rate, rng) for i, rate in enumerate(a, start=1)) for _ in range(300))
        assert sample_hermite(HermiteParams(a), 300, seed).values == expected

    @pytest.mark.parametrize("block", [1, 3, 64])
    def test_block_boundaries_match_scalar_oracle(self, monkeypatch, block):
        # tiny blocks put a block edge inside nearly every count's trials
        monkeypatch.setattr(sampling, "_BLOCK", block)
        counts = tuple((k * 37) % 150 for k in range(400)) + (0, 2_500, 0, 65, 64)
        for p in (0.3, 0.5, 0.97):
            rng = SplitMix64(7)
            expected = tuple(sample_binomial(x, p, rng) for x in counts)
            assert thin_sample(SampleBatch(counts, seed=0), p, 7).values == expected


#: Rates whose inversion cdfs the guide search is checked on: one whose cdf
#: ends at once, one whose rounded cdf ends below 1, the middle, and 30.
GUIDE_RATES = (1e-3, 0.1, 0.25, 1.0, 2.0, 7.3, 29.5, 30.0)

LAST_UNIFORM = 1.0 - 2.0**-53


#: The largest 53-bit integer uniform, which stands for LAST_UNIFORM.
LAST_V = 2**53 - 1


def key_neighbours(cdf):
    """v = K - 1, K and K + 1 for the integer key K = ceil(c * 2**53) of each
    entry c, inside the uniforms' range [0, 2**53): where a key rounded the
    wrong way, the uniform at its edge inverts to the wrong index."""
    return [min(max(math.ceil(c * 2.0**53) + d, 0), LAST_V) for c in cdf for d in (-1, 0, 1)]


def scripted_stream(monkeypatch, v):
    """Make the samplers read the 53-bit integers ``v`` as their stream; returns
    a ScriptedUniforms holding the same uniforms, for the scalar definitions."""
    v = np.array(v, dtype=np.int64)
    monkeypatch.setattr(sampling, "_uniforms", lambda seed, start, count: v[start : start + count])
    return ScriptedUniforms((v * 2.0**-53).tolist())


class TestInversionTables:
    @pytest.mark.parametrize("rate", GUIDE_RATES, ids=str)
    def test_guide_search_matches_bisection_of_the_full_cdf(self, rate):
        # uniforms are 53-bit integers v, standing for v * 2**-53
        cdf = sampling._inversion_cdf(rate, math.inf)
        top = len(cdf) - 1
        shift = 53 - sampling._GUIDE_BITS
        keys = [0, LAST_V, *key_neighbours(cdf)]
        keys += [(b << shift) + d for b in range(1 << sampling._GUIDE_BITS) for d in (-1, 0) if (b << shift) + d >= 0]
        keys += sampling._uniforms(GUIDE_RATES.index(rate), 0, 5000).tolist()
        found = sampling._invert(sampling._inversion_table(rate), np.array(keys, dtype=np.int64))
        assert found.tolist() == [min(bisect_right(cdf, v * 2.0**-53), top) for v in keys]

    def test_counts_times_a_large_index_do_not_wrap(self, monkeypatch):
        # the top uniform inverts to index 429 at rate 30, and 77 * 429 = 33,033
        # passes the int16 range that the table's counts are held in
        a = (0.0,) * 76 + (30.0,)
        rng = scripted_stream(monkeypatch, [LAST_V])
        assert sample_hermite(HermiteParams(a), 1, 0).values == (77 * sample_poisson(30.0, rng),) == (33_033,)

    def test_tables_are_cached_and_read_only(self):
        table = sampling._inversion_table(2.0)
        assert sampling._inversion_table(2.0) is table
        for array in table:
            assert not array.flags.writeable
            with pytest.raises(ValueError):
                array[0] = 0
        lgamma = sampling._rejection_table(40.0)[-1]
        assert sampling._rejection_table(40.0)[-1] is lgamma and not lgamma.flags.writeable


def poisson_by_terms(rate, u):
    """sample_poisson's inversion at 0 < rate <= 30, written out term by term
    independently of the library's accumulator: (the count u inverts to, the
    cdf entries accumulated on the way).  At u = inf it runs until the term
    underflows to 0, through the whole rounded cdf."""
    k = 0
    term = cum = math.exp(-rate)
    cdf = [cum]
    while u >= cum:
        k += 1
        term *= rate / k
        cum += term
        cdf.append(cum)
        if term == 0.0:
            break
    return k, cdf


def binomial_by_terms(trials, q, u):
    """sample_binomial's Binomial(trials, q) inversion written out the same
    way, where (1 - q)**trials does not underflow; at u = inf it runs to
    index ``trials``."""
    k = 0
    term = cum = (1.0 - q) ** trials
    cdf = [cum]
    ratio = q / (1.0 - q)
    while u >= cum and k < trials:
        term *= ratio * (trials - k) / (k + 1.0)
        k += 1
        cum += term
        cdf.append(cum)
    return k, cdf


def entry_edges(cdf):
    """0, the largest uniform, and every entry of ``cdf`` with its float
    neighbours, as uniforms in [0, 1): a search that stops one entry early or
    late draws another count at one of them."""
    edges = {0.0, LAST_UNIFORM}
    for c in cdf:
        edges.update((math.nextafter(c, 0.0), c, math.nextafter(c, 2.0)))
    return sorted(u for u in edges if 0.0 <= u < 1.0)


#: Counts and fractions of the Binomial inversion branch checked against the
#: term-by-term reference: the sizes 65, 200, 1,000 and 5,000 at p = 0.3 and
#: 0.8, where (1 - q)**x does not underflow (at 5,000 it underflows for both).
INVERTED_COUNTS = [
    (x, p) for x in (65, 200, 1_000, 5_000) for p in (0.3, 0.8) if (1.0 - min(p, 1.0 - p)) ** x > 0.0
]


class TestAccumulationReference:
    """The scalar definitions and the block tables share one accumulator per
    law, so these compare it with the loops written out above."""

    @pytest.mark.parametrize("rate", GUIDE_RATES, ids=str)
    def test_sample_poisson_inverts_as_the_term_by_term_loop(self, rate):
        for u in entry_edges(poisson_by_terms(rate, math.inf)[1]):
            rng = ScriptedUniforms([u])
            assert (sample_poisson(rate, rng), rng.used) == (poisson_by_terms(rate, u)[0], 1), u

    @pytest.mark.parametrize("trials, p", INVERTED_COUNTS, ids=str)
    def test_sample_binomial_inverts_as_the_term_by_term_loop(self, trials, p):
        q = min(p, 1.0 - p)
        for u in entry_edges(binomial_by_terms(trials, q, math.inf)[1]):
            k = binomial_by_terms(trials, q, u)[0]
            rng = ScriptedUniforms([u])
            assert (sample_binomial(trials, p, rng), rng.used) == (trials - k if p > 0.5 else k, 1), u


class TestIntegerKeys:
    """Each comparison of a uniform with a probability is made on integer
    keys; uniforms at every key's edges must decide as the floats do."""

    @pytest.mark.parametrize("p", [0.375, 0.3, 1.0 - 0.3], ids=["p-times-2**53-whole", "p-times-2**53-not-whole", "flip"])
    def test_bernoulli_trials_at_the_key_of_p(self, monkeypatch, p):
        assert (0.375 * 2.0**53).is_integer() and not (0.3 * 2.0**53).is_integer()
        # trials u < p, and u < q = 1 - p when p > 0.5, at v = K - 1, K, K + 1
        # in turn: counts of 3 (literal trials) and 2,500 (trials past the
        # underflow of (1 - q)**x, which read u < q)
        keys = key_neighbours([p, 1.0 - p])
        counts = (3,) * len(keys) + (2_500,)
        v = keys * (sum(counts) // len(keys) + 1)
        rng = scripted_stream(monkeypatch, v)
        expected = tuple(sample_binomial(x, p, rng) for x in counts)
        assert thin_sample(SampleBatch(counts, seed=0), p, 0).values == expected

    @pytest.mark.parametrize("p", [0.3, 0.8])
    def test_binomial_inversion_at_its_keys(self, monkeypatch, p):
        # a count of 100 above _BERNOULLI_MAX takes one uniform, inverted in
        # the Binomial(100, q) cdf; one count per uniform at each key's edges
        q = min(p, 1.0 - p)
        cdf = sampling._binomial_cdf(100, q, 1.0)
        v = [0, LAST_V, *key_neighbours(cdf)]
        rng = scripted_stream(monkeypatch, v)
        counts = (100,) * len(v)
        expected = tuple(sample_binomial(x, p, rng) for x in counts)
        assert thin_sample(SampleBatch(counts, seed=0), p, 0).values == expected
        assert rng.used == len(v)


class TestRejectionWindows:
    @pytest.mark.parametrize(
        "golden", [GOLDEN_HERMITE_RATES, GOLDEN_HERMITE_REJECTION], ids=["extreme-rates", "rejection"]
    )
    def test_every_attempt_redone_by_math_gives_the_golden_streams(self, monkeypatch, golden):
        # an infinite margin sends every attempt with u > 0 to the scalar route
        monkeypatch.setattr(sampling, "_MARGIN", math.inf)
        for (seed, a), digest in golden.items():
            assert stream_digest(sample_hermite(HermiteParams(a), 5000, seed).values) == digest

    def test_numpy_libm_lies_far_inside_the_margin(self):
        # the window's log, exp and square against math's on their whole domain:
        # log((1 - u) / u) for 53-bit u in (0, 1), and exp(y) for y in [-37, 37]
        u = np.concatenate(([2.0**-53, LAST_UNIFORM], sampling._uniforms(3, 0, 10**6 - 2) * 2.0**-53))
        u = u[u > 0.0]
        odds = (1.0 - u) / u
        y = np.linspace(-37.0, 37.0, 10**6)
        e = np.array(list(map(math.exp, y.tolist())))
        pairs = [
            (np.log(odds), list(map(math.log, odds.tolist()))),
            (np.exp(y), e),
            ((1.0 + e) ** 2, [(1.0 + x) ** 2 for x in e.tolist()]),
        ]
        worst = 0.0
        for got, want in pairs:
            want = np.array(want)
            assert np.array_equal(got == 0.0, want == 0.0)
            nonzero = want != 0.0
            worst = max(worst, float(np.max(np.abs(got[nonzero] - want[nonzero]) / np.abs(want[nonzero]))))
        assert worst <= 2.0**-50
        assert sampling._MARGIN >= 2.0**20 * 2.0**-50

    @pytest.mark.parametrize("block", [1, 3, 64])
    @pytest.mark.parametrize("n", [1, 2, 10])
    def test_small_samples_match_scalar_oracle(self, monkeypatch, n, block):
        monkeypatch.setattr(sampling, "_BLOCK", block)
        for seed in SEEDS:
            rng = SplitMix64(seed)
            expected = tuple(sample_poisson(40.0, rng) + 2 * sample_poisson(10.0, rng) for _ in range(n))
            assert sample_hermite(HermiteParams((40.0, 10.0)), n, seed).values == expected
