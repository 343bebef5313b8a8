"""End-to-end command-line behaviour: formats, determinism, exit codes."""

import hashlib
import json
import math
import re
import os
import subprocess
import sys
import time
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from hermite_counts import HermiteParams, PmfTable, reference, sample_hermite, sampling, thin_sample
from hermite_counts.cli import _read_count_data, main


def write_model(tmp_path, name="model.json", **doc):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestPmfCommand:
    def test_poisson_rows(self, tmp_path, capsys):
        model = write_model(tmp_path, order=1, a=[2.0])
        code, out, _ = run_cli(capsys, "pmf", model, "--k-max", "2")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "k,p"
        rows = dict(line.split(",") for line in lines[1:-1])
        assert float(rows["0"]) == pytest.approx(math.exp(-2.0), rel=1e-15)
        assert float(rows["1"]) == pytest.approx(2 * math.exp(-2.0), rel=1e-15)
        assert lines[-1].startswith("tail_mass,")

    def test_order_two_rows(self, tmp_path, capsys):
        model = write_model(tmp_path, order=2, a=[1.0, 0.5])
        code, out, _ = run_cli(capsys, "pmf", model, "--k-max", "3")
        assert code == 0
        probs = [float(line.split(",")[1]) for line in out.strip().splitlines()[1:-1]]
        e = math.exp(-1.5)
        assert probs == pytest.approx([e, e, e, 2 * e / 3], rel=1e-14)

    def test_eps_mode(self, tmp_path, capsys):
        model = write_model(tmp_path, order=1, a=[2.0])
        code, out, _ = run_cli(capsys, "pmf", model, "--eps", "1e-9")
        assert code == 0
        tail = float(out.strip().splitlines()[-1].split(",")[1])
        assert tail < 1e-9

    @pytest.mark.parametrize("rate", [750.0, 2e5])
    def test_eps_mode_at_rates_where_exp_underflows(self, tmp_path, capsys, rate):
        model = write_model(tmp_path, order=1, a=[rate])
        code, out, _ = run_cli(capsys, "pmf", model, "--eps", "1e-12")
        assert code == 0
        assert float(out.strip().splitlines()[-1].split(",")[1]) < 1e-12

    def test_negative_coefficient_is_domain_error(self, tmp_path, capsys):
        model = write_model(tmp_path, order=1, a=[-1.0])
        code, _, err = run_cli(capsys, "pmf", model, "--k-max", "3")
        assert code == 3
        assert "error" in err

    def test_overflowing_mean_is_guarded(self, tmp_path, capsys):
        model = write_model(tmp_path, order=1, a=[1e300])
        code, _, err = run_cli(capsys, "pmf", model, "--k-max", "3")
        assert code == 3
        assert "a_1" in err

    def test_malformed_json_is_parse_error(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        code, _, _ = run_cli(capsys, "pmf", str(path), "--k-max", "3")
        assert code == 2

    def test_order_mismatch_is_parse_error(self, tmp_path, capsys):
        model = write_model(tmp_path, order=3, a=[1.0, 0.5])
        code, _, _ = run_cli(capsys, "pmf", model, "--k-max", "3")
        assert code == 2


class TestFitCommand:
    def test_poisson_mle_equals_mean(self, tmp_path, capsys):
        model = write_model(tmp_path, order=1, a=[2.0])
        code, out, _ = run_cli(capsys, "sample", model, "--n", "20000", "--seed", "3")
        assert code == 0
        values = [int(v) for v in out.split()]
        data = tmp_path / "counts.txt"
        data.write_text("\n".join(str(v) for v in values) + "\n")
        code, out, _ = run_cli(capsys, "fit", str(data), "--order", "1")
        assert code == 0
        doc = json.loads(out)
        assert doc["a"][0] == pytest.approx(sum(values) / len(values), rel=1e-9)
        assert doc["converged"] is True
        assert doc["method"] == "mle"

    def test_sample_fit_round_trip_at_large_rates(self, tmp_path, capsys):
        model = write_model(tmp_path, order=2, a=[600.0, 150.0])
        _, out, _ = run_cli(capsys, "sample", model, "--n", "2000", "--seed", "5")
        values = [int(v) for v in out.split()]
        data = tmp_path / "counts.txt"
        data.write_text(out)
        code, out, _ = run_cli(capsys, "fit", str(data), "--order", "2")
        assert code == 0
        a = json.loads(out)["a"]
        mean = sum(values) / len(values)
        assert abs(a[0] + 2 * a[1] - mean) <= 1e-8 * mean

    @pytest.mark.parametrize("outlier", [1000, 20000])
    @pytest.mark.parametrize(
        "command", [["fit", "--order", "2"], ["select", "--r-max", "3"]], ids=["fit", "select"]
    )
    def test_single_far_outlier(self, tmp_path, capsys, command, outlier):
        model = write_model(tmp_path, order=2, a=[1.0, 0.5])
        _, out, _ = run_cli(capsys, "sample", model, "--n", "4999", "--seed", "8")
        data = tmp_path / "counts.txt"
        data.write_text(out + f"{outlier}\n")
        code, _, err = run_cli(capsys, command[0], str(data), *command[1:])
        assert code == 0, err

    def test_far_apart_pair_beats_poisson(self, tmp_path, capsys):
        # order 2 starts at the Poisson maximum (mean, 0) and ascends from there
        data = tmp_path / "hist.csv"
        data.write_text("count,freq\n0,1\n50000,1\n")
        code, out, err = run_cli(capsys, "fit", str(data), "--order", "2")
        assert code == 0, err
        poisson = 2 * (-25000.0) + 50000 * math.log(25000.0) - math.lgamma(50001.0)
        assert json.loads(out)["loglik"] > poisson

    def test_moments_agrees_for_poisson(self, tmp_path, capsys):
        data = tmp_path / "counts.txt"
        data.write_text("\n".join(["1"] * 3 + ["2"] * 4 + ["0"] * 3) + "\n")
        code, out_mle, _ = run_cli(capsys, "fit", str(data), "--order", "1")
        assert code == 0
        code, out_mom, _ = run_cli(capsys, "fit", str(data), "--order", "1", "--method", "moments")
        assert code == 0
        assert json.loads(out_mle)["a"][0] == pytest.approx(
            json.loads(out_mom)["a"][0], rel=1e-9
        )

    @pytest.mark.parametrize(
        "counts, order",
        [(("0", "1000000"), r) for r in range(46, 52)] + [(("0", "1", "1", "2", "3"), r) for r in (188, 2000, 10**6)],
    )
    def test_moments_refusals_are_one_line_errors(self, tmp_path, capsys, counts, order):
        # orders 46-51 crashed with "ValueError: -inf + inf in fsum"; the
        # estimate now exists, but its mean is past the likelihood's 2**400.
        # Orders above 170 are refused before any arithmetic.
        data = tmp_path / "counts.txt"
        data.write_text("\n".join(counts) + "\n")
        start = time.perf_counter()
        code, out, err = run_cli(capsys, "fit", str(data), "--order", str(order), "--method", "moments")
        assert time.perf_counter() - start < 1.0
        assert (code, out) == (3, "")
        assert err.startswith("error: ") and err.count("\n") == 1

    def test_histogram_csv_matches_raw(self, tmp_path, capsys):
        raw = tmp_path / "raw.txt"
        raw.write_text("0\n1\n1\n2\n2\n2\n")
        hist = tmp_path / "hist.csv"
        hist.write_text("count,freq\n0,1\n1,2\n2,3\n")
        _, out_raw, _ = run_cli(capsys, "fit", str(raw), "--order", "2")
        _, out_hist, _ = run_cli(capsys, "fit", str(hist), "--order", "2")
        assert json.loads(out_raw)["a"] == json.loads(out_hist)["a"]

    def test_empty_file(self, tmp_path, capsys):
        data = tmp_path / "empty.txt"
        data.write_text("")
        code, _, _ = run_cli(capsys, "fit", str(data), "--order", "1")
        assert code == 2

    def test_all_zero_data_is_domain_error(self, tmp_path, capsys):
        data = tmp_path / "zeros.txt"
        data.write_text("0\n" * 10)
        code, _, _ = run_cli(capsys, "fit", str(data), "--order", "1")
        assert code == 3

    def test_garbled_line_is_parse_error(self, tmp_path, capsys):
        data = tmp_path / "bad.txt"
        data.write_text("1\ntwo\n3\n")
        code, _, _ = run_cli(capsys, "fit", str(data), "--order", "1")
        assert code == 2

    def test_nonconvergence_exits_four_but_emits(self, tmp_path, capsys, monkeypatch):
        import dataclasses

        import hermite_counts.estimation as estimation
        from hermite_counts import fit_mle

        def unconverged_fit(hist, r, **kwargs):
            return dataclasses.replace(fit_mle(hist, r, **kwargs), converged=False)

        # cmd_fit imports fit_mle from its module each time it runs
        monkeypatch.setattr(estimation, "fit_mle", unconverged_fit)
        data = tmp_path / "counts.txt"
        data.write_text("0\n1\n2\n2\n3\n")
        code, out, _ = run_cli(capsys, "fit", str(data), "--order", "2")
        assert code == 4
        assert json.loads(out)["converged"] is False


class TestSelectCommand:
    def test_order_two_data(self, tmp_path, capsys):
        model = write_model(tmp_path, order=2, a=[1.0, 1.0])
        _, out, _ = run_cli(capsys, "sample", model, "--n", "10000", "--seed", "110001")
        data = tmp_path / "counts.txt"
        data.write_text(out)
        code, out, _ = run_cli(capsys, "select", str(data), "--r-max", "3")
        assert code == 0
        doc = json.loads(out)
        assert doc["chosen_order"] == 2
        assert doc["steps"][0]["rejected"] is True
        assert {f["order"] for f in doc["fits"]} == {1, 2, 3}

    def test_alpha_zero_is_domain_error(self, tmp_path, capsys):
        data = tmp_path / "counts.txt"
        data.write_text("0\n1\n2\n")
        code, _, _ = run_cli(capsys, "select", str(data), "--r-max", "2", "--alpha", "0")
        assert code == 3


class TestSampleCommand:
    def test_point_mass(self, tmp_path, capsys):
        model = write_model(tmp_path, order=2, a=[0.0, 0.0])
        code, out, _ = run_cli(capsys, "sample", model, "--n", "5", "--seed", "1")
        assert code == 0
        assert out.split() == ["0"] * 5

    def test_deterministic(self, tmp_path, capsys):
        model = write_model(tmp_path, order=2, a=[1.0, 0.5])
        _, first, _ = run_cli(capsys, "sample", model, "--n", "50", "--seed", "42")
        _, second, _ = run_cli(capsys, "sample", model, "--n", "50", "--seed", "42")
        assert first == second

    def test_thin_flag_changes_values_deterministically(self, tmp_path, capsys):
        model = write_model(tmp_path, order=2, a=[1.0, 0.5])
        _, plain, _ = run_cli(capsys, "sample", model, "--n", "50", "--seed", "42")
        _, thinned, _ = run_cli(capsys, "sample", model, "--n", "50", "--seed", "42", "--thin", "0.5")
        _, again, _ = run_cli(capsys, "sample", model, "--n", "50", "--seed", "42", "--thin", "0.5")
        assert thinned == again
        assert [int(a) for a in thinned.split()] <= [int(b) for b in plain.split()]

    @pytest.mark.parametrize(
        "a, n, seed, thin, digest",
        [
            ([40.0, 10.0], "3000", "0", ["--thin", "0.3"],
             "5beb5a418f8fa8924e3cb978cbcd440a9955d4d158977d8883d308f3ade1a79f"),
            ([40.0, 10.0], "3000", "42", ["--thin", "0.5"],
             "c9ad0bd9a3153751492527736d889d60b91e29d55d4ce2ce21e4595ce3c6b65b"),
            ([40.0, 10.0], "3000", "18446744073709551615", ["--thin", "0.97"],
             "7258e762d9b3219b0fa93263080660f3efa415191deb860e9da6bcd06dd63148"),
            ([1.0, 0.5, 0.25], "40000", "42", [],
             "f7f14e963278fb30a165036206d577228ca5b88a17280ca46d5b41cae7165a7d"),
            ([1.0, 0.5, 0.25], "40000", "42", ["--thin", "0.5"],
             "071826db227a3eab5b5207fef72e30029a0fc1a84c7bb259076903034653143a"),
        ],
    )
    def test_golden_stdout(self, tmp_path, capsys, a, n, seed, thin, digest):
        # SHA-256 of stdout as written by the scalar samplers in one piece;
        # 40000 lines cross several blocks
        model = write_model(tmp_path, order=len(a), a=a)
        code, out, _ = run_cli(capsys, "sample", model, "--n", n, "--seed", seed, *thin)
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == digest

    def test_bad_thin_fraction(self, tmp_path, capsys):
        model = write_model(tmp_path, order=1, a=[1.0])
        code, _, _ = run_cli(capsys, "sample", model, "--n", "5", "--seed", "1", "--thin", "1.5")
        assert code == 3

    @pytest.mark.parametrize(
        "a, options",
        [([1.0], ["--n", "200000", "--thin", "0"]), ([1.0], ["--n", "5", "--thin", "1.5"]),
         ([1.0], ["--n", "0"]), ([1.0], ["--n", "-3", "--thin", "0.5"]), ([1.0, 2e6], ["--n", "5", "--thin", "0.5"])],
        ids=["thin-zero", "thin-above-one", "n-zero", "n-negative", "rate-above-limit"],
    )
    def test_refused_before_the_first_draw(self, tmp_path, capsys, monkeypatch, a, options):
        # _uniforms computes every uniform that sampling and thinning read
        def no_draws(seed, start, count):
            raise AssertionError("drew before every input was checked")

        monkeypatch.setattr(sampling, "_uniforms", no_draws)
        model = write_model(tmp_path, order=len(a), a=a)
        code, out, err = run_cli(capsys, "sample", model, "--seed", "1", *options)
        assert (code, out) == (3, "")
        assert err.startswith("error: ")

    @pytest.mark.parametrize("a", [[1.0, 0.5, 0.25], [40.0, 10.0], [30.5, 2.0]], ids=["inversion", "rejection", "mixed"])
    @pytest.mark.parametrize("thin", [None, 0.5])
    @pytest.mark.parametrize("n", [1, 130])
    @pytest.mark.parametrize("block", [1, 3, 64])
    def test_blocks_write_the_whole_sample(self, tmp_path, capsys, monkeypatch, a, thin, n, block):
        # the reference is made in one block; the command then writes many
        batch = sample_hermite(HermiteParams(a), n, 11)
        if thin is not None:
            batch = thin_sample(batch, thin, sampling.derive_seed(11, 1))
        monkeypatch.setattr(sampling, "_BLOCK", block)
        model = write_model(tmp_path, order=len(a), a=a)
        options = [] if thin is None else ["--thin", repr(thin)]
        code, out, _ = run_cli(capsys, "sample", model, "--n", str(n), "--seed", "11", *options)
        assert code == 0
        assert out == "\n".join(map(str, batch.values)) + "\n"


class TestBoundedMemory:
    """The bulk paths hold a block at a time, so their memory does not grow with n.

    Blocks are shrunk to BLOCK so that n can span many of them while tracing
    stays fast; the traced peak at 4n must then match the peak at n.
    """

    BLOCK = 256
    #: Allowed growth of the traced peak from n to 4n, in bytes.  Holding the
    #: whole sample or file costs some 400 KB more at 4n than at n.
    SLACK = 64 * 1024

    @pytest.fixture(autouse=True)
    def small_blocks_to_devnull(self, monkeypatch):
        import hermite_counts.cli as cli_mod

        monkeypatch.setattr(sampling, "_BLOCK", self.BLOCK)
        monkeypatch.setattr(cli_mod, "_READ_LINES", self.BLOCK)
        with open(os.devnull, "w") as devnull:
            monkeypatch.setattr(sys, "stdout", devnull)
            yield

    @staticmethod
    def traced_peaks(argvs) -> list[int]:
        peaks = []
        for argv in argvs:
            tracemalloc.start()
            try:
                assert main(argv) == 0
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        return peaks

    @pytest.mark.parametrize("thin", [[], ["--thin", "0.5"]], ids=["plain", "thinned"])
    def test_sample(self, tmp_path, thin):
        model = write_model(tmp_path, order=3, a=[1.0, 0.5, 0.25])
        n = 8 * self.BLOCK
        # the first run only warms caches
        argvs = [["sample", model, "--n", str(size), "--seed", "1", *thin] for size in (n, n, 4 * n)]
        _, small, large = self.traced_peaks(argvs)
        assert large - small < self.SLACK

    def test_fit_on_a_raw_counts_file(self, tmp_path):
        paths = tmp_path / "small.txt", tmp_path / "large.txt"
        for path, blocks in zip(paths, (8, 32)):
            path.write_text("10\n11\n12\n13\n" * (blocks * self.BLOCK // 4))
        argvs = [["fit", str(path), "--order", "1"] for path in (paths[0], *paths)]
        _, small, large = self.traced_peaks(argvs)
        assert large - small < self.SLACK


class TestThinCommand:
    def test_hand_computed(self, tmp_path, capsys):
        model = write_model(tmp_path, order=2, a=[1.0, 0.5])
        code, out, _ = run_cli(capsys, "thin", model, "--p", "0.5")
        assert code == 0
        assert json.loads(out)["a"] == [0.75, 0.125]

    def test_identity(self, tmp_path, capsys):
        model = write_model(tmp_path, order=2, a=[1.0, 0.5])
        code, out, _ = run_cli(capsys, "thin", model, "--p", "1")
        assert code == 0
        assert json.loads(out)["a"] == [1.0, 0.5]

    def test_out_of_range(self, tmp_path, capsys):
        model = write_model(tmp_path, order=2, a=[1.0, 0.5])
        code, _, _ = run_cli(capsys, "thin", model, "--p", "1.5")
        assert code == 3


class TestConvertCommand:
    def test_params_to_cumulants(self, tmp_path, capsys):
        model = write_model(tmp_path, order=2, a=[1.0, 0.5])
        code, out, _ = run_cli(capsys, "convert", model, "--to", "cumulants")
        assert code == 0
        assert json.loads(out)["kappa"] == [2.0, 1.0]

    def test_cumulants_to_params(self, tmp_path, capsys):
        model = write_model(tmp_path, name="kappa.json", order=2, kappa=[2.0, 1.0])
        code, out, _ = run_cli(capsys, "convert", model, "--to", "params")
        assert code == 0
        assert json.loads(out)["a"] == [1.0, 0.5]

    def test_summary(self, tmp_path, capsys):
        model = write_model(tmp_path, order=2, a=[1.0, 0.5])
        code, out, _ = run_cli(capsys, "convert", model, "--to", "summary")
        assert code == 0
        doc = json.loads(out)
        assert (doc["mean"], doc["variance"]) == (2.0, 3.0)
        assert doc["eta"][0] == 0.25

    def test_inadmissible_cumulants(self, tmp_path, capsys):
        model = write_model(tmp_path, name="kappa.json", order=2, kappa=[1.0, -0.5])
        code, _, _ = run_cli(capsys, "convert", model, "--to", "params")
        assert code == 3

    def test_emitted_cumulants_convert_back(self, tmp_path, capsys):
        # the closed form leaves a_1 = +9.5e-7 of rounding, inside its bound
        # of 5.4e-5, so a_1 is 0; an absolute tolerance of 1e-9 refused it
        a = [0.0, 5904388356.663314, 3178802430.346959, 1846000724.336912]
        code, out, _ = run_cli(capsys, "convert", write_model(tmp_path, a=a), "--to", "cumulants")
        assert code == 0
        emitted = tmp_path / "kappa.json"
        emitted.write_text(out)
        code, out, _ = run_cli(capsys, "convert", str(emitted), "--to", "params")
        assert code == 0
        assert json.loads(out)["a"] == pytest.approx(a, rel=1e-12)
        code, _, _ = run_cli(capsys, "thin", str(emitted), "--p", "0.5")
        assert code == 0

    def test_emitted_order_twenty_cumulants_convert_back(self, tmp_path, capsys):
        # the back-substitution gave a_1 = -0.66 here and refused the document
        a = [0.0, 118829.483, 9575.715, 0.106, 0.503, 72774.798, 0.001, 24606.835, 14915.055, 16.271]
        a += [0.534, 0.321, 0.197, 10.132, 34.748, 95.824, 910966.803, 13613.107, 397.753, 795502.098]
        code, out, _ = run_cli(capsys, "convert", write_model(tmp_path, a=a), "--to", "cumulants")
        assert code == 0
        emitted = tmp_path / "kappa.json"
        emitted.write_text(out)
        kappa = json.loads(out)["kappa"]
        code, out, _ = run_cli(capsys, "convert", str(emitted), "--to", "params")
        assert code == 0
        code, out, _ = run_cli(capsys, "convert", write_model(tmp_path, **json.loads(out)), "--to", "cumulants")
        assert code == 0
        back = json.loads(out)["kappa"]
        assert max(abs(x - y) for x, y in zip(back, kappa)) <= 1e-14 * max(map(abs, kappa))

    def test_cumulants_beyond_the_double_range_refused(self, tmp_path, capsys):
        # kappa_(1) = 1.5e308 + 1.6e308 overflowed inside fsum: a traceback, exit 1
        model = write_model(tmp_path, a=[1.5e308, 0.8e308])
        code, out, err = run_cli(capsys, "convert", model, "--to", "cumulants")
        assert (code, out) == (3, "")
        assert "kappa_(1)" in err

    def test_tiny_inadmissible_cumulants_refused(self, tmp_path, capsys):
        # a_1 = -9e-12 fell inside an absolute tolerance of 1e-9 and was
        # clamped, giving a model of mean 1e-11, ten times kappa_(1)
        model = write_model(tmp_path, name="kappa.json", kappa=[1e-12, 1e-11])
        code, out, err = run_cli(capsys, "convert", model, "--to", "params")
        assert (code, out) == (3, "")
        assert "not admissible" in err

    def test_model_roundtrip_is_lossless(self, tmp_path, capsys):
        # emitted coefficients re-parse to identical downstream output
        model = write_model(tmp_path, order=2, a=[0.9174316825402466, 0.4513148989038335])
        _, thin_out, _ = run_cli(capsys, "thin", model, "--p", "0.7314159")
        doc = json.loads(thin_out)
        emitted = write_model(tmp_path, name="emitted.json", order=doc["order"], a=doc["a"])
        _, pmf_first, _ = run_cli(capsys, "pmf", emitted, "--k-max", "40")
        direct = write_model(tmp_path, name="direct.json", order=2, a=[0.9174316825402466, 0.4513148989038335])
        _, thin_again, _ = run_cli(capsys, "thin", direct, "--p", "0.7314159")
        emitted2 = write_model(
            tmp_path, name="emitted2.json", order=2, a=json.loads(thin_again)["a"]
        )
        _, pmf_second, _ = run_cli(capsys, "pmf", emitted2, "--k-max", "40")
        assert pmf_first == pmf_second

    @pytest.mark.parametrize(
        "a", [[1e-200], [1e200], [1e150, 1e150]], ids=str
    )
    def test_summary_at_extreme_means_is_finite(self, tmp_path, capsys, a):
        # mu**2 underflowed to a ZeroDivisionError, mu**4 overflowed
        model = write_model(tmp_path, a=a)
        code, out, _ = run_cli(capsys, "convert", model, "--to", "summary")
        assert code == 0
        assert all(math.isfinite(x) for x in json.loads(out)["eta"])

    def test_summary_of_tiny_cumulants_is_finite(self, tmp_path, capsys):
        model = write_model(tmp_path, kappa=[1e-200])
        code, out, _ = run_cli(capsys, "convert", model, "--to", "summary")
        assert code == 0
        assert json.loads(out)["eta"] == [0.0, 0.0, 0.0]

    @pytest.mark.parametrize("a", [[1e-200, 1e-200], [1.0, 1e-17], [1.0, 0.5, 0.25]], ids=str)
    def test_summary_eta_is_correctly_rounded(self, tmp_path, capsys, a):
        # from the rounded ordinary cumulants these were refused, 0 and 1.7e-16;
        # exact: eta_j = kappa_(j+1) / mean**(j+1), kappa_(j) = sum_i i!/(i-j)! a_i
        kappa = [sum(math.perm(i, j) * Fraction(x) for i, x in enumerate(a, start=1)) for j in range(1, 5)]
        model = write_model(tmp_path, a=a)
        code, out, _ = run_cli(capsys, "convert", model, "--to", "summary")
        assert code == 0
        for j, value in enumerate(json.loads(out)["eta"], start=1):
            exact = kappa[j] / kappa[0] ** (j + 1)
            assert abs(Fraction(value) - exact) <= Fraction(1e-15) * exact

    @pytest.mark.parametrize("a", [[0.0, 1e-310], [1e308, 4e307]], ids=str)
    def test_summary_beyond_the_double_range_refused(self, tmp_path, capsys, a):
        # eta_1 = 1/(2 a_2) = 5e309; the mean itself overflows
        model = write_model(tmp_path, a=a)
        code, out, err = run_cli(capsys, "convert", model, "--to", "summary")
        assert (code, out) == (3, "")
        assert "double range" in err

    def test_summary_of_the_all_zero_model_refused(self, tmp_path, capsys):
        # the point mass at 0 has no thinning invariants: each divides by the mean
        code, out, err = run_cli(capsys, "convert", write_model(tmp_path, a=[0.0, 0.0]), "--to", "summary")
        assert (code, out) == (3, "")
        assert "mean must be positive to form thinning invariants, got 0.0" in err


class TestVerifyCommand:
    def test_all_pass(self, capsys):
        code, out, _ = run_cli(capsys, "verify")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines
        assert all(line.startswith("PASS") for line in lines)

    CHECKS = (
        ("doubled-poisson thinning sweeps the order-2 family", True),
        ("zero-gap classification of the base laws", False),
        ("negative-binomial thinning stability", True),
        ("alternating-geometric thinning semigroup", True),
        ("alternating-geometric base normalizes", False),
        ("alternating-geometric mean is 15p/7", True),
        ("alternating-geometric pgf matches its series", True),
    )

    @staticmethod
    def parse(out):
        """(status, name, detail or None) per line; the detail is the parenthesized suffix."""
        lines = out.strip().splitlines()
        return [re.fullmatch(r"(PASS|FAIL) (.+?)(?: \((.+)\))?", line).groups() for line in lines]

    def test_names_order_and_details(self, capsys):
        code, out, _ = run_cli(capsys, "verify")
        assert code == 0
        rows = self.parse(out)
        assert [name for _, name, _ in rows] == [name for name, _ in self.CHECKS]
        for (status, _, detail), (_, has_dev) in zip(rows, self.CHECKS):
            assert status == "PASS"
            if has_dev:
                assert re.fullmatch(r"max dev \d\.\d{3}e[+-]\d{2}", detail)
            else:
                assert detail is None

    @pytest.mark.parametrize(
        "p, failing",
        [
            # p = 0.125 only thins the doubled Poisson (mean 0.5, eta1 0.25);
            # p = 0.9 thins the negative binomials and the semigroup's second step
            (0.125, {"doubled-poisson thinning sweeps the order-2 family"}),
            (0.9, {"negative-binomial thinning stability", "alternating-geometric thinning semigroup"}),
        ],
    )
    def test_perturbed_identity_fails(self, capsys, monkeypatch, p, failing):
        oracle = reference.thin_pmf_oracle

        def perturbed(table, fraction):
            out = oracle(table, fraction)
            if fraction != p:
                return out
            probs = out.probs.copy()
            probs[np.argmax(probs)] -= 1e-6
            return PmfTable(probs)

        monkeypatch.setattr(reference, "thin_pmf_oracle", perturbed)
        code, out, _ = run_cli(capsys, "verify")
        assert code == 1
        rows = self.parse(out)
        assert len(rows) == len(self.CHECKS)
        assert {name for status, name, _ in rows if status == "FAIL"} == failing

    def test_nan_deviation_fails(self, capsys, monkeypatch):
        # one NaN among finite deviations must not be lost when taking the worst
        values = reference.alternating_geometric_pgf_values

        def nan_at_one(p, t):
            return (math.nan, 1.0) if t == 1.0 else values(p, t)

        monkeypatch.setattr(reference, "alternating_geometric_pgf_values", nan_at_one)
        code, out, _ = run_cli(capsys, "verify")
        assert code == 1
        assert out.strip().splitlines()[-1] == (
            "FAIL alternating-geometric pgf matches its series (max dev nan)"
        )


class TestConsoleEntry:
    def test_module_invocation(self, tmp_path):
        model = tmp_path / "model.json"
        model.write_text(json.dumps({"order": 1, "a": [2.0]}))
        proc = subprocess.run(
            [sys.executable, "-m", "hermite_counts", "pmf", str(model), "--k-max", "1"],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0
        assert proc.stdout.startswith("k,p")

    @pytest.mark.parametrize(
        "command", [["sample", "--n", "1000000", "--seed", "1"], ["pmf", "--k-max", "200000"]], ids=["sample", "pmf"]
    )
    def test_closed_pipe_exits_quietly(self, tmp_path, command):
        # the reader stops after one line, as `... | head -1` does
        model = tmp_path / "model.json"
        model.write_text(json.dumps({"order": 1, "a": [2.0]}))
        name, *options = command
        proc = subprocess.Popen(
            [sys.executable, "-m", "hermite_counts", name, str(model), *options],
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
        )
        assert proc.stdout.readline()
        proc.stdout.close()
        _, err = proc.communicate(timeout=60)
        assert (proc.returncode, err) == (141, b"")

    def test_unknown_flag_exits_two(self, tmp_path):
        proc = subprocess.run(
            [sys.executable, "-m", "hermite_counts", "pmf", "x.json", "--bogus"],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 2


class TestInputErrors:
    """Each way an input file can be unusable, with its documented exit code."""

    @pytest.mark.parametrize("command", [["pmf", "--k-max", "3"], ["fit", "--order", "1"]], ids=["model", "data"])
    def test_missing_file(self, tmp_path, capsys, command):
        name, *options = command
        code, out, err = run_cli(capsys, name, str(tmp_path / "absent"), *options)
        assert (code, out) == (2, "")
        assert "cannot read" in err

    @pytest.mark.parametrize("command", [["pmf", "--k-max", "3"], ["fit", "--order", "1"]], ids=["model", "data"])
    def test_file_that_is_not_text(self, tmp_path, capsys, command):
        path = tmp_path / "binary"
        path.write_bytes(b"\xff\xfe\x00\x81")
        name, *options = command
        code, _, err = run_cli(capsys, name, str(path), *options)
        assert code == 2
        assert "cannot read" in err

    @pytest.mark.parametrize(
        "text",
        ['[1.0, 0.5]', '{"a": ["one"]}', '{"a": [true]}', '{"a": []}', '{"a": 2.0}', '{"order": 1}',
         '{"a": [1.0], "kappa": [1.0]}', '{"a": [' + "1" * 5000 + "]}"],
        ids=["array", "string-entry", "bool-entry", "empty", "scalar", "neither-key", "both-keys", "unparsable-int"],
    )
    def test_malformed_model_document(self, tmp_path, capsys, text):
        path = tmp_path / "model.json"
        path.write_text(text)
        code, out, _ = run_cli(capsys, "pmf", str(path), "--k-max", "3")
        assert (code, out) == (2, "")

    @pytest.mark.parametrize(
        "command",
        [["pmf", "--k-max", "3"], ["thin", "--p", "0.5"], ["sample", "--n", "5", "--seed", "1"],
         ["convert", "--to", "params"], ["convert", "--to", "summary"]],
        ids=["pmf", "thin", "sample", "convert-params", "convert-summary"],
    )
    @pytest.mark.parametrize("key", ["a", "kappa"])
    def test_integer_beyond_the_double_range(self, tmp_path, capsys, command, key):
        # a 401-digit literal: float() overflows where 1e400 gives inf
        model = write_model(tmp_path, **{key: [1, 10**400]})
        name, *options = command
        code, out, err = run_cli(capsys, name, model, *options)
        assert (code, out) == (3, "")
        assert "double range" in err

    @pytest.mark.parametrize(
        "command",
        [["pmf", "--k-max", "6"], ["thin", "--p", "0.5"], ["sample", "--n", "50", "--seed", "9"]],
        ids=["pmf", "thin", "sample"],
    )
    def test_kappa_document_matches_its_coefficients(self, tmp_path, capsys, command):
        name, *options = command
        # one file name for both, since thin's provenance records it
        by_a = run_cli(capsys, name, write_model(tmp_path, name="a.json", a=[1.0, 0.5]), *options)
        by_kappa = run_cli(capsys, name, write_model(tmp_path, name="a.json", kappa=[2.0, 1.0]), *options)
        assert by_kappa == by_a
        assert by_a[0] == 0

    def test_k_max_above_the_table_bound(self, tmp_path, capsys, monkeypatch):
        import hermite_counts.pmf as pmf_mod

        monkeypatch.setattr(pmf_mod, "MAX_TABLE_LEN", 100)
        model = write_model(tmp_path, a=[1.0])
        code, out, err = run_cli(capsys, "pmf", model, "--k-max", "101")
        assert (code, out) == (3, "")
        assert "k_max" in err

    def test_eps_below_the_rounding_floor(self, tmp_path, capsys):
        model = write_model(tmp_path, a=[915.6998783803818, 0.8973765121148648])
        code, out, err = run_cli(capsys, "pmf", model, "--eps", "6.37e-15")
        assert (code, out) == (3, "")
        assert "rounding floor" in err

    @pytest.mark.parametrize(
        "rows", ["3,5,1", "3", "3;5", "three,5", "3,5.0"], ids=["three-fields", "one-field", "semicolon", "word", "float"]
    )
    def test_malformed_histogram_row(self, tmp_path, capsys, rows):
        data = tmp_path / "hist.csv"
        data.write_text(f"count,freq\n1,2\n{rows}\n")
        code, out, err = run_cli(capsys, "fit", str(data), "--order", "1")
        assert (code, out) == (2, "")
        assert "malformed histogram row" in err

    @pytest.mark.parametrize("rows", ["", "1,0\n2,0\n"], ids=["header-only", "zero-frequencies"])
    def test_histogram_without_observations(self, tmp_path, capsys, rows):
        data = tmp_path / "hist.csv"
        data.write_text("count,freq\n" + rows)
        code, _, err = run_cli(capsys, "fit", str(data), "--order", "1")
        assert code == 2
        assert "no observations" in err

    def test_zero_rows_skipped_and_duplicate_rows_summed(self, tmp_path, capsys):
        merged = tmp_path / "merged.csv"
        merged.write_text("count,freq\n0,2\n3,7\n")
        split = tmp_path / "split.csv"
        split.write_text("count,freq\n3,5\n5,0\n0,2\n3,2\n")
        _, first, _ = run_cli(capsys, "fit", str(merged), "--order", "2")
        _, second, _ = run_cli(capsys, "fit", str(split), "--order", "2")
        assert json.loads(first)["a"] == json.loads(second)["a"]

    def test_negative_frequency(self, tmp_path, capsys):
        # it used to cancel against another row of the same count
        data = tmp_path / "hist.csv"
        data.write_text("count,freq\n3,5\n3,-2\n1,1\n")
        code, out, err = run_cli(capsys, "fit", str(data), "--order", "1")
        assert (code, out) == (3, "")
        assert "negative frequency" in err

    def test_frequency_beyond_the_double_range(self, tmp_path, capsys):
        data = tmp_path / "hist.csv"
        data.write_text(f"count,freq\n1,{10**400}\n3,5\n")
        code, out, err = run_cli(capsys, "fit", str(data), "--order", "1")
        assert (code, out) == (3, "")
        assert "double range" in err

    @pytest.mark.parametrize(
        "command",
        [["fit", "--order", "2"], ["select", "--r-max", "2"], ["fit", "--method", "moments", "--order", "2"]],
        ids=["fit", "select", "moments"],
    )
    def test_total_frequency_beyond_two_to_the_53(self, tmp_path, capsys, command):
        # each frequency is a double, but their likelihood sum overflowed fsum
        data = tmp_path / "hist.csv"
        data.write_text("count,freq\n" + "".join(f"{c},{10**308}\n" for c in (0, 1, 3)))
        name, *options = command
        code, out, err = run_cli(capsys, name, str(data), *options)
        assert (code, out) == (3, "")
        assert "2**53" in err


class TestCountFileLines:
    """How a counts file splits into lines: exactly as str.splitlines splits its text."""

    @pytest.mark.parametrize(
        "sep", ["\n", "\r", "\r\n", "\f", "\v", "\x1c", "\x1d", "\x1e", "\x85", "\u2028", "\u2029"],
        ids=["lf", "cr", "crlf", "form-feed", "vertical-tab", "fs", "gs", "rs", "nel", "line-sep", "para-sep"],
    )
    @pytest.mark.parametrize("header", [False, True], ids=["raw", "histogram"])
    def test_every_line_break_of_splitlines(self, tmp_path, sep, header):
        rows = ["count,freq", "1,1", "2,1", "3,1"] if header else ["1", "2", "3"]
        data = tmp_path / "counts.txt"
        data.write_bytes(sep.join(rows).encode() + sep.encode())
        assert _read_count_data(str(data)).bins == ((1, 1), (2, 1), (3, 1))

    def test_blank_and_whitespace_only_lines_are_skipped(self, tmp_path):
        data = tmp_path / "counts.txt"
        data.write_bytes(b"\n\n 4 \n\t\n\r\n2\n   \n\f\n4")
        assert _read_count_data(str(data)).bins == ((2, 1), (4, 2))

    @pytest.mark.parametrize(
        "text", ["count, freq\n1, 2\n 3 ,4\n", "\n  \nCount , Freq\n1,2\n3,4\n"], ids=["spaces", "after-blank-lines"]
    )
    def test_histogram_header_with_spaces(self, tmp_path, text):
        data = tmp_path / "hist.csv"
        data.write_text(text)
        assert _read_count_data(str(data)).bins == ((1, 2), (3, 4))

    def test_header_after_many_blank_lines(self, tmp_path):
        data = tmp_path / "hist.csv"
        data.write_text("\n" * 100_000 + "count,freq\n5,3\n")
        assert _read_count_data(str(data)).bins == ((5, 3),)

    def test_only_blank_lines(self, tmp_path, capsys):
        data = tmp_path / "blank.txt"
        data.write_text(" \n" * 100_000)
        code, out, err = run_cli(capsys, "fit", str(data), "--order", "1")
        assert (code, out) == (2, "")
        assert "contains no data" in err

    @pytest.mark.parametrize("prefix", [b"", b"1\n" * 100_000], ids=["first-byte", "deep-in-the-file"])
    def test_non_utf8_input(self, tmp_path, capsys, prefix):
        data = tmp_path / "counts.txt"
        data.write_bytes(prefix + b"\xff\xfe\x00\x81\n2\n")
        code, out, err = run_cli(capsys, "fit", str(data), "--order", "1")
        assert (code, out) == (2, "")
        assert f"cannot read {data}: 'utf-8' codec can't decode byte 0xff in position {len(prefix)}" in err

    @pytest.mark.parametrize(
        "text, message",
        [("1\n" * 100_000 + "two\n3\n", "expected one integer per line, got 'two'"),
         ("count,freq\n" + "1,2\n" * 100_000 + "3;4\n", "malformed histogram row '3;4'")],
        ids=["raw", "histogram"],
    )
    def test_garbled_line_deep_in_the_file(self, tmp_path, capsys, text, message):
        data = tmp_path / "counts.txt"
        data.write_text(text)
        code, out, err = run_cli(capsys, "fit", str(data), "--order", "1")
        assert (code, out) == (2, "")
        assert message in err
