"""Command-line surface tests: table contracts, file outputs, determinism
of seeded invocations, and exit codes (0 ok, 1 validation failure, 2 usage)."""

import hashlib
import json
import math
import os
import subprocess
import sys
from dataclasses import astuple, fields
from pathlib import Path

import pytest

import coxcascade
from coxcascade import error_model
from coxcascade.cli import DEFAULT_SEED, main, render_json
from coxcascade.error_model import GammaIntensity, p_odd, pmf, tail
from coxcascade.reconciliation import ReconcileOutcome
from coxcascade.special_functions import SeriesNonConvergence
from coxcascade.validation import CheckRecord, check_reconciliation, run_suites


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def not_called(*args, **kwargs):
    raise AssertionError("the command computed before it opened its outputs")


class TestRenderJson:
    def test_seventeen_significant_digits(self):
        assert render_json(1.0 / 3.0) == format(1.0 / 3.0, ".17g")
        assert render_json({"x": 0.1}) == '{"x": 0.10000000000000001}'

    def test_basic_types(self):
        assert render_json({"a": [1, True, None, "s"]}) == '{"a": [1, true, null, "s"]}'

    def test_parses_back(self):
        payload = {"value": math.pi, "flag": False, "items": [1.5, 2]}
        assert json.loads(render_json(payload)) == pytest.approx(payload)


class TestPmfCommand:
    def test_row_contract(self, capsys):
        code, out, _ = run_cli(capsys, "pmf", "--a", "10", "--b", "2", "--k", "0..25")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "k,probability"
        assert len(lines) == 27
        values = [float(line.split(",")[1]) for line in lines[1:]]
        assert 0.99 < sum(values) < 1.0  # unimodal curve, mass below one
        peak = values.index(max(values))
        assert all(values[i] <= values[i + 1] for i in range(peak))
        assert all(values[i] >= values[i + 1] for i in range(peak, 25))

    def test_values_match_library(self, capsys):
        _, out, _ = run_cli(capsys, "pmf", "--a", "10", "--b", "2", "--k", "3")
        k, prob = out.strip().splitlines()[1].split(",")
        assert int(k) == 3
        assert float(prob) == pytest.approx(pmf(3, GammaIntensity(10, 2)), rel=1e-11)

    def test_json_format(self, capsys):
        _, out, _ = run_cli(capsys, "pmf", "--a", "1", "--b", "1", "--k", "0..2",
                            "--format", "json")
        rows = json.loads(out)
        assert [r["k"] for r in rows] == [0, 1, 2]
        assert rows[1]["probability"] == pytest.approx(0.25, rel=1e-12)

    def test_invalid_parameters_exit_2(self, capsys):
        with pytest.raises(SystemExit) as err:
            main(["pmf", "--a", "-3", "--b", "2", "--k", "0..5"])
        assert err.value.code == 2
        assert "must be > 0" in capsys.readouterr().err

    def test_invalid_range_exit_2(self, capsys):
        with pytest.raises(SystemExit) as err:
            main(["pmf", "--a", "1", "--b", "1", "--k", "5..2"])
        assert err.value.code == 2


class TestCdfTailCommands:
    def test_tail_at_zero(self, capsys):
        _, out, _ = run_cli(capsys, "tail", "--a", "10", "--b", "2", "--m", "0")
        value = float(out.strip().splitlines()[1].split(",")[1])
        assert value == pytest.approx(1.0 - (2.0 / 3.0) ** 10, rel=1e-11)

    def test_cdf_geometric(self, capsys):
        _, out, _ = run_cli(capsys, "cdf", "--a", "1", "--b", "1", "--m", "3")
        value = float(out.strip().splitlines()[1].split(",")[1])
        assert value == pytest.approx(1.0 - 2.0**-4, rel=1e-11)

    def test_complement(self, capsys):
        _, out_t, _ = run_cli(capsys, "tail", "--a", "10", "--b", "2", "--m", "0..10")
        _, out_c, _ = run_cli(capsys, "cdf", "--a", "10", "--b", "2", "--m", "0..10")
        tails = [float(l.split(",")[1]) for l in out_t.strip().splitlines()[1:]]
        cdfs = [float(l.split(",")[1]) for l in out_c.strip().splitlines()[1:]]
        for t, c in zip(tails, cdfs):
            assert t + c == pytest.approx(1.0, abs=1e-11)


class TestParityCommand:
    def test_columns_and_limit(self, capsys):
        _, out, _ = run_cli(capsys, "parity", "--a", "10", "--b", "2", "--m", "0..5")
        lines = out.strip().splitlines()
        assert lines[0] == "m,p_odd_finite,p_odd_limit"
        g = GammaIntensity(10, 2)
        first = lines[1].split(",")
        assert float(first[1]) == pytest.approx(pmf(1, g), rel=1e-10)
        assert float(first[2]) == pytest.approx(p_odd(g), rel=1e-11)

    def test_near_zero_shape(self, capsys):
        _, out, _ = run_cli(capsys, "parity", "--a", "1e-9", "--b", "1", "--m", "0")
        row = out.strip().splitlines()[1].split(",")
        assert float(row[2]) == pytest.approx(0.0, abs=1e-9)


class TestBlocksizeCommand:
    def test_main(self, capsys):
        code, out, _ = run_cli(capsys, "blocksize", "--a", "10", "--b", "2",
                               "--f", "1000")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "200"
        assert "1" in lines[1]  # rationale states the target of one error

    def test_unit_rate(self, capsys):
        _, out, _ = run_cli(capsys, "blocksize", "--a", "1", "--b", "1", "--f", "64")
        assert out.strip().splitlines()[0] == "64"

    def test_clamped(self, capsys):
        _, out, _ = run_cli(capsys, "blocksize", "--a", "100", "--b", "1", "--f", "10")
        assert out.strip().splitlines()[0] == "1"

    def test_json(self, capsys):
        _, out, _ = run_cli(capsys, "blocksize", "--a", "10", "--b", "2",
                            "--f", "1000", "--format", "json")
        assert json.loads(out)["block_size"] == 200

    def test_non_finite_size_exit_2(self, capsys):
        # f*b/a overflows to inf, which is no block size
        code, out, err = run_cli(capsys, "blocksize", "--a", "1e-300", "--b", "1e300",
                                 "--f", "1000")
        assert (code, out) == (2, "")
        assert err.count("\n") == 1
        assert err.startswith("coxcascade blocksize: error: f*b/a = inf is not finite")


class TestSampleCommand:
    def test_trace_columns(self, capsys):
        _, out, _ = run_cli(capsys, "sample", "--a", "10", "--b", "2", "--f", "100",
                            "--n", "1000", "--seed", "5")
        lines = out.strip().splitlines()
        assert lines[0] == "unit_index,lambda,errors_in_unit"
        assert len(lines) == 11
        units = [int(l.split(",")[0]) for l in lines[1:]]
        assert units == list(range(10))

    def test_byte_identical_files(self, capsys, tmp_path):
        args = ["sample", "--a", "10", "--b", "2", "--f", "100", "--n", "2000",
                "--seed", "9"]
        t1, p1 = tmp_path / "t1.csv", tmp_path / "p1.txt"
        t2, p2 = tmp_path / "t2.csv", tmp_path / "p2.txt"
        assert main(args + ["--trace-out", str(t1), "--pattern-out", str(p1)]) == 0
        assert main(args + ["--trace-out", str(t2), "--pattern-out", str(p2)]) == 0
        assert t1.read_bytes() == t2.read_bytes()
        assert p1.read_bytes() == p2.read_bytes()
        positions = [int(x) for x in p1.read_text().split()]
        assert positions == sorted(positions)
        assert all(0 <= p < 2000 for p in positions)

    def test_counts_consistent_with_pattern(self, capsys, tmp_path):
        p = tmp_path / "p.txt"
        _, out, _ = run_cli(capsys, "sample", "--a", "10", "--b", "2", "--f", "100",
                            "--n", "1000", "--seed", "5", "--pattern-out", str(p))
        counts = [int(l.split(",")[2]) for l in out.strip().splitlines()[1:]]
        positions = [int(x) for x in p.read_text().split()]
        assert len(positions) == sum(counts)

    def test_double_stdout_rejected(self, capsys, monkeypatch):
        monkeypatch.setattr("coxcascade.cli.sample_process", not_called)
        code, out, err = run_cli(capsys, "sample", "--a", "1", "--b", "1", "--f", "10",
                                 "--n", "100", "--trace-out", "-", "--pattern-out", "-")
        assert (code, out) == (2, "")
        assert err.count("\n") == 1
        assert err.startswith("coxcascade sample: error: two outputs name the same file")

    def test_near_zero_intensity(self, capsys, tmp_path):
        p = tmp_path / "p.txt"
        run_cli(capsys, "sample", "--a", "1e-9", "--b", "1", "--f", "100",
                "--n", "10000", "--seed", "3", "--pattern-out", str(p),
                "--trace-out", str(tmp_path / "t.csv"))
        assert p.read_text() == ""

    def test_empirical_unit_mean(self, capsys):
        # 2000 units: the per-unit error mean sits within 3 sigma of a/b
        _, out, _ = run_cli(capsys, "sample", "--a", "10", "--b", "2",
                            "--f", "100", "--n", "200000", "--seed", "12")
        counts = [int(l.split(",")[2]) for l in out.strip().splitlines()[1:]]
        est = sum(counts) / len(counts)
        sd = math.sqrt(5.0 * 1.5)  # model variance a/b (1 + 1/b)
        assert abs(est - 5.0) < 3.0 * sd / math.sqrt(len(counts))


class TestReconcileCommand:
    BASE = ["reconcile", "--a", "10", "--b", "2", "--f", "250", "--n", "1024",
            "--seed", "17"]

    def test_outcome_payload(self, capsys):
        code, out, _ = run_cli(capsys, *self.BASE)
        assert code == 0
        payload = json.loads(out)
        assert payload["n"] == 1024
        assert payload["block_size"] == 50  # auto: round(f b / a)
        assert payload["success"] is True
        assert payload["residual_error_count"] == 0
        assert payload["final_length"] == 1024 - payload["deleted_bits"]

    def test_payload_is_the_header_and_the_outcome(self, capsys, tmp_path):
        path = tmp_path / "transcript.log"
        _, out, _ = run_cli(capsys, *self.BASE, "--transcript-out", str(path))
        payload = json.loads(out)
        assert list(payload) == ["n", "planted_errors", "block_size", "variant", "seed",
                                 *(f.name for f in fields(ReconcileOutcome))]
        corrections = [l for l in path.read_text().splitlines() if l.startswith("correct ")]
        assert payload["corrections_made"] == len(corrections) > 0

    def test_transcript_file(self, capsys, tmp_path):
        path = tmp_path / "transcript.log"
        code, out, _ = run_cli(capsys, *self.BASE, "--transcript-out", str(path))
        payload = json.loads(out)
        lines = path.read_text().splitlines()
        parity_lines = [l for l in lines if l.startswith(("compare-", "bisect"))]
        assert len(parity_lines) == payload["leaked_parities"]
        deletes = [l for l in lines if l.startswith("delete")]
        assert len(deletes) == payload["deleted_bits"]

    def test_byte_identical_runs(self, capsys):
        _, out1, _ = run_cli(capsys, *self.BASE)
        _, out2, _ = run_cli(capsys, *self.BASE)
        assert out1 == out2

    def test_cascade_variant(self, capsys):
        _, out, _ = run_cli(capsys, *self.BASE, "--variant", "cascade")
        payload = json.loads(out)
        assert payload["deleted_bits"] == 0
        assert payload["final_length"] == 1024

    def test_explicit_block_size(self, capsys):
        _, out, _ = run_cli(capsys, *self.BASE, "--block-size", "64")
        assert json.loads(out)["block_size"] == 64

    def test_bad_block_size_exit_2(self, capsys):
        with pytest.raises(SystemExit) as err:
            main(self.BASE + ["--block-size", "zero"])
        assert err.value.code == 2

    def test_growth_below_two_exit_2(self, capsys):
        with pytest.raises(SystemExit) as err:
            main(self.BASE + ["--growth", "1"])
        assert err.value.code == 2
        assert "--growth: must be >= 2" in capsys.readouterr().err

    def test_double_stdout_rejected(self, capsys, monkeypatch):
        monkeypatch.setattr("coxcascade.cli.reconcile", not_called)
        code, out, err = run_cli(capsys, *self.BASE, "--output", "-",
                                 "--transcript-out", "-")
        assert (code, out) == (2, "")
        assert err.count("\n") == 1
        assert err.startswith("coxcascade reconcile: error: two outputs name the same file")

    def test_growth_three_is_used(self, capsys):
        _, out2, _ = run_cli(capsys, *self.BASE, "--variant", "cascade")
        _, out3, _ = run_cli(capsys, *self.BASE, "--variant", "cascade",
                             "--growth", "3")
        assert json.loads(out3)["success"] is True
        assert out2 != out3


class TestEvaluatorErrors:
    def test_nonconvergence_exit_2_one_line(self):
        env = dict(os.environ,
                   PYTHONPATH=str(Path(coxcascade.__file__).resolve().parents[1]))
        proc = subprocess.run(
            [sys.executable, "-m", "coxcascade", "tail", "--a", "10", "--b", "1e-4",
             "--m", "3"],
            capture_output=True, text=True, env=env, timeout=120,
        )
        assert proc.returncode == 2
        assert proc.stdout == ""
        assert proc.stderr.count("\n") == 1
        assert proc.stderr.startswith("coxcascade tail: error: ")
        assert "did not converge" in proc.stderr

    @pytest.mark.parametrize("cmd,func", [("tail", "tail"), ("cdf", "cdf"),
                                          ("parity", "p_odd_finite")])
    def test_overflowing_series_exit_2(self, capsys, cmd, func):
        # at b = 1e-4 the a = 100 series overflows (its prefactor underflows,
        # so the product would be nan); the evaluator itself refuses it
        with pytest.raises(SeriesNonConvergence):
            getattr(error_model, func)(0, GammaIntensity(100, 1e-4))
        code, out, err = run_cli(capsys, cmd, "--a", "100", "--b", "1e-4",
                                 "--m", "0..1", "--format", "json")
        assert code == 2
        assert out == ""
        assert err.count("\n") == 1
        assert err.startswith(f"coxcascade {cmd}: error: ")
        assert "overflowed after" in err
        if cmd == "tail":
            assert err == ("coxcascade tail: error: hyp2f1_one overflowed after "
                           "50530 terms (partial sum inf)\n")

    @pytest.mark.parametrize("cmd,func", [("tail", "tail"), ("cdf", "cdf"),
                                          ("parity", "p_odd_finite")])
    def test_non_finite_value_exit_2(self, capsys, cmd, func):
        # inf passes the flag's "> 0" check; the model refuses it before an
        # evaluator could turn it into nan (log(inf) - log(inf + 1))
        with pytest.raises(ValueError, match="must be finite"):
            getattr(error_model, func)(0, GammaIntensity(10, math.inf))
        code, out, err = run_cli(capsys, cmd, "--a", "10", "--b", "inf", "--m", "0..1",
                                 "--format", "json")
        assert code == 2
        assert out == ""
        assert err == (f"coxcascade {cmd}: error: gamma rate b must be finite "
                       "and > 0, got inf\n")

    def test_non_finite_shape_exit_2(self, capsys):
        code, out, err = run_cli(capsys, "pmf", "--a", "inf", "--b", "2", "--k", "0..2")
        assert code == 2
        assert out == ""
        assert err == "coxcascade pmf: error: gamma shape a must be finite and > 0, got inf\n"

    def test_lost_prefactor_exit_2(self, capsys):
        # finite input whose log prefactor is inf - inf: refused, not printed
        code, out, err = run_cli(capsys, "tail", "--a", "2.535e305", "--b", "1e308",
                                 "--m", "0")
        assert code == 2
        assert out == ""
        assert err == ("coxcascade tail: error: tail(m=0) = nan at a=2.535e+305, "
                       "b=1e+308 is not a probability\n")

    def test_pmf_not_a_probability_exit_2(self, capsys):
        # at a = b = 1e16 the log prefactor is lost: pmf(3) comes out ~6.5e6
        code, out, err = run_cli(capsys, "pmf", "--a", "1e16", "--b", "1e16", "--k", "0..3")
        assert (code, out) == (2, "")
        assert err == ("coxcascade pmf: error: pmf(k=3) = 6479514.009990928 at a=1e+16, "
                       "b=1e+16 is not a probability\n")

    def test_nan_series_exit_2(self, capsys):
        # at a = b = 1e300 the 3F2 steps are inf * 0: refused at the first term
        code, out, err = run_cli(capsys, "parity", "--a", "1e300", "--b", "1e300", "--m", "0")
        assert (code, out) == (2, "")
        assert err == ("coxcascade parity: error: hyp3f2 turned nan after 2 terms "
                       "(partial sum nan)\n")

    @pytest.mark.parametrize("cmd, value", [("tail", "1.7182818284590455"),
                                            ("cdf", "-0.7182818284590455")],
                             ids=["tail", "cdf"])
    def test_not_a_probability_exit_2(self, capsys, cmd, value):
        # the log prefactor cancels terms of size ~7e302 and leaves e - 1;
        # cdf is refused with it and reports its own value, 1 - (e - 1)
        code, out, err = run_cli(capsys, cmd, "--a", "1e300", "--b", "1e300", "--m", "0")
        assert (code, out) == (2, "")
        assert err == (f"coxcascade {cmd}: error: {cmd}(m=0) = {value} at a=1e+300, "
                       "b=1e+300 is not a probability\n")

    def test_math_overflow_exit_2(self, capsys):
        # lgamma(a) overflows in pmf's log prefactor
        code, out, err = run_cli(capsys, "pmf", "--a", "3e305", "--b", "1", "--k", "1")
        assert code == 2
        assert out == ""
        assert err == "coxcascade pmf: error: math range error\n"

    def test_huge_rate_parity_exit_0(self, capsys):
        # 1/(b+1)**2 overflows for b above ~1.34e154; the correction is then 0
        code, out, err = run_cli(capsys, "parity", "--a", "1", "--b", "1e200", "--m", "1")
        assert code == 0
        assert err == ""
        limit = p_odd(GammaIntensity(1, 1e200))
        assert out == f"m,p_odd_finite,p_odd_limit\n1,{limit:.12g},{limit:.12g}\n"

    def test_value_error_exit_2(self, capsys, monkeypatch):
        def refuse(m, g):
            raise ValueError("m out of range")

        monkeypatch.setattr("coxcascade.cli.cdf", refuse)
        code, out, err = run_cli(capsys, "cdf", "--a", "1", "--b", "1", "--m", "2")
        assert code == 2
        assert out == ""
        assert err == "coxcascade cdf: error: m out of range\n"

    def test_unwritable_output_exit_2(self, capsys, tmp_path, monkeypatch):
        monkeypatch.setattr("coxcascade.cli.tail", not_called)
        path = tmp_path / "missing" / "x.csv"
        code, out, err = run_cli(capsys, "tail", "--a", "10", "--b", "2", "--m", "1",
                                 "--output", str(path))
        assert code == 2
        assert out == ""
        assert err.count("\n") == 1
        assert err.startswith("coxcascade tail: error: ")
        assert not path.exists()

    def test_unwritable_transcript_exit_2(self, capsys, tmp_path, monkeypatch):
        monkeypatch.setattr("coxcascade.cli.reconcile", not_called)
        path = tmp_path / "missing" / "t.log"
        code, out, err = run_cli(capsys, "reconcile", "--a", "10", "--b", "2", "--f", "250",
                                 "--n", "256", "--seed", "1", "--transcript-out", str(path))
        assert code == 2
        assert out == ""
        assert err.count("\n") == 1
        assert err.startswith("coxcascade reconcile: error: ")
        assert not path.exists()

    def test_failed_output_keeps_earlier_files(self, capsys, tmp_path):
        # the transcript path cannot be opened, so the existing outcome file
        # must keep its content and no other file may appear
        output = tmp_path / "o.json"
        output.write_text("earlier run\n")
        code, out, err = run_cli(capsys, "reconcile", "--a", "10", "--b", "2", "--f", "250",
                                 "--n", "256", "--seed", "1", "--output", str(output),
                                 "--transcript-out", str(tmp_path / "missing" / "t.log"))
        assert code == 2
        assert out == ""
        assert err.startswith("coxcascade reconcile: error: ")
        assert output.read_text() == "earlier run\n"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["o.json"]

    def test_failed_output_removes_created_file(self, capsys, tmp_path):
        # an outcome file the failed command created itself does not stay
        # behind empty
        code, out, err = run_cli(capsys, "reconcile", "--a", "10", "--b", "2", "--f", "250",
                                 "--n", "256", "--seed", "1", "--output",
                                 str(tmp_path / "new.json"), "--transcript-out",
                                 str(tmp_path / "missing" / "t.log"))
        assert code == 2
        assert out == ""
        assert err.count("\n") == 1
        assert list(tmp_path.iterdir()) == []

    def test_failed_work_leaves_files_as_they_were(self, capsys, tmp_path, monkeypatch):
        # the outputs are open when the simulation refuses: the file this
        # call created goes again, the earlier one keeps its content
        def refuse(*args, **kwargs):
            raise ValueError("refused")

        monkeypatch.setattr("coxcascade.cli.reconcile", refuse)
        earlier = tmp_path / "o.json"
        earlier.write_text("earlier run\n")
        code, out, err = run_cli(capsys, "reconcile", "--a", "10", "--b", "2", "--f", "250",
                                 "--n", "256", "--seed", "1", "--output", str(earlier),
                                 "--transcript-out", str(tmp_path / "t.log"))
        assert (code, out, err) == (2, "", "coxcascade reconcile: error: refused\n")
        assert earlier.read_text() == "earlier run\n"
        assert [p.name for p in tmp_path.iterdir()] == ["o.json"]

    @pytest.mark.parametrize("alias", ["same", "relative", "symlink", "hardlink"])
    def test_two_outputs_naming_one_file_refused(self, capsys, tmp_path, monkeypatch, alias):
        monkeypatch.chdir(tmp_path)
        first = tmp_path / "same.txt"
        second = {"same": str(first), "relative": "same.txt",
                  "symlink": str(tmp_path / "link.txt"),
                  "hardlink": str(tmp_path / "hard.txt")}[alias]
        if alias == "symlink":
            first.write_text("earlier run\n")
            os.symlink(first, second)
        if alias == "hardlink":
            first.write_text("earlier run\n")
            os.link(first, second)
        before = sorted(p.name for p in tmp_path.iterdir())
        code, out, err = run_cli(capsys, "reconcile", "--a", "10", "--b", "2", "--f", "250",
                                 "--n", "256", "--seed", "1", "--output", str(first),
                                 "--transcript-out", second)
        assert code == 2
        assert out == ""
        assert err.count("\n") == 1
        assert err.startswith("coxcascade reconcile: error: two outputs name the same file")
        assert sorted(p.name for p in tmp_path.iterdir()) == before
        if before:
            assert first.read_text() == "earlier run\n"

    def test_sample_outputs_naming_one_file_refused(self, capsys, tmp_path):
        path = str(tmp_path / "both.txt")
        code, out, err = run_cli(capsys, "sample", "--a", "10", "--b", "2", "--f", "100",
                                 "--n", "300", "--seed", "1", "--trace-out", path,
                                 "--pattern-out", path)
        assert (code, out) == (2, "")
        assert err.startswith("coxcascade sample: error: two outputs name the same file")
        assert list(tmp_path.iterdir()) == []

    def test_rewritten_output_is_truncated(self, capsys, tmp_path):
        # a shorter rewrite leaves nothing of a longer earlier file behind,
        # and the file keeps the mode a plain open gives
        output = tmp_path / "o.json"
        output.write_text("x" * 10_000)
        code, out, _ = run_cli(capsys, "reconcile", "--a", "10", "--b", "2", "--f", "250",
                               "--n", "256", "--seed", "1")
        assert code == 0
        fresh = tmp_path / "fresh.json"
        for path in (output, fresh):
            assert run_cli(capsys, "reconcile", "--a", "10", "--b", "2", "--f", "250",
                           "--n", "256", "--seed", "1", "--output", str(path))[0] == 0
        assert output.read_text() == fresh.read_text() == out
        assert output.stat().st_mode == fresh.stat().st_mode
        assert sorted(p.name for p in tmp_path.iterdir()) == ["fresh.json", "o.json"]

    def test_output_to_dev_null(self, capsys):
        code, out, err = run_cli(capsys, "tail", "--a", "10", "--b", "2", "--m", "1",
                                 "--output", os.devnull)
        assert (code, out, err) == (0, "", "")

    def test_unwritable_records_exit_2(self, capsys, tmp_path, monkeypatch):
        monkeypatch.setattr("coxcascade.cli.run_suites", not_called)
        path = tmp_path / "missing" / "x.csv"
        code, out, err = run_cli(capsys, "validate", "--suite", "identities",
                                 "--output", str(path))
        assert code == 2
        assert out == ""
        assert err.count("\n") == 1
        assert err.startswith("coxcascade validate: error: ")
        assert not path.exists()

    def test_unwritable_pattern_exit_2(self, capsys, tmp_path, monkeypatch):
        monkeypatch.setattr("coxcascade.cli.sample_process", not_called)
        path = tmp_path / "missing" / "p.txt"
        code, out, err = run_cli(capsys, "sample", "--a", "10", "--b", "2", "--f", "100",
                                 "--n", "300", "--seed", "1", "--trace-out", "-",
                                 "--pattern-out", str(path))
        assert code == 2
        assert out == ""
        assert err.count("\n") == 1
        assert err.startswith("coxcascade sample: error: ")
        assert not path.exists()


class TestValidateCommand:
    def test_single_suite_exit_zero(self, capsys):
        code, out, _ = run_cli(capsys, "validate", "--suite", "identities")
        assert code == 0
        assert "0 failed" in out
        assert "partial_sum_identity" in out

    def test_records_file(self, capsys, tmp_path):
        paths = [tmp_path / "r1.csv", tmp_path / "r2.csv"]
        for path in paths:
            code, out, _ = run_cli(capsys, "validate", "--suite", "identities",
                                   "--output", str(path))
            assert code == 0
        lines = paths[0].read_text().splitlines()
        assert lines[0] == "check,params,analytic,oracle,abs_dev,rel_dev,tolerance,passed"
        n_records = int(out.splitlines()[-1].split()[0])
        assert len(lines) == n_records + 1
        assert all(line.endswith("true") for line in lines[1:])
        assert paths[0].read_bytes() == paths[1].read_bytes()

    def test_output_dash_is_stdout(self, capsys, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        record_file = tmp_path / "records.csv"
        _, report, _ = run_cli(capsys, "validate", "--suite", "identities",
                               "--output", str(record_file))
        code, out, _ = run_cli(capsys, "validate", "--suite", "identities",
                               "--output", "-")
        assert code == 0
        assert out == report + record_file.read_text()
        assert not (tmp_path / "-").exists()

    def test_unknown_suite_exit_2(self, capsys):
        with pytest.raises(SystemExit) as err:
            main(["validate", "--suite", "bogus"])
        assert err.value.code == 2

    def test_reconciliation_suite_covers_fixed_regression(self, capsys):
        code, out, _ = run_cli(capsys, "validate", "--suite", "reconciliation")
        assert code == 0
        assert "worked_example_parities" in out
        assert "worked_example_mismatch_blocks" in out
        assert "reconcile_success_rate" in out

    def test_text_and_csv_renderings(self, capsys, tmp_path):
        records = run_suites(["identities"])
        path = tmp_path / "records.csv"
        code, out, _ = run_cli(capsys, "validate", "--suite", "identities",
                               "--output", str(path))
        assert code == 0
        report = out.splitlines()
        assert [line.split()[:2] for line in report[:-1]] == [["PASS", r.name] for r in records]
        assert report[-1] == f"{len(records)} checks, 0 failed"
        assert CheckRecord.FIELDS == ("check", "params", "analytic", "oracle",
                                      "abs_dev", "rel_dev", "tolerance", "passed")
        rows = [line.split(",") for line in path.read_text().splitlines()]
        assert rows[0] == list(CheckRecord.FIELDS)
        assert [row[:2] for row in rows[1:]] == [[r.name, r.params] for r in records]
        assert all(len(row) == len(astuple(records[0])) for row in rows)

    def test_failure_exit_code(self, capsys, monkeypatch):
        def fake(names):
            return [CheckRecord("forced", "", 1.0, 0.0, 1.0, 1.0, 0.1, False),
                    CheckRecord("kept", "", 1.0, 1.0, 0.0, 0.0, 0.1, True)]

        monkeypatch.setattr("coxcascade.cli.run_suites", fake)
        code, out, _ = run_cli(capsys, "validate", "--suite", "identities")
        assert code == 1
        assert [line.split()[0] for line in out.splitlines()] == ["FAIL", "PASS", "2"]
        assert out.endswith("\n2 checks, 1 failed\n")


class TestSeedDefaulting:
    def test_documented_default(self):
        assert DEFAULT_SEED == 24301

    @pytest.mark.parametrize("command", [
        ["sample", "--a", "10", "--b", "2", "--f", "100", "--n", "500"],
        ["reconcile", "--a", "10", "--b", "2", "--f", "250", "--n", "512"],
    ])
    def test_default_seed_is_used(self, capsys, monkeypatch, command):
        monkeypatch.delenv("COXCASCADE_SEED", raising=False)
        code, default_out, _ = run_cli(capsys, *command)
        assert code == 0
        _, seeded_out, _ = run_cli(capsys, *command, "--seed", str(DEFAULT_SEED))
        assert default_out == seeded_out
        _, other_out, _ = run_cli(capsys, *command, "--seed", "1")
        assert default_out != other_out

    def test_env_override(self, capsys, monkeypatch, tmp_path):
        out_a = tmp_path / "a.csv"
        out_b = tmp_path / "b.csv"
        monkeypatch.setenv("COXCASCADE_SEED", "1111")
        main(["sample", "--a", "10", "--b", "2", "--f", "100", "--n", "500",
              "--trace-out", str(out_a)])
        monkeypatch.setenv("COXCASCADE_SEED", "2222")
        main(["sample", "--a", "10", "--b", "2", "--f", "100", "--n", "500",
              "--trace-out", str(out_b)])
        assert out_a.read_bytes() != out_b.read_bytes()

    def test_bad_env_value(self, capsys, monkeypatch):
        # a usage error (2), not the validation-failure code (1)
        for raw in ("not-a-number", "-3"):
            monkeypatch.setenv("COXCASCADE_SEED", raw)
            code, out, err = run_cli(capsys, "sample", "--a", "10", "--b", "2",
                                     "--f", "100", "--n", "100")
            assert code == 2
            assert out == ""
            assert err == ("coxcascade sample: error: COXCASCADE_SEED must be a "
                           f"nonnegative integer, got {raw!r}\n")


# SHA-256 over the stdout and files of the invocations below plus the
# records of a 100-run reconciliation check.  Tables, transcripts and the
# records CSV are rendered by the CLI alone; a change to the library
# behind them must not alter a byte, and a contract change that does moves
# this pin.
GOLDEN_OUTPUT_DIGEST = "96a912680dff72b57c1b80601fdf548f3476755cdf9a64b4bb169bf632ffa221"


class TestGoldenOutputs:
    MODEL = ["--a", "10", "--b", "2"]

    def test_invocation_digest(self, capsys, tmp_path):
        h = hashlib.sha256()

        def feed(label, *argv, files=()):
            code, out, err = run_cli(capsys, *argv)
            h.update(f"{label} exit={code}\n".encode() + out.encode() + err.encode())
            for path in files:
                h.update(path.read_bytes())

        for cmd, span in (("pmf", ["--k", "0..25"]), ("cdf", ["--m", "0..10"]),
                          ("tail", ["--m", "0..10"]), ("parity", ["--m", "0..10"])):
            for fmt in ("csv", "json"):
                feed(f"{cmd} {fmt}", cmd, *self.MODEL, *span, "--format", fmt)
        for fmt in ("text", "json"):
            feed(f"blocksize {fmt}", "blocksize", *self.MODEL, "--f", "1000",
                 "--format", fmt)
        pattern = tmp_path / "pattern.txt"
        feed("sample", "sample", *self.MODEL, "--f", "100", "--n", "2000",
             "--seed", "7", "--pattern-out", str(pattern), files=[pattern])
        for variant in ("bbbss", "cascade"):
            transcript = tmp_path / f"{variant}.log"
            feed(f"reconcile {variant}", "reconcile", *self.MODEL, "--f", "250",
                 "--n", "4096", "--seed", "17", "--variant", variant,
                 "--transcript-out", str(transcript), files=[transcript])
        records = tmp_path / "records.csv"
        feed("validate", "validate", "--suite", "normalization", "--suite", "parity",
             "--suite", "identities", "--output", str(records), files=[records])
        rows = [astuple(r) for r in check_reconciliation(runs=100)]
        h.update(repr(rows).encode())
        assert h.hexdigest() == GOLDEN_OUTPUT_DIGEST
