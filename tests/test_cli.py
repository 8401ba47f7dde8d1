import argparse
import json

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from spinparity import PhaseFunction
from spinparity.cli import (
    ExperimentConfig,
    TruthTableError,
    bench,
    main,
    parse_truth_table,
    parse_truth_table_text,
    render_report,
    resolve_function,
    run_experiment,
)

from helpers import format_truth_table


class TestParseTruthTable:
    def test_single_spin(self):
        f = parse_truth_table_text("1\n+-")
        assert f.n == 1
        assert list(np.flatnonzero(f.marks)) == [1]

    def test_trivial_function(self):
        f = parse_truth_table_text("2\n++++")
        assert f.n == 2
        assert not f.marks.any()

    def test_positional_read(self):
        f = parse_truth_table_text("2\n+--+")
        assert list(np.flatnonzero(f.marks)) == [1, 2]

    def test_trailing_whitespace_tolerated(self):
        f = parse_truth_table_text("2 \t\n+--+  \r\n")
        assert list(np.flatnonzero(f.marks)) == [1, 2]

    def test_wrong_length_reports_position(self):
        with pytest.raises(TruthTableError, match=r"line 2, column 4"):
            parse_truth_table_text("2\n+--")

    def test_illegal_character_reports_position(self):
        with pytest.raises(TruthTableError, match=r"line 2, column 3"):
            parse_truth_table_text("2\n+-x+")

    def test_bad_header(self):
        with pytest.raises(TruthTableError, match=r"line 1"):
            parse_truth_table_text("two\n++++")

    def test_spin_count_out_of_cap(self):
        with pytest.raises(TruthTableError, match=r"^line 1: spin count 13 outside 1\.\.12$"):
            parse_truth_table_text("13\n" + "+" * 8192)

    def test_missing_row(self):
        with pytest.raises(TruthTableError, match=r"line 2"):
            parse_truth_table_text("2")

    def test_unexpected_extra_line(self):
        with pytest.raises(TruthTableError, match=r"line 3"):
            parse_truth_table_text("1\n+-\njunk")

    def test_file_round_trip(self, tmp_path):
        f = PhaseFunction.random(4, 0.5, 11)
        path = tmp_path / "table.txt"
        path.write_text(format_truth_table(f))
        again = parse_truth_table(str(path))
        assert np.array_equal(again.marks, f.marks)

    @given(st.integers(1, 6), st.integers(0, 2**64 - 1))
    def test_round_trip_any_table(self, n, mask):
        marks = [(mask >> x) & 1 == 1 for x in range(1 << n)]
        f = PhaseFunction(n, marks)
        again = parse_truth_table_text(format_truth_table(f))
        assert again.n == f.n
        assert np.array_equal(again.marks, f.marks)

    @pytest.mark.parametrize("header", ["\u0662", "\u00b2"])
    def test_non_ascii_digit_header(self, header):
        # Arabic-Indic two passes str.isdigit, superscript two then fails int()
        with pytest.raises(TruthTableError, match=r"line 1: expected a spin count"):
            parse_truth_table_text(header + "\n+-+-\n")

    # a UTF-8 superscript two, and a byte that is not UTF-8 at all
    @pytest.mark.parametrize(
        "data, where", [(b"2\n++\xc2\xb2+\n", "line 2, column 3"), (b"2\n+\xff-+\n", "line 2, column 2")]
    )
    def test_non_ascii_file_reports_position(self, tmp_path, capsys, data, where):
        table = tmp_path / "f.txt"
        table.write_bytes(data)
        with pytest.raises(TruthTableError, match=f"{where}: invalid character"):
            parse_truth_table(str(table))
        assert main(["--function", f"file:{table}"]) == 1
        assert capsys.readouterr().err.startswith(f"error: {where}:")

    def test_round_trip_all_sizes(self):
        for n in range(1, 11):
            f = PhaseFunction.random(n, 0.5, n)
            again = parse_truth_table_text(format_truth_table(f))
            assert np.array_equal(again.marks, f.marks)


class TestResolveFunction:
    def test_sources(self):
        cm = resolve_function(ExperimentConfig("const-minus", n=2))
        assert cm.marks.all()
        assert not resolve_function(ExperimentConfig("const-plus", n=2)).marks.any()
        assert resolve_function(ExperimentConfig("single:3", n=2)).marks[3]
        r = resolve_function(ExperimentConfig("random", n=3, seed=5, density=0.5))
        assert r.n == 3

    def test_random_requires_seed(self):
        with pytest.raises(ValueError, match="seed"):
            resolve_function(ExperimentConfig("random", n=3))

    def test_unknown_source(self):
        with pytest.raises(ValueError, match="unknown function source"):
            resolve_function(ExperimentConfig("sometimes", n=3))

    def test_missing_n(self):
        with pytest.raises(ValueError, match="requires --n"):
            resolve_function(ExperimentConfig("const-plus"))

    @pytest.mark.parametrize("source", ["const-plus", "const-minus", "single:2", "file:t.txt", "dice"])
    @pytest.mark.parametrize(
        "options, flags",
        [({"seed": 5, "density": 7.0}, "--seed, --density"), ({"seed": 0}, "--seed"),
         ({"density": 0.5}, "--density")],
    )
    def test_seed_and_density_belong_to_the_random_source(self, source, options, flags):
        # the library used to ignore them and return, say, the constant table
        with pytest.raises(ValueError, match=rf"^--function {source} does not take {flags}$"):
            ExperimentConfig(source, n=3, **options)

    def test_random_density_defaults_to_half(self):
        f = resolve_function(ExperimentConfig("random", n=6, seed=9))
        assert f == PhaseFunction.random(6, 0.5, 9)

    def test_single_needs_an_integer_index(self):
        with pytest.raises(ValueError, match=r"^single:<x> needs an integer index x, got 'abc'$"):
            resolve_function(ExperimentConfig("single:abc", n=3))

    def test_file_spin_count_conflict(self, tmp_path):
        path = tmp_path / "t.txt"
        path.write_text("2\n++++\n")
        with pytest.raises(ValueError, match="contradicts"):
            resolve_function(ExperimentConfig(f"file:{path}", n=3))


class TestRunExperiment:
    def test_const_minus_verified(self):
        status, report = run_experiment(ExperimentConfig("const-minus", n=3, verify=True))
        assert status == 0
        assert report["parity"] == +1
        assert report["G_parity_reference"] == +1
        assert report["runs"] == 1
        assert report["uf_calls"] == 2

    def test_single_mark_verified(self):
        status, report = run_experiment(ExperimentConfig("single:5", n=3, verify=True))
        assert status == 0
        assert report["parity"] == -1

    def test_random_agrees_with_reference(self):
        status, report = run_experiment(
            ExperimentConfig("random", n=6, seed=42, density=0.5, verify=True)
        )
        assert status == 0
        assert report["uo_calls"] <= 6

    def test_report_schema(self):
        _, report = run_experiment(ExperimentConfig("single:5", n=3, verify=True))
        assert list(report) == [
            "n", "parity", "G_parity_reference", "runs", "uo_calls", "uf_calls", "trace",
        ]
        first = report["trace"][0]
        assert list(first) == ["M", "sign", "amplitudes", "decision"]
        assert first["M"] is None and first["sign"] is None

    def test_same_seed_same_bytes(self):
        cfg = ExperimentConfig("random", n=5, seed=7, density=0.4, verify=True)
        a = render_report(run_experiment(cfg)[1], "json")
        b = render_report(run_experiment(cfg)[1], "json")
        assert a == b

    def test_verification_mismatch_exits_2(self, monkeypatch):
        import spinparity.cli as climod

        real = climod.reference_report

        def flipped(f, spec=None):
            rep = real(f, spec)
            object.__setattr__(rep, "parity", -rep.parity)
            return rep

        monkeypatch.setattr(climod, "reference_report", flipped)
        status, report = run_experiment(ExperimentConfig("single:5", n=3, verify=True))
        assert status == 2
        assert report["G_parity_reference"] == -report["parity"]


class TestRenderReport:
    def test_csv_trace_rows(self):
        _, report = run_experiment(ExperimentConfig("random", n=4, seed=3, density=0.6))
        text = render_report(report, "csv")
        lines = text.strip().split("\n")
        assert lines[0] == "iteration,M,sign,amp_1,amp_2,amp_3,amp_4,decision"
        assert len(lines) == 1 + len(report["trace"])

    def test_json_is_valid(self):
        _, report = run_experiment(ExperimentConfig("const-plus", n=2))
        parsed = json.loads(render_report(report, "json"))
        assert parsed["parity"] == 1

    def test_unknown_format(self):
        with pytest.raises(ValueError):
            render_report({"n": 1, "trace": []}, "xml")


class TestBench:
    def test_reports_timings_and_path(self):
        cfg = ExperimentConfig("random", seed=0, density=0.5)
        report = bench(cfg, [2, 3])
        assert report["sizes"] == [2, 3]
        assert len(report["seconds_per_run"]) == 2
        assert "2->3" in report["ratios"]

    def test_rejects_file_source(self):
        with pytest.raises(ValueError, match="size-independent"):
            bench(ExperimentConfig("file:whatever"), [2])


class TestMain:
    def test_run_to_stdout(self, capsys):
        assert main(["--n", "3", "--function", "single:5", "--verify"]) == 0
        out = capsys.readouterr().out
        assert json.loads(out)["parity"] == -1

    def test_out_file(self, tmp_path):
        out = tmp_path / "report.json"
        code = main(["--n", "3", "--function", "const-minus", "--verify", "--out", str(out)])
        assert code == 0
        assert json.loads(out.read_text())["runs"] == 1

    def test_file_source(self, tmp_path):
        table = tmp_path / "f.txt"
        table.write_text("2\n+--+\n")
        assert main(["--function", f"file:{table}", "--verify"]) == 0

    def test_parse_error_exit_code(self, tmp_path, capsys):
        table = tmp_path / "bad.txt"
        table.write_text("2\n+-\n")
        assert main(["--function", f"file:{table}"]) == 1
        assert "line 2" in capsys.readouterr().err

    def test_missing_function_flag(self, capsys):
        assert main(["--n", "3"]) == 1

    def test_config_error_exit_code(self, capsys):
        assert main(["--n", "3", "--function", "random"]) == 1  # no seed

    def test_csv_format(self, capsys):
        assert main(["--n", "2", "--function", "single:0", "--format", "csv"]) == 0
        assert capsys.readouterr().out.startswith("iteration,M,sign,")

    def test_bench_mode(self, capsys):
        assert main(["--bench", "2,3"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert list(report) == ["sizes", "seconds_per_run", "ratios"]

    @pytest.mark.parametrize(
        "flags",
        [["--n", "5"], ["--snr"], ["--verify"], ["--format", "csv"],
         ["--format", "csv", "--snr", "--verify", "--n", "5"]],
    )
    def test_bench_rejects_flags_it_does_not_use(self, flags, capsys):
        assert main(["--bench", "2"] + flags) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: --bench does not take ")

    @pytest.mark.parametrize(
        "argv, source, flags",
        [
            ("--n 3 --function single:2 --density 7", "single:2", "--density"),
            ("--function const-plus --seed 5 --density 0.3", "const-plus", "--seed, --density"),
            ("--bench 2 --function const-minus --seed 1", "const-minus", "--seed"),
        ],
    )
    def test_non_random_source_rejects_seed_and_density(self, argv, source, flags, capsys):
        assert main(argv.split()) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: --function {source} does not take {flags}\n"

    def test_file_source_rejects_seed(self, tmp_path, capsys):
        table = tmp_path / "f.txt"
        table.write_text("2\n+--+\n")
        assert main(["--function", f"file:{table}", "--seed", "3"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: --function file:{table} does not take --seed\n"

    @pytest.mark.parametrize("index", ["abc", "", "1.5", "0x3"])
    def test_single_source_needs_an_integer_index(self, index, capsys):
        assert main(["--n", "3", "--function", f"single:{index}"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: single:<x> needs an integer index x, got {index!r}\n"

    @pytest.mark.parametrize(
        "argv, err",
        [
            ("--bench 2,x", "--bench item 2 must be an integer, got 'x'"),
            ("--bench 1.5", "--bench item 1 must be an integer, got '1.5'"),
            ("--bench 2,,3", "--bench item 2 must be an integer, got ''"),
        ],
    )
    def test_list_flags_name_the_bad_item(self, argv, err, capsys):
        assert main(argv.split()) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {err}\n"

    def test_bench_seeds_only_the_random_source(self, capsys):
        assert main(["--bench", "2", "--function", "const-plus"]) == 0
        assert json.loads(capsys.readouterr().out)["sizes"] == [2]

    def test_random_source_takes_seed_and_density(self, capsys):
        assert main(["--n", "4", "--function", "random", "--seed", "3", "--density", "0.25"]) == 0
        assert main(["--bench", "2", "--seed", "3", "--density", "0.25"]) == 0

    @pytest.mark.parametrize("n", ["40", "64", "-1"])
    @pytest.mark.parametrize(
        "argv",
        ["--n {n} --function const-plus", "--n {n} --function random --seed 1",
         "--n {n} --function single:3", "--bench {n}"],
    )
    def test_spin_count_out_of_range_rejected(self, argv, n, capsys):
        # one error line, no traceback: the count is checked before 2^n entries are allocated
        assert main(argv.format(n=n).split()) == 1
        assert capsys.readouterr().err == f"error: spin count {n} outside 1..12\n"

    def test_usage_error_remapped(self, capsys):
        # no polarization or zero-floor flag: the solver's amplitudes are
        # exact whole units, read at one fixed floor, so neither could
        # change a report
        for extra in (["--format", "yaml"], ["--epsilon", "1"], ["--threshold", "1e-9"]):
            assert main(["--n", "3", "--function", "single:5"] + extra) == 1
            assert capsys.readouterr().out == ""

    @pytest.mark.parametrize(
        "argv",
        [["--n", "2", "--function", "single:5"], ["--bench", "2,3", "--function", "single:5"]],
    )
    def test_out_of_range_single_index_rejected(self, argv, capsys):
        assert main(argv) == 1
        assert capsys.readouterr().err == "error: marked index 5 is not an integer in 0..3\n"

    def test_parser_built_once(self, monkeypatch, tmp_path, capsys):
        built = []
        real_init = argparse.ArgumentParser.__init__

        def counting_init(self, *args, **kwargs):
            built.append(self)
            real_init(self, *args, **kwargs)

        monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
        run = ["--n", "3", "--function", "single:5", "--verify"]
        assert main(run + ["--out", str(tmp_path / "r.json")]) == 0
        assert main(run + ["--format", "csv", "--out", str(tmp_path / "r.csv")]) == 0
        assert main(["--bench", "2"]) == 0
        assert len(built) <= 1

    def test_shared_parser_keeps_no_state(self, tmp_path, capsys):
        def request():
            texts = []
            for fmt in ("json", "csv"):
                out = tmp_path / f"report.{fmt}"
                argv = ["--n", "6", "--function", "random", "--seed", "42", "--verify",
                        "--format", fmt, "--out", str(out)]
                assert main(argv) == 0
                texts.append(out.read_bytes())
            return texts

        first = request()
        assert main(["--format", "yaml"]) == 1
        assert main(["--help"]) == 0
        assert main(["--bench", "2"]) == 0
        assert request() == first

    def test_snr_flag(self, capsys):
        assert main(["--n", "3", "--function", "single:5", "--snr", "--verify"]) == 0
        report = json.loads(capsys.readouterr().out)
        # amplitudes at the physical 2/N scale
        assert abs(abs(report["trace"][0]["amplitudes"][0]) - 0.25) < 1e-9
