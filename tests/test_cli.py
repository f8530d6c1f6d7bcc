import csv
import gc
import io
import random
import re
from importlib import resources
from pathlib import Path

import pytest

import netmap.cli as cli
import netmap.errors as errors
import netmap.slopefn as slopefn
from netmap.errors import NonTransverseError
from netmap.presentation import NetMapPresentation, parse
from netmap.slope import Slope


@pytest.fixture(scope="module")
def main_path(tmp_path_factory):
    text = resources.files("netmap.data").joinpath("main.net").read_text("utf-8")
    path = tmp_path_factory.mktemp("pres") / "main.net"
    path.write_text(text)
    return str(path)


@pytest.fixture(scope="module")
def euclidean_path(tmp_path_factory):
    text = resources.files("netmap.data").joinpath("euclidean.net").read_text("utf-8")
    path = tmp_path_factory.mktemp("pres") / "euclidean.net"
    path.write_text(text)
    return str(path)


@pytest.fixture(scope="module")
def double_path(tmp_path_factory):
    text = resources.files("netmap.data").joinpath("double.net").read_text("utf-8")
    path = tmp_path_factory.mktemp("pres") / "double.net"
    path.write_text(text)
    return str(path)


def run(capsys, *argv):
    code = cli.main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


class TestAnalyze:
    def test_single_slope(self, capsys, main_path):
        code, out, _ = run(capsys, "analyze", main_path, "--slope", "1/4")
        assert code == 0
        assert out.strip() == "d=5 d'=2 c=(0,0,2,2) ess=2 per=0 null=0 delta=2/5"

    def test_table_has_eight_rows(self, capsys, main_path):
        code, out, _ = run(capsys, "analyze", main_path, "--table")
        assert code == 0
        assert out.splitlines() == [
            "1: d=10 d'=1 c=(0,0,1,1) ess=1 per=0 null=0 delta=1/10",
            "2: d=2 d'=5 c=(0,1,4,5) ess=3 per=2 null=0 delta=3/2",
            "1/3: d=2 d'=5 c=(0,2,3,5) ess=1 per=4 null=0 delta=1/2",
            "1/4: d=5 d'=2 c=(0,0,2,2) ess=2 per=0 null=0 delta=2/5",
            "-1/2: d=1 d'=10 c=(0,2,8,10) ess=6 per=4 null=0 delta=6",
            "3/4: d=1 d'=10 c=(0,0,6,6) ess=6 per=0 null=4 delta=6",
            "7/6: d=1 d'=10 c=(0,4,6,10) ess=2 per=8 null=0 delta=2",
            "1/8: d=1 d'=10 c=(0,0,2,2) ess=2 per=0 null=8 delta=2",
        ]

    def test_csv_format(self, capsys, main_path):
        code, out, _ = run(capsys, "analyze", main_path, "--table", "--format", "csv")
        assert code == 0
        assert out == "".join(row + "\r\n" for row in [
            "slope,d,d_prime,c1,c2,c3,c4,essential,peripheral,null,delta",
            "1,10,1,0,0,1,1,1,0,0,1/10",
            "2,2,5,0,1,4,5,3,2,0,3/2",
            "1/3,2,5,0,2,3,5,1,4,0,1/2",
            "1/4,5,2,0,0,2,2,2,0,0,2/5",
            "-1/2,1,10,0,2,8,10,6,4,0,6",
            "3/4,1,10,0,0,6,6,6,0,4,6",
            "7/6,1,10,0,4,6,10,2,8,0,2",
            "1/8,1,10,0,0,2,2,2,0,8,2",
        ])

    def test_invalid_file_exits_2(self, capsys, tmp_path):
        bad = tmp_path / "bad.net"
        bad.write_text("name = broken\nlambda1 = (1,0) (0,1)\n")
        code, _, err = run(capsys, "analyze", str(bad), "--slope", "1/2")
        assert code == 2 and err

    def test_empty_slope_is_parsed_not_absent(self, capsys, main_path):
        code, out, err = run(capsys, "analyze", main_path, "--slope=")
        assert (code, out) == (2, "")
        assert err == "error: bad slope ''; expected p/q, p or inf\n"

    def test_validation_error_names_invariant(self, capsys, tmp_path, main_path):
        text = open(main_path).read().replace("(2,0) (2,3)", "(2,0) (2,-2)")
        bad = tmp_path / "collide.net"
        bad.write_text(text)
        code, _, err = run(capsys, "analyze", str(bad), "--slope", "1/2")
        assert code == 2
        assert "inverse-pairs" in err


class TestUnreadableInput:
    def test_zero_denominator_exits_2_with_one_line(self, capsys, tmp_path, main_path):
        text = open(main_path).read().replace("(2,-1) : (2,0)", "(2,-1) : (2/0,0)")
        bad = tmp_path / "zero.net"
        bad.write_text(text)
        code, out, err = run(capsys, "slope", str(bad), "1/2")
        assert (code, out) == (2, "")
        assert err == "error: line 12: trailing junk in point list: '(2/0,0)'\n"

    def test_repeated_key_exits_2_with_one_line(self, capsys, tmp_path, main_path):
        bad = tmp_path / "repeated.net"
        bad.write_text(open(main_path).read() + "lambda1 = (2,-1) (0,5)\n")
        code, out, err = run(capsys, "slope", str(bad), "1/2")
        assert (code, out) == (2, "")
        assert err == "error: line 14: duplicate key 'lambda1'\n"

    @pytest.mark.parametrize("newline", [b"\r\n", b"\r"])
    def test_crlf_and_cr_files_read_like_lf(self, capsys, tmp_path, main_path, main_pres, newline):
        data = open(main_path, "rb").read()
        assert data.count(b"\n") > 10 and b"\r" not in data
        path = tmp_path / "main.net"
        path.write_bytes(data.replace(b"\n", newline))
        assert parse(path.read_bytes().decode("utf-8")) == main_pres
        assert cli._load(str(path)) == main_pres
        assert run(capsys, "slope", str(path), "1/4") == (0, "1/2\n", "")

    def test_invalid_utf8_exits_2_with_one_line(self, capsys, tmp_path, main_path):
        data = open(main_path, "rb").read().replace(b"name = main", b"name = m\xe4in")
        bad = tmp_path / "latin1.net"
        bad.write_bytes(data)
        at = data.index(b"\xe4")
        code, out, err = run(capsys, "slope", str(bad), "1/4")
        assert (code, out) == (2, "")
        assert err == (f"error: 'utf-8' codec can't decode byte 0xe4 in position {at}: "
                       "invalid continuation byte\n")

    def test_directory_exits_2_with_one_line(self, capsys, tmp_path):
        code, out, err = run(capsys, "slope", str(tmp_path), "1/2")
        assert (code, out) == (2, "")
        assert err.startswith("error: ") and err.count("\n") == 1


class TestSlope:
    def test_single_values(self, capsys, main_path):
        assert run(capsys, "slope", main_path, "1/4")[1].strip() == "1/2"
        assert run(capsys, "slope", main_path, "inf")[1].strip() == "inf"

    def test_inessential_value(self, capsys, double_path):
        assert run(capsys, "slope", double_path, "0")[1].strip() == "o"

    def test_graph_rows_and_spot_values(self, capsys, main_path):
        code, out, _ = run(capsys, "slope", main_path, "--graph", "8")
        assert code == 0
        rows = list(csv.reader(io.StringIO(out)))
        header, data = rows[0], rows[1:]
        assert header == ["slope", "slope_value", "image", "image_value"]
        table = {r[0]: r[2] for r in data}
        assert table["3/2"] == "1"
        assert table["1/4"] == "1/2"
        assert len(data) > 80

    def test_graph_csv_is_what_csv_writer_writes(self, capsys, main_path, double_path):
        # No field of a graph row needs quoting, so commas and CRLF line
        # ends give the bytes that csv.writer gives.
        for path in (main_path, double_path):
            out = run(capsys, "slope", path, "--graph", "30")[1]
            buf = io.StringIO()
            csv.writer(buf).writerows(csv.reader(io.StringIO(out, newline="")))
            assert out == buf.getvalue()

    def test_graph_deterministic(self, capsys, main_path):
        first = run(capsys, "slope", main_path, "--graph", "4")[1]
        second = run(capsys, "slope", main_path, "--graph", "4")[1]
        assert first == second

    def test_missing_slope_exits_2(self, capsys, main_path):
        code, out, err = run(capsys, "slope", main_path)
        assert (code, out) == (2, "")
        assert err == "error: slope needs a SLOPE or --graph\n"

    @pytest.mark.parametrize("text", ["abc", "1/2/3"])
    def test_malformed_slope_exits_2_with_one_line(self, capsys, main_path, text):
        code, out, err = run(capsys, "slope", main_path, text)
        assert (code, out) == (2, "")
        assert err == f"error: bad slope {text!r}; expected p/q, p or inf\n"

    def test_graph_out_writes_what_stdout_shows(self, capsys, main_path, tmp_path):
        path = tmp_path / "graph.csv"
        code, out, _ = run(capsys, "slope", main_path, "--graph", "20", "--out", str(path))
        assert (code, out) == (0, f"wrote 511 rows to {path}\n")
        assert path.read_bytes() == run(capsys, "slope", main_path, "--graph", "20")[1].encode()

    def test_graph_below_one_exits_2(self, capsys, main_path):
        code, out, err = run(capsys, "slope", main_path, "--graph", "0")
        assert (code, out) == (2, "")
        assert err == "error: height must be a positive integer\n"

    def test_nontransverse_maps_to_exit_3(self, capsys, main_path, monkeypatch):
        def boom(pres, slope):
            raise NonTransverseError("forced")

        monkeypatch.setattr(cli, "pullback_slope", boom)
        code, _, err = run(capsys, "slope", main_path, "1/4")
        assert code == 3 and "forced" in err

    def test_zigzag_failure_maps_to_exit_3(self, capsys, main_path, monkeypatch):
        # With no candidate segment the zigzag cannot evaluate 1/4.
        monkeypatch.setattr(slopefn, "segment_candidates", lambda pres, slope: iter(()))
        code, _, err = run(capsys, "slope", main_path, "1/4")
        assert code == 3 and "no usable segment for slope 1/4" in err

    def test_target_slope_answers(self, capsys, main_path):
        assert run(capsys, "slope", main_path, "99999999/100000000") == (
            0, "59999999/90000000\n", ""
        )

    def test_stalled_slope_exits_2_with_one_line(self, capsys, main_path):
        code, out, err = run(
            capsys, "slope", main_path, "--", "-8099826797693086328/80841919002507010799"
        )
        assert (code, out) == (2, "")
        assert err.startswith("error: slope -361933068/3300554533: its zigzag segment ")
        assert err.endswith(" mirrors, above the limit of 1000000\n")
        assert err.count("\n") == 1

    def test_thousand_digit_slope_exits_2_with_one_line(self, capsys, main_path, monkeypatch):
        scanned = []
        step = slopefn._twist_step

        def counting(pres, x, convergents):
            scanned.append(len(convergents) + 2)  # and 0 and infinity
            return step(pres, x, convergents)

        monkeypatch.setattr(slopefn, "_twist_step", counting)
        rng = random.Random(7)
        slope = f"{rng.randrange(10**999, 10**1000)}/{rng.randrange(10**999, 10**1000)}"
        code, out, err = run(capsys, "slope", main_path, slope)
        assert (code, out) == (2, "")
        reduced = Slope.parse(slope)
        assert err == f"error: slope {reduced}: its twist descent would scan more than 5000 centres\n"
        assert 0 < sum(scanned) <= 5000  # refused before the scan that would pass the budget

    @pytest.mark.parametrize("command, flag", [("slope", "--graph"), ("obstructions", "--height")])
    def test_huge_height_exits_2_with_one_line(self, capsys, main_path, command, flag):
        code, out, err = run(capsys, command, main_path, flag, "100000")
        assert (code, out) == (2, "")
        assert err == (
            "error: height 100000: up to 40000000000 slopes, above the limit of 1000000\n"
        )

    def test_overlong_mirror_exits_2_with_one_line(self, capsys, tmp_path, main_path):
        text = open(main_path, encoding="utf-8").read().replace(
            "mirror 3 = (2,-1) : (2,0)", "mirror 3 = (2,-1) : (3,1) (4000002,68000010)"
        )
        path = tmp_path / "long.net"
        path.write_text(text)
        code, out, err = run(capsys, "slope", str(path), "1/2")
        assert (code, out) == (2, "")
        assert err == (
            "error: mirror-extent: checking the mirrors for contact would walk 24000017 "
            "lines of 2*lambda1 translates, above the limit of 100000\n"
        )


class TestObstructions:
    def test_auto_report(self, capsys, main_path):
        code, out, _ = run(
            capsys, "obstructions", main_path, "--height", "20", "--budget", "8"
        )
        assert code == 0
        assert out.startswith("UNOBSTRUCTED (6 half-spaces)")

    def test_explicit_slope_list_and_svg(self, capsys, main_path, tmp_path):
        svg_path = tmp_path / "cover.svg"
        code, out, _ = run(
            capsys,
            "obstructions",
            main_path,
            "--slopes=-1/2,-1/4,1/8,1/4,1/3,7/16,1/2,3/4",
            "--svg",
            str(svg_path),
        )
        assert code == 0
        assert out.startswith("UNOBSTRUCTED (8 half-spaces)")
        assert out.splitlines()[9:] == [f"wrote {svg_path}"]
        svg = svg_path.read_text()
        assert svg.count("<circle") + svg.count("<line") == 8

    def test_unwritable_svg_prints_no_certificate(self, capsys, main_path, tmp_path):
        svg_path = tmp_path / "no" / "such" / "dir.svg"
        code, out, err = run(capsys, "obstructions", main_path, "--svg", str(svg_path))
        assert (code, out) == (2, "")
        assert err == f"error: [Errno 2] No such file or directory: '{svg_path}'\n"

    def test_slopes_that_do_not_cover(self, capsys, main_path):
        code, out, _ = run(capsys, "obstructions", main_path, "--slopes=1/2,1/3")
        assert (code, out) == (0, "INCONCLUSIVE (given half-spaces do not cover)\n")

    def test_slope_without_halfspace_exits_2(self, capsys, main_path):
        code, out, err = run(capsys, "obstructions", main_path, "--slopes=0")
        assert (code, out) == (2, "")
        assert err == "error: slope 0 yields no half-space (fixed or inessential)\n"

    def test_empty_slope_list_is_parsed_not_absent(self, capsys, main_path):
        # An empty list is not the default search at height 20.
        code, out, err = run(capsys, "obstructions", main_path, "--slopes=")
        assert (code, out) == (2, "")
        assert err == "error: bad slope ''; expected p/q, p or inf\n"

    def test_failed_reverification_is_inconclusive(self, capsys, main_path, monkeypatch):
        monkeypatch.setattr(cli.ob, "check_certificate", lambda pres, cert: False)
        code, out, _ = run(
            capsys, "obstructions", main_path, "--slopes=-1/2,-1/4,1/8,1/4,1/3,7/16,1/2,3/4"
        )
        assert (code, out) == (0, "INCONCLUSIVE (certificate failed re-verification)\n")

    def test_leftover_points_are_listed(self, capsys):
        # random_presentation(11) of test_pullback: its certificate leaves
        # two boundary points, neither of whose slopes is fixed.
        path = Path(__file__).parent / "data" / "seed11.net"
        code, out, _ = run(capsys, "obstructions", str(path), "--height", "20", "--budget", "12")
        assert code == 0
        assert out.splitlines() == [
            "UNOBSTRUCTED (8 half-spaces)",
            "  slope -1 -> -3 delta=1/3 outside-circle C=0 R=1/3*sqrt(3)",
            "  slope 7 -> -4 delta=1 inside-circle C=-1/3 R=1/3",
            "  slope -5 -> -4 delta=1 inside-circle C=1/9 R=1/9",
            "  slope -4 -> -3 delta=1/6 inside-circle C=7/29 R=1/87*sqrt(6)",
            "  slope -11/3 -> -5 delta=1/3 inside-circle C=47/169 R=2/169*sqrt(3)",
            "  slope -7/2 -> -4 delta=1 inside-circle C=10/33 R=1/33",
            "  slope -11/4 -> -4 delta=1 inside-circle C=8/21 R=1/21",
            "  slope -2 -> -3 delta=1/2 outside-circle C=-1 R=sqrt(2)",
            "  leftover 0: not-fixed",
            "  leftover 1/3: not-fixed",
        ]

    def test_budget_one_inconclusive(self, capsys, main_path):
        code, out, _ = run(capsys, "obstructions", main_path, "--budget", "1")
        assert code == 0 and out.startswith("INCONCLUSIVE")

    @pytest.mark.parametrize("budget", ["0", "-2"])
    def test_budget_below_one_exits_2(self, capsys, main_path, budget):
        code, out, err = run(capsys, "obstructions", main_path, "--budget", budget)
        assert (code, out) == (2, "")
        assert err == "error: budget must be a positive integer\n"

    @pytest.mark.parametrize(
        "extra", [["--budget", "0", "--height", "0"], ["--height", "20"], ["--budget", "12"]]
    )
    def test_slopes_with_height_or_budget_exits_2(self, capsys, main_path, extra):
        code, out, err = run(
            capsys, "obstructions", main_path, "--slopes=-1/2,-1/4,1/8,1/4,1/3,7/16,1/2,3/4",
            *extra,
        )
        assert (code, out) == (2, "")
        assert err == "error: obstructions --slopes takes no --height or --budget\n"

    def test_defaults_are_height_20_budget_12(self, capsys, main_path):
        default = run(capsys, "obstructions", main_path)
        explicit = run(capsys, "obstructions", main_path, "--height", "20", "--budget", "12")
        assert default == explicit and default[1].startswith("UNOBSTRUCTED")

    def test_obstructed_presentation(self, capsys, euclidean_path):
        code, out, _ = run(capsys, "obstructions", euclidean_path, "--height", "10")
        assert code == 0
        assert out.strip() == "OBSTRUCTED slope=0 delta=2"


class TestEquations:
    def test_twist_equation(self, capsys, main_path):
        code, out, _ = run(capsys, "equations", main_path, "inf")
        assert code == 0
        assert out.strip() == (
            "Sigma_f . [[1,0],[-2,1]]^5 = [[1,0],[-2,1]]^2 . Sigma_f"
        )

    def test_affine_equation(self, capsys, main_path):
        code, out, _ = run(capsys, "equations", main_path, "--affine", "1,0;5,1;0,0")
        assert code == 0
        assert out.strip() == "Sigma_f . [[1,0],[5,1]] = [[1,0],[2,1]] . Sigma_f"

    def test_conjugating_affine_equation(self, capsys, main_path):
        code, out, _ = run(
            capsys, "equations", main_path, "--affine=-1,0;1,1;0,0", "--check", "8"
        )
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == (
            "Sigma_f . [[1,0],[1,-1]].conj = [[1,0],[0,-1]].conj . Sigma_f"
        )
        assert lines[1].startswith("consistency check passed")

    def test_mirror_moving_affine_exits_4(self, capsys, double_path):
        code, _, err = run(capsys, "equations", double_path, "--affine", "1,0;0,1;2,0")
        assert code == 4 and "unsupported" in err

    def test_malformed_affine_exits_2_with_one_line(self, capsys, main_path):
        code, out, err = run(capsys, "equations", main_path, "--affine", "1,0;5")
        assert (code, out) == (2, "")
        assert err.startswith("error: bad affine spec '1,0;5'") and err.count("\n") == 1

    @pytest.mark.parametrize("spec", ["1,0;5", "1,0;5,1;0,0;0,0", "1,0;5,x;0,0", "(1,0,5);1;0,0",
                                      "((1,0;5,1));(0,0", "(1,0));(5,1);(0,0)"])
    def test_malformed_affine_names_the_expected_form(self, capsys, main_path, spec):
        code, out, err = run(capsys, "equations", main_path, "--affine", spec)
        assert (code, out) == (2, "")
        assert err == f"error: bad affine spec {spec!r}; expected a,b;c,d;tx,ty\n"

    def test_affine_pairs_in_parentheses(self, capsys, main_path):
        plain = run(capsys, "equations", main_path, "--affine", "1,0;5,1;0,0")
        assert plain[0] == 0 and plain[1]
        assert run(capsys, "equations", main_path, "--affine", "(1,0);(5,1);(0,0)") == plain

    def test_failed_consistency_check_exits_2(self, capsys, main_path, monkeypatch):
        import netmap.symmetry as symmetry

        real = symmetry.pullback_slope
        monkeypatch.setattr(symmetry, "pullback_slope", lambda pres, s: (
            Slope(7, 1) if s == Slope(1, 4) else real(pres, s)))
        code, out, _ = run(capsys, "equations", main_path, "--affine", "1,0;5,1;0,0",
                           "--check", "12")
        assert code == 2
        assert out.splitlines() == [
            "Sigma_f . [[1,0],[5,1]] = [[1,0],[2,1]] . Sigma_f",
            "consistency check FAILED: 1 violations",
            "  slope 1/4: 5/2 != 9",
        ]

    def test_non_member_exits_2(self, capsys, main_path):
        code, _, _ = run(capsys, "equations", main_path, "--affine", "1,0;0,1;1,0")
        assert code == 2

    @pytest.mark.parametrize("height", ["0", "-3"])
    def test_check_below_one_exits_2(self, capsys, main_path, height):
        code, out, err = run(
            capsys, "equations", main_path, "--affine", "1,0;5,1;0,0", "--check", height
        )
        assert (code, out) == (2, "")
        assert err == "error: height must be a positive integer\n"

    @pytest.mark.parametrize("argv", [("inf", "--check", "8"), ("--check", "0")])
    def test_check_without_affine_exits_2(self, capsys, main_path, argv):
        code, out, err = run(capsys, "equations", main_path, *argv)
        assert (code, out) == (2, "")
        assert err == "error: equations --check needs --affine\n"

    @pytest.mark.parametrize("argv", [["inf"], ["1/4", "--check", "30"]])
    def test_slope_with_affine_exits_2(self, capsys, main_path, argv):
        code, out, err = run(capsys, "equations", main_path, *argv, "--affine", "1,0;5,1;0,0")
        assert (code, out) == (2, "")
        assert err == "error: equations takes a SLOPE or --affine, not both\n"

    def test_missing_slope_exits_2(self, capsys, main_path):
        code, out, err = run(capsys, "equations", main_path)
        assert (code, out) == (2, "")
        assert err == "error: equations needs a SLOPE or --affine\n"


@pytest.mark.parametrize(
    "argv",
    [
        ("slope", "--graph", "8"),
        ("obstructions", "--height", "10"),
        ("equations", "--affine", "1,0;5,1;0,0", "--check", "10"),
    ],
)
def test_commands_never_hash_the_presentation(capsys, main_path, monkeypatch, argv):
    command, *options = argv
    expected = run(capsys, command, main_path, *options)
    assert expected[0] == 0 and expected[1]

    def refuse(self):
        raise AssertionError("a presentation was hashed")

    monkeypatch.setattr(NetMapPresentation, "__hash__", refuse)
    assert run(capsys, command, main_path, *options) == expected


@pytest.mark.parametrize("fails", [False, True])
def test_a_command_runs_with_the_earlier_objects_frozen(capsys, main_path, monkeypatch, fails):
    frozen = []

    def command(args):
        frozen.append(gc.get_freeze_count())
        if fails:
            raise ValueError("planted")
        return 0

    monkeypatch.setattr(cli, "cmd_slope", command)
    assert cli.main(["slope", main_path, "1/4"]) == (2 if fails else 0)
    assert frozen[0] > 0 and gc.get_freeze_count() == 0


class TestNonsep:
    def test_check_published_subset(self, capsys):
        code, out, _ = run(
            capsys, "nonsep", "4,2", "--check", "(0,0);(1,0);(2,0);(1,1)"
        )
        assert code == 0 and out.strip() == "NONSEPARATING"

    def test_check_separating_subset(self, capsys):
        code, out, _ = run(
            capsys, "nonsep", "4,2", "--check", "(0,0);(2,0);(0,1);(2,1)"
        )
        assert code == 0 and out == "SEPARATING B=<(0, 1)> a=(1, 0) c=(0, 0, 2, 2)\n"

    @pytest.mark.parametrize(
        "subset, element",
        [
            ("(7,0);(2,0);(0,0);(1,1)", "(7, 0)"),
            ("(1,0);(4,0);(2,1);(3,1)", "(4, 0)"),
            ("(5,0);(0,0);(2,1);(3,1)", "(5, 0)"),
        ],
    )
    def test_check_element_outside_group_exits_2(self, capsys, subset, element):
        code, out, err = run(capsys, "nonsep", "4,2", "--check", subset)
        assert code == 2 and out == ""
        assert err == f"error: {element} is not an element of Z/4 + Z/2\n"

    @pytest.mark.parametrize("element", ["(1,2,3)", "(1)", "(a,1)", "((1,0)", "(1,0))", "1,0)"])
    def test_check_malformed_element_exits_2(self, capsys, element):
        code, out, err = run(
            capsys, "nonsep", "4,2", "--check", f"{element};(0,0);(2,1);(3,1)"
        )
        assert code == 2 and out == ""
        assert err == (
            f"error: bad subset element {element!r}; "
            "expected (x,y) with integers x and y\n"
        )

    def test_check_of_three_elements_exits_2(self, capsys):
        code, out, err = run(capsys, "nonsep", "4,2", "--check", "(0,0);(1,0);(2,0)")
        assert (code, out, err) == (2, "", "error: subset check needs four elements\n")

    def test_empty_check_is_parsed_not_absent(self, capsys):
        code, out, err = run(capsys, "nonsep", "4,2", "--check=")
        assert (code, out, err) == (2, "", "error: subset check needs four elements\n")

    def test_search_lists_published_subset(self, capsys):
        code, out, _ = run(capsys, "nonsep", "4,2", "--search")
        assert code == 0
        assert "(0,0) (1,0) (1,1) (2,0)" in out

    def test_search_empty_for_notcyclic_instance(self, capsys):
        code, out, _ = run(capsys, "nonsep", "2,6", "--search")
        assert code == 0
        assert out.strip().splitlines()[-1].startswith("0 nonseparating")

    def test_refutation(self, capsys):
        code, out, _ = run(capsys, "nonsep", "4,2", "--refute")
        assert code == 0
        assert out.strip().splitlines()[-1] == "realizable candidates: 0"

    def test_bad_group_spec_exits_2(self, capsys):
        code, _, _ = run(capsys, "nonsep", "four", "--search")
        assert code == 2

    @pytest.mark.parametrize("spec", ["4,2,1", "4", "(4,x)", "((4,2", "4,2)", "(4,2))", "((4,2))"])
    def test_malformed_group_spec_exits_2_with_one_line(self, capsys, spec):
        code, out, err = run(capsys, "nonsep", spec, "--search")
        assert (code, out) == (2, "")
        assert err == f"error: bad group spec {spec!r}; expected m,n\n"

    def test_group_in_parentheses(self, capsys):
        plain = run(capsys, "nonsep", "4,2", "--search")
        assert plain[0] == 0 and plain[1]
        assert run(capsys, "nonsep", "(4,2)", "--search") == plain

    def test_huge_search_exits_2_with_one_line(self, capsys, monkeypatch):
        monkeypatch.setattr(cli.ns, "inversion_classes", _no_work)
        monkeypatch.setattr(cli.ns.FinAbGroup, "elements", _no_work)
        code, out, err = run(capsys, "nonsep", "100000,100000", "--search")
        assert code == 2 and out == ""
        assert err.count("\n") == 1
        assert err.startswith("error: ") and err.endswith(" exceed the budget of 100000\n")

    def test_huge_check_exits_2_with_one_line(self, capsys, monkeypatch):
        monkeypatch.setattr(cli.ns.FinAbGroup, "elements", _no_work)
        code, out, err = run(
            capsys, "nonsep", "100000,100000", "--check", "(0,0);(1,0);(0,1);(1,1)"
        )
        assert (code, out) == (2, "")
        assert err == (
            "error: a set walk over 10000000000 elements is above the limit of 1024\n"
        )


ANALYZE_MODES = "analyze takes one of --slope and --table"


def _no_work(*args, **kwargs):
    raise AssertionError("work done for a refused command line")


@pytest.mark.parametrize(
    "argv, message",
    [
        (["slope", "FILE", "1/2", "--graph", "2"], "slope takes a SLOPE or --graph, not both"),
        (["slope", "FILE", "1/2", "--graph=2"], "slope takes a SLOPE or --graph, not both"),
        (["slope", "FILE", "1/2", "--out", "OUT"], "slope --out needs --graph"),
        (["slope", "FILE", "1/2", "--out=OUT"], "slope --out needs --graph"),
        (["analyze", "FILE", "--slope", "1/2", "--table"], ANALYZE_MODES),
        (["analyze", "FILE", "--slope=1/2", "--table"], ANALYZE_MODES),
        (["analyze", "FILE"], ANALYZE_MODES),
        (["analyze", "FILE", "--format=csv"], ANALYZE_MODES),
    ],
)
def test_ignored_file_options_exit_2_before_any_work(
    capsys, main_path, tmp_path, monkeypatch, argv, message
):
    out = tmp_path / "out.csv"
    argv = [{"FILE": main_path, "OUT": str(out)}.get(a, a) for a in argv]
    argv = [a.replace("=OUT", f"={out}") for a in argv]
    assert (cli._parse_plain(argv) is None) == any("=" in a for a in argv)  # both parsers
    monkeypatch.setattr(cli, "_load", _no_work)
    assert run(capsys, *argv) == (2, "", f"error: {message}\n")
    assert not out.exists()


SUBSET = "(0,0);(1,0);(2,0);(1,1)"


@pytest.mark.parametrize(
    "argv, message",
    [
        (["--check", SUBSET, "--search"], "nonsep takes one of --check, --search and --refute"),
        (["--search", "--refute"], "nonsep takes one of --check, --search and --refute"),
        ([], "nonsep takes one of --check, --search and --refute"),
        ([f"--check={SUBSET}", "--refute"],
         "nonsep takes one of --check, --search and --refute"),
        (["--check", SUBSET, "--budget", "7"], "nonsep --budget needs --search"),
        (["--check", SUBSET, "--budget=7"], "nonsep --budget needs --search"),
        (["--refute", "--budget", "7"], "nonsep --budget needs --search"),
    ],
)
def test_ignored_nonsep_options_exit_2_before_any_work(capsys, monkeypatch, argv, message):
    argv = ["nonsep", "4,2", *argv]
    assert (cli._parse_plain(argv) is None) == any("=" in a for a in argv)  # both parsers
    for name in ("separating_pair", "search_nonseparating", "degree2_refutation"):
        monkeypatch.setattr(cli.ns, name, _no_work)
    assert run(capsys, *argv) == (2, "", f"error: {message}\n")


@pytest.mark.parametrize(
    "argv", [["2,4", "--refute"], ["8,2", "--ref"], ["--refute", "3,3"]]
)
def test_refute_of_another_group_exits_2(capsys, monkeypatch, argv):
    argv = ["nonsep", *argv]
    assert (cli._parse_plain(argv) is None) == ("--ref" in argv)  # both parsers
    monkeypatch.setattr(cli.ns, "degree2_refutation", _no_work)
    message = "error: nonsep --refute is the report for the group 4,2\n"
    assert run(capsys, *argv) == (2, "", message)


def test_nonsep_budget_default_is_100000(capsys, monkeypatch):
    budgets = []
    monkeypatch.setattr(cli.ns, "search_nonseparating",
                        lambda group, budget: budgets.append(budget) or [])
    for argv in (["4,2", "--search"], ["4,2", "--search", "--budget", "7"]):
        assert run(capsys, "nonsep", *argv)[0] == 0
    assert budgets == [100_000, 7]


def _parse_outcome(capsys, parse, argv):
    try:
        parse(argv)
        code = None
    except SystemExit as exc:
        code = exc.code
    out = capsys.readouterr()
    return code, out.out, out.err


@pytest.mark.parametrize(
    "argv",
    [
        ["--help"],
        [],
        ["bogus"],
        ["bogus", "--help"],
        ["--graph", "60"],
        ["analyze", "--help"],
        ["slope", "--help"],
        ["obstructions", "--help"],
        ["equations", "--help"],
        ["nonsep", "--help"],
        ["slope"],
        ["slope", "main.net", "--graph", "x"],
        ["obstructions", "main.net", "--unknown"],
        ["nonsep"],
    ],
)
def test_main_prints_what_the_parser_prints(capsys, argv):
    # Help, usage and errors come from argparse, byte for byte.
    full = _parse_outcome(capsys, cli.build_parser().parse_args, argv)
    assert full[0] is not None
    assert _parse_outcome(capsys, cli.main, argv) == full


@pytest.mark.parametrize(
    "argv",
    [
        ["analyze", "f.net", "--table", "--format", "csv"],
        ["analyze", "--table", "f.net"],
        ["slope", "f.net", "--graph", "3", "--out", "x.csv"],
        ["slope", "f.net", "200/3"],
        ["slope", "f.net", "--", "-77/102"],
        ["slope", "--graph", "3", "--", "f.net"],
        ["obstructions", "f.net", "--height", "9"],
        ["equations", "f.net", "--affine", "1,0;5,1;0,0", "--check", "3"],
        ["nonsep", "4,2", "--search", "--budget", "7"],
    ],
)
def test_plain_command_lines_skip_argparse(argv, monkeypatch):
    expected = cli.build_parser().parse_args(argv)
    assert cli._parse_plain(argv) == expected

    def no_parser():
        raise AssertionError("argparse built for a plain command line")

    monkeypatch.setattr(cli, "build_parser", no_parser)
    monkeypatch.setattr(cli, f"cmd_{argv[0]}", lambda args: 7)
    assert cli.main(argv) == 7


@pytest.mark.parametrize(
    "argv",
    [
        [],
        ["bogus"],
        ["slope", "-h"],
        ["slope", "f.net", "--gr", "3"],          # abbreviation
        ["slope", "f.net", "--graph=3"],
        ["slope", "f.net", "-3"],                 # argparse's negative number
        ["slope", "f.net", "--graph", "-3"],
        ["slope", "f.net", "--graph", "x"],
        ["slope", "f.net", "--graph"],
        ["slope", "f.net", "--graph", "3", "1/2"],  # two runs of positionals
        ["slope", "f.net", "--", "--", "1/2"],
        ["slope", "f.net", "1/2", "3/4"],
        ["slope"],
        ["analyze", "f.net", "--format", "xml"],
    ],
)
def test_other_command_lines_go_to_argparse(argv):
    assert cli._parse_plain(argv) is None


def test_plain_parse_agrees_with_argparse_on_random_command_lines():
    rng = random.Random(10)
    words = ["f.net", "1/2", "-1/2", "-3", "7", "", "csv", "xml", "4,2", "--", "-", "-h",
             "--gr", "--graph=5"]
    words += [flag for _, arguments in cli._COMMANDS.values() for flag, _ in arguments]
    plain = 0
    for _ in range(3000):
        argv = [rng.choice(list(cli._COMMANDS))] + rng.choices(words, k=rng.randint(0, 6))
        got = cli._parse_plain(argv)
        if got is None:
            continue
        plain += 1
        assert got == cli.build_parser().parse_args(argv), argv
    assert plain > 100


# sha256 of the outputs of the commit before batches took twist steps from
# memoised images; the images are exact, so the outputs must not move.
PINNED_SHA256 = {
    ("main", "slope"): "e43cfe6096f40021e47dd19d9f97ffec98811325f4f7f5c5f1696120c16948d0",
    ("main", "obstructions"): "feb99d34efd3d1470b5023344a22ceea5ebbe8d31eac8301d7f82e9217ce208a",
    ("double", "slope"): "4eb3dfdb15188182cd4540c52d7c722b8bc8af2b6ae83047f68205d8eec789dd",
    ("double", "obstructions"): "ddb9bc47513dc5e9ac3eb67a4b215ef8ba6f21920ec032683e3f6aa49c29b3bf",
    ("euclidean", "slope"): "5dd0b20ab9a6c086261dea1a9d7258c2a249da74fd2747027104dc9b4fb08437",
    ("euclidean", "obstructions"): "65c8158d5edb51f0fdf87d232b767c4aaa8d9f65cc7fcf03029ba117adbdbd59",
}


@pytest.mark.parametrize("name, command", sorted(PINNED_SHA256))
def test_graph_40_and_height_20_outputs_are_pinned(capsys, request, name, command):
    import hashlib

    path = request.getfixturevalue(f"{name}_path")
    flag = ("--graph", "40") if command == "slope" else ("--height", "20")
    code, out, err = run(capsys, command, path, *flag)
    assert (code, err) == (0, "")
    assert hashlib.sha256(out.encode()).hexdigest() == PINNED_SHA256[name, command]


def test_error_types_declare_the_readme_exit_codes():
    readme = (Path(__file__).parent.parent / "README.md").read_text(encoding="utf-8")
    table = {
        name: (int(code), label)
        for name, code, label in re.findall(r"^\| `(\w+)` \| (\d) \| `([^`]+)` \|$", readme, re.M)
    }
    declared = {
        name: (cls.exit_code, cls.label)
        for name, cls in vars(errors).items()
        if isinstance(cls, type) and issubclass(cls, errors.NetMapError)
    }
    assert table == declared
