import csv
import io
import random
from importlib import resources

import pytest

import netmap.cli as cli
import netmap.slopefn as slopefn
from netmap.errors import NonTransverseError
from netmap.presentation import NetMapPresentation


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
        lines = out.strip().splitlines()
        assert len(lines) == 8
        assert lines[3].endswith("d=5 d'=2 c=(0,0,2,2) ess=2 per=0 null=0 delta=2/5")
        assert lines[7].endswith("d=1 d'=10 c=(0,0,2,2) ess=2 per=0 null=8 delta=2")

    def test_csv_format(self, capsys, main_path):
        code, out, _ = run(capsys, "analyze", main_path, "--table", "--format", "csv")
        assert code == 0
        rows = list(csv.reader(io.StringIO(out)))
        assert rows[0][0] == "slope"
        assert len(rows) == 9

    def test_invalid_file_exits_2(self, capsys, tmp_path):
        bad = tmp_path / "bad.net"
        bad.write_text("name = broken\nlambda1 = (1,0) (0,1)\n")
        code, _, err = run(capsys, "analyze", str(bad), "--slope", "1/2")
        assert code == 2 and err

    def test_validation_error_names_invariant(self, capsys, tmp_path, main_path):
        text = open(main_path).read().replace("(2,0) (2,3)", "(2,0) (2,-2)")
        bad = tmp_path / "collide.net"
        bad.write_text(text)
        code, _, err = run(capsys, "analyze", str(bad), "--slope", "1/2")
        assert code == 2
        assert "inverse-pairs" in err


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

    def test_graph_deterministic(self, capsys, main_path):
        first = run(capsys, "slope", main_path, "--graph", "4")[1]
        second = run(capsys, "slope", main_path, "--graph", "4")[1]
        assert first == second

    def test_missing_slope_exits_2(self, capsys, main_path):
        code, out, err = run(capsys, "slope", main_path)
        assert (code, out) == (2, "")
        assert err == "slope needs a SLOPE or --graph\n"

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
        svg = svg_path.read_text()
        assert svg.count("<circle") + svg.count("<line") == 8

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
        assert err == "equations needs a SLOPE or --affine\n"


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

    @pytest.mark.parametrize("element", ["(1,2,3)", "(1)", "(a,1)"])
    def test_check_malformed_element_exits_2(self, capsys, element):
        code, out, err = run(
            capsys, "nonsep", "4,2", "--check", f"{element};(0,0);(2,1);(3,1)"
        )
        assert code == 2 and out == ""
        assert err == (
            f"error: bad subset element {element!r}; "
            "expected (x,y) with integers x and y\n"
        )

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
