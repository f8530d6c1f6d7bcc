import csv
import io
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
