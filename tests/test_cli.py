"""Command-line interface behavior and external file formats."""

import contextlib
import hashlib
import io
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import pathtiles
from pathtiles.cli import main
from pathtiles.dag import WeightedDag, grid_graph, path_gf
from pathtiles.lozenge import Cell, Region, holed_hexagon, mirrored_hook_region


@pytest.fixture
def hexagon_file(tmp_path):
    path = tmp_path / "hex_2_1.json"
    path.write_text(json.dumps(holed_hexagon(1, 1).to_json()))
    return str(path)


@pytest.fixture
def staircase_file(tmp_path):
    vertices = [(x, y) for x in range(3) for y in range(3) if x + y <= 2]
    edges = []
    for x, y in vertices:
        for nxt in ((x + 1, y), (x, y + 1)):
            if nxt[0] + nxt[1] <= 2:
                edges.append(((x, y), nxt, 1))
    g = WeightedDag(vertices, edges)
    sinks = [(0, 2), (1, 1), (2, 0)]
    path = tmp_path / "stair.json"
    path.write_text(json.dumps(g.to_json(starts=[(0, 0)], ends=sinks)))
    return str(path)


def test_staircase_product_value(capsys):
    assert main(["compute", "staircase-product", "--m", "1", "--n", "1", "--k", "1"]) == 0
    assert capsys.readouterr().out.strip() == "9/2"


def test_staircase_product_free_kind(capsys):
    assert main(
        ["compute", "staircase-product", "--m", "1", "--n", "1", "--k", "1", "--kind", "free"]
    ) == 0
    assert capsys.readouterr().out.strip() == "3"


def test_spp_gf_det(capsys):
    assert main(["compute", "spp-gf", "--m", "1", "--shape", "1", "--mode", "qt", "--method", "det"]) == 0
    assert capsys.readouterr().out.strip() == "1 + 2*t + t^2"


@pytest.mark.parametrize("method", ["det", "enum", "both"])
def test_spp_gf_rejects_negative_bound(capsys, method):
    argv = ["compute", "spp-gf", "--m", "-1", "--shape", "3,1", "--method", method]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "largest entry bound must be >= 0" in captured.err


@pytest.mark.parametrize("mode", ["q-spp", "q-sym"])
def test_spp_gf_volume_modes_reject_negative_bound(capsys, mode):
    argv = ["spp", "gf", "--m", "-1", "--shape", "3,1", "--mode", mode, "--method", "enum"]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "largest entry bound must be >= 0" in captured.err


def test_spp_gf_long_row(capsys):
    assert main(["spp", "gf", "--m", "0", "--shape", "1200", "--mode", "q-sym", "--method", "enum"]) == 0
    assert capsys.readouterr().out == "1\n"


def _run_module(args, **env):
    src = str(Path(pathtiles.__file__).parents[1])
    return subprocess.run(
        [sys.executable, "-m", "pathtiles", *args],
        capture_output=True, text=True, env=dict(os.environ, PYTHONPATH=src, **env), timeout=300,
    )


def test_module_entry_point():
    proc = _run_module(["--help"])
    assert proc.returncode == 0
    assert "usage: pathtiles" in proc.stdout


def test_readme_symmetric_example_stops_at_the_budget():
    args = ["spp", "gf", "--m", "6", "--shape", "9,7,6,3,2", "--mode", "q-sym", "--method", "both"]
    proc = _run_module(args, TILING_REFLECT_BUDGET="20000")
    assert proc.returncode == 1
    assert proc.stderr.startswith("error:")
    assert "budget" in proc.stderr
    assert "Traceback" not in proc.stderr
    assert proc.stdout == ""


@pytest.mark.parametrize("mode", ["qt", "q-spp", "q-sym"])
def test_spp_gf_determinant_stops_at_the_budget_before_packing(mode):
    # The packed path matrix charges its slots before it is built: about
    # 67k for the (q,t) stride at m = 40, and 1.7k and 3.3k for the volume GFs.
    args = ["spp", "gf", "--m", "40", "--shape", "2", "--mode", mode, "--method", "det"]
    proc = _run_module(args, TILING_REFLECT_BUDGET="1000")
    assert proc.returncode == 1
    assert proc.stderr.startswith("error:") and "budget of 1000 states" in proc.stderr
    assert "Traceback" not in proc.stderr
    assert proc.stdout == ""


def test_spp_gf_subcommand_alias(capsys):
    assert main(["spp", "gf", "--m", "1", "--shape", "1", "--mode", "qt", "--method", "enum"]) == 0
    assert capsys.readouterr().out.strip() == "1 + t"


def test_spp_gf_both_cross_checks(capsys):
    assert main(["spp", "gf", "--m", "2", "--shape", "2,1", "--mode", "q-sym", "--method", "both"]) == 0
    capsys.readouterr()


def test_tiling_count(capsys, hexagon_file):
    assert main(["compute", "tiling-count", "--region", hexagon_file]) == 0
    assert capsys.readouterr().out.strip() == "3"
    assert main(["tile", "count", "--region", hexagon_file]) == 0
    assert capsys.readouterr().out.strip() == "3"


def test_tile_verify(capsys, hexagon_file):
    assert main(["tile", "verify", "--region", hexagon_file]) == 0
    assert "PASS" in capsys.readouterr().out


def test_tile_verify_over_budget_is_reported(tmp_path):
    # The centrally symmetric count of this hexagon spends about 5.1e6 states.
    path = tmp_path / "hexagon_6_8.json"
    path.write_text(json.dumps(holed_hexagon(6, 8).to_json()))
    proc = _run_module(["tile", "verify", "--region", str(path)], TILING_REFLECT_BUDGET="50000")
    assert proc.returncode == 1
    assert proc.stderr.startswith("error:") and "budget" in proc.stderr
    assert "Traceback" not in proc.stderr
    assert proc.stdout == ""


def test_tile_verify_rejects_a_non_invariant_region(tmp_path, capsys):
    # A hexagon less one interior cell has no central symmetry to count under.
    box = holed_hexagon(1, 2)
    path = tmp_path / "dented.json"
    path.write_text(json.dumps(Region(box.cells - {Cell(1, 1, "L")}).to_json()))
    assert main(["tile", "verify", "--region", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: region is not invariant under the central symmetry\n"


@pytest.mark.parametrize(
    "action, out", [("count", "1\n"), ("verify", "central=1 central+vertical=1 PASS\n")]
)
def test_empty_region(tmp_path, capsys, action, out):
    path = tmp_path / "empty.json"
    path.write_text(json.dumps({"cells": []}))
    assert main(["tile", action, "--region", str(path)]) == 0
    assert capsys.readouterr().out == out


def test_tile_render(tmp_path, capsys, hexagon_file):
    out = tmp_path / "fig.svg"
    assert main(["tile", "render", "--region", hexagon_file, "--out", str(out)]) == 0
    assert out.read_bytes().startswith(b"<svg")
    out2 = tmp_path / "fig2.svg"
    assert main(
        ["tile", "render", "--region", hexagon_file, "--out", str(out2), "--sample-tiling", "3"]
    ) == 0
    assert out2.stat().st_size > out.stat().st_size


def test_weighted_region_file_round_trip(tmp_path, capsys):
    path = tmp_path / "two_sided.json"
    path.write_text(json.dumps(mirrored_hook_region(1, (2,)).to_json()))
    assert main(["compute", "tiling-count", "--region", str(path)]) == 0
    assert capsys.readouterr().out.strip() == "9/2"


def test_path_gf(tmp_path, capsys):
    g = grid_graph(2, 2)
    path = tmp_path / "grid.json"
    path.write_text(json.dumps(g.to_json(starts=[(0, 0)], ends=[(2, 2)])))
    assert main(["compute", "path-gf", "--graph", str(path)]) == 0
    assert capsys.readouterr().out.strip() == "6"


def test_pfaffian_from_file(tmp_path, capsys):
    path = tmp_path / "skew.json"
    path.write_text(json.dumps([["0", "q"], ["-q", "0"]]))
    assert main(["compute", "pfaffian", "--matrix", str(path)]) == 0
    assert capsys.readouterr().out.strip() == "q"


def test_pfaffian_past_the_default_budget_exits_1(tmp_path, monkeypatch, capsys):
    # Order 60 would expand F(61) ~ 2.5e12 subsets; the charge stops it first.
    monkeypatch.delenv("TILING_REFLECT_BUDGET", raising=False)
    n = 60
    path = tmp_path / "skew60.json"
    path.write_text(json.dumps([["1" if i < j else "-1" if i > j else "0" for j in range(n)] for i in range(n)]))
    assert main(["compute", "pfaffian", "--matrix", str(path)]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("error:") and "exceeded its budget" in err


def test_pfaffian_of_bare_json_numbers_is_a_usage_error(tmp_path):
    path = tmp_path / "numbers.json"
    path.write_text(json.dumps([[0, 1], [-1, 0]]))
    proc = _run_module(["compute", "pfaffian", "--matrix", str(path)])
    assert proc.returncode == 2
    assert proc.stderr.startswith("error: matrix entry (0,0)")
    assert "Traceback" not in proc.stderr
    assert proc.stdout == ""


def test_pfaffian_prints_values_past_the_int_digit_limit(tmp_path, capsys):
    # 5,000 digits, past CPython's default 4,300-digit limit on int <-> str.
    x = "7" * 5000
    path = tmp_path / "big.json"
    path.write_text(json.dumps([["0", x], ["-" + x, "0"]]))
    assert main(["compute", "pfaffian", "--matrix", str(path)]) == 0
    assert capsys.readouterr().out.strip() == x


LIST_ID_GRAPHS = [
    {"vertices": [[0, 0], [0, 1]], "edges": [{"from": [0, 0], "to": [0, 1]}]},
    {"vertices": [0, 1], "edges": [{"from": 0, "to": [1]}]},
    {"vertices": [0, 1], "edges": [{"from": 0, "to": 1}], "starts": [[0]], "ends": [1]},
    {"vertices": [0, 1], "edges": [{"from": 0, "to": 1}], "starts": [0], "ends": [{"v": 1}]},
]


@pytest.mark.parametrize("doc", LIST_ID_GRAPHS)
@pytest.mark.parametrize("command", [["compute", "path-gf"], ["reflect", "build", "--variant", "bar"]])
def test_graph_with_non_scalar_vertex_ids_is_a_usage_error(tmp_path, capsys, doc, command):
    path = tmp_path / "graph.json"
    path.write_text(json.dumps(doc))
    assert main([*command, "--graph", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: vertex id ")
    assert "must be a string or an integer" in err


def test_graph_with_list_vertex_ids_exits_2_without_traceback(tmp_path):
    path = tmp_path / "graph.json"
    path.write_text(json.dumps(LIST_ID_GRAPHS[0]))
    proc = _run_module(["compute", "path-gf", "--graph", str(path)])
    assert proc.returncode == 2
    assert proc.stderr.startswith("error: vertex id [0, 0]")
    assert "Traceback" not in proc.stderr


def test_reflect_build(tmp_path, capsys, staircase_file):
    out = tmp_path / "mirrored.json"
    assert main(["reflect", "build", "--graph", staircase_file, "--variant", "bar", "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    g, spec = WeightedDag.from_json(doc)
    assert len(g.vertices) == 12
    assert spec.ends == ("(0, 0)'",)
    # Connector structure: 3n - 2 = 7 unit connectors beyond graph + mirror.
    assert len(g.edges) == 6 + 6 + 7
    # Sanity: the mirrored graph carries paths from the start to its image.
    assert path_gf(g, "(0, 0)", "(0, 0)'") != 0


def test_reflect_build_requires_endpoints(tmp_path, capsys):
    path = tmp_path / "bare.json"
    path.write_text(json.dumps({"vertices": ["a"], "edges": []}))
    assert main(["reflect", "build", "--graph", path.as_posix(), "--variant", "tilde"]) == 2


def test_verify_exit_codes(capsys):
    assert main(["verify", "--suite", "sigma", "--seed", "1", "--size-budget", "tiny"]) == 0
    out = capsys.readouterr().out
    assert "OK" in out and "[PASS]" in out


def test_verify_unknown_suite():
    with pytest.raises(SystemExit) as info:
        main(["verify", "--suite", "nonsense"])
    assert info.value.code == 2


def test_verify_determinism(capsys):
    main(["verify", "--suite", "tilings", "--seed", "7", "--size-budget", "tiny"])
    first = capsys.readouterr().out
    main(["verify", "--suite", "tilings", "--seed", "7", "--size-budget", "tiny"])
    second = capsys.readouterr().out
    assert first == second


@pytest.mark.parametrize(
    "seed, md5", [(1, "6cb678d0272076f7156e7f0ae7645ae4"), (2, "7e8d802b3493e5547657cf597025288c")]
)
def test_verify_full_report_is_pinned(capsys, seed, md5):
    # The full-size report of every suite, byte for byte: a change that
    # keeps every answer keeps these digests.
    assert main(["verify", "--suite", "all", "--size-budget", "full", "--seed", str(seed)]) == 0
    assert hashlib.md5(capsys.readouterr().out.encode()).hexdigest() == md5


def test_readme_qt_determinant_is_pinned(capsys):
    # The README-size (q,t) determinant, 8485 terms, byte for byte; its
    # expansion rows stay packed from one row to the next.
    args = ["compute", "spp-gf", "--m", "6", "--shape", "9,7,6,3,2", "--mode", "qt", "--method", "det"]
    assert main(args) == 0
    assert hashlib.md5(capsys.readouterr().out.encode()).hexdigest() == "c41a474b20b8eb4a2787d69378fb7a4f"


def test_missing_file_is_usage_error(capsys):
    assert main(["compute", "tiling-count", "--region", "/nonexistent.json"]) == 2


BAD_GRAPH_FILES = [
    [],
    {"vertices": 5, "edges": []},
    {"vertices": [0, 1], "edges": {"from": 0, "to": 1}},
    {"vertices": [0, 1], "edges": [[0, 1]]},
    {"vertices": [0, 1], "edges": [{"from": 0, "to": 1}], "starts": 0, "ends": "1"},
    {"vertices": [0, 1], "edges": [{"from": 0, "to": 1, "w": "1/0"}], "starts": [0], "ends": [1]},
    {"vertices": [0], "edges": [], "starts": 0, "ends": [0]},
    {"vertices": [0], "edges": [], "starts": [0], "ends": {}},
    {"vertices": [0], "edges": [], "starts": None, "ends": [0]},
    {"vertices": [0, 1], "edges": [{"from": 0, "to": 1, "w": "-"}], "starts": [0], "ends": [1]},
]
BAD_REGION_FILES = [
    {"cells": 5},
    {"cells": 0},
    {"cells": [[0, 0, "L"]], "free_edges": False},
    {"cells": [[0, 0, "L"]], "weights": {}},
    {"cells": [[0, 0, "L"]], "weights": 3},
    "cells",
    {"cells": [[0, 0]]},
    {"cells": [[0, "0", "L"]]},
    {"cells": [[0, 0, "L"]], "free_edges": [[1, "a"]]},
    {"cells": [[0, 0, "L"], [1, 0, "R"]], "weights": [[[0, 0, "L"], [1, 0, "R"]]]},
    {"cells": [[0, 0, "L"], [1, 0, "R"]], "weights": [{"cells": [[0, 0, "L"], [1, 0, "R"]], "w": [1]}]},
    {"cells": [[0, 0, "L"], [1, 0, "R"]], "weights": [{"cells": [[0, 0, "L"], [1, 0, "R"]], "w": "1/0"}]},
    {"cells": [[0, 0, "L"], [1, 0, "R"]], "weights": [{"cells": [[0, 0, "L"]], "w": "5"}]},
]


@pytest.mark.parametrize("doc", BAD_GRAPH_FILES)
@pytest.mark.parametrize("command", [["compute", "path-gf"], ["reflect", "build", "--variant", "bar"]])
def test_graph_file_of_the_wrong_shape_is_a_usage_error(tmp_path, capsys, doc, command):
    path = tmp_path / "graph.json"
    path.write_text(json.dumps(doc))
    assert main([*command, "--graph", str(path)]) == 2
    assert capsys.readouterr().err.startswith("error: ")


# Well-formed graphs that reflect build cannot mirror: two vertices share a
# mirror id, or a mirror id is already a vertex.
BAD_MIRROR_FILES = [
    ({"vertices": [0, "0"], "edges": [], "starts": [0], "ends": ["0"]}, "vertices 0 and '0' both mirror to \"0'\""),
    ({"vertices": ["u", "u'"], "edges": [{"from": "u", "to": "u'"}], "starts": ["u"], "ends": ["u'"]}, "collide"),
]


@pytest.mark.parametrize("doc, message", BAD_MIRROR_FILES)
def test_graph_whose_mirror_ids_collide_is_a_usage_error(tmp_path, capsys, doc, message):
    path = tmp_path / "graph.json"
    path.write_text(json.dumps(doc))
    assert main(["reflect", "build", "--variant", "bar", "--graph", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: mirrored ids collide") and message in err


@pytest.mark.parametrize("doc", BAD_REGION_FILES)
@pytest.mark.parametrize("command", [["tile", "count"], ["tile", "verify"], ["compute", "tiling-count"]])
def test_region_file_of_the_wrong_shape_is_a_usage_error(tmp_path, capsys, doc, command):
    path = tmp_path / "region.json"
    path.write_text(json.dumps(doc))
    assert main([*command, "--region", str(path)]) == 2
    assert capsys.readouterr().err.startswith("error: ")


@pytest.mark.parametrize("kind", ["tiling", "free"])
def test_staircase_product_rejects_negative_m(capsys, kind):
    assert main(["compute", "staircase-product", "--m", "-1", "--n", "1", "--k", "1", "--kind", kind]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ")


def test_wrong_shape_files_exit_2_without_traceback(tmp_path):
    graph, region = tmp_path / "graph.json", tmp_path / "region.json"
    graph.write_text("[]")
    region.write_text(json.dumps({"cells": [[0, 0, "L"]], "weights": 3}))
    for args in (["compute", "path-gf", "--graph", str(graph)], ["tile", "count", "--region", str(region)]):
        proc = _run_module(args)
        assert proc.returncode == 2
        assert proc.stderr.startswith("error: ")
        assert "Traceback" not in proc.stderr


# Input files for the fuzz below: near-valid documents whose fields are drawn
# from small pools of good values, each replaced by junk one time in ten,
# plus text that is not JSON at all.
_junk = st.one_of(
    st.none(), st.booleans(), st.integers(-2, 3), st.sampled_from(["", "a", "1/0", "q", "-1", "1/2"]),
    st.just([]), st.just({}),
)


def _mostly(strategy):
    return st.integers(0, 9).flatmap(lambda k: _junk if k == 0 else strategy)


_vertex = _mostly(st.integers(0, 3))
_weight = _mostly(st.sampled_from(["2", "q", "1/2", "t^2", "-1", "1/0", "x"]))
_edge = _mostly(st.fixed_dictionaries({"from": _vertex, "to": _vertex}, optional={"w": _weight}))
_graph = _mostly(
    st.fixed_dictionaries(
        {
            "vertices": _mostly(st.lists(_vertex, max_size=5, unique_by=repr)),
            "edges": _mostly(st.lists(_edge, max_size=6)),
        },
        optional={"starts": _mostly(st.lists(_vertex, max_size=3)), "ends": _mostly(st.lists(_vertex, max_size=4))},
    )
)
_cell = _mostly(st.tuples(st.integers(0, 3), st.integers(-2, 2)).map(lambda c: [*c, "LR"[sum(c) % 2]]))
_region = _mostly(
    st.fixed_dictionaries(
        {"cells": _mostly(st.lists(_cell, max_size=10))},
        optional={
            "free_edges": _mostly(st.lists(_mostly(st.tuples(st.integers(0, 3), st.integers(-2, 2)).map(list)), max_size=3)),
            "weights": _mostly(
                st.lists(_mostly(st.fixed_dictionaries({"cells": st.lists(_cell, max_size=2), "w": _weight})), max_size=2)
            ),
        },
    )
)
# Skew pairs (a, -a); each above-diagonal pair is kept or replaced by junk.
_skew_pair = _mostly(st.sampled_from([("0", "0"), ("1", "-1"), ("-2", "2"), ("q", "-q"), ("1/2", "-1/2"), ("q^2*t", "-q^2*t")]))


def _skew_rows(n, pairs):
    rows = [["0"] * n for _ in range(n)]
    for (i, j), pair in zip([(i, j) for i in range(n) for j in range(i + 1, n)], pairs):
        rows[i][j], rows[j][i] = pair if isinstance(pair, tuple) else (pair, pair)
    return rows


_matrix = _mostly(
    st.integers(0, 6).flatmap(
        lambda n: st.lists(_skew_pair, min_size=n * (n - 1) // 2, max_size=n * (n - 1) // 2).map(lambda p: _skew_rows(n, p))
    )
)
_FUZZ_COMMANDS = [
    (["compute", "path-gf", "--graph"], _graph),
    (["reflect", "build", "--variant", "bar", "--graph"], _graph),
    (["reflect", "build", "--variant", "tilde", "--graph"], _graph),
    (["tile", "count", "--region"], _region),
    (["tile", "verify", "--region"], _region),
    (["compute", "tiling-count", "--region"], _region),
    (["compute", "pfaffian", "--matrix"], _matrix),
]


# An array nested past the interpreter's recursion limit.
_DEEP_JSON = "[" * 100_000 + "]" * 100_000


def _run_main(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse's own usage errors
            code = exc.code
    return code, out.getvalue(), err.getvalue()


@settings(max_examples=250, deadline=None, derandomize=True)
@given(st.data())
def test_cli_on_malformed_input_files_exits_cleanly(data):
    command, document = data.draw(st.sampled_from(_FUZZ_COMMANDS))
    text = data.draw(st.one_of(document.map(json.dumps), st.sampled_from(["", "{", "[1,", "nul", "{}{}", _DEEP_JSON])))
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "input.json")
        with open(path, "w") as fh:
            fh.write(text)
        code, out, err = _run_main([*command, path])
        assert code in (0, 1, 2), (command, text, code, err)
        assert code != 2 or err.startswith("error: "), (command, text, err)
        assert _run_main([*command, path])[:2] == (code, out)


# Argument fuzz for the commands that take no file: small strict shapes,
# bounds and staircase sizes (so every enumeration stays well inside the
# default budget), each replaced by junk one time in ten.
_arg_junk = st.sampled_from(["", "a", "-1", "0", "1.5", "1e3", "3,3", "2,,1", "1,2", " 1", "--m"])


def _arg(strategy):
    return st.integers(0, 9).flatmap(lambda k: _arg_junk if k == 0 else strategy)


_small_int = _arg(st.integers(-2, 4).map(str))
_shape_arg = _arg(
    st.lists(st.integers(1, 5), min_size=1, max_size=3, unique=True).map(
        lambda parts: ",".join(map(str, sorted(parts, reverse=True)))
    )
)
_spp_argv = st.tuples(
    st.sampled_from([["spp", "gf"], ["compute", "spp-gf"]]),
    _arg(st.integers(-1, 3).map(str)),
    _shape_arg,
    _arg(st.sampled_from(["qt", "q-spp", "q-sym"])),
    _arg(st.sampled_from(["det", "enum", "both"])),
).map(lambda a: [*a[0], "--m", a[1], "--shape", a[2], "--mode", a[3], "--method", a[4]])
_staircase_argv = st.tuples(_small_int, _small_int, _small_int, _arg(st.sampled_from(["tiling", "free"]))).map(
    lambda a: ["compute", "staircase-product", "--m", a[0], "--n", a[1], "--k", a[2], "--kind", a[3]]
)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(st.one_of(_spp_argv, _staircase_argv))
def test_cli_on_fuzzed_arguments_exits_cleanly(argv):
    code, out, err = _run_main(argv)
    assert code in (0, 1, 2), (argv, code, err)
    assert "Traceback" not in err, (argv, err)
    assert code != 0 or out, argv
    assert _run_main(argv)[:2] == (code, out)

