import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from topolab import builtin, cli, discrete, sierpinski
from topolab.cli import _parse, build_parser, main
from topolab.harness import Report, SuiteResult
from topolab.jsonio import operation_to_dict, write_space


@pytest.fixture
def s2_file(tmp_path):
    path = tmp_path / "s2.json"
    write_space(sierpinski(), str(path))
    return str(path)


def test_enumerate_stdout(capsys):
    assert main(["enumerate", "--n", "2"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert len(lines) == 4
    assert json.loads(lines[1]) == {"points": ["a", "b"], "opens": [[], ["a"], ["a", "b"]]}


def test_enumerate_to_file(tmp_path):
    out = tmp_path / "spaces.jsonl"
    assert main(["enumerate", "--n", "1", "--out", str(out)]) == 0
    assert out.read_text(encoding="utf-8") == '{"points": ["a"], "opens": [[], ["a"]]}\n'


def test_enumerate_rejects_big_n(capsys):
    assert main(["enumerate", "--n", "5"]) == 2
    assert "error" in capsys.readouterr().err


def test_check_clean(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"n_exhaustive": 1, "suites": ["families"]}), encoding="utf-8")
    assert main(["check", "--config", str(cfg)]) == 0
    body = json.loads(capsys.readouterr().out)
    assert body["suites"]["families"]["failures"] == []


def test_check_single_space_and_outfile(tmp_path, s2_file):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"suites": ["structure"], "pairs": ["int,cl"]}), encoding="utf-8")
    out = tmp_path / "report.json"
    assert main(["check", "--config", str(cfg), "--space", s2_file, "--out", str(out)]) == 0
    body = json.loads(out.read_text(encoding="utf-8"))
    assert body["suites"]["structure"]["instances_checked"] > 0


def test_check_bad_config(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text("{\"n_exhaustive\": 9}", encoding="utf-8")
    assert main(["check", "--config", str(cfg)]) == 2
    cfg.write_text("{oops", encoding="utf-8")
    assert main(["check", "--config", str(cfg)]) == 2
    cfg.write_text("{\"seed\": true}", encoding="utf-8")
    assert main(["check", "--config", str(cfg)]) == 2
    assert "'seed' must be an integer" in capsys.readouterr().err


def test_check_reports_failures_with_exit_one(monkeypatch, tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text("{}", encoding="utf-8")
    broken = Report(environment={}, config={}, suites={
        "structure": SuiteResult(instances_checked=1, failures=[{"statement": "x"}]),
    })
    monkeypatch.setattr("topolab.cli.run_suites", lambda cfg, spaces=None: broken)
    assert main(["check", "--config", str(cfg)]) == 1


def test_families_output(s2_file, capsys):
    assert main(["families", "--space", s2_file, "--pair", "int,cl"]) == 0
    out = capsys.readouterr().out
    assert "pair-open: {} {a,b}" in out
    assert "supratopology=true" in out


def test_families_custom_operation(tmp_path, s2_file, capsys):
    op_path = tmp_path / "op.json"
    op_path.write_text(json.dumps(operation_to_dict(builtin(sierpinski(), "cl"))), encoding="utf-8")
    assert main(["families", "--space", s2_file, "--pair", f"int,custom:{op_path}"]) == 0
    assert "pair-open: {} {a,b}" in capsys.readouterr().out


def test_families_bad_pair(s2_file, capsys):
    assert main(["families", "--space", s2_file, "--pair", "int"]) == 2
    assert main(["families", "--space", s2_file, "--pair", "int,bogus"]) == 2


def test_filter_output(s2_file, capsys):
    assert main(["filter", "--space", s2_file, "--pair", "int,cl", "--core", "a", "--report"]) == 0
    out = capsys.readouterr().out
    assert "limit_set: {a,b}" in out
    assert "a: converges=true accumulates=true" in out
    assert main(["filter", "--space", s2_file, "--pair", "int,cl", "--core", ""]) == 2


def test_compact_output(s2_file, capsys, monkeypatch):
    # compact reads the two operations only, so it builds no pair and no
    # kernel
    def no_pair(*args):
        raise AssertionError("compact built an OpPair")

    monkeypatch.setattr("topolab.cli.OpPair", no_pair)
    assert main(["compact", "--space", s2_file, "--pair", "identity,sint", "--set", "b", "--oracle"]) == 0
    out = capsys.readouterr().out
    assert "compact: false" in out
    assert "witness_point: b" in out
    assert "witness_cover: {b}" in out
    assert "oracle: false" in out
    assert main(["compact", "--space", s2_file, "--pair", "int,cl", "--set", ""]) == 0


def test_compact_oracle_above_the_scan_cap_is_usage_error(tmp_path, capsys):
    # 32 selector-open sets on a 5-point discrete space: over the cap, so
    # the query stops before printing any verdict
    path = tmp_path / "d5.json"
    write_space(discrete(5), str(path))
    argv = ["compact", "--space", str(path), "--pair", "identity,identity", "--set", "a,b"]
    assert main(argv + ["--oracle"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: --oracle is capped at 20-member")
    assert main(argv) == 0
    assert "compact: true" in capsys.readouterr().out


def test_reused_parser_leaks_no_state(s2_file, capsys):
    pair = ["--space", s2_file, "--pair", "int,cl"]
    assert main(["filter", *pair, "--core", "a", "--report"]) == 0
    assert "a: converges=" in capsys.readouterr().out
    assert main(["filter", *pair, "--core", "a"]) == 0
    assert "converges=" not in capsys.readouterr().out

    compact = ["compact", "--space", s2_file, "--pair", "identity,sint", "--set", "b"]
    assert main(compact + ["--oracle"]) == 0
    assert "oracle: false" in capsys.readouterr().out
    assert main(compact) == 0
    out = capsys.readouterr().out
    assert "compact: false" in out and "oracle:" not in out

    with pytest.raises(SystemExit) as exc:
        main(["compact", "--space", s2_file, "--pair", "int,cl"])  # --set missing
    assert exc.value.code == 2
    capsys.readouterr()
    assert main(["families", *pair]) == 0
    out = capsys.readouterr().out
    assert "pair-open: {} {a,b}" in out and "oracle:" not in out


def test_mine_command(capsys):
    assert main(["mine", "--target", "inclusion_without_order", "--n-max", "2"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert any(json.loads(line)["second"] == "sint" for line in lines)
    assert main(["mine", "--target", "bogus"]) == 2


def test_mine_n_max_is_clamped_to_the_enumerated_sizes(capsys):
    assert main(["mine", "--target", "inclusion_without_order", "--n-max", "-1"]) == 0
    assert capsys.readouterr().out == ""
    assert main(["mine", "--target", "inclusion_without_order", "--n-max", "4"]) == 0
    four = capsys.readouterr().out
    assert main(["mine", "--target", "inclusion_without_order", "--n-max", "9"]) == 0
    assert capsys.readouterr().out == four and four


def test_missing_file_is_usage_error(capsys):
    assert main(["families", "--space", "no-such.json", "--pair", "int,cl"]) == 2
    assert "error" in capsys.readouterr().err


@pytest.mark.parametrize("kind", ["space", "config", "custom"])
def test_unreadable_input_file_is_usage_error(kind, tmp_path, s2_file, capsys):
    # a directory and a file that is not UTF-8, in each input file's place
    latin = tmp_path / "latin1.json"
    latin.write_bytes(b'{"points": ["\xe9"]}')
    for bad in (str(tmp_path), str(latin)):
        argv = {
            "space": ["families", "--space", bad, "--pair", "int,cl"],
            "config": ["check", "--config", bad],
            "custom": ["families", "--space", s2_file, "--pair", f"int,custom:{bad}"],
        }[kind]
        assert main(argv) == 2, (kind, bad)
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "Traceback" not in err, (kind, bad)


def test_unknown_point_label_is_usage_error(s2_file, capsys):
    assert main(["compact", "--space", s2_file, "--pair", "int,cl", "--set", "a,z"]) == 2
    assert "unknown point label 'z'" in capsys.readouterr().err
    assert main(["filter", "--space", s2_file, "--pair", "int,cl", "--core", "q"]) == 2


def test_nested_list_label_in_a_space_file_is_usage_error(tmp_path, capsys):
    path = tmp_path / "nested.json"
    path.write_text(json.dumps({"points": ["a", "b"], "opens": [[], [["a"]], ["a", "b"]]}), encoding="utf-8")
    assert main(["families", "--space", str(path), "--pair", "int,cl"]) == 2
    err = capsys.readouterr().err
    assert "unknown point label ['a']" in err and "Traceback" not in err


@pytest.mark.parametrize("where", ["key", "value"])
def test_nested_list_label_in_an_operation_file_is_usage_error(where, tmp_path, s2_file, capsys):
    doc = operation_to_dict(builtin(sierpinski(), "cl"))
    if where == "key":
        doc["table"][json.dumps([["a"]])] = ["a"]
    else:
        doc["table"]['["a"]'] = [["a"], "b"]
    op_path = tmp_path / "op.json"
    op_path.write_text(json.dumps(doc), encoding="utf-8")
    assert main(["families", "--space", s2_file, "--pair", f"int,custom:{op_path}"]) == 2
    err = capsys.readouterr().err
    assert "unknown point label ['a']" in err and "Traceback" not in err


def test_library_value_error_propagates(monkeypatch, s2_file):
    # only usage and schema errors map to exit 2; a ValueError raised
    # inside a library call is a defect and must surface
    def broken(p):
        raise ValueError("internal failure")

    monkeypatch.setattr("topolab.cli.classify_structure", broken)
    with pytest.raises(ValueError, match="internal failure"):
        main(["families", "--space", s2_file, "--pair", "int,cl"])


C3 = str(Path(__file__).parent / "data" / "c3.json")
USAGE = "usage: topolab [-h] {enumerate,check,families,filter,compact,mine} ...\n"

#: (argv, exit code, stdout, stderr), as the two-pass argparse parse gave
#: them on Python 3.11
DISPATCH = [
    ([], 2, "", USAGE + "topolab: error: the following arguments are required: command\n"),
    (["-h"], 0, (
        USAGE
        + "\n"
        "finite-space operator calculus and property checker\n"
        "\n"
        "positional arguments:\n"
        "  {enumerate,check,families,filter,compact,mine}\n"
        "    enumerate           write every topology of a given size as JSONL\n"
        "    check               run property suites from a config file\n"
        "    families            print the families a pair induces on a space\n"
        "    filter              limits and adherence of a principal filter\n"
        "    compact             compactness verdict with witnesses\n"
        "    mine                search small spaces for counterexample witnesses\n"
        "\n"
        "options:\n"
        "  -h, --help            show this help message and exit\n"
    ), ""),
    (["bogus"], 2, "", USAGE + (
        "topolab: error: argument command: invalid choice: 'bogus' (choose from"
        " 'enumerate', 'check', 'families', 'filter', 'compact', 'mine')\n"
    )),
    (["families", "--space", C3, "--pair", "int,cl", "--bogus"], 2, "",
     USAGE + "topolab: error: unrecognized arguments: --bogus\n"),
    (["compact", "--space", C3, "--pair", "int,cl"], 2, "", (
        "usage: topolab compact [-h] --space SPACE --pair PAIR --set SET [--oracle]\n"
        "topolab compact: error: the following arguments are required: --set\n"
    )),
    (["families", "-h"], 0, (
        "usage: topolab families [-h] --space SPACE --pair PAIR\n"
        "\n"
        "options:\n"
        "  -h, --help     show this help message and exit\n"
        "  --space SPACE\n"
        "  --pair PAIR    <first>,<second>; builtin name or custom:<file>\n"
    ), ""),
    (["families", "--spa", C3, "--pair", "int,cl"], 0, (
        "space: 4 opens on 3 points\n"
        "selector-open (int): {} {a} {a,b} {a,b,c}\n"
        "enlarger-open (cl): {} {a} {b} {a,b} {c} {a,c} {b,c} {a,b,c}\n"
        "pair-open: {} {a,b,c}\n"
        "pair-closed: {} {a,b,c}\n"
        "enlargement base: {} {a,b,c}\n"
        "structure: supratopology=true topology=true closed_iff_cl_subset=true"
        " closed_iff_cl_equal=true kuratowski=true\n"
    ), ""),
]


def run_main(argv, capsys):
    try:
        code = main(argv)
    except SystemExit as exc:
        code = exc.code
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.mark.parametrize("argv, code, out, err", DISPATCH)
def test_dispatch_keeps_the_two_pass_output(argv, code, out, err, capsys, monkeypatch):
    # the one-pass dispatch prints what the two-pass parse prints in the
    # same interpreter: help, usage errors, leftover arguments, abbreviated
    # options; argparse's wording varies by release, so the pins are read
    # on the release they were captured with only
    monkeypatch.setenv("COLUMNS", "80")
    one_pass = run_main(argv, capsys)
    monkeypatch.setattr(cli, "_parse", lambda args: build_parser().parse_args(args))
    assert one_pass == run_main(argv, capsys)
    if sys.version_info[:2] == (3, 11):
        assert one_pass == (code, out, err)


@pytest.mark.parametrize("argv", [
    ["enumerate", "--n", "2"],
    ["check", "--config", "c.json", "--space", C3, "--out", "r.json"],
    ["families", "--pair", "int,cl", "--space", C3],
    ["filter", "--space", C3, "--pair", "int,cl", "--core", "a,b", "--rep"],
    ["compact", "--space", C3, "--pair", "int,cl", "--set", "", "--oracle"],
    ["compact", "--space=" + C3, "--pair", "int,cl", "--set=a"],
    ["mine", "--target", "inclusion_without_order"],
    ["mine", "--target", "inclusion_without_order", "--n-max", "3"],
])
def test_one_pass_parse_matches_the_two_pass_parse(argv):
    assert vars(_parse(argv)) == vars(build_parser().parse_args(argv))


def test_module_entry_point_reads_sys_argv(capsys):
    # python -m topolab.cli parses sys.argv[1:] (main(None)) and prints
    # what main does with the same arguments
    argv = ["families", "--space", C3, "--pair", "int,cl"]
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    done = subprocess.run([sys.executable, "-m", "topolab.cli", *argv], env=env,
                          capture_output=True, text=True, timeout=60)
    assert (done.returncode, done.stdout, done.stderr) == run_main(argv, capsys)
    assert done.returncode == 0 and done.stdout.startswith("space: 4 opens on 3 points\n")


def test_space_file_over_sixteen_points_is_usage_error(tmp_path, capsys):
    points = [f"p{i}" for i in range(17)]
    big = tmp_path / "big.json"
    big.write_text(json.dumps({"points": points, "opens": [[], points]}), encoding="utf-8")
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"suites": ["structure"], "pairs": ["int,cl"]}), encoding="utf-8")
    for argv in (["families", "--space", str(big), "--pair", "int,cl"],
                 ["check", "--config", str(cfg), "--space", str(big)]):
        assert main(argv) == 2, argv
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: ground sets are capped at 16 points; this one has 17\n", argv
