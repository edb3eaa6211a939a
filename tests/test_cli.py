import json

import pytest

from topolab import builtin, sierpinski
from topolab.cli import main
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


def test_compact_output(s2_file, capsys):
    assert main(["compact", "--space", s2_file, "--pair", "identity,sint", "--set", "b", "--oracle"]) == 0
    out = capsys.readouterr().out
    assert "compact: false" in out
    assert "witness_point: b" in out
    assert "witness_cover: {b}" in out
    assert "oracle: false" in out
    assert main(["compact", "--space", s2_file, "--pair", "int,cl", "--set", ""]) == 0


def test_mine_command(capsys):
    assert main(["mine", "--target", "inclusion_without_order", "--n-max", "2"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert any(json.loads(line)["second"] == "sint" for line in lines)
    assert main(["mine", "--target", "bogus"]) == 2


def test_missing_file_is_usage_error(capsys):
    assert main(["families", "--space", "no-such.json", "--pair", "int,cl"]) == 2
    assert "error" in capsys.readouterr().err


def test_unknown_point_label_is_usage_error(s2_file, capsys):
    assert main(["compact", "--space", s2_file, "--pair", "int,cl", "--set", "a,z"]) == 2
    assert "unknown point label 'z'" in capsys.readouterr().err
    assert main(["filter", "--space", s2_file, "--pair", "int,cl", "--core", "q"]) == 2


def test_library_value_error_propagates(monkeypatch, s2_file):
    # only usage and schema errors map to exit 2; a ValueError raised
    # inside a library call is a defect and must surface
    def broken(p):
        raise ValueError("internal failure")

    monkeypatch.setattr("topolab.cli.classify_structure", broken)
    with pytest.raises(ValueError, match="internal failure"):
        main(["families", "--space", s2_file, "--pair", "int,cl"])
