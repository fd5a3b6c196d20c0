"""Command line tests: subcommands, output shapes, exit codes."""

from __future__ import annotations

import json

import pytest

from fedldf.cli import EXIT_INVARIANT, EXIT_LOAD, EXIT_OK, EXIT_TIMEOUT, main
from fedldf.harness import InvariantViolation


def _args(fixtures_dir, command, manifest, query, *extra):
    return [
        command,
        "--manifest",
        str(fixtures_dir / manifest),
        "--query",
        str(fixtures_dir / query),
        *extra,
    ]


def _json_out(capsys):
    return json.loads(capsys.readouterr().out)


def test_run_command_reports_metrics(fixtures_dir, capsys):
    code = main(_args(fixtures_dir, "run", "fex4_f1.json", "fex4.rq", "--variant", "decomposer"))
    assert code == EXIT_OK
    report = _json_out(capsys)
    assert report["variant"] == "decomposer"
    assert report["decomposition"]["density"] == "1"
    assert report["decomposition"]["cost"] == 4
    assert report["runs"][0]["requests"]["total"] == 16
    assert report["mean"]["answers"] == 1


def test_run_command_writes_trace_files(fixtures_dir, tmp_path, capsys):
    out = tmp_path / "traces"
    code = main(
        _args(
            fixtures_dir,
            "run",
            "fex4_f1.json",
            "fex4.rq",
            "--variant",
            "baseline",
            "--reps",
            "2",
            "--out",
            str(out),
        )
    )
    assert code == EXIT_OK
    capsys.readouterr()
    assert sorted(p.name for p in out.iterdir()) == [
        "trace_baseline_rep1.jsonl",
        "trace_baseline_rep2.jsonl",
    ]


def test_run_command_exit_code_on_timeout(fixtures_dir, capsys):
    code = main(
        _args(
            fixtures_dir,
            "run",
            "fex4_f1.json",
            "fex4.rq",
            "--variant",
            "decomposer",
            "--timeout",
            "1e-9",
        )
    )
    assert code == EXIT_TIMEOUT
    assert _json_out(capsys)["timeout"] is True


def test_run_command_missing_manifest_is_a_load_error(fixtures_dir, tmp_path, capsys):
    code = main(
        [
            "run",
            "--manifest",
            str(tmp_path / "nope.json"),
            "--query",
            str(fixtures_dir / "fex4.rq"),
        ]
    )
    assert code == EXIT_LOAD
    assert "error:" in capsys.readouterr().err


def test_run_command_bad_query_is_a_load_error(fixtures_dir, tmp_path, capsys):
    bad = tmp_path / "bad.rq"
    bad.write_text("SELECT * WHERE { broken", encoding="utf-8")
    code = main(
        [
            "run",
            "--manifest",
            str(fixtures_dir / "fex4_f1.json"),
            "--query",
            str(bad),
        ]
    )
    assert code == EXIT_LOAD
    capsys.readouterr()


def test_decompose_command_json(fixtures_dir, capsys):
    code = main(
        _args(fixtures_dir, "decompose", "fex4_f1.json", "fex4.rq", "--variant", "decomposer_ps")
    )
    assert code == EXIT_OK
    payload = _json_out(capsys)
    assert set(payload) == {"entries", "density", "density_float", "cost"}
    assert payload["density"] == "8/11" and payload["cost"] == 2
    assert payload["entries"] == [
        {"patterns": [1, 2, 3], "sources": ["c1"]},
        {"patterns": [4], "sources": ["c2"]},
    ]


def test_decompose_command_explain(fixtures_dir, capsys):
    code = main(
        _args(
            fixtures_dir,
            "decompose",
            "fex4_f1.json",
            "fex4.rq",
            "--variant",
            "decomposer",
            "--explain",
        )
    )
    assert code == EXIT_OK
    lines = capsys.readouterr().out.splitlines()
    assert lines == [
        "SE{1,2} @ {c1} | density=1 cost=4",
        "SE{3} @ {c1,c2} | density=1 cost=4",
        "SE{4} @ {c2} | density=1 cost=4",
    ]


@pytest.mark.parametrize("command", ["decompose", "plan"])
def test_decompose_command_hopeless_pattern(fixtures_dir, capsys, command):
    code = main(_args(fixtures_dir, command, "fex4_f1.json", "absent.rq"))
    assert code == EXIT_OK
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        "empty answer: no relevant source for ?a <http://example.org/absent> ?b\n"
    )


def test_plan_command_explain(fixtures_dir, capsys):
    code = main(
        _args(
            fixtures_dir,
            "plan",
            "fex4_f1.json",
            "fex4.rq",
            "--variant",
            "decomposer",
            "--explain",
        )
    )
    assert code == EXIT_OK
    out = capsys.readouterr().out
    assert "join[shj]" in out
    assert "access SE{1,2} card=1 [c1:1]" in out
    assert "access SE{3} card=2 [c1:1, c2:1]" in out
    assert "access SE{4} card=1 [c2:1]" in out


def test_plan_command_json(fixtures_dir, capsys):
    code = main(
        _args(fixtures_dir, "plan", "fex4_f1.json", "fex4.rq", "--variant", "decomposer")
    )
    assert code == EXIT_OK
    payload = _json_out(capsys)
    top = payload["join"]
    assert top["op"] == "shj"
    assert top["right"]["access"]["patterns"] == [4]
    assert top["left"]["join"]["left"]["access"]["patterns"] == [1, 2]
    assert top["left"]["join"]["right"]["access"]["cards"] == {"c1": 1, "c2": 1}


def test_oracle_check_command(fixtures_dir, capsys):
    code = main(
        _args(
            fixtures_dir,
            "oracle-check",
            "fex4_f1.json",
            "fex4.rq",
            "--variant",
            "decomposer",
        )
    )
    assert code == EXIT_OK
    assert _json_out(capsys)["equal"] is True


def test_oracle_check_command_allows_pruning_misses(fixtures_dir, capsys):
    code = main(
        _args(
            fixtures_dir,
            "oracle-check",
            "prune_miss.json",
            "prune_miss.rq",
            "--variant",
            "decomposer_ps",
        )
    )
    assert code == EXIT_OK
    payload = _json_out(capsys)
    assert payload["equal"] is False and len(payload["missing"]) == 1


def test_invariant_violations_exit_with_code_four(fixtures_dir, capsys, monkeypatch):
    def boom(manifest, query, variant):
        raise InvariantViolation("extra answers")

    monkeypatch.setattr("fedldf.cli.oracle_check", boom)
    code = main(_args(fixtures_dir, "oracle-check", "fex4_f1.json", "fex4.rq"))
    assert code == EXIT_INVARIANT
    assert "invariant violation" in capsys.readouterr().err


def test_enumerate_command_lists_pareto_front(fixtures_dir, capsys):
    code = main(_args(fixtures_dir, "enumerate-decompositions", "fex4_f1.json", "fex4.rq"))
    assert code == EXIT_OK
    payload = _json_out(capsys)
    front = payload["pareto_front"]
    assert front and payload["total"] >= len(front)
    assert all(rec["pareto"] for rec in front)
    best_grouping = {
        "entries": [
            {"patterns": [1, 2], "sources": ["c1"]},
            {"patterns": [3], "sources": ["c1", "c2"]},
            {"patterns": [4], "sources": ["c2"]},
        ],
        "density": "1",
        "cost": 4,
        "pareto": True,
    }
    assert best_grouping in front


def test_enumerate_command_rejects_large_queries(fixtures_dir, tmp_path, capsys):
    big = tmp_path / "big.rq"
    big.write_text(
        "PREFIX : <http://example.org/>\n"
        "SELECT * WHERE {\n"
        "  ?a :p1 ?b . ?b :p2 ?c . ?c :p3 ?d . ?d :p4 ?e . ?e :p5 ?f .\n"
        "}\n",
        encoding="utf-8",
    )
    code = main(
        [
            "enumerate-decompositions",
            "--manifest",
            str(fixtures_dir / "fex4_f1.json"),
            "--query",
            str(big),
        ]
    )
    assert code == EXIT_LOAD
    capsys.readouterr()
