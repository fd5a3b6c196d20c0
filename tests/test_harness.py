"""Harness tests: variant runs, metrics, and the brute-force oracle check."""

from __future__ import annotations

import json

import pytest

from fedldf.executor import ExecutionTrace
from fedldf.harness import (
    VARIANTS,
    LoadError,
    RunConfig,
    dief_at_t,
    load_inputs,
    oracle_answers,
    oracle_check,
    prepare,
    run,
)

from helpers import EX, sm


def _config(fixtures_dir, manifest, query, **kw) -> RunConfig:
    return RunConfig(fixtures_dir / manifest, fixtures_dir / query, **kw)


# -- configuration and loading ------------------------------------------------


def test_config_rejects_unknown_variant(fixtures_dir):
    with pytest.raises(LoadError, match="variant"):
        _config(fixtures_dir, "fex4.json", "fex4.rq", variant="fastest")


def test_config_rejects_bad_repetitions(fixtures_dir):
    with pytest.raises(LoadError, match="repetitions"):
        _config(fixtures_dir, "fex4.json", "fex4.rq", repetitions=0)


def test_config_rejects_nonpositive_timeout(fixtures_dir):
    with pytest.raises(LoadError, match="timeout"):
        _config(fixtures_dir, "fex4.json", "fex4.rq", timeout_s=0)


def test_load_inputs_happy_path(fixtures_dir):
    federation, parsed, patterns = load_inputs(
        fixtures_dir / "fex4_f1.json", fixtures_dir / "fex4.rq"
    )
    assert federation.order == ("c1", "c2")
    assert parsed.variables is None
    assert len(patterns) == 4


def test_load_inputs_missing_manifest(fixtures_dir, tmp_path):
    with pytest.raises(LoadError):
        load_inputs(tmp_path / "nope.json", fixtures_dir / "fex4.rq")


def test_load_inputs_missing_query(fixtures_dir, tmp_path):
    with pytest.raises(LoadError):
        load_inputs(fixtures_dir / "fex4.json", tmp_path / "nope.rq")


def test_load_inputs_bad_query_syntax(fixtures_dir, tmp_path):
    bad = tmp_path / "bad.rq"
    bad.write_text("SELECT * WHERE { ?x ", encoding="utf-8")
    with pytest.raises(LoadError):
        load_inputs(fixtures_dir / "fex4.json", bad)


def test_load_inputs_rejects_non_bgp_query(fixtures_dir, tmp_path):
    q = tmp_path / "optional.rq"
    q.write_text(
        "SELECT * WHERE { ?x <http://example.org/p> ?y . "
        "OPTIONAL { ?y <http://example.org/q> ?z . } }",
        encoding="utf-8",
    )
    with pytest.raises(LoadError):
        load_inputs(fixtures_dir / "fex4.json", q)


# -- variant runs --------------------------------------------------------------


def test_run_baseline_report(fixtures_dir):
    report = run(_config(fixtures_dir, "fex4_f1.json", "fex4.rq", variant="baseline"))
    assert report["variant"] == "baseline"
    assert report["timeout"] is False

    d = report["decomposition"]
    assert d["density"] == "1" and d["cost"] == 5
    assert [e["patterns"] for e in d["entries"]] == [[1], [2], [3], [4]]
    assert [e["sources"] for e in d["entries"]] == [["c1"], ["c1"], ["c1", "c2"], ["c2"]]

    (rec,) = report["runs"]
    assert rec["answers"] == 1
    assert rec["requests"] == {
        "source_selection": 8,
        "planning": 5,
        "execution": 5,
        "total": 18,
    }
    assert report["mean"]["requests_total"] == 18.0
    assert report["mean"]["answers"] == 1


def test_run_decomposer_report(fixtures_dir):
    report = run(_config(fixtures_dir, "fex4_f1.json", "fex4.rq", variant="decomposer"))
    d = report["decomposition"]
    assert d["density"] == "1" and d["cost"] == 4
    assert [e["patterns"] for e in d["entries"]] == [[1, 2], [3], [4]]
    (rec,) = report["runs"]
    assert rec["requests"]["total"] == 16


def test_run_pruned_variant_report(fixtures_dir):
    report = run(_config(fixtures_dir, "fex4_f1.json", "fex4.rq", variant="decomposer_ps"))
    d = report["decomposition"]
    assert d["density"] == "8/11" and d["cost"] == 2
    assert d["density_float"] == pytest.approx(8 / 11)
    assert [e["patterns"] for e in d["entries"]] == [[1, 2, 3], [4]]
    (rec,) = report["runs"]
    assert rec["answers"] == 1
    assert rec["requests"] == {
        "source_selection": 8,
        "planning": 2,
        "execution": 2,
        "total": 12,
    }


def test_run_all_variants_agree_on_reference_answers(fixtures_dir):
    for variant in ("baseline", "decomposer", "decomposer_ps", "decomposer_ps_pbj"):
        report = run(_config(fixtures_dir, "fex4_f1.json", "fex4.rq", variant=variant))
        assert report["runs"][0]["answers"] == 1, variant


def test_run_repetitions_write_separate_traces(fixtures_dir, tmp_path):
    out = tmp_path / "traces"
    report = run(
        _config(
            fixtures_dir,
            "fex4_f1.json",
            "fex4.rq",
            variant="decomposer",
            repetitions=3,
            out_dir=out,
        )
    )
    assert [r["repetition"] for r in report["runs"]] == [1, 2, 3]
    files = sorted(p.name for p in out.iterdir())
    assert files == [
        "trace_decomposer_rep1.jsonl",
        "trace_decomposer_rep2.jsonl",
        "trace_decomposer_rep3.jsonl",
    ]
    summary = json.loads(out.joinpath(files[0]).read_text().splitlines()[-1])
    assert summary["answers"] == 1
    # repetitions start from fresh counters, so the totals are identical
    assert {r["requests"]["total"] for r in report["runs"]} == {16}
    assert report["mean"]["requests_total"] == 16.0


def test_run_projects_selected_variables(fixtures_dir):
    report = run(_config(fixtures_dir, "fex4_f1.json", "fex4_proj.rq", variant="decomposer"))
    assert report["runs"][0]["answers"] == 1
    federation, parsed, patterns = load_inputs(
        fixtures_dir / "fex4_f1.json", fixtures_dir / "fex4_proj.rq"
    )
    assert parsed.variables == ("x", "party")
    assert oracle_answers(federation, parsed, patterns) == {sm(x="p1", party="dems")}


@pytest.mark.parametrize("variant", VARIANTS)
def test_run_trace_holds_projected_deduplicated_answers(fixtures_dir, tmp_path, variant):
    # Three predecessors of y1 give three full answers to fex4_proj.rq's
    # pattern, all of which project to the same (?x, ?party).
    extra = "".join(f"<{EX}y1> <{EX}predecessor> <{EX}p0{i}> .\n" for i in range(2))
    (tmp_path / "c2.nt").write_text((fixtures_dir / "g_c2.nt").read_text() + extra)
    manifest = tmp_path / "fed.json"
    services = [
        {"uri": "c1", "interface": "sparql", "data": str(fixtures_dir / "g_c1.nt")},
        {"uri": "c2", "interface": "tpf", "data": "c2.nt"},
    ]
    manifest.write_text(json.dumps({"services": services}))
    out = tmp_path / "traces"
    report = run(
        RunConfig(manifest, fixtures_dir / "fex4_proj.rq", variant=variant, out_dir=out)
    )
    *rows, summary = [
        json.loads(line)
        for line in (out / f"trace_{variant}_rep1.jsonl").read_text().splitlines()
    ]
    assert [row["answer"] for row in rows] == [{"x": f"<{EX}p1>", "party": f"<{EX}dems>"}]
    assert summary["answers"] == 1
    (rec,) = report["runs"]
    assert rec["answers"] == 1
    assert rec["dief"] == pytest.approx(summary["runtime_s"] - rows[0]["t"])


@pytest.mark.parametrize("variant", VARIANTS)
def test_prepare_meters_only_source_selection_on_hopeless_pattern(fixtures_dir, variant):
    federation, _, patterns = load_inputs(
        fixtures_dir / "fex4_f1.json", fixtures_dir / "absent.rq"
    )
    (absent,) = patterns
    for _ in range(2):
        # each call starts from fresh counters, so the totals never add up
        prepared = prepare(federation, patterns, variant)
        assert prepared.decomposition is None
        assert prepared.unmatched == absent
        assert prepared.sources == {absent: frozenset()}
        assert federation.requests_by_phase() == {
            "source_selection": {"c1": 1, "c2": 1},
            "planning": {"c1": 0, "c2": 0},
            "execution": {"c1": 0, "c2": 0},
        }
        for svc in federation:
            assert [(r.kind, r.phase) for r in svc.request_log] == [("ask", "source_selection")]


def test_run_short_circuits_on_hopeless_pattern(fixtures_dir):
    report = run(_config(fixtures_dir, "fex4_f1.json", "absent.rq", variant="decomposer"))
    assert report["decomposition"] is None
    (rec,) = report["runs"]
    assert rec["answers"] == 0
    assert "absent" in rec["unmatched_pattern"]
    # only the relevance probes went out: 2 services x 1 pattern
    assert rec["requests"] == {
        "source_selection": 2,
        "planning": 0,
        "execution": 0,
        "total": 2,
    }


def test_run_flags_timeouts(fixtures_dir):
    report = run(
        _config(
            fixtures_dir,
            "fex4_f1.json",
            "fex4.rq",
            variant="decomposer",
            timeout_s=1e-9,
        )
    )
    assert report["timeout"] is True
    assert report["runs"][0]["timeout"] is True


# -- diefficiency ---------------------------------------------------------------


def test_dief_accumulates_area_under_answer_curve():
    trace = ExecutionTrace(answers=[(sm(x="a"), 0.0), (sm(x="b"), 1.0)])
    assert dief_at_t(trace, 2.0) == pytest.approx(3.0)
    assert dief_at_t(trace, 1.0) == pytest.approx(1.0)
    assert dief_at_t(trace, 0.5) == pytest.approx(0.5)


def test_dief_ignores_answers_after_cutoff():
    trace = ExecutionTrace(answers=[(sm(x="a"), 0.0), (sm(x="b"), 5.0)])
    assert dief_at_t(trace, 2.0) == pytest.approx(2.0)


def test_dief_rejects_negative_time():
    with pytest.raises(ValueError):
        dief_at_t(ExecutionTrace(), -0.1)


# -- oracle check ----------------------------------------------------------------


def test_oracle_check_equal_on_reference(fixtures_dir):
    result = oracle_check(
        fixtures_dir / "fex4_f1.json", fixtures_dir / "fex4.rq", "decomposer"
    )
    assert result == {
        "equal": True,
        "engine_answers": 1,
        "oracle_answers": 1,
        "missing": [],
        "extra": [],
    }


def test_oracle_check_reports_pruning_misses(fixtures_dir):
    unpruned = oracle_check(
        fixtures_dir / "prune_miss.json", fixtures_dir / "prune_miss.rq", "decomposer"
    )
    assert unpruned["equal"] is True and unpruned["engine_answers"] == 1

    pruned = oracle_check(
        fixtures_dir / "prune_miss.json", fixtures_dir / "prune_miss.rq", "decomposer_ps"
    )
    assert pruned["equal"] is False
    assert pruned["engine_answers"] == 0 and pruned["oracle_answers"] == 1
    assert len(pruned["missing"]) == 1 and pruned["extra"] == []


def test_oracle_check_empty_when_no_source_matches(fixtures_dir):
    result = oracle_check(
        fixtures_dir / "fex4_f1.json", fixtures_dir / "absent.rq", "decomposer"
    )
    assert result["equal"] is True
    assert result["engine_answers"] == result["oracle_answers"] == 0
