"""Tests of the benchmark itself: python3 -m pytest perfbench/tests -q"""

import contextlib
import io
import json
import random
import sys
from collections import Counter
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

from hexaform import cli  # noqa: E402

import oracle  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import walks  # noqa: E402
import worker  # noqa: E402
from workloads import Op, WORKLOADS  # noqa: E402


def _report(*argv) -> dict:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert cli.main(list(argv)) == 0
    return json.loads(out.getvalue())


# --- seeded walks -------------------------------------------------------------


def test_walk_is_deterministic_and_lands_on_its_targets():
    targets = [(50, 12), (60, 14)]
    a = walks.walk("cp2", targets, random.Random(7))
    b = walks.walk("cp2", targets, random.Random(7))
    assert a == b
    assert [(len(t.pentachora), len(t.vertex_ids)) for t in a] == targets


def test_pass_inputs_repeat_for_a_seed(tmp_path):
    first, second = tmp_path / "a", tmp_path / "b"
    first.mkdir()
    second.mkdir()
    pa = WORKLOADS["prob-walk"](1, random.Random("prob-walk:3:1"), first)
    pb = WORKLOADS["prob-walk"](1, random.Random("prob-walk:3:1"), second)
    assert pa.inputs == pb.inputs
    assert [op.expect for op in pa.ops] == [op.expect for op in pb.ops]
    for f in first.iterdir():
        assert f.read_bytes() == (second / f.name).read_bytes()


def test_unreachable_target_is_refused():
    with pytest.raises(walks.WalkError):
        walks.walk("s4", [(11, 7)], random.Random(1))


def test_describe_matches_known_dimensions():
    from hexaform.manifolds import builtin_manifold
    d = walks.describe(builtin_manifold("cp2"))
    assert (d["pentachora"], d["vertices"], d["tetrahedra"]) == (36, 9, 90)
    assert d["z_dim"] == 28 and d["gf_dim"] == {"2": 28, "3": 28}


def test_rank_mod_on_small_matrices():
    assert walks.rank_mod([[2, 4], [1, 2]], 3) == 1
    assert walks.rank_mod([[2, 0], [0, 3]], 3) == 1
    assert walks.rank_mod([[2, 0], [0, 3]], walks.Q_PRIMES[0]) == 2


# --- oracle -------------------------------------------------------------------


def test_tampered_form_report_fails_the_oracle():
    text = json.dumps(_report("invariant", "--manifold", "cp2", "--mode", "form"))
    exp = {"kind": "form", "z_dim": 28}
    assert oracle.classify(exp, 0, text, {}) == (oracle.OK, [])
    tampered = text.replace('"signature": [1, 0]', '"signature": [0, 1]')
    assert tampered != text
    outcome, problems = oracle.classify(exp, 0, tampered, {})
    assert outcome == oracle.FAILED and problems


def test_tampered_compare_and_distribution_reports_fail():
    rep = _report("compare", "--manifold", "cp2")
    assert oracle.check_report({"kind": "compare", "z_dim": 28}, rep, {}) == []
    rep["cup"]["det"] = "2"
    assert oracle.check_report({"kind": "compare", "z_dim": 28}, rep, {})

    rep = _report("invariant", "--manifold", "s4", "--mode", "prob", "--p", "3")
    exp = {"kind": "prob", "p": 3, "n": 1, "model": "field", "dim": 9, "zero": True}
    assert oracle.check_report(exp, rep, {}) == []
    rep["distribution"]["entries"] = [{"value": "0", "count": "19682"},
                                      {"value": "1", "count": "1"}]
    assert oracle.check_report(exp, rep, {})
    assert oracle.check_report(dict(exp, dim=10), _report(
        "invariant", "--manifold", "s4", "--mode", "prob", "--p", "3"), {})


def test_walk_distribution_must_equal_its_base():
    base = _report("invariant", "--manifold", "s4", "--mode", "prob", "--p", "2")
    other = json.loads(json.dumps(base))
    other["distribution"]["entries"] = [{"value": "0", "count": "256"},
                                        {"value": "1", "count": "256"}]
    exp = {"kind": "prob", "p": 2, "n": 1, "model": "field", "dim": 9, "same_as": "base"}
    assert oracle.check_report(exp, base, {"base": base}) == []
    assert oracle.check_report(exp, other, {"base": base})


def test_exit_3_counts_as_refused_not_failed():
    class Stub:
        def __init__(self, codes):
            self.codes = iter(codes)

        def main(self, argv):
            code = next(self.codes)
            if code is None:
                raise TypeError("boom")
            print("{}" if code == 0 else "")
            return code

    exp = {"kind": "frobenius", "p": 2, "degree": 3}
    ops = [Op(f"op{i}", ("frobenius",), exp) for i in range(4)]
    done = worker.run_pass(Stub([3, 3, 1, None]), ops)
    outcomes = [op["outcome"] for op in done["ops"]]
    assert outcomes == [oracle.REFUSED, oracle.REFUSED, oracle.FAILED, oracle.FAILED]
    summary = run.summarize(done["ops"])
    assert (summary["refused_frac"], summary["failed_frac"]) == (0.5, 0.5)


# --- spans --------------------------------------------------------------------


def _span(i, parent, name, start, end):
    return spans.Span(i, parent, name, start, end)


def test_self_time_subtracts_the_union_of_children():
    nest = [
        _span(0, None, "cli.op", 0.0, 10.0),
        _span(1, 0, "a", 1.0, 4.0),
        _span(2, 1, "a", 2.0, 3.0),      # nested in a span of its own name
        _span(3, 0, "b", 3.5, 6.0),      # overlaps its sibling
        _span(4, 0, "c", 9.0, 12.0),     # runs past its parent's end
    ]
    selfs = spans.self_times(nest)
    assert selfs[0] == pytest.approx(10.0 - (6.0 - 1.0) - (10.0 - 9.0))
    assert selfs[1] == pytest.approx(2.0)
    assert selfs[2] == pytest.approx(1.0)
    assert selfs[4] == pytest.approx(3.0)
    assert spans.inclusive_time(nest, "a") == pytest.approx(3.0)


def test_tracer_records_nested_spans_and_restores_functions():
    import hexaform.hexagon as hexagon
    original = hexagon.solve_permitted
    metrics = []
    for _ in range(2):
        tracer = spans.Tracer()
        with tracer:
            assert hexagon.solve_permitted is not original
            span = tracer.open("cli.op")
            cli.main(["invariant", "--manifold", "s4", "--mode", "form"])
            tracer.close(span)
        metrics.append(spans.layer_metrics(tracer.spans, tracer.counts))
    assert hexagon.solve_permitted is original
    by_id = {s.id: s for s in tracer.spans}
    (kernel,) = [s for s in tracer.spans if s.name == "hexagon.kernel_z"]
    assert by_id[kernel.parent].name == "hexagon.gram"
    assert by_id[by_id[kernel.parent].parent].name == "cli.op"
    assert metrics[0]["hexagon.action_value_calls"] == 81
    for name in spans.COUNT_METRICS:
        assert metrics[0][name] == metrics[1][name]


def test_combine_passes_takes_counts_from_the_first_pass():
    a = {"linalg.snf_calls": 3, "linalg.snf_s": 1.0}
    b = {"linalg.snf_calls": 5, "linalg.snf_s": 3.0}
    c = {"linalg.snf_calls": 7, "linalg.snf_s": 2.0}
    assert spans.combine_passes([a, b, c]) == {"linalg.snf_calls": 3, "linalg.snf_s": 2.0}


def test_every_declared_layer_metric_is_measured():
    declared = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    measured = set(spans.layer_metrics([], Counter()))
    measured |= {"cli.failed_frac", "cli.refused_frac", "tracing.overhead_frac"}
    assert {m["name"] for m in declared["per_layer"]} == measured
