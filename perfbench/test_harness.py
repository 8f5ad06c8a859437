"""Tests of the benchmark harness's own arithmetic and checks.

Run with `python3 -m pytest perfbench -q` from the repository root.
"""

import hashlib
import json
import random
from pathlib import Path

import pytest

import corpus
import run
import stats
import tracer
import verify
import workloads

ROOT = Path(__file__).resolve().parent.parent

# sha256 of the 200 criterion-3 documents, serialised without relabelling
CORPUS_SHA256 = "7f6567470df6971f66badffaa8211b5f03ebc1c13b7a14b541683710db431863"


# -- the .tail percentile rule ------------------------------------------------

@pytest.mark.parametrize("n, percentile, beyond", [
    (40, 75.0, 10), (100, 90.0, 10), (199, 90.0, 19), (200, 95.0, 10),
    (1000, 99.0, 10), (10000, 99.9, 10),
])
def test_tail_is_highest_percentile_with_ten_samples_beyond(n, percentile, beyond):
    t = stats.tail([float(i) for i in range(n)])
    assert (t["percentile"], t["beyond"], t["samples"]) == (percentile, beyond, n)
    assert sum(1 for i in range(n) if i > t["value"]) == beyond


@pytest.mark.parametrize("n", [0, 1, 20, 39])
def test_tail_absent_with_too_few_samples(n):
    assert stats.tail([1.0] * n) is None
    assert "tail" not in stats.summary([1.0] * n)


def test_percentile_is_nearest_rank():
    samples = [5.0, 1.0, 4.0, 2.0, 3.0]
    assert stats.percentile(samples, 50) == 3.0
    assert stats.percentile(samples, 90) == 5.0
    assert stats.percentile(samples, 1) == 1.0


# -- self time under nested wrappers --------------------------------------------

def test_self_time_under_nested_wrappers():
    now = [0.0]
    t = tracer.Tracer(clock=lambda: now[0])

    def kernel():
        now[0] += 0.5

    def inner():
        now[0] += 1.0
        k()
        k()
        now[0] += 1.0

    def outer():
        now[0] += 2.0
        i()
        now[0] += 3.0

    k = t.wrap(kernel, "series.mul", kernel=True)
    i = t.wrap(inner, "solver.inner", kernel=False)
    o = t.wrap(outer, "cli.outer", kernel=False)
    now[0] += 7.0          # time outside any span
    o()
    now[0] += 0.25
    o()
    assert t.calls == {"series.mul": 4, "solver.inner": 2, "cli.outer": 2}
    assert t.self_s == {"series.mul": 2.0, "solver.inner": 4.0,
                        "cli.outer": 10.0}
    assert t.covered_s == 16.0
    assert sum(t.self_s.values()) == t.covered_s
    assert t.layer_self_s()["solver"] == 4.0
    # stage spans keep their parent; kernels aggregate under their stage
    names = {s["id"]: s["name"] for s in t.spans}
    assert [names.get(s["parent"]) for s in t.spans] == \
        [None, "cli.outer", None, "cli.outer"]
    assert t.kernel_table() == [{"fn": "series.mul", "stage": "solver.inner",
                                 "calls": 4, "self_s": 2.0}]


def test_self_time_is_charged_on_exceptions():
    now = [0.0]
    t = tracer.Tracer(clock=lambda: now[0])

    def boom():
        now[0] += 1.0
        raise ValueError("x")

    b = t.wrap(boom, "solver.boom", kernel=False)
    with pytest.raises(ValueError):
        b()
    assert (t.calls["solver.boom"], t.self_s["solver.boom"]) == (1, 1.0)
    assert t.stack == []


def test_install_wraps_every_binding_skips_missing_and_restores():
    import gevreylab.cli
    import gevreylab.solver
    original = gevreylab.solver.solve_direct
    targets = tracer.TARGETS + [
        ("solver.gone", "gevreylab.solver", "no_such_function", False),
        ("solver.gone_method", "gevreylab.solver", "PExpansion.gone", False),
    ]
    t = tracer.Tracer()
    t.install(targets)
    try:
        assert "solver.gone" not in t.wrapped
        assert "solver.gone_method" not in t.wrapped
        assert gevreylab.solver.solve_direct is not original
        assert gevreylab.cli.solve_direct is gevreylab.solver.solve_direct
        assert gevreylab.solve_direct is gevreylab.solver.solve_direct
    finally:
        t.uninstall()
    assert gevreylab.solver.solve_direct is original
    assert gevreylab.cli.solve_direct is original


def test_traced_pass_accounts_for_all_time(tmp_path):
    docs = workloads.build("convergent", 3, tmp_path)[:1]
    for doc in docs:
        doc.ops[1].degree = 4
    wall, t = run.traced_pass(run.Runner(docs))
    m = run.layer_metrics(t, wall, wall)
    selfs = sum(v for n, (v, u) in m.items()
                if n.count(".") == 2 and n.endswith(".self_s"))
    assert selfs + m["trace.remainder_s"][0] == pytest.approx(wall, abs=1e-9)
    assert m["solver._solve_linear.calls"][0] > 0
    assert m["solver.reduce_problem.calls"][0] == 0


# -- failure counting ---------------------------------------------------------

def _solved_registry_doc(tmp_path):
    """eje4 at its default size, through check and solve."""
    from gevreylab.registry import build_document
    path = tmp_path / "eje4.gl"
    path.write_text(build_document("eje4")[0], encoding="utf-8")
    doc = workloads.Document("eje4", path.read_text(), path)
    doc.ops = [workloads._check(path, workloads.DIVERGENT),
               workloads._solve(path, tmp_path / "out")]
    runner = run.Runner([doc])
    runner.one_pass()
    return runner, doc


def test_clean_outputs_pass_verification(tmp_path):
    runner, doc = _solved_registry_doc(tmp_path)
    failures, prints, out = run.verify_outputs(runner, len(doc.ops))
    assert failures == []
    assert set(prints["eje4"]) == set(verify.SOLVE_FILES)
    assert out["certified_degree_sum"] > 0 and out["series.terms_out"] > 0


@pytest.mark.parametrize("name, content", [
    ("solution.json", "{ not json"),
    ("solution_x.json", json.dumps({"degree": 24, "solution": []})),
    ("norms.csv", "n,norm\n"),
])
def test_corrupted_output_is_one_failure(tmp_path, name, content):
    runner, doc = _solved_registry_doc(tmp_path)
    solve = next(op for op in doc.ops if op.kind == "solve")
    (solve.out_dir / name).write_text(content, encoding="utf-8")
    failures, _, _ = run.verify_outputs(runner, len(doc.ops))
    assert len(failures) == 1 and "eje4 solve" in failures[0]


def test_wrong_exit_code_and_traceback_are_failures(tmp_path):
    runner, doc = _solved_registry_doc(tmp_path)
    op = workloads.Op("check", ["check", str(tmp_path / "missing.gl")], "x")
    runner.run_op(doc, op)
    bad = workloads.Op("check", ["check", str(doc.path), "--no-such-flag"], "x")
    runner.run_op(doc, bad)
    failures, _, _ = run.verify_outputs(runner, len(doc.ops))
    assert len(failures) == 2


def test_direct_residual_check_catches_a_wrong_solution():
    from gevreylab.dsl import parse_problem
    spec = parse_problem(workloads.CONVERGENT[0]).spec
    y = __import__("gevreylab").solve_direct(spec, 6)
    assert verify.verify_direct(spec, y, 6) is None
    wrong = [y[0] + y[0].homogeneous(3)]
    assert "does not vanish" in verify.verify_direct(spec, wrong, 6)


# -- inputs ---------------------------------------------------------------------

def test_corpus_draw_is_pinned():
    text = "".join(workloads._write_doc(s, 8, 6)
                   for s in corpus.draw_corpus(99, 200, 8))
    assert hashlib.sha256(text.encode()).hexdigest() == CORPUS_SHA256


def test_relabel_is_an_isomorphism():
    spec = corpus.draw_corpus(99, 200, 8)[7]
    rng = random.Random(5)
    xp = rng.sample(range(spec.dim), spec.dim)
    yp = rng.sample(range(spec.unknowns), spec.unknowns)
    back_x = [xp.index(i) for i in range(spec.dim)]
    back_y = [yp.index(i) for i in range(spec.unknowns)]
    again = corpus.relabel(corpus.relabel(spec, xp, yp), back_x, back_y)
    assert workloads._write_doc(again, 8, 6) == workloads._write_doc(spec, 8, 6)


def test_same_seed_same_inputs(tmp_path):
    a = [d.text for d in workloads.build("corpus", 4, tmp_path / "a")]
    b = [d.text for d in workloads.build("corpus", 4, tmp_path / "b")]
    c = [d.text for d in workloads.build("corpus", 5, tmp_path / "c")]
    assert a == b and a != c
    assert sorted(map(len, a)) == sorted(map(len, c))


def test_benchmark_json_names_are_produced():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    produced = {"wall_s", "setup_s", "doc_s.p50", "check_s.p50",
                "peak_rss_mb", "certified_degree_sum"}
    assert {m["name"] for m in spec["end_to_end"]} == produced
    layer = {f"{n}.{s}" for n, *_ in tracer.TARGETS for s in ("calls", "self_s")}
    layer |= {f"{name}.self_s" for name in tracer.LAYERS}
    layer |= {c for c, _ in tracer.COUNTERS.values()}
    layer |= {"trace.wall_s", "trace.overhead_s", "trace.remainder_s",
              "series.max_coef_bits", "series.terms_out"}
    assert {m["name"] for m in spec["per_layer"]} <= layer
    assert {w["name"] for w in spec["workloads"]} <= set(workloads.WORKLOADS)


def test_prediction_map_names_exist():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    pred = json.loads((ROOT / "perfbench" / "predictions.json").read_text(
        encoding="utf-8"))
    assert pred["hold_out_seed"] not in (0, 1, 2, 3, 4, 5, 6, 7, 8, 9)
    assert set(pred["workloads"]) == set(workloads.WORKLOADS)
    layer = {f"{n}.{s}" for n, *_ in tracer.TARGETS for s in ("calls", "self_s")}
    layer |= {f"{name}.self_s" for name in tracer.LAYERS}
    layer |= {c for c, _ in tracer.COUNTERS.values()}
    kinds = ("check", "solve", "estimate", "examples_run", "direct")
    end = {m["name"] for m in spec["end_to_end"]}
    end |= {f"{k}_{u}.{s}" for k in kinds for u in ("s", "raw_s")
            for s in ("p50", "tail")}
    for p in pred["predictions"]:
        assert set(p["layer"]) <= layer
        for side in ("moves", "no_change"):
            for workload, metrics in p[side].items():
                assert workload in workloads.WORKLOADS
                assert set(metrics) <= end, metrics
