"""gevreylab benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root; the package is imported from ./src.  The
workload's documents are generated from the seed and written to a work
directory under .perfbench_work/.  Operations then run in this process,
serially, through gevreylab.cli.main (check, solve, estimate, examples run)
or gevreylab.solver.solve_direct, in full passes over the documents until
S seconds have gone by.  With --trace 1 one more pass runs with every layer
function wrapped, for per-layer calls and self times.  Outputs are verified
after the timed passes.  The last line of stdout is a JSON object with
`correct`, `attempted`, `failed` and the metrics BENCHMARK.json lists for
the mode; a fuller report goes to .perfbench_out/.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
SETUP_REPEATS = 7
WORK_ROOT = ".perfbench_work"
OUT_ROOT = ".perfbench_out"


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", metavar="DIR",
                   help="only import, generate and write the documents to "
                        "DIR, then exit (used to time set-up)")
    return p.parse_args(argv)


def import_package(root: Path):
    """Import gevreylab from root/src and nowhere else."""
    src = root / "src"
    if not (src / "gevreylab" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no gevreylab package under {src}")
    sys.path.insert(0, str(src))
    import gevreylab
    if Path(gevreylab.__file__).resolve().parent != (src / "gevreylab").resolve():
        raise SystemExit(f"perfbench: imported gevreylab from "
                         f"{gevreylab.__file__}, not {src}")
    return gevreylab


def time_setup(args, root: Path, work: Path) -> tuple[list, list]:
    """Wall time of fresh interpreters that import the package, generate
    the documents and write them, from process start to exit, in seconds
    and in nominal seconds."""
    samples, nominal = [], []
    before = reference_s()
    for i in range(SETUP_REPEATS):
        target = work / f"setup{i}"
        cmd = [sys.executable, str(HERE / "run.py"),
               "--workload", args.workload, "--seed", str(args.seed),
               "--setup-only", str(target)]
        start = time.perf_counter()
        proc = subprocess.run(cmd, cwd=root, stdout=subprocess.DEVNULL,
                              stderr=subprocess.PIPE, text=True, timeout=120)
        samples.append(time.perf_counter() - start)
        if proc.returncode != 0:
            raise SystemExit(f"perfbench: set-up failed:\n{proc.stderr}")
        shutil.rmtree(target, ignore_errors=True)
        after = reference_s()
        nominal.append(samples[-1] * NOMINAL_REFERENCE_S / ((before + after) / 2))
        before = after
    return samples, nominal


# Times are reported in nominal seconds: a measured time divided by the
# reference time measured around it, times NOMINAL_REFERENCE_S.  This is how
# long it would have taken on a machine where the reference computation
# takes 3 ms, roughly an idle 2-vCPU virtual machine running Python 3.11.
NOMINAL_REFERENCE_S = 0.003


def reference_s() -> float:
    """Time of a fixed standard-library computation, the exact harmonic sum
    H_1000 in Fraction.  gevreylab's work is Fraction arithmetic too, so
    scaling a time by this one cancels drift in the machine's speed."""
    start = time.perf_counter()
    total = Fraction(0)
    for i in range(1, 1001):
        total += Fraction(1, i)
    return time.perf_counter() - start


class Runner:
    """Runs operations and keeps what the checks need, outside the timer."""

    def __init__(self, docs):
        import gevreylab.cli
        import gevreylab.solver
        self.cli = gevreylab.cli
        self.solver = gevreylab.solver
        self.docs = docs
        self.results = []        # (doc, op, rc, stdout, error) per execution
        # (document, op kind or "doc") -> seconds, and nominal seconds
        self.raw = {}
        self.nominal = {}
        self.references = []     # every reference time measured
        self.last_direct = {}    # doc name -> solution of the last direct op

    def run_op(self, doc, op) -> float:
        clock = time.perf_counter
        out, err = io.StringIO(), io.StringIO()
        rc, error = None, None
        if op.kind == "direct":
            start = clock()
            try:
                # looked up at call time so a traced pass sees the wrapper
                y = self.solver.solve_direct(op.spec, op.degree)
                rc = 0
            except Exception:
                error = traceback.format_exc()
            end = clock()
            if error is None:
                self.last_direct[doc.name] = y
        else:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                start = clock()
                try:
                    rc = self.cli.main(op.argv)
                except (Exception, SystemExit):
                    error = traceback.format_exc()
                end = clock()
        self.results.append((doc, op, rc, out.getvalue(), error))
        return end - start

    def one_pass(self, deadline=None):
        """Run every document's operations once, each operation between two
        reference timings; with a deadline, stop at the first document
        boundary past it.  Returns the pass's time in nominal seconds, or
        None if the pass stopped early."""
        before = reference_s()
        total = 0.0
        for doc in self.docs:
            doc_s = doc_nominal = 0.0
            for op in doc.ops:
                t = self.run_op(doc, op)
                after = reference_s()
                self.references.append(after)
                n = t * NOMINAL_REFERENCE_S / ((before + after) / 2)
                before = after
                self.raw.setdefault((doc.name, op.kind), []).append(t)
                self.nominal.setdefault((doc.name, op.kind), []).append(n)
                doc_s += t
                doc_nominal += n
            self.raw.setdefault((doc.name, "doc"), []).append(doc_s)
            self.nominal.setdefault((doc.name, "doc"), []).append(doc_nominal)
            total += doc_nominal
            if deadline is not None and time.perf_counter() >= deadline:
                return total if doc is self.docs[-1] else None
        return total

    def timed_passes(self, seconds: float) -> tuple[list[float], list[float]]:
        """Full passes until `seconds` have elapsed, at least one.  Returns
        each full pass's wall time and its time in nominal seconds."""
        walls, nominal = [], []
        deadline = time.perf_counter() + seconds
        while True:
            t0 = time.perf_counter()
            total = self.one_pass(deadline if walls else None)
            if total is not None:
                walls.append(time.perf_counter() - t0)
                nominal.append(total)
            if time.perf_counter() >= deadline:
                return walls, nominal

    def samples(self, kind: str, raw: bool = False) -> list[float]:
        data = self.raw if raw else self.nominal
        return [t for (_, k), v in data.items() if k == kind for t in v]

    def median_over_docs(self, kind: str, raw: bool = False) -> float:
        """Median over documents of each document's median, so that a
        partial pass does not tilt the result towards some documents."""
        data = self.raw if raw else self.nominal
        return statistics.median(statistics.median(v) for (_, k), v
                                 in data.items() if k == kind)


def traced_pass(runner) -> tuple[float, object]:
    from tracer import Tracer
    tracer = Tracer()
    with tracer:
        t0 = time.perf_counter()
        runner.one_pass()
        wall = time.perf_counter() - t0
    return wall, tracer


def verify_outputs(runner, nops_first_pass: int):
    """Light checks on every execution, full checks on the last outputs of
    each document.  Returns failures, fingerprints and output sizes."""
    import verify
    failures = {}                # execution index -> message
    last = {}                    # op -> index of its last execution
    for i, (doc, op, rc, stdout, error) in enumerate(runner.results):
        msg = verify.check_result(op, rc, stdout, error)
        if msg:
            failures[i] = f"{doc.name} {op.kind}: {msg}"
        last[id(op)] = i
    prints, sizes = {}, []
    for i in last.values():
        doc, op, rc, stdout, error = runner.results[i]
        if i in failures:
            continue
        if op.kind == "solve":
            msg, series = verify.verify_solve(
                op.out_dir, verify.certified_degree(stdout))
            sizes.extend(series)
            prints[doc.name] = verify.fingerprints(op.out_dir)
        elif op.kind == "direct":
            y = runner.last_direct.get(doc.name)
            msg = (verify.verify_direct(op.spec, y, op.degree)
                   if y is not None else "no solution")
            sizes.extend(y or [])
        else:
            continue
        if msg:
            failures[i] = f"{doc.name} {op.kind}: {msg}"
    cert_sum = 0
    for doc, op, rc, stdout, error in runner.results[:nops_first_pass]:
        if op.kind in ("solve", "examples_run"):
            cert_sum += verify.certified_degree(stdout) or 0
        elif op.kind == "direct":
            y = runner.last_direct.get(doc.name)
            cert_sum += min(s.trunc for s in y) if y else 0
    return list(failures.values()), prints, {
        "certified_degree_sum": cert_sum,
        "series.max_coef_bits": verify.coef_bits(sizes),
        "series.terms_out": sum(len(s.terms) for s in sizes),
        "fingerprint": verify.combined(prints),
    }


def layer_metrics(tracer, traced_wall: float, untraced_wall: float) -> dict:
    m = {}
    for name in tracer.wrapped:
        m[f"{name}.calls"] = (tracer.calls[name], "count")
        m[f"{name}.self_s"] = (tracer.self_s[name], "s")
    for name, value in tracer.counters.items():
        m[name] = (value, "count")
    for layer, value in tracer.layer_self_s().items():
        m[f"{layer}.self_s"] = (value, "s")
    m["trace.wall_s"] = (traced_wall, "s")
    m["trace.overhead_s"] = (traced_wall - untraced_wall, "s")
    m["trace.remainder_s"] = (traced_wall - tracer.covered_s, "s")
    return m


def select(metrics: dict, names) -> dict:
    """The listed metrics that were measured, in BENCHMARK.json order."""
    return {n: {"value": metrics[n][0], "unit": metrics[n][1]}
            for n in names if n in metrics}


def main(argv=None) -> int:
    args = parse_args(argv)
    root = Path.cwd()
    import_package(root)
    sys.path.insert(0, str(HERE))
    import workloads
    if args.workload not in workloads.WORKLOADS:
        raise SystemExit(f"perfbench: unknown workload {args.workload!r}; "
                         f"choose from {sorted(workloads.WORKLOADS)}")
    if args.setup_only:
        workloads.build(args.workload, args.seed, Path(args.setup_only))
        return 0
    spec = json.loads((root / "BENCHMARK.json").read_text(encoding="utf-8"))
    run_id = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    work = root / WORK_ROOT / f"{run_id}-{os.getpid()}"
    try:
        return measure(args, root, work, spec, run_id, workloads)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            work.parent.rmdir()      # only when no other run is using it


def measure(args, root, work, spec, run_id, workloads) -> int:
    import stats
    setup, setup_nominal = time_setup(args, root, work)
    docs = workloads.build(args.workload, args.seed, work)
    runner = Runner(docs)
    walls, nominal = runner.timed_passes(args.seconds)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    nops = sum(len(d.ops) for d in docs)
    untraced = len(runner.results)
    metrics = {
        "wall_s": (statistics.median(nominal), "s"),
        "setup_s": (statistics.median(setup_nominal), "s"),
        "doc_s.p50": (runner.median_over_docs("doc"), "s"),
        "check_s.p50": (runner.median_over_docs("check"), "s"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
        "wall_raw_s": (statistics.median(walls), "s"),
        "setup_raw_s": (statistics.median(setup), "s"),
        "doc_raw_s.p50": (runner.median_over_docs("doc", raw=True), "s"),
        "check_raw_s.p50": (runner.median_over_docs("check", raw=True), "s"),
        "reference_s": (statistics.median(runner.references), "s"),
    }
    kinds = sorted({k for _, k in runner.raw} - {"doc"})
    commands = {f"{k}_s": stats.summary(runner.samples(k)) for k in kinds}
    commands.update({f"{k}_raw_s": stats.summary(runner.samples(k, raw=True))
                     for k in kinds})
    per_doc = {f"{doc}/{kind}": list(v) for (doc, kind), v in runner.raw.items()}
    tracer = None
    if args.trace:
        traced_wall, tracer = traced_pass(runner)
        metrics.update(layer_metrics(tracer, traced_wall,
                                     metrics["wall_raw_s"][0]))
    failures, prints, outputs = verify_outputs(runner, nops)
    metrics["certified_degree_sum"] = (outputs["certified_degree_sum"], "count")
    metrics["series.max_coef_bits"] = (outputs["series.max_coef_bits"], "count")
    metrics["series.terms_out"] = (outputs["series.terms_out"], "count")
    key = "per_layer" if args.trace else "end_to_end"
    chosen = select(metrics, [m["name"] for m in spec[key]])
    attempted = len(runner.results)
    result = {"correct": not failures, "attempted": attempted,
              "failed": len(failures), "metrics": chosen}
    report = {
        "workload": args.workload, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace,
        "python": platform.python_version(), "nproc": os.cpu_count(),
        "passes_raw_s": walls, "passes_s": nominal,
        "setup_raw_s": setup, "setup_s": setup_nominal,
        "untraced_ops": untraced, "ops_per_pass": nops,
        "failed_ratio": result["failed"] / attempted,
        "failures": failures[:50],
        "commands": commands,
        "per_doc": per_doc,
        "fingerprints": prints, "fingerprint": outputs["fingerprint"],
        "metrics": {n: {"value": v, "unit": u} for n, (v, u) in metrics.items()},
        "result": result,
    }
    out = root / OUT_ROOT
    out.mkdir(exist_ok=True)
    if tracer is not None:
        report["kernels"] = tracer.kernel_table()
        report["calls_by_command"] = tracer.calls_by_root()
        report["spans"] = len(tracer.spans)
        (out / f"{run_id}-spans.json").write_text(
            json.dumps(tracer.spans) + "\n", encoding="utf-8")
    (out / f"{run_id}.json").write_text(
        json.dumps(report, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    for name, s in sorted(commands.items()):
        t = s.get("tail")
        print(f"{name}: n={s['samples']} p50={s['p50']:.6g}" +
              (f" p{t['percentile']:g}={t['value']:.6g}" if t else ""))
    for line in failures[:10]:
        print(f"FAILED {line}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
