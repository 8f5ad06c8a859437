"""The benchmark's workloads: documents and the operations run on them.

A workload is a list of documents; each document carries the operations
(CLI commands or library calls) that one pass runs on it, in order.  The
seed only relabels variables and shuffles document order, so every seed
gives a different input of the same arithmetic cost.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from pathlib import Path

from gevreylab import registry
from gevreylab.dsl import DEFAULT_OPTIONS, ProblemDocument, parse_problem

from corpus import draw_corpus, relabel

POINCARE_BOUND = 16

# acceptance criterion 3: seed 99, 200 instances, trunc = degree = 8, order 6
CORPUS_SEED, CORPUS_SIZE, CORPUS_DEGREE, CORPUS_ORDER = 99, 200, 8, 6

# registry entries at scaled parameters: (name, shape params, degree, order)
REGISTRY_DEEP = [
    ("eje3", {}, 160, 80),
    ("ejeLast", {"k": 3}, 60, 30),
    ("eje1", {}, 120, 58),
    ("eje4", {}, 40, 18),
]

# Poincare-route documents: P of order 1 and a constant L_j coefficient,
# so solve_direct takes its dense branch
CONVERGENT_DEGREE = 12
CONVERGENT = [
    "dim 2; unknowns 1; order 1\nP = x1\nL 1 : (1,0) -> 1; (0,1) -> x2\n"
    "F 1 = -1*y1 + x1 + x2 + y1^2\n",
    "dim 2; unknowns 2; order 1\nP = x1\nL 1 : (1,0) -> 1; (0,1) -> x2\n"
    "F 1 = -1*y1 + y2 + x1 + y1*y2\nF 2 = -2*y2 + x2 + y1^2\n",
    "dim 3; unknowns 1; order 1\nP = x1\n"
    "L 1 : (1,0,0) -> 1; (0,1,0) -> x2; (0,0,1) -> x3\n"
    "F 1 = -1*y1 + x1 + x2 + x3 + y1^2\n",
    "dim 2; unknowns 1; order 2\nP = x1\nL 1 : (1,0) -> 1\n"
    "L 2 : (2,0) -> 1; (0,2) -> x2\nF 1 = -1*y1 + x1 + x2 + y1^2\n",
]

DIVERGENT = "divergent route applies"
CONVERGENT_ROUTE = "convergent route applies"


@dataclass
class Op:
    kind: str                      # check, solve, estimate, examples_run
    #                                or direct
    argv: list | None = None       # gevrey-lab arguments, for CLI commands
    expect: str = ""               # required substring of stdout
    out_dir: Path | None = None    # where solve writes its files
    spec: object = None            # ProblemSpec, for direct
    degree: int = 0                # truncation degree, for direct


@dataclass
class Document:
    name: str
    text: str
    path: Path
    ops: list = field(default_factory=list)


def _write_doc(spec, degree, order) -> str:
    options = dict(DEFAULT_OPTIONS, degree=degree, order=order)
    return ProblemDocument("", spec, options).serialize()


def _permutation(rng, n):
    return rng.sample(range(n), n)


def _check(path, expect, extra=()):
    return Op("check", ["check", str(path), *extra,
                        "--poincare-bound", str(POINCARE_BOUND)], expect)


def _solve(path, out_dir, extra=()):
    return Op("solve", ["solve", str(path), *extra, "--out-dir", str(out_dir)],
              "residual vanishes through certified degree", out_dir)


def corpus(rng, work: Path) -> list[Document]:
    docs = []
    for i, spec in enumerate(draw_corpus(CORPUS_SEED, CORPUS_SIZE,
                                         CORPUS_DEGREE)):
        spec = relabel(spec, _permutation(rng, spec.dim),
                       _permutation(rng, spec.unknowns))
        path = work / f"corpus{i:03d}.gl"
        doc = Document(f"corpus{i:03d}",
                       _write_doc(spec, CORPUS_DEGREE, CORPUS_ORDER), path)
        doc.ops = [_check(path, DIVERGENT),
                   _solve(path, work / f"out{i:03d}")]
        docs.append(doc)
    return docs


def registry_deep(rng, work: Path) -> list[Document]:
    docs = []
    for name, shape, degree, order in REGISTRY_DEEP:
        text, _ = registry.build_document(name, shape)
        path = work / f"{name}.gl"
        sizes = ["--degree", str(degree), "--order", str(order)]
        params = [f"{k}={v}" for k, v in
                  dict(shape, degree=degree, order=order).items()]
        doc = Document(name, text, path)
        doc.ops = [
            Op("examples_run",
               ["examples", "run", name,
                *[a for p in params for a in ("--param", p)]],
               f"PASS {name} "),
            _check(path, DIVERGENT, sizes),
            _solve(path, work / f"out-{name}", sizes),
            Op("estimate", ["estimate", str(path), *sizes],
               "theoretical order:"),
        ]
        docs.append(doc)
    return docs


def convergent(rng, work: Path) -> list[Document]:
    docs = []
    for i, base in enumerate(CONVERGENT):
        spec = parse_problem(base).spec
        spec = relabel(spec, _permutation(rng, spec.dim),
                       _permutation(rng, spec.unknowns))
        text = _write_doc(spec, CONVERGENT_DEGREE, DEFAULT_OPTIONS["order"])
        path = work / f"convergent{i}.gl"
        doc = Document(f"convergent{i}", text, path)
        doc.ops = [_check(path, CONVERGENT_ROUTE),
                   Op("direct", spec=parse_problem(text).spec,
                      degree=CONVERGENT_DEGREE)]
        docs.append(doc)
    return docs


WORKLOADS = {
    "corpus": corpus,
    "registry-deep": registry_deep,
    "convergent": convergent,
}


def build(name: str, seed: int, work: Path) -> list[Document]:
    """Generate the workload's documents for this seed and write them."""
    rng = random.Random(seed)
    docs = WORKLOADS[name](rng, work)
    rng.shuffle(docs)
    work.mkdir(parents=True, exist_ok=True)
    for doc in docs:
        doc.path.write_text(doc.text, encoding="utf-8")
    return docs
