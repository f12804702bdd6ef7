"""The four workloads: seeded item pools, the call sequence of one op, and
the check of its output.

An op is one item's full call sequence.  ``call`` makes only calls into the
program and returns what it produced; ``check`` runs afterwards, outside the
timed region, and returns None or a failure reason.  A reason starting with
``wrong:`` marks an output that is incorrect, ``exception:`` an untyped
exception, and ``numerical:`` a typed refusal to build a certificate
(``NUMERICAL_ERRORS``); the first two are program errors.
"""

import io
import json
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import numpy as np

import ddsim
import ddsim.cli
from ddsim import errors

import check
import gen

#: Items per stratum of each pool.  Every pass over a pool runs every item
#: once, so a pass always has the same mix of sizes, families and commands.
SEPARATED_PER_STRATUM = 13
DEFECTIVE_PER_FAMILY = 12
CLI_ROUNDS = 8
GRID_PER_CASE = 26
SEARCH_PER_CASE = 13
#: Trials of each random similarity search; every one is spent, since the
#: search inputs admit no witness.
SEARCH_TRIALS = 2000

SEPARATED_SIZES = (2, 4, 8, 12)

#: Typed errors that mean the program could not finish a certificate.
NUMERICAL_ERRORS = (errors.ClusterAmbiguity, errors.IllConditionedJordan,
                    errors.SingularTransform, errors.NumericallySingular)
#: Typed refusals; no library op of these workloads expects one, so each is
#: a refusal of an achievable input.
REFUSALS = (errors.NotAchievable, errors.PreconditionViolated,
            errors.SingularInput)


def failure_of(exc):
    """Failure reason for an exception that escaped an op's call sequence."""
    name = type(exc).__name__
    if isinstance(exc, NUMERICAL_ERRORS):
        return f"numerical:{name}"
    if isinstance(exc, REFUSALS):
        return f"wrong:{name}"
    return f"exception:{name}"


# --- separated and defective: classify, real build, complex build --------

def make_separated(rng, workdir):
    items = []
    for n in SEPARATED_SIZES:
        for strict in (True, False):
            for _ in range(SEPARATED_PER_STRATUM):
                item = gen.separated_item(rng, n, strict)
                item["family"] = f"n{n}-{item['verdict']}"
                items.append(item)
    return items


def make_defective(rng, workdir):
    items = []
    for kind in gen.DEFECTIVE_KINDS:
        for length in gen.DEFECTIVE_LENGTHS:
            for context in gen.DEFECTIVE_CONTEXTS:
                for _ in range(DEFECTIVE_PER_FAMILY):
                    item = gen.defective_item(rng, kind, length, context)
                    item["family"] = f"{kind}-L{length}-{context}"
                    items.append(item)
    return items


def call_build(item):
    a = item["a"]
    out = {"verdict": ddsim.classify(a).verdict.value}
    if out["verdict"] == gen.STRICT:
        out["real"] = ddsim.build_real_dd_transform(a, ddsim.Target.STRICT)
    out["complex"] = ddsim.build_complex_dd_transform(a)
    return out


def check_build(item, out):
    if out["verdict"] != item["verdict"]:
        return f"wrong:verdict {out['verdict']}"
    certs = [out["complex"]] + ([out["real"]] if "real" in out else [])
    for cert in certs:
        problem = check.certificate_problem(item["a"], cert.P, cert.B)
        if problem:
            return f"wrong:{problem}"
    if "real" in out and (np.iscomplexobj(out["real"].P)
                          or np.iscomplexobj(out["real"].B)):
        return "wrong:real certificate is complex"
    return None


# --- cli-decide: in-process CLI calls over files written at set-up -------

def _write_matrix(path, a):
    rows = [[float(v) for v in row] for row in a]
    if path.suffix == ".json":
        path.write_text(json.dumps({"n": len(rows), "rows": rows}))
    else:
        path.write_text("\n".join(",".join(repr(v) for v in row) for row in rows) + "\n")


def _off_diagonal(a):
    return a[~np.eye(a.shape[0], dtype=bool)]


def make_cli(rng, workdir):
    items = []

    def add(argv_head, a, name, exit_code, expect, family, **extra):
        path = Path(workdir) / name
        _write_matrix(path, a)
        items.append(dict(argv=[*argv_head, "--input", str(path)], a=a,
                          exit=exit_code, expect=expect, family=family, **extra))

    for r in range(CLI_ROUNDS):
        for i, case in enumerate(gen.CLASSIFY_CASES):
            a, verdict = gen.classify_case(rng, case)
            ext = ".json" if (r + i) % 2 == 0 else ".csv"
            add(["classify"], a, f"classify-{r}-{case}{ext}",
                gen.VERDICT_EXIT[verdict], "classify", f"classify-{case}",
                verdict=verdict)
        mh = gen.metzler_hurwitz(rng, int(rng.integers(3, 9)))
        h = gen.hurwitz_h(rng, int(rng.integers(3, 9)))
        for label, a in (("mh", mh), ("h", h)):
            off = _off_diagonal(a)
            tests = {"z": bool(np.all(off <= 0.0)), "metzler": bool(np.all(off >= 0.0)),
                     "m_matrix": False, "h_matrix": True, "hurwitz": True}
            ext = ".json" if r % 2 == 0 else ".csv"
            add(["special", "tests"], a, f"tests-{r}-{label}{ext}", 0, "tests",
                f"tests-{label}", tests=tests)
            add(["special", "m-scale"], a, f"mscale-{r}-{label}{ext}",
                0 if tests["metzler"] else 3, "scaling", f"m-scale-{label}")
            add(["special", "h-scale"], a, f"hscale-{r}-{label}{ext}", 0, "scaling",
                f"h-scale-{label}")
        a, _ = gen.classify_case(rng, gen.CLASSIFY_CASES[r % len(gen.CLASSIFY_CASES)])
        svg = str(Path(workdir) / f"gershgorin-{r}.svg")
        add(["gershgorin"], a, f"gershgorin-{r}.json", 0, "svg", "gershgorin",
            svg=svg)
        items[-1]["argv"] += ["--out", svg]
    return items


def call_cli(item):
    stdout, stderr = io.StringIO(), io.StringIO()
    with redirect_stdout(stdout), redirect_stderr(stderr):
        code = ddsim.cli.main(item["argv"])
    return {"exit": code, "stdout": stdout.getvalue()}


def check_cli(item, out):
    if out["exit"] != item["exit"]:
        return f"wrong:exit {out['exit']}"
    expect = item["expect"]
    if expect == "svg":
        if out["stdout"]:
            return "wrong:gershgorin wrote to stdout"
        problem = check.svg_problem(Path(item["svg"]).read_text(), item["a"].shape[0])
        return f"wrong:{problem}" if problem else None
    if expect == "scaling" and item["exit"] != 0:
        return None if not out["stdout"] else "wrong:refusal wrote to stdout"
    doc = check.parse_json(out["stdout"])
    if not isinstance(doc, dict):
        return "wrong:stdout is not a JSON object"
    if expect == "classify" and doc.get("verdict") != item["verdict"]:
        return f"wrong:verdict {doc.get('verdict')}"
    if expect == "tests" and {k: doc.get(k) for k in item["tests"]} != item["tests"]:
        return "wrong:structure tests"
    if expect == "scaling":
        problem = check.scaling_problem(item["a"], np.array(doc["K"]), np.array(doc["B"]))
        if problem:
            return f"wrong:{problem}"
    return None


# --- oracle: grid scans and spent random searches ------------------------

def make_oracle(rng, workdir):
    items = []
    for case in gen.GRID_CASES:
        for _ in range(GRID_PER_CASE):
            alpha, beta, found = gen.grid_case(rng, case)
            items.append({"grid": (alpha, beta), "found": found,
                          "a": gen.pair_chain(alpha, beta, 1),
                          "family": f"grid-{case}"})
    for case in gen.SEARCH_CASES:
        for _ in range(SEARCH_PER_CASE):
            items.append({"a": gen.search_case(rng, case),
                          "search_seed": int(rng.integers(2 ** 31)),
                          "family": f"search-{case}"})
    return items


def call_oracle(item):
    if "grid" in item:
        return ddsim.grid_search_2x2(*item["grid"])
    return ddsim.random_similarity_search(item["a"], trials=SEARCH_TRIALS,
                                          seed=item["search_seed"])


def check_oracle(item, out):
    if "grid" not in item:
        if out.found or out.samples != SEARCH_TRIALS or not out.best_margin < 0.0:
            return "wrong:search outcome"
        return None
    if out.found != item["found"] or (out.best_margin >= 0.0) != item["found"]:
        return "wrong:grid outcome"
    if out.found:
        w = out.witness
        problem = check.grid_witness_problem(*item["grid"], w.x, w.y)
        if problem:
            return f"wrong:{problem}"
    return None


def probe_calls(rng, workdir):
    """span name -> one direct call of that public function on fixed inputs.

    The traced run times these only for the per-call metrics whose function
    the workload's own ops never call.
    """
    a = gen.separated_item(rng, 8, strict=True)["a"]
    rotation = gen.pair_chain(-2.0, 1.0, 1)
    mh = gen.metzler_hurwitz(rng, 6)
    h = gen.hurwitz_h(rng, 6)
    search = gen.search_case(rng, "boundary-defective")
    path = Path(workdir) / "probe.json"
    _write_matrix(path, a)
    return {
        "spectral.eigen_structure": lambda: ddsim.eigen_structure(a),
        "spectral.real_jordan_form": lambda: ddsim.real_jordan_form(a),
        "classify.classify": lambda: ddsim.classify(a),
        "classify.classify_2x2": lambda: ddsim.classify_2x2(rotation),
        "construct.build_real_dd_transform": lambda: ddsim.build_real_dd_transform(a),
        "construct.build_complex_dd_transform": lambda: ddsim.build_complex_dd_transform(a),
        "construct.scale_jordan_to_dd":
            lambda: ddsim.scale_jordan_to_dd(ddsim.real_jordan_form(a)),
        "core.similarity_residual": lambda: ddsim.similarity_residual(a, np.eye(8), a),
        "core.is_diag_dominant": lambda: ddsim.is_diag_dominant(a),
        "special.metzler_hurwitz_scaling": lambda: ddsim.metzler_hurwitz_scaling(mh),
        "special.h_matrix_scaling": lambda: ddsim.h_matrix_scaling(h),
        "io.load_matrix": lambda: ddsim.io.load_matrix(str(path)),
        "io.dumps": lambda: ddsim.io.dumps({"rows": a.tolist()}),
        "cli.main": lambda: call_cli({"argv": ["classify", "--input", str(path)]}),
        "svg.render_gershgorin":
            lambda: ddsim.svg.render_gershgorin(ddsim.gershgorin_discs(a),
                                                np.linalg.eigvals(a)),
        "oracle.grid_search_2x2": lambda: ddsim.grid_search_2x2(-2.0, 1.0),
        "oracle.random_similarity_search":
            lambda: ddsim.random_similarity_search(search, trials=SEARCH_TRIALS, seed=1),
    }


#: name -> (make pool, call sequence of one op, output check)
WORKLOADS = {
    "separated": (make_separated, call_build, check_build),
    "defective": (make_defective, call_build, check_build),
    "cli-decide": (make_cli, call_cli, check_cli),
    "oracle": (make_oracle, call_oracle, check_oracle),
}
