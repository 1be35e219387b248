"""Tests of the benchmark itself: oracles, op generation and span accounting.

    python3 -m pytest -q perfbench
"""

from __future__ import annotations

import hashlib
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import oracles  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

import knotpoly  # noqa: E402


def _bump(terms):
    """The same terms with one coefficient changed by one."""
    key = sorted(terms)[len(terms) // 2]
    out = dict(terms)
    out[key] += 1 if out[key] != -1 else 2
    return out


# -- oracles reject a one-coefficient corruption and a shrunk range ------------


@pytest.mark.parametrize("suite", oracles.VERIFY_SUITES)
@pytest.mark.parametrize("fmt", ["text", "json"])
def test_verify_oracle_rejects_shrunk_total(suite, fmt):
    argv = ["verify", suite, "--max-n", "6", "--format", fmt]
    res = workloads.run_cli(argv, keep=True)
    code, out = res.code, res.text
    assert oracles.check_verify_output(argv, code, out) is None
    want = oracles.verify_expected(suite, 6)
    if fmt == "json":
        rep = json.loads(out)
        rep["passed"] = rep["total"] = want - 1
        shrunk = json.dumps(rep) + "\n"
    else:
        shrunk = f"{want - 1}/{want - 1} identities hold\n"
    assert oracles.check_verify_output(argv, code, shrunk) is not None
    assert oracles.check_verify_output(argv, 1, out) is not None


PRINTING = [
    ["table", "unified", "--max", "9"],
    ["table", "alexander-links", "--max", "7"],
    ["table", "homfly", "--max", "6"],
    ["table", "qpnum", "--max", "6"],
    ["table", "chebyshev-first", "--max", "9"],
    ["chebyshev", "--kind", "second", "--n", "9"],
    ["homfly", "--m", "5"],
    ["qnum", "--n", "7"],
    ["skein-derive", "--family", "az"],
]


def _corrupt_json(out):
    obj = json.loads(out)
    poly = obj["rows"][-1]["poly"] if "rows" in obj else obj.get("b2", obj)
    term = poly["terms"][0]
    term["coeff"] = str(int(term["coeff"]) + 1)
    return json.dumps(obj) + "\n"


def _corrupt_text(out):
    lines = out.splitlines()
    head, sep, body = lines[-1].rpartition(" = " if " = " in lines[-1] else ": ")
    body = "-2" + body[1:] if body.startswith("-") else "2" + body
    return "\n".join(lines[:-1] + [head + sep + body]) + "\n"


@pytest.mark.parametrize("argv", PRINTING, ids=" ".join)
@pytest.mark.parametrize("fmt", ["text", "json"])
def test_printing_oracle_rejects_one_coefficient_and_a_missing_row(argv, fmt):
    argv = argv + ["--format", fmt]
    want = oracles.expected_cli_output(argv)
    res = workloads.run_cli(argv, keep=True)
    code, out = res.code, res.text
    assert res.sha256 == hashlib.sha256(out.encode()).hexdigest()
    assert res.nbytes == len(out.encode())
    assert oracles.check_cli_output(argv, code, out, want) is None
    corrupt = _corrupt_json(out) if fmt == "json" else _corrupt_text(out)
    assert oracles.check_cli_output(argv, code, corrupt, want) is not None
    if argv[0] == "table":
        if fmt == "json":
            obj = json.loads(out)
            obj["rows"].pop()
            short = json.dumps(obj) + "\n"
        else:
            short = "".join(out.splitlines(keepends=True)[:-1])
        assert oracles.check_cli_output(argv, code, short, want) is not None


@pytest.fixture(scope="module")
def dense_ops():
    ops, _ = workloads.generate("dense-arith", 3)
    return ops


@pytest.mark.parametrize("kind", ["uni-mul", "bi-mul", "homfly-mul", "unbalanced", "pow",
                                  "sqrt", "bi-sqrt", "legacy-square", "unified", "homfly"])
def test_library_oracle_rejects_one_coefficient(dense_ops, kind):
    op = next(o for o in dense_ops if o.key.split()[0] == kind)
    out = op.call()
    assert op.check(out) is None
    if isinstance(out, list):
        bad = list(out)
        bad[-1] = type(bad[-1])(_bump(bad[-1].terms))
    elif isinstance(out, knotpoly.RadicalExpr):
        bad = knotpoly.RadicalExpr(knotpoly.BiPoly(_bump(out.prefactor.terms)))
    else:
        bad = type(out)(_bump(out.terms))
    assert op.check(bad) is not None


@pytest.mark.parametrize("kind", ["unified", "homfly"])
def test_sequence_oracle_rejects_a_missing_member(dense_ops, kind):
    op = next(o for o in dense_ops if o.key.split()[0] == kind)
    out = op.call()
    assert op.check(out) is None
    assert op.check(out[:-1]) is not None


def test_checking_pass_runs_in_a_child_and_later_passes_compare(dense_ops):
    ops = [next(o for o in dense_ops if o.key.split()[0] == kind)
           for kind in ("uni-mul", "sqrt", "unified")]
    state = run.RunState(len(ops))
    run.checking_pass(ops, state)
    assert state.failures == [] and state.attempted == 3
    assert all(state.digests) and all(len(t) == 1 for t in state.times)
    run.run_pass(ops, state)
    assert state.failures == [] and all(len(t) == 2 for t in state.times)
    state.digests[0] = "not the digest"
    run.run_pass(ops, state)
    assert len(state.failures) == 1


def test_product_check_is_exact_beyond_float_precision():
    a = {0: 2**70 + 1, 3: -(2**65)}
    b = {-1: 3, 2: 2**64 - 1}
    prod = oracles.convolve(a, b)
    assert oracles.is_product([a, b], prod)
    assert not oracles.is_product([a, b], _bump(prod))
    assert not oracles.is_product([a, b], {k + 1: c for k, c in prod.items()})


def test_kernel_inputs_run_on_the_pure_kernels(dense_ops):
    from knotpoly._kernels import pure

    for op in dense_ops:
        for name, args in op.kernel_inputs():
            assert isinstance(getattr(pure, name)(*args), dict)


# -- generation ----------------------------------------------------------------


@pytest.mark.parametrize("workload", ["verify-sweep", "print-tables", "dense-arith"])
def test_generation_is_deterministic_per_seed(workload):
    ops_a, id_a = workloads.generate(workload, 11)
    ops_b, id_b = workloads.generate(workload, 11)
    assert id_a == id_b
    assert [o.key for o in ops_a] == [o.key for o in ops_b]
    assert workloads.generate(workload, 12)[1] != id_a
    assert len(ops_a) >= 100   # p90 needs ten samples beyond it


# -- spans ---------------------------------------------------------------------


def test_self_time_is_span_time_minus_child_coverage():
    # a [0, 10] holds b [1, 4] and c [5, 9]; c holds a second b [6, 7]
    ticks = iter([0, 1, 4, 5, 6, 7, 9, 10])
    tracer = spans.Tracer(clock=lambda: next(ticks))
    a = tracer.enter(tracer.name_id("a"))
    b = tracer.enter(tracer.name_id("b"))
    tracer.leave(b)
    c = tracer.enter(tracer.name_id("c"))
    b2 = tracer.enter(tracer.name_id("b"))
    tracer.leave(b2)
    tracer.leave(c)
    tracer.leave(a)
    assert list(tracer.parent) == [-1, 0, 0, 2]
    assert tracer.self_times() == {"a": [1, 10 - 3 - 4], "b": [2, 3 + 1], "c": [1, 4 - 1]}


def _library_state():
    state = {}
    for module in spans._library_modules():
        state.update({(module.__name__, k): v for k, v in vars(module).items()})
    for cls in (knotpoly.LaurentPoly, knotpoly.BiPoly, knotpoly.RadicalExpr):
        state.update({(cls.__name__, k): v for k, v in cls.__dict__.items()})
    return state


def test_tracing_patches_lookup_sites_and_restores_them():
    before = _library_state()
    tracer = spans.Tracer()
    patches = spans.install(tracer)
    try:
        p = knotpoly.LaurentPoly({0: 1, 2: 1})
        p * p + 1
        knotpoly.homfly_from_alexander(3)
        workloads.run_cli(["qnum", "--n", "3"])
    finally:
        spans.uninstall(patches)
    after = _library_state()
    assert after.keys() == before.keys()
    assert all(after[k] is v for k, v in before.items())
    totals = tracer.self_times()
    for name in ("laurent.ring", "kernels.mul_terms", "kernels.addsub", "bivar.substitute",
                 "kernels.bi_mul_terms", "invariants.alexander_rx", "cli", "laurent.render"):
        assert name in totals, name
    names = [tracer.names[n] for n in tracer.name]
    first_mul = names.index("kernels.mul_terms")
    assert names[tracer.parent[first_mul]] == "laurent.ring"
    assert tracer.counters["laurent.ring.int_operand_calls"] >= 1


def test_traced_pass_sees_every_dense_op_kind(dense_ops):
    tracer = spans.Tracer()
    patches = spans.install(tracer)
    try:
        for kind in ("sqrt", "bi-sqrt", "pow", "bi-mul", "unified"):
            next(o for o in dense_ops if o.key.split()[0] == kind).call()
    finally:
        spans.uninstall(patches)
    totals = tracer.self_times()
    for name in ("laurent.sqrt_perfect", "bivar.sqrt", "laurent.ring", "bivar.ring",
                 "kernels.bi_mul_terms", "invariants.alexander_unified_rec"):
        assert name in totals, name


# -- the contract --------------------------------------------------------------


def test_benchmark_json_lists_the_reported_metrics():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [m["name"] for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == run.per_layer_metrics()
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)


def test_refuses_to_run_without_the_library(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "dense-arith", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 2
    assert proc.stdout == ""
