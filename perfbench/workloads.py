"""The three workloads: their inputs, made from the seed; their operations;
and the gate every answer must pass.

An operation is a call into hermgrass, which is timed, followed by a check
of its answer against values the benchmark computes itself, which is not.
An operation fails if it raises, returns a nonzero exit code or gives a
wrong answer.  Every workload is a closed loop: one client runs its
operations in sequence, with --threads 1.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import random
import re
from dataclasses import dataclass
from functools import partial
from time import perf_counter
from typing import Callable

import numpy as np

import cells
import hostspeed
from hermgrass import analysis, cli, codebuild, galois, linalg, minors, verify

# The 22 checks of `verify --suite all`, called by name so that the work
# stays fixed when checks are added; a name that disappears is a failure.
VERIFY_CHECKS = (
    "field_axioms", "subfield_structure", "trace_norm_fibers",
    "enumeration_bijectivity", "invertible_counts", "hyperbolic_zero_counts",
    "system_solution_counts", "two_weight_classifier", "l3_reduced_family",
    "min_weight_strata", "translation_clearing", "spread_reduction",
    "dual_distances", "dual_support_families", "generator_dimensions",
    "q_invariance", "automorphism_membership", "conjugate_minor_identity",
    "interpolation_round_trip", "distance_certifications", "fq_basis_structure",
    "file_round_trip",
)
# Generators the checks build, so that setup covers them.
VERIFY_CELLS = ("H2q2", "H2q3", "H2q4", "H2q5", "H3q2", "H3q3",
                "A2q2", "A2q3", "A2q4", "A2q5", "A3q2")

# Every cell `table` re-certifies, plus the bigint binary path (H3q2, A3q2),
# odd characteristic (H2q7), characteristic 2 with a non-binary alphabet
# (H2q8) and a Hermitian cell walked over its full F_{q^2} alphabet (H2q3x).
MINDIST_CELLS = ("H2q2", "H2q3", "H2q4", "H2q5", "H2q7", "H2q8", "H3q2",
                 "A2q2", "A2q3", "A2q4", "A2q5", "A3q2", "H2q3x")

DUAL_CELLS = ("H2q2", "H2q3", "H2q4", "H2q5", "H3q2")
GEN_CELLS = ("H3q2", "H3q3")
PERM_CELL = "H3q3"
WORDS_PER_PERMUTATION = 3

WORKLOADS = ("verify-all", "mindist-walk", "duals-automorphisms")


class Mismatch(Exception):
    """An answer differs from the benchmark's reference value."""


def expect(condition, message):
    if not condition:
        raise Mismatch(message)


@dataclass
class Op:
    name: str  # also the name of the span around `run`
    run: Callable[[], object]  # calls into hermgrass; timed
    check: Callable[[object], dict]  # gates the outcome, returns the answer


def setup_cells(workload: str) -> tuple:
    if workload == "verify-all":
        return VERIFY_CELLS
    if workload == "mindist-walk":
        return MINDIST_CELLS
    if workload == "duals-automorphisms":
        return tuple(dict.fromkeys(DUAL_CELLS + GEN_CELLS + (PERM_CELL,)))
    raise ValueError(f"unknown workload {workload!r}")


def eval_minors(tracer):
    """Column entries plus every minor evaluation at PERM_CELL."""
    family, ell, q, _ = cells.parse(PERM_CELL)
    tower = galois.tower_for_q(q)
    with tracer.span("codebuild.eval_minor_vector"):
        entries = codebuild.position_entries(tower, ell, family)
        for minor in minors.basis(ell):
            codebuild.eval_minor_vector(tower, entries, minor)


def patch_targets():
    """Public functions traced by replacing the attribute their callers
    look up (cli and verify call analysis through the module)."""
    return [
        (analysis, "min_distance_subfield", "analysis.min_distance_subfield"),
        (analysis, "min_distance_exhaustive", "analysis.min_distance_exhaustive"),
        (analysis, "dual_min_distance", "analysis.dual_min_distance"),
        (linalg, "rref", "linalg.rref"),
        (cli, "build_generator", "codebuild.build_generator"),
        (cli, "write_generator", "codebuild.write_generator"),
        (cli, "read_generator", "codebuild.read_generator"),
    ]


def build_ops(workload: str, seed: int, tracer, workdir: str) -> list:
    if workload == "verify-all":
        return verify_ops(seed)
    if workload == "mindist-walk":
        return mindist_ops(workdir)
    if workload == "duals-automorphisms":
        return duals_ops(seed, tracer, workdir)
    raise ValueError(f"unknown workload {workload!r}")


def run_pass(ops, tracer) -> list:
    """Run every operation once, in order; one record per operation, with
    its measured and its host-speed-normalized time (see hostspeed)."""
    results, intervals = [], []
    with hostspeed.Sampler() as sampler:
        for op in ops:
            record = {"op": op.name, "ok": False, "seconds": None, "normalized_s": None,
                      "answer": None, "error": None}
            start = perf_counter()
            try:
                with tracer.span(op.name):
                    outcome = op.run()
                record["seconds"] = perf_counter() - start
                record["answer"] = op.check(outcome)
                record["ok"] = True
            except Exception as exc:  # a failed operation is counted; the pass goes on
                if record["seconds"] is None:
                    record["seconds"] = perf_counter() - start
                record["error"] = f"{type(exc).__name__}: {exc}"
            intervals.append((start, start + record["seconds"]))
            results.append(record)
    for record, (start, end) in zip(results, intervals):
        record["normalized_s"] = sampler.normalize(start, end)
    return results


# verify-all -------------------------------------------------------------------


def verify_ops(seed: int) -> list:
    checks = dict(verify.checks_for("all"))
    return [Op(f"verify.{name}", partial(_run_check, checks.get(name), name, seed),
               _check_detail) for name in VERIFY_CHECKS]


def _run_check(fn, name, seed):
    if fn is None:
        raise Mismatch(f"verify.checks_for('all') has no check named {name!r}")
    return fn(seed)


def _check_detail(detail):
    expect(isinstance(detail, str), f"check returned {detail!r}, not a detail string")
    return {"detail": detail}


# mindist-walk -----------------------------------------------------------------


def mindist_ops(workdir: str) -> list:
    ops = []
    for cell in MINDIST_CELLS:
        path = f"{workdir}/mindist-{cell}.json"
        ops.append(Op(f"cli.mindist.{cell}", partial(_mindist_run, cell, path),
                      partial(_mindist_check, cell, path)))
    return ops


def _cli(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue(), err.getvalue()


def _expect_exit_ok(outcome):
    code, _, err = outcome
    expect(code == 0, f"exit code {code}: {err.strip()}")


def _read_json(path):
    with open(path) as fh:
        return json.load(fh)


def _mindist_run(cell, path):
    family, ell, q, method = cells.parse(cell)
    return _cli(["mindist", "--q", str(q), "--ell", str(ell), "--family", family,
                 "--method", method, "--threads", "1", "--format", "tree", "--out", path])


def _mindist_check(cell, path, outcome):
    _expect_exit_ok(outcome)
    report = _read_json(path)
    want = cells.min_distance(cell)
    expect(report["d"] == want, f"{cell}: d = {report['d']}, expected {want}")
    return {"d": report["d"], "witness": report.get("witness"),
            "messages_searched": report["messages_searched"]}


# duals-automorphisms ----------------------------------------------------------


def _dot(tower, u, v) -> int:
    acc = 0
    for a, b in zip(u, v):
        acc = tower.add(acc, tower.mul(a, b))
    return acc


def _random_invertible(tower, ell, rng):
    """L U with L unit lower triangular and U upper triangular with a
    nonzero diagonal, so invertible by construction."""
    qq = tower.qq
    L = [[1 if i == j else rng.randrange(qq) if i > j else 0 for j in range(ell)]
         for i in range(ell)]
    U = [[rng.randrange(1, qq) if i == j else rng.randrange(qq) if i < j else 0
          for j in range(ell)] for i in range(ell)]
    return tuple(tuple(_dot(tower, L[i], [U[r][j] for r in range(ell)]) for j in range(ell))
                 for i in range(ell))


def _random_hermitian(tower, ell, rng):
    M = [[0] * ell for _ in range(ell)]
    for i in range(ell):
        M[i][i] = rng.choice(tower.subfield)
        for j in range(i + 1, ell):
            M[i][j] = rng.randrange(tower.qq)
            M[j][i] = tower.conjugate(M[i][j])
    return tuple(tuple(row) for row in M)


def duals_inputs(seed: int) -> dict:
    """The seeded inputs at PERM_CELL: two invertible matrices for the
    congruences, one Hermitian matrix for the translation, the messages of
    the codewords to permute, and one position per permutation at which a
    permuted codeword is altered (the result must not be a codeword)."""
    _, ell, q, _ = cells.parse(PERM_CELL)
    tower = galois.tower_for_q(q)
    rng = random.Random(seed)
    return {
        "congruences": [_random_invertible(tower, ell, rng) for _ in range(2)],
        "translation": _random_hermitian(tower, ell, rng),
        "messages": [[rng.randrange(tower.qq) for _ in range(cells.dimension(PERM_CELL))]
                     for _ in range(WORDS_PER_PERMUTATION)],
        "altered": [rng.randrange(cells.length(PERM_CELL)) for _ in range(4)],
    }


def duals_ops(seed: int, tracer, workdir: str) -> list:
    ops = []
    for cell in DUAL_CELLS:
        path = f"{workdir}/dualdist-{cell}.json"
        ops.append(Op(f"cli.dualdist.{cell}", partial(_dualdist_run, cell, path),
                      partial(_dualdist_check, cell, path)))
    for cell in GEN_CELLS:
        path = f"{workdir}/gen-{cell}.txt"
        ops.append(Op(f"cli.gen.{cell}", partial(_gen_run, cell, path),
                      partial(_gen_check, cell, path)))

    inputs = duals_inputs(seed)
    family, ell, q, _ = cells.parse(PERM_CELL)
    gen = codebuild.build_generator(family, ell, q)
    tower = gen.tower
    words = [gen.encode_message(m) for m in inputs["messages"]]
    makers = [("congruence_permutation", partial(codebuild.congruence_permutation, tower, ell, A))
              for A in inputs["congruences"]]
    makers.append(("translate_permutation",
                   partial(codebuild.translate_permutation, tower, ell, inputs["translation"])))
    makers.append(("transpose_permutation", partial(codebuild.transpose_permutation, tower, ell)))
    for i, ((kind, make), altered) in enumerate(zip(makers, inputs["altered"])):
        ops.append(Op(f"perm.{i}.{kind}",
                      partial(_perm_run, tracer, kind, make, gen, words, altered),
                      partial(_perm_check, words)))
    return ops


def _dualdist_run(cell, path):
    _, ell, q, _ = cells.parse(cell)
    return _cli(["dualdist", "--q", str(q), "--ell", str(ell), "--format", "tree", "--out", path])


def _dualdist_check(cell, path, outcome):
    _expect_exit_ok(outcome)
    report = _read_json(path)
    want = cells.dual_distance(cell)
    expect(report["d_dual"] == want, f"{cell}: d_dual = {report['d_dual']}, expected {want}")
    expect(report["exhausted_below"] == want,
           f"{cell}: exhausted_below = {report['exhausted_below']}, expected {want}")
    columns, coefficients = report["columns"], report["coefficients"]
    expect(len(set(columns)) == len(columns) == want and all(coefficients),
           f"{cell}: support {columns} with coefficients {coefficients} has weight != {want}")
    family, ell, q, _ = cells.parse(cell)
    gen = codebuild.build_generator(family, ell, q)
    tower = gen.tower
    acc = np.zeros(gen.rows.shape[0], dtype=np.uint8)
    for col, coef in zip(columns, coefficients):
        acc = tower.add_np[acc, tower.mul_np[coef][gen.rows[:, col]]]
    expect(not acc.any(), f"{cell}: the support columns are not dependent")
    return {"d_dual": want, "columns": columns, "coefficients": coefficients}


def _gen_run(cell, path):
    family, ell, q, _ = cells.parse(cell)
    return _cli(["gen", "--q", str(q), "--ell", str(ell), "--family", family, "--out", path])


def field_rank(tower, rows) -> int:
    """Rank by plain Gaussian elimination on the field tables; the
    benchmark's own reference, independent of hermgrass.linalg."""
    R = np.array(rows, dtype=np.uint8)
    rank = 0
    for c in range(R.shape[1]):
        if rank == R.shape[0]:
            break
        nonzero = np.flatnonzero(R[rank:, c])
        if nonzero.size == 0:
            continue
        pivot = rank + int(nonzero[0])
        R[[rank, pivot]] = R[[pivot, rank]]
        R[rank] = tower.mul_np[tower.inv_np[R[rank, c]]][R[rank]]
        for i in range(rank + 1, R.shape[0]):
            if R[i, c]:
                R[i] = tower.add_np[R[i], tower.mul_np[tower.neg_np[R[i, c]]][R[rank]]]
        rank += 1
    return rank


def _gen_check(cell, path, outcome):
    _expect_exit_ok(outcome)
    k = cells.dimension(cell)
    printed = re.search(r"^rank = (\d+)", outcome[1], re.M)
    expect(printed and int(printed.group(1)) == k, f"{cell}: printed rank is not {k}")
    with open(path, "rb") as fh:
        data = fh.read()
    lines = data.decode().splitlines()
    rows = np.array([np.array(line.split(), dtype=np.int64) for line in lines[1:]])
    family, ell, q, _ = cells.parse(cell)
    gen = codebuild.build_generator(family, ell, q)
    expect(np.array_equal(rows, gen.rows), f"{cell}: the file differs from the generator")
    expect(field_rank(gen.tower, rows) == k, f"{cell}: the file's rank is not {k}")
    return {"rank": k, "bytes": len(data), "sha256": hashlib.sha256(data).hexdigest()}


def _perm_run(tracer, kind, make, gen, words, altered):
    with tracer.span(f"codebuild.{kind}"):
        perm = make()
    images = [w[perm] for w in words]
    bad = images[0].copy()
    bad[altered] = gen.tower.add(int(bad[altered]), 1)
    member = []
    for word in images + [bad]:
        with tracer.span("codebuild.membership"):
            member.append(gen.membership(word))
    return perm, images, member


def _perm_check(words, outcome):
    perm, images, member = outcome
    perm = np.asarray(perm)
    n = len(words[0])
    expect(perm.shape == (n,) and np.array_equal(np.sort(perm), np.arange(n)),
           "not a bijection of the positions")
    expect(all(member[:-1]), "a permuted codeword is not a member of the code")
    expect(not member[-1], "a word at distance 1 from a codeword passed membership")
    weights = [int(np.count_nonzero(w)) for w in words]
    expect([int(np.count_nonzero(w)) for w in images] == weights,
           "a permuted codeword changed weight")
    return {"sha256": hashlib.sha256(perm.astype(np.int64).tobytes()).hexdigest(),
            "weights": weights}


# per-layer metrics of the traced run -------------------------------------------


def per_layer_spec() -> list:
    """(name, unit, better) of every per-layer metric, in output order."""
    spec = [
        ("galois.tower_build_s", "s", "lower"),
        ("codebuild.build_generator_s", "s", "lower"),
        ("codebuild.eval_minor_vector_s", "s", "lower"),
        ("linalg.rref_s", "s", "lower"),
    ]
    spec += [(f"verify.{name}_s", "s", "lower") for name in VERIFY_CHECKS]
    spec.append(("verify.checks_failed", "count", "lower"))
    for cell in MINDIST_CELLS:
        spec += [(f"analysis.mindist_s.{cell}", "s", "lower"),
                 (f"analysis.walk_messages_per_s.{cell}", "1/s", "higher"),
                 (f"analysis.walk_searched_ratio.{cell}", "ratio", "lower")]
    for cell in DUAL_CELLS:
        spec += [(f"analysis.dualdist_s.{cell}", "s", "lower"),
                 (f"analysis.dual_pairs_per_s.{cell}", "1/s", "higher")]
    spec += [
        ("codebuild.congruence_permutation_s", "s", "lower"),
        ("codebuild.translate_permutation_s", "s", "lower"),
        ("codebuild.transpose_permutation_s", "s", "lower"),
        ("codebuild.positions_per_s", "1/s", "higher"),
        ("codebuild.membership_s", "s", "lower"),
        ("codebuild.membership_calls", "count", "lower"),
        ("codebuild.gen_write_s", "s", "lower"),
        ("codebuild.gen_read_s", "s", "lower"),
        ("codebuild.gen_bytes", "bytes", "lower"),
        ("process.cpu_s", "s", "lower"),
        ("trace.overhead_ratio", "ratio", "lower"),
    ]
    return spec


def _mean(values):
    return sum(values) / len(values) if values else 0.0


def _rate(count, seconds):
    return count / seconds if seconds else 0.0


def layer_metrics(tracer, traced: dict, extra: dict) -> dict:
    """Per-layer values from the spans and the answers of one traced pass
    of every workload; `extra` holds the values measured around them."""
    v = dict(extra)
    v["galois.tower_build_s"] = sum(tracer.durations("galois.tower_build", within="setup"))
    v["codebuild.build_generator_s"] = sum(
        tracer.durations("codebuild.build_generator", within="setup"))
    v["codebuild.eval_minor_vector_s"] = sum(tracer.durations("codebuild.eval_minor_vector"))
    v["linalg.rref_s"] = sum(tracer.durations("linalg.rref", within="setup"))

    for record in traced["verify-all"]:
        v[f"{record['op']}_s"] = record["seconds"]
    v["verify.checks_failed"] = sum(not r["ok"] for r in traced["verify-all"])

    answers = {r["op"]: r["answer"] or {} for rs in traced.values() for r in rs}
    walks = ("analysis.min_distance_subfield", "analysis.min_distance_exhaustive")
    for cell in MINDIST_CELLS:
        op = f"cli.mindist.{cell}"
        seconds = sum(tracer.durations(walks, within=op))
        space = cells.message_space(cell)
        v[f"analysis.mindist_s.{cell}"] = seconds
        v[f"analysis.walk_messages_per_s.{cell}"] = _rate(space, seconds)
        v[f"analysis.walk_searched_ratio.{cell}"] = (
            answers.get(op, {}).get("messages_searched", 0) / space)
    for cell in DUAL_CELLS:
        seconds = sum(tracer.durations("analysis.dual_min_distance",
                                       within=f"cli.dualdist.{cell}"))
        v[f"analysis.dualdist_s.{cell}"] = seconds
        v[f"analysis.dual_pairs_per_s.{cell}"] = _rate(cells.dual_pairs(cell), seconds)

    kinds = ("congruence_permutation", "translate_permutation", "transpose_permutation")
    for kind in kinds:
        v[f"codebuild.{kind}_s"] = _mean(tracer.durations(f"codebuild.{kind}"))
    perm_times = tracer.durations(tuple(f"codebuild.{kind}" for kind in kinds))
    v["codebuild.positions_per_s"] = _rate(cells.length(PERM_CELL) * len(perm_times),
                                           sum(perm_times))
    membership = tracer.durations("codebuild.membership")
    v["codebuild.membership_s"] = sum(membership)
    v["codebuild.membership_calls"] = len(membership)
    v["codebuild.gen_write_s"] = sum(tracer.durations("codebuild.write_generator"))
    v["codebuild.gen_read_s"] = sum(tracer.durations("codebuild.read_generator"))
    v["codebuild.gen_bytes"] = sum(answers.get(f"cli.gen.{c}", {}).get("bytes", 0)
                                   for c in GEN_CELLS)
    return v
