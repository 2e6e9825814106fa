"""Layer probes that every traced run adds after its closed loop.

Kernel microbenchmarks time one public operation on operands taken from the
radical-build gadgets and the soundness corpus.  The layer sweep makes one
small call of every spanned layer, so that each layer is measured in every
traced run, also where the workload does not exercise it.  The acceptance
suite and the command line run in process, one criterion or subcommand per
span.  Probes return their metrics and a list of failures (a verdict that
differs from its known answer, a criterion that fails, a command that does
not exit 0).
"""

from __future__ import annotations

import contextlib
import io
import operator
import random
import tempfile
from fractions import Fraction
from pathlib import Path

from harness import fresh_import, time_op_us, trace_model_apply
from workloads import (
    file_pipeline_item,
    structure_item,
    certificate_pairs,
    check_under,
    radical_templates,
    structure_models,
)

OPERANDS = 24  # operand pairs (and singles) per kernel microbenchmark


def _distinct(values, limit: int = OPERANDS) -> list:
    out = []
    for value in values:
        if not any(value == seen for seen in out):
            out.append(value)
            if len(out) == limit:
                break
    return out


def _operands(groups: list[list]) -> tuple[list[tuple], list[tuple]]:
    """Pairs and singles of distinct operands, pairs drawn within one group
    (one gadget, so one tower: no product has to merge towers)."""
    pairs, singles = [], []
    for values in groups:
        pool = _distinct(values)
        if len(pool) > 1:
            pairs += zip(pool, pool[1:] + pool[:1])
        singles += [(x,) for x in pool]
    return pairs[:OPERANDS], singles[:OPERANDS]


# ---------------------------------------------------------------------------
# Tower kernels
# ---------------------------------------------------------------------------


def tower_kernels(m, seed: int) -> tuple[dict, list]:
    """Tower mul / inverse / sign at depths 0-4 and adjoin_sqrt, on the point
    coordinates and tower generators of the radical-build gadgets."""
    QQ = m.scalars.QQ
    built = [build() for _, _, build in radical_templates(m, random.Random(seed))]
    groups: dict[int, list[list]] = {d: [] for d in range(5)}
    for gadget in built:
        rational, radical = [], []
        for point in gadget.points.values():
            for coord in (point.x, point.y):
                if coord.is_zero():
                    continue
                if coord.is_rational():
                    rational.append(QQ.rational(coord.as_fraction()))
                else:
                    radical.append(coord)
        groups[0].append(rational)
        if gadget.tower.depth in groups:
            groups[gadget.tower.depth].append(radical)
    out: dict = {}
    for depth, lists in groups.items():
        pairs, singles = _operands(lists)
        if not pairs:
            return out, [f"no depth-{depth} operand pairs in the radical-build gadgets"]
        out[f"scalars.tower_mul_us.d{depth}"] = time_op_us(operator.mul, pairs)
        out[f"scalars.tower_inverse_us.d{depth}"] = time_op_us(lambda x: x.inverse(), singles)
        out[f"scalars.tower_sign_us.d{depth}"] = time_op_us(lambda x: x.sign(), singles)
    radicands = [(g.tower.prefix(j), g.tower.gens[j]) for g in built for j in range(g.tower.depth)]
    out["scalars.adjoin_sqrt_us"] = time_op_us(m.scalars.adjoin_sqrt, radicands)
    return out, []


# ---------------------------------------------------------------------------
# K(eps) kernels, determinants, the layer sweep, the suite and the CLI
# ---------------------------------------------------------------------------


def kempe_matrices(poly):
    """The four bordered squared-distance matrices of the linkage rule, with
    the constant and factors each determinant must equal."""
    a, b, c, d, e = poly.variables("a b c d e")
    m1 = [[0, 1, 1, 1, 1], [1, 0, 16, e, 9], [1, 16, 0, c, 1], [1, e, c, 0, 1], [1, 9, 1, 1, 0]]
    m2 = [[0, 1, 1, 1, 1], [1, 0, 16, b, 9], [1, 16, 0, 4, 1], [1, b, 4, 0, d], [1, 9, 1, d, 0]]
    m3 = [[0, 1, 1, 1, 1], [1, 0, 16, 4 * d, 16], [1, 16, 0, 4, a], [1, 4 * d, 4, 0, 4], [1, 16, a, 4, 0]]
    m4 = [[0, 1, 1, 1, 1], [1, 0, 4, c, 1], [1, 4, 0, 4, d], [1, c, 4, 0, 1], [1, 1, d, 1, 0]]
    return [
        (m1, -2, [(e - 16 + 3 * c, 2)]),
        (m2, -2, [(b - 4 * d, 2)]),
        (m3, -8, [a, a * d + 4 * (d * d - 10 * d + 9)]),
        (m4, -2, [c, c * d + d * d - 10 * d + 9]),
    ]


def _rational(rng: random.Random) -> Fraction:
    return Fraction(rng.randint(-30, 30), rng.randint(1, 12))


def fun_kernels(m) -> dict:
    """FunElem add / mul / eq on eps-rotation image coordinates of the corpus."""
    eps = m.models.eps_rotation_model()
    images = []
    for entry in m.suite.replay_corpus():
        coords = []
        for point in entry.gadget.points.values():
            image = eps.apply(point)
            coords += [x for x in (image.x, image.y) if not x.is_constant()]
        images.append(coords)
    pairs, _ = _operands(images)
    return {
        "scalars.fun_add_us": time_op_us(operator.add, pairs),
        "scalars.fun_mul_us": time_op_us(operator.mul, pairs),
        # equal values held by distinct objects, so the comparison runs in full
        "scalars.fun_eq_us": time_op_us(operator.eq, [(x + y, y + x) for x, y in pairs]),
    }


def determinant_kernels(m, seed: int) -> tuple[dict, list]:
    rng = random.Random(seed)
    out, failures = {}, []
    checks = kempe_matrices(m.poly)
    out["poly.det_ms"] = time_op_us(m.poly.det, [(matrix,) for matrix, _, _ in checks]) / 1000.0
    identities = [(m.poly.det(matrix), constant, factors) for matrix, constant, factors in checks]
    if not all(m.poly.identity_check(*args) for args in identities):
        failures.append("a linkage determinant identity does not hold")
    out["poly.identity_check_ms"] = time_op_us(m.poly.identity_check, identities) / 1000.0
    quads = []
    for _ in range(64):
        pts = [(_rational(rng), _rational(rng)) for _ in range(4)]
        quads.append(
            tuple(
                (pts[i][0] - pts[j][0]) ** 2 + (pts[i][1] - pts[j][1]) ** 2
                for i in range(4)
                for j in range(i + 1, 4)
            )
        )
    out["cm.cm4_us"] = time_op_us(m.cm.cm4, quads)
    triples = [tuple(m.cm.rational_point(_rational(rng), _rational(rng)) for _ in range(3)) for _ in range(64)]
    out["cm.affinely_dependent3_us"] = time_op_us(m.cm.affinely_dependent3, triples)
    return out, failures


def layer_sweep(m, tracer) -> list[str]:
    """One small input through every spanned layer: each gadget kind through
    the file pipeline, every model kind through check and preservation, and
    structure checks into a tower and into K(eps)."""
    with trace_model_apply(m, tracer):
        return _sweep(m, tracer)


def _sweep(m, tracer) -> list[str]:
    pt, g, models = m.cm.rational_point, m.gadgets, m.models
    builds = (
        ("division", lambda: g.build_division(pt(0, 0), pt(1, 0), Fraction(1, 3))),
        ("chain", lambda: g.build_rhombus_chain(pt(0, 0), pt(2, 0), pt(0, 1), pt(2, 1))),
        ("bridge", lambda: g.build_translation_bridge(pt(0, 0), pt(3, 0), pt(1, 1), pt(4, 1))),
        ("kempe", lambda: g.build_kempe(Fraction(1))),
        ("perp", lambda: g.build_perp_transfer(pt(0, 0), pt(0, Fraction(12, 5)), pt(0, 0), pt(4, 0))),
    )
    failures = []
    for kind, build in builds:
        outcome = file_pipeline_item(m, kind, build)(tracer)
        if not outcome.ok:
            failures.append(f"sweep {kind}: {outcome.message}")
    gadget = g.build_division(pt(0, 0), pt(1, 0), Fraction(1, 3))  # one generator, so it conjugates
    derivation = m.engine.replay(gadget)
    rotation = models.make_pythagorean_rotation(Fraction(1, 2))
    for kind, model in (
        ("conjugation-rotation", models.ModelMap(models.conjugation_model(gadget.tower, 0).embedding, rotation)),
        ("eps-rotation", models.eps_rotation_model()),
        ("eps-reflection", models.eps_rotation_model(reflection=True)),
    ):
        ok, _, message = check_under(m, tracer, derivation, model, kind, certificate_pairs(gadget))
        if not ok:
            failures.append(f"sweep {message}")
    registered, lambdas, us = structure_models(m)
    for name, model, theta in registered[::2]:  # identity, eps-rotation, conjugation-rotation
        outcome = structure_item(m, model, lambdas[:2], us[:3], theta)(tracer)
        if not outcome.ok:
            failures.append(f"sweep structure x {name}: {outcome.message}")
    return failures


def suite_and_cli(src: Path, scratch: Path, seed: int, tracer) -> list[str]:
    """The nine acceptance criteria, then three subcommands on files written
    here, in freshly imported modules (so the corpus is built anew)."""
    failures = []
    fresh = fresh_import(src)
    for index, criterion in enumerate(fresh.suite.CRITERIA, start=1):
        with tracer.span(f"suite.criterion.c{index}"):
            result = criterion(seed)
        if not result.ok:
            failures.append(f"suite criterion {index} failed: {result.detail}")

    entry = next(e for e in fresh.suite.replay_corpus() if e.label.startswith("kempe"))
    scratch.mkdir(parents=True, exist_ok=True)
    with tempfile.TemporaryDirectory(dir=scratch, prefix="cli-") as tmp:
        gadget_path = Path(tmp) / "gadget.json"
        derivation_path = Path(tmp) / "derivation.json"
        gadget_path.write_text(fresh.codec.dumps(fresh.codec.encode_gadget(entry.gadget)) + "\n", encoding="utf-8")
        commands = (
            ("replay", ["replay", str(gadget_path), "-o", str(derivation_path)]),
            ("verify", ["verify", str(derivation_path)]),
            ("model-check", ["model-check", str(derivation_path), "--model", "eps-rotation"]),
        )
        for name, argv in commands:
            sink = io.StringIO()
            with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
                with tracer.span(f"cli.main.{name}"):
                    code = fresh.cli.main(argv)
            if code != 0:
                failures.append(f"cli {name} exited {code}: {sink.getvalue().strip()[-200:]}")
    return failures


def run_probes(m, seed: int, tracer, src: Path, scratch: Path) -> tuple[dict, list]:
    """Every probe; spans go to ``tracer``."""
    values, failures = tower_kernels(m, seed)
    values.update(fun_kernels(m))
    more, found = determinant_kernels(m, seed)
    values.update(more)
    failures += found
    failures += layer_sweep(m, tracer)
    failures += suite_and_cli(src, scratch, seed, tracer)
    return values, failures
