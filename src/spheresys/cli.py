"""Command-line interface.

Subcommands: validate, density, develop, systole, enumerate,
verify-paper, render.  Exit codes: 0 success, 1 claim failure, 2 input
error, 3 resource limit.  Floats print with 12 significant digits and
exact traces as integers or p/q, so outputs diff reproducibly.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import os
import sys
import time
from decimal import Decimal
from fractions import Fraction as Q

from . import fixtures
from .developing import SpanningTree, develop, generators, \
    check_cusp_parabolics, render_polygon
from .enumeration import (EnumerationQuery, enumerate_triangulations,
                          neighbor_lists, verify_proposition)
from .geodesics import (ResourceLimitError, check_diameter,
                        systole_combinatorial, systole_matrix_group)
from .modular import Frac, MoebiusMap, schmutz_bound, trace_to_length
from .triangulation import Triangulation

EXIT_OK = 0
EXIT_CLAIM = 1
EXIT_INPUT = 2
EXIT_RESOURCE = 3


class ClaimFailure(Exception):
    pass


def fmt_float(x: float) -> str:
    return f"{x:.12g}"


def fmt_trace(t) -> str:
    return str(Q(t))


def _json_default(obj):
    if isinstance(obj, MoebiusMap):
        return [str(e) for e in obj.entries()]
    if isinstance(obj, (Q, Frac)):
        return str(obj)
    if dataclasses.is_dataclass(obj):
        return {f.name: getattr(obj, f.name) for f in dataclasses.fields(obj)}
    raise TypeError(f"{type(obj).__name__} has no JSON form")


def to_json(obj) -> str:
    """The --json form of a report: a dataclass as its fields in
    declaration order, an exact number as p/q and a map as its four
    entry strings; TypeError on any other type json does not know."""
    return json.dumps(obj, indent=2, default=_json_default)


# -- input loading -------------------------------------------------------

# A generator entry or diameter longer than this, or with a decimal
# exponent beyond it, is refused before Fraction builds its exact value:
# "1e3000000" would be a 3-million-digit integer.
MAX_ENTRY_SIZE = 1000


def _exact(value, what: str, rule: str) -> Q:
    """A JSON number or numeric string as Fraction reads its text (0.1
    and "1/10" are 1/10).  Each refusal is a ValueError that starts with
    ``what``, and says a value that is not finite must be ``rule``."""
    if isinstance(value, float):         # JSON's NaN, Infinity and -Infinity
        raise ValueError(f"{what} must be {rule}, not {value}")
    text = str(value)
    try:
        exponent = abs(int(text.lower().partition("e")[2] or 0))
    except ValueError:
        exponent = 0             # not a decimal exponent; Fraction decides
    if len(text) > MAX_ENTRY_SIZE or exponent > MAX_ENTRY_SIZE:
        raise ValueError(f"{what} is longer than {MAX_ENTRY_SIZE} characters "
                         f"or has a larger exponent")
    try:
        if not isinstance(value, bool):  # Fraction would read true as 1
            return Q(value)
    except ZeroDivisionError:
        raise ValueError(f"{what} has denominator 0") from None
    except (TypeError, ValueError):      # null, a list, a dict or bad text
        pass
    raise ValueError(f"{what} must be a real number, not {value!r}: JSON "
                     f"numbers and numeric strings are read, booleans are not")


def parse_input(text: str):
    """A Triangulation from rotation text, or (generators, diameter|None)
    from generator JSON; every entry and the diameter is read by
    ``_exact``, and malformed input raises ValueError."""
    if not text.lstrip().startswith("{"):
        return Triangulation.from_text(text)
    data = json.loads(text, parse_float=Decimal)
    quads = data.get("generators") if isinstance(data, dict) else None
    if not isinstance(quads, dict) or not quads:
        raise ValueError('expected {"generators": {label: [a, b, c, d]}}'
                         " with at least one generator")
    gens = {}
    for lab, quad in quads.items():
        if not isinstance(quad, list) or len(quad) != 4:
            raise ValueError(f"generator {lab!r}: expected four entries")
        entries = [_exact(x, f"generator {lab!r}: an entry", "finite")
                   for x in quad]
        try:
            gens[lab] = MoebiusMap(*entries)
        except ValueError as exc:        # the determinant is not 1
            raise ValueError(f"generator {lab!r}: {exc}") from None
    if (diameter := data.get("diameter")) is not None:
        diameter = _exact(diameter, "diameter", "finite and >= 0")
        check_diameter(diameter)
    return gens, diameter


def load_input(spec: str, check: bool = True):
    """Load a fixture:NAME or a file; see parse_input for the result.

    A triangulation file that is not a valid sphere triangulation raises
    ValueError naming its diagnostics, unless ``check`` is False (the
    validate command reports them itself).  Every error but an unreadable
    file's is prefixed with the file name.
    """
    if spec.startswith("fixture:"):
        name = spec.split(":", 1)[1]
        if name in fixtures.GRAPHS:
            return fixtures.GRAPHS[name]()
        if name in fixtures.GENERATOR_SETS:
            return fixtures.generator_set(name)
        names = sorted(fixtures.GRAPHS) + sorted(fixtures.GENERATOR_SETS)
        raise ValueError(f"unknown fixture {name!r}; "
                         f"choices: {', '.join(names)}")
    try:
        with open(spec) as fh:
            loaded = parse_input(fh.read())
        if check and isinstance(loaded, Triangulation):
            loaded.require_valid()
    except OSError as exc:
        raise ValueError(str(exc))
    except ValueError as exc:
        raise ValueError(f"{spec}: {exc}")
    return loaded


def load_triangulation(spec: str, check: bool = True) -> Triangulation:
    loaded = load_input(spec, check)
    if not isinstance(loaded, Triangulation):
        raise ValueError(f"{spec}: a generator set, not a triangulation")
    return loaded


def _vertex_pair(spec: str, what: str):
    try:
        u, v = spec.split("-")
        return int(u), int(v)
    except ValueError:
        raise ValueError(f"bad {what} {spec!r}; expected u-v")


def parse_tree(g: Triangulation, spec: str) -> SpanningTree:
    return SpanningTree.from_vertex_pairs(
        g, [_vertex_pair(part, "tree edge") for part in spec.split(",")])


def parse_seed(g: Triangulation, tree: SpanningTree, spec: str):
    u, v = _vertex_pair(spec, "seed edge")
    for e in tree.terminal_edges():
        if set(g.edge_endpoints(e)) == {u, v}:
            return e, min(g.face_of_dart[d] for d in g.edges[e])
    raise ValueError(f"{spec} is not a terminal edge of the spanning tree")


# -- subcommands ---------------------------------------------------------

def cmd_validate(args, out):
    g = load_triangulation(args.input, check=False)
    report = g.validate()
    if args.json:
        out(to_json(report))
    else:
        out(f"ok: {report.ok}")
        out(f"degrees: {' '.join(str(d) for d in report.degrees)}")
        out(f"regular: {report.regular}")
        for diag in report.diagnostics:
            out(f"diagnostic: {diag}")
    if not report.ok:
        raise ValueError("triangulation is invalid")
    return EXIT_OK


def cmd_density(args, out):
    g = load_triangulation(args.input)
    dens = g.density()
    if args.json:
        out(to_json(dens))
    else:
        for e, d in enumerate(dens.densities):
            u, v = g.edge_endpoints(e)
            out(f"edge {e} ({u},{v}): density {d}")
        out(f"min density {dens.min_density} at edge {dens.witness_edge}")
    return EXIT_OK


def _build_development(args):
    g = load_triangulation(args.input)
    tree = parse_tree(g, args.tree) if args.tree else SpanningTree.bfs_tree(g)
    seed = parse_seed(g, tree, args.seed_edge) if args.seed_edge else None
    return develop(g, tree, seed=seed)


def cmd_develop(args, out):
    dev = _build_development(args)
    ok = check_cusp_parabolics(dev)
    if args.json:
        fields = dict(vars(dev), generators=generators(dev),
                      cusp_parabolics_ok=ok)
        out(to_json({key: fields[key] for key in (
            "seed", "polygon", "corner_labels", "side_pairings",
            "cusp_generators", "generators", "cusp_parabolics_ok")}))
    else:
        out("polygon: " + " ".join(str(x) for x in dev.polygon))
        for e, m in sorted(dev.side_pairings.items()):
            out(f"pairing edge {e}: {m}")
        for v, m in sorted(dev.cusp_generators.items()):
            out(f"cusp {v}: {m}")
        out(f"cusp parabolic check: {'pass' if ok else 'FAIL'}")
    if not ok:
        raise ClaimFailure("cusp parabolic check failed")
    return EXIT_OK


def cmd_render(args, out):
    dev = _build_development(args)
    svg = render_polygon(dev)
    if args.output:
        try:
            with open(args.output, "w") as fh:
                fh.write(svg)
        except OSError as exc:
            raise ValueError(str(exc))
    else:
        out(svg)
    return EXIT_OK


def cmd_systole(args, out):
    loaded = load_input(args.input)
    if isinstance(loaded, Triangulation):
        length, witnesses = systole_combinatorial(loaded, args.trace_bound)
        if args.json:
            out(to_json({"systole": length, "witnesses": witnesses}))
        else:
            out(f"systole {fmt_float(length)}")
            for w in witnesses:
                out(f"word {''.join(w.word)} trace {fmt_trace(w.trace)} "
                    f"length {fmt_float(w.length)}")
        return EXIT_OK

    gens, diameter = loaded
    bound = Q(args.trace_bound) if args.trace_bound is not None else Q(18)
    report = systole_matrix_group(gens, bound, diameter=diameter)
    if args.json:
        out(to_json(report))
    else:
        out(f"trace bound {fmt_trace(report.trace_bound)} "
            f"horizon {fmt_float(report.horizon)} "
            f"states {report.states_explored} "
            f"certified {report.frontier_exhausted}")
        for w in report.witnesses:
            word = " ".join(f"{lab}^{exp}" if exp != 1 else str(lab)
                            for lab, exp in w.word)
            out(f"word {word} trace {fmt_trace(w.trace)} "
                f"length {fmt_float(w.length)}")
        if not report.witnesses:
            above = report.min_trace_above_bound
            out("no elements at or below the bound"
                + (f"; minimum above: {fmt_trace(above)}" if above else ""))
    if not report.frontier_exhausted and diameter is not None:
        raise ClaimFailure("search frontier not exhausted")
    return EXIT_OK


def cmd_enumerate(args, out):
    q = EnumerationQuery(n=args.n, min_degree=args.min_degree)
    if args.count_only:
        count = sum(1 for _ in neighbor_lists(q))
        out(str(count))
    else:
        for t in enumerate_triangulations(q):
            out(t.to_text())
    return EXIT_OK


# -- verify-paper --------------------------------------------------------
#
# One function per kind of check.  Each takes a PAPER_CLAIMS row's
# arguments, the paper's published values last, and returns (ok, detail).

def _max_min_density(n, value):
    """Exhaustive over simple triangulations: the largest min density and
    the systole of each extremal class, which must have trace exactly
    D - 2.  The degenerate maps are only the constructed ones, each shown
    with its exact systole trace."""
    report = verify_proposition(n)
    got = report["regular_max_min_density"]
    systoles = ", ".join(f"{trace} ({count} witnesses)"
                         for trace, count in report["extremal_systoles"])
    maps = ", ".join(f"{name} {trace}"
                     for name, trace, _ in report["degenerate_checks"])
    return (got == value and report["extremal_ok"] and report["degenerate_ok"],
            f"max-min density {got} (expected {value}) over simple "
            f"triangulations, {report['extremal_count']} extremal; "
            f"extremal systole traces: {systoles}, so the largest systole "
            f"over simple triangulations is "
            f"{fmt_float(trace_to_length(got - 2))}; "
            f"constructed degenerate maps by systole trace: {maps}")


def _systole(graph, trace, count, schmutz_n=None):
    length, witnesses = systole_combinatorial(fixtures.GRAPHS[graph]())
    ok = (abs(length - trace_to_length(trace)) < 1e-12
          and len(witnesses) == count)
    detail = f"length {fmt_float(length)}, {len(witnesses)} witnesses"
    if schmutz_n is not None:
        ok = ok and abs(length - schmutz_bound(schmutz_n)) < 1e-12
        detail += f", meets schmutz_bound({schmutz_n})"
    return ok, detail


def _determinants(gens, det):
    ok = all(m.a * m.d - m.b * m.c == det for m in gens.values())
    return ok, f"{len(gens)} matrices, all determinant {det}"


def _word_traces(gens, words, values, above=None):
    """The |trace| of each word: as a set, equal to the exact values; or,
    given printed strings, rounded to 4 decimals and equal to them as a
    multiset.  With ``above``, every |trace| exceeds it."""
    traces = [abs(fixtures.word_matrix(gens, w).trace) for w in words]
    if isinstance(values[0], str):
        shown = sorted(f"{float(t):.4f}" for t in traces)
        ok = shown == sorted(values)
    else:
        shown = [fmt_trace(t) for t in sorted(set(traces))]
        ok = set(traces) == set(values)
    detail = f"{len(words)} words, |trace| {', '.join(shown)}"
    if above is not None:
        ok = ok and all(t > above for t in traces)
        detail += f", all above {above}"
    return ok, detail


def _basis_words(gens, words, rank):
    """Generators rank + 1, rank + 2, ... equal ``words`` in order, each
    a word in generators 1..rank, which thus generate the group."""
    ok = all(max(lab for lab, _ in w) <= rank
             and fixtures.word_matrix(gens, w) == gens[rank + 1 + i]
             for i, w in enumerate(words))
    return ok, (f"generators {rank + 1}-{rank + len(words)} are words in "
                f"generators 1-{rank}")


def _certified_sweep(gens_name, bound, classes):
    """A certified matrix-group sweep finds exactly ``classes`` classes,
    each of |trace| ``bound``."""
    gens, diam = fixtures.generator_set(gens_name)
    report = systole_matrix_group(gens, bound, diameter=diam)
    found = report.witnesses
    ok = (report.frontier_exhausted and len(found) == classes
          and all(abs(w.trace) == bound for w in found))
    detail = (f"bound {bound}, diameter {fmt_float(diam)}, "
              f"horizon {fmt_float(report.horizon)}, "
              f"{report.states_explored} states, "
              f"{len(found)} classes of |trace| {bound}")
    if report.min_trace_above_bound is not None:
        detail += f", minimum above: {fmt_trace(report.min_trace_above_bound)}"
    return ok, detail


def _gamma5_correction(printed_d, printed_det):
    """GAMMA10[5] as printed, with d = printed_d, has determinant
    printed_det; the stored matrix has d = -printed_d and determinant 1."""
    m = fixtures.GAMMA10[5]
    det = m.a * printed_d - m.b * m.c
    ok = (det == printed_det and m.d == -printed_d
          and m.a * m.d - m.b * m.c == 1)
    return ok, (f"published entry d={printed_d} has determinant {det}; "
                f"stored d={m.d} has determinant 1")


def _schmutz_equality(n, x, y):
    lhs, rhs = 4 * math.acosh(x), 2 * math.acosh(y)
    ok = abs(lhs - schmutz_bound(n)) < 1e-12 and abs(lhs - rhs) < 1e-12
    return ok, f"4 arccosh({x}) = 2 arccosh({y}) = {fmt_float(lhs)}"


def _polygon(dev_name, vertices):
    g, tree, seed = fixtures.named_development(dev_name)
    got = [str(x) for x in develop(g, tree, seed=seed).polygon]
    return got == vertices, "polygon " + " ".join(got)


# (name, selectors, check, *args); `verify-paper SELECTOR` runs the rows
# whose selectors contain SELECTOR, in this order.
PAPER_CLAIMS = [
    *((f"density-n{n}", {f"n={n}"}, _max_min_density, n, value)
      for n, value in {4: 9, 5: 12, 6: 16, 7: 16, 8: 18, 9: 20, 10: 20,
                       11: 20, 12: 25}.items()),
    ("schmutz-equality-n12", {"n=12"}, _schmutz_equality, 12,
     Q(5, 2), Q(23, 2)),
    ("systole-tetrahedron", {"n=4"}, _systole, "tetrahedron", 7, 3, 4),
    ("systole-octahedron", {"n=6"}, _systole, "octahedron", 14, 12, 6),
    ("systole-icosahedron", {"n=12"}, _systole, "icosahedron", 23, 30, 12),
    ("systole-ten-cusp", {"n=10"}, _systole, "ten", 18, 8),
    ("systole-eleven-cusp", {"n=11"}, _systole, "eleven", 18, 6),
    ("a7-determinants", {"a7", "n=7"}, _determinants, fixtures.A7, 1),
    ("a7-word-traces", {"a7", "n=7"}, _word_traces, fixtures.A7,
     fixtures.SEVEN_CUSP_TRACE14_WORDS, [14]),
    ("b7-perturbed-traces", {"b7", "n=7"}, _word_traces, fixtures.B7,
     fixtures.SEVEN_CUSP_TRACE14_WORDS,
     ["14.0364", "14.0364", "14.0037", "14.0071", "14.0211"], 14),
    ("gamma10-determinants", {"gamma10", "n=10"}, _determinants,
     fixtures.GAMMA10, 1),
    ("gamma5-correction", {"gamma10", "gamma5-n10", "n=10"},
     _gamma5_correction, 14, 449),
    ("gamma10-word-traces", {"gamma10", "n=10"}, _word_traces,
     fixtures.GAMMA10, fixtures.TEN_CUSP_SYSTOLE_WORDS, [18]),
    ("alpha10-perturbed-traces", {"alpha10", "n=10"}, _word_traces,
     fixtures.ALPHA10, fixtures.TEN_CUSP_SYSTOLE_WORDS, [Q(45399, 2500)]),
    ("alpha10-certified-absence", {"alpha10", "n=10"}, _certified_sweep,
     "alpha10", 18, 0),
    ("gamma11-determinants", {"gamma11", "n=11"}, _determinants,
     fixtures.GAMMA11, 1),
    ("gamma11-word-traces", {"gamma11", "n=11"}, _word_traces,
     fixtures.GAMMA11, fixtures.ELEVEN_CUSP_SYSTOLE_WORDS, [18]),
    ("gamma11-basis", {"gamma11", "n=11"}, _basis_words, fixtures.GAMMA11,
     fixtures.ELEVEN_CUSP_BASIS_WORDS, 10),
    ("gamma11-systole-classes", {"gamma11", "n=11"}, _certified_sweep,
     "gamma11", 18, 6),
    ("alpha11-perturbed-traces", {"alpha11", "n=11"}, _word_traces,
     fixtures.ALPHA11, fixtures.ELEVEN_CUSP_SYSTOLE_WORDS,
     [Q(36361, 2020), Q(454, 25)], 18),
    ("alpha11-basis", {"alpha11", "n=11"}, _basis_words, fixtures.ALPHA11,
     fixtures.ELEVEN_CUSP_BASIS_WORDS, 10),
    ("alpha11-certified-absence", {"alpha11", "n=11"}, _certified_sweep,
     "alpha11", 18, 0),
    ("example2-polygon", {"example2", "n=10"}, _polygon, "ten-compact", [
        "0/1", "1/2", "1/1", "3/2", "2/1", "7/3", "5/2", "3/1", "10/3",
        "7/2", "18/5", "29/8", "11/3", "4/1", "9/2", "14/3", "5/1", "1/0"]),
]


def cmd_verify_paper(args, out):
    rows = [row for row in PAPER_CLAIMS
            if args.selector == "all" or args.selector in row[1]]
    if not rows:
        raise ValueError(f"unknown selector {args.selector!r}")
    results = []
    for name, _, check, *values in rows:
        start = time.perf_counter()
        ok, detail = check(*values)
        results.append({"claim": name, "ok": ok, "detail": detail,
                        "seconds": round(time.perf_counter() - start, 3)})
    if args.json:
        out(to_json(results))
    else:
        for r in results:
            out(f"{'PASS' if r['ok'] else 'FAIL'} {r['claim']} "
                f"({r['seconds']:.2f} s): {r['detail']}")
    if not all(r["ok"] for r in results):
        raise ClaimFailure("some claims failed")
    return EXIT_OK


# -- entry point ---------------------------------------------------------

def build_parser():
    parser = argparse.ArgumentParser(
        prog="spheresys",
        description="Cusped hyperbolic spheres from planar triangulations")
    parser.add_argument("--json", action="store_true",
                        help="machine-readable output")
    sub = parser.add_subparsers(dest="command", required=True)
    development = argparse.ArgumentParser(add_help=False)
    development.add_argument("input")
    development.add_argument("--tree", help="spanning tree as u-v,u-v,...")
    development.add_argument("--seed-edge", help="terminal tree edge as u-v")

    p = sub.add_parser("validate", help="check a triangulation file")
    p.add_argument("input")
    p.set_defaults(fn=cmd_validate)

    p = sub.add_parser("density", help="edge density table")
    p.add_argument("input")
    p.set_defaults(fn=cmd_density)

    p = sub.add_parser("develop", parents=[development],
                       help="fundamental polygon and pairings")
    p.set_defaults(fn=cmd_develop)

    p = sub.add_parser("systole",
                       help="systole of a triangulation or generator set")
    p.add_argument("input",
                   help="triangulation file, generator JSON, or fixture:NAME")
    p.add_argument("--trace-bound", type=int)
    p.set_defaults(fn=cmd_systole)

    p = sub.add_parser("enumerate", help="stream triangulation classes")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--min-degree", type=int, default=3)
    p.add_argument("--count-only", action="store_true")
    p.set_defaults(fn=cmd_enumerate)

    p = sub.add_parser("verify-paper", help="run the published-claim suite")
    p.add_argument("selector", nargs="?", default="all",
                   help="all | n=K | fixture name")
    p.set_defaults(fn=cmd_verify_paper)

    p = sub.add_parser("render", parents=[development],
                       help="SVG of the developed polygon")
    p.add_argument("-o", "--output")
    p.set_defaults(fn=cmd_render)
    return parser


def _out(line=None):
    """Print a line as it is made (None: flush).  Once the reader has
    closed the pipe, the rest goes to devnull and the command runs on, so
    its exit code and error message are kept."""
    try:
        if line is None:
            sys.stdout.flush()
        else:
            print(line)
    except BrokenPipeError:
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    message = None
    try:
        code = args.fn(args, _out)
    except ValueError as exc:
        code, message = EXIT_INPUT, f"error: {exc}"
    except ClaimFailure as exc:
        code, message = EXIT_CLAIM, f"failure: {exc}"
    except ResourceLimitError as exc:
        code, message = EXIT_RESOURCE, f"resource limit: {exc}"
    _out()
    if message is not None:
        print(message, file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
