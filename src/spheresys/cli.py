"""Command-line interface.

Subcommands: validate, density, develop, systole, enumerate,
verify-paper, render.  Exit codes: 0 success, 1 claim failure, 2 input
error, 3 resource limit.  Floats print with 12 significant digits and
exact traces as integers or p/q, so outputs diff reproducibly.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from fractions import Fraction as Q

from . import fixtures
from .developing import SpanningTree, develop, generators, \
    check_cusp_parabolics, render_polygon
from .enumeration import (EnumerationQuery, ResourceLimitError,
                          enumerate_triangulations, max_min_density,
                          verify_proposition)
from .geodesics import (polygon_diameter_proxy, systole_combinatorial,
                        systole_matrix_group)
from .modular import MoebiusMap, schmutz_bound, trace_to_length
from .triangulation import (Triangulation, icosahedron, octahedron,
                            tetrahedron)

EXIT_OK = 0
EXIT_CLAIM = 1
EXIT_INPUT = 2
EXIT_RESOURCE = 3


class InputError(Exception):
    pass


class ClaimFailure(Exception):
    pass


def fmt_float(x: float) -> str:
    return f"{x:.12g}"


def fmt_trace(t) -> str:
    return str(Q(t))


# -- input loading -------------------------------------------------------

NAMED_GRAPHS = {
    "tetrahedron": tetrahedron,
    "octahedron": octahedron,
    "icosahedron": icosahedron,
    "seven": fixtures.seven_cusp_graph,
    "ten": fixtures.ten_cusp_graph,
    "eleven": fixtures.eleven_cusp_graph,
}

# generator fixtures with the development whose polygon supplies the
# certified search diameter
NAMED_GENERATOR_SETS = {
    "a7": ("seven", lambda: fixtures.A7),
    "b7": ("seven", lambda: fixtures.B7),
    "gamma10": ("ten-long", lambda: fixtures.GAMMA10),
    "alpha10": ("ten-long", lambda: fixtures.ALPHA10),
    "gamma11": ("eleven", lambda: fixtures.GAMMA11),
    "alpha11": ("eleven", lambda: fixtures.ALPHA11),
}


def fixture_diameter(dev_name: str) -> float:
    """Certified search diameter from a named published development."""
    g, tree, seed = fixtures.named_development(dev_name)
    return polygon_diameter_proxy(develop(g, tree, seed=seed))


def parse_input(text: str):
    """A Triangulation from rotation text, or (generators, diameter|None)
    from generator JSON; malformed input raises InputError."""
    try:
        if not text.lstrip().startswith("{"):
            return Triangulation.from_text(text)
        data = json.loads(text)
        quads = data.get("generators") if isinstance(data, dict) else None
        if not isinstance(quads, dict):
            raise ValueError('expected {"generators": {label: [a, b, c, d]}}')
        gens = {}
        for lab, quad in quads.items():
            if not isinstance(quad, list) or len(quad) != 4:
                raise ValueError(f"generator {lab!r}: expected four entries")
            try:
                gens[lab] = MoebiusMap.from_json(quad)
            except (TypeError, ZeroDivisionError, OverflowError) as exc:
                raise ValueError(f"generator {lab!r}: {exc}")
    except ValueError as exc:
        raise InputError(exc)
    return gens, data.get("diameter")


def load_input(spec: str):
    """Load a fixture:NAME or a file; see parse_input for the result."""
    if spec.startswith("fixture:"):
        name = spec.split(":", 1)[1]
        if name in NAMED_GRAPHS:
            return NAMED_GRAPHS[name]()
        if name in NAMED_GENERATOR_SETS:
            dev_name, getter = NAMED_GENERATOR_SETS[name]
            return getter(), fixture_diameter(dev_name)
        names = sorted(NAMED_GRAPHS) + sorted(NAMED_GENERATOR_SETS)
        raise InputError(f"unknown fixture {name!r}; "
                         f"choices: {', '.join(names)}")
    try:
        with open(spec) as fh:
            text = fh.read()
    except OSError as exc:
        raise InputError(str(exc))
    try:
        return parse_input(text)
    except InputError as exc:
        raise InputError(f"{spec}: {exc}")


def load_triangulation(spec: str) -> Triangulation:
    loaded = load_input(spec)
    if not isinstance(loaded, Triangulation):
        raise InputError(f"{spec}: a generator set, not a triangulation")
    return loaded


def parse_tree(g: Triangulation, spec: str) -> SpanningTree:
    pairs = []
    for part in spec.split(","):
        try:
            u, v = part.split("-")
            pairs.append((int(u), int(v)))
        except ValueError:
            raise InputError(f"bad tree edge {part!r}; expected u-v")
    try:
        return SpanningTree.from_vertex_pairs(g, pairs)
    except ValueError as exc:
        raise InputError(str(exc))


def parse_seed(g: Triangulation, tree: SpanningTree, spec: str):
    try:
        u, v = (int(x) for x in spec.split("-"))
    except ValueError:
        raise InputError(f"bad seed edge {spec!r}; expected u-v")
    for e in tree.terminal_edges():
        if set(g.edge_endpoints(e)) == {u, v}:
            face = next(f for f in range(g.n_faces)
                        if e in {g.edge_of_dart[d] for d in g.faces[f]})
            return e, face
    raise InputError(f"{spec} is not a terminal edge of the spanning tree")


# -- subcommands ---------------------------------------------------------

def cmd_validate(args, out):
    g = load_triangulation(args.input)
    report = g.validate()
    if args.json:
        out(json.dumps({
            "ok": report.ok, "diagnostics": report.diagnostics,
            "degrees": report.degrees, "regular": report.regular,
            "has_loops": report.has_loops,
            "has_duplicate_edges": report.has_duplicate_edges,
        }, indent=2))
    else:
        out(f"ok: {report.ok}")
        out(f"degrees: {' '.join(str(d) for d in report.degrees)}")
        out(f"regular: {report.regular}")
        for diag in report.diagnostics:
            out(f"diagnostic: {diag}")
    if not report.ok:
        raise InputError("triangulation is invalid")
    return EXIT_OK


def cmd_density(args, out):
    g = load_triangulation(args.input)
    dens = g.density()
    if args.json:
        out(json.dumps({"densities": dens.densities,
                        "min_density": dens.min_density,
                        "witness_edge": dens.witness_edge}, indent=2))
    else:
        for e, d in enumerate(dens.densities):
            u, v = g.edge_endpoints(e)
            out(f"edge {e} ({u},{v}): density {d}")
        out(f"min density {dens.min_density} at edge {dens.witness_edge}")
    return EXIT_OK


def _build_development(args):
    g = load_triangulation(args.input)
    if not g.validate().ok:
        raise InputError("triangulation is invalid")
    tree = parse_tree(g, args.tree) if args.tree else None
    seed = None
    if args.seed_edge:
        if tree is None:
            tree = SpanningTree.bfs_tree(g)
        seed = parse_seed(g, tree, args.seed_edge)
    return develop(g, tree, seed=seed)


def cmd_develop(args, out):
    dev = _build_development(args)
    ok = check_cusp_parabolics(dev)
    if args.json:
        obj = dev.to_json_obj()
        obj["generators"] = [m.to_json() for m in generators(dev)]
        obj["cusp_parabolics_ok"] = ok
        out(json.dumps(obj, indent=2))
    else:
        out("polygon: " + " ".join(str(x) for x in dev.polygon))
        for e, m in sorted(dev.side_pairings.items()):
            out(f"pairing edge {e}: {m}")
        for v, m in sorted(dev.cusp_generators.items()):
            out(f"cusp {v}: {m}")
        out(f"cusp parabolic check: {'pass' if ok else 'FAIL'}")
    if args.svg:
        with open(args.svg, "w") as fh:
            fh.write(render_polygon(dev))
    if not ok:
        raise ClaimFailure("cusp parabolic check failed")
    return EXIT_OK


def cmd_render(args, out):
    dev = _build_development(args)
    svg = render_polygon(dev)
    if args.output:
        with open(args.output, "w") as fh:
            fh.write(svg)
    else:
        out(svg)
    return EXIT_OK


def cmd_systole(args, out):
    loaded = load_input(args.input)
    if isinstance(loaded, Triangulation):
        g = loaded
        if not g.validate().ok:
            raise InputError("triangulation is invalid")
        length, witnesses = systole_combinatorial(g, args.trace_bound)
        if args.json:
            out(json.dumps({
                "systole": length,
                "witnesses": [w.to_json_obj() for w in witnesses]}, indent=2))
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
        out(json.dumps({
            "trace_bound": fmt_trace(report.trace_bound),
            "diameter": report.diameter,
            "horizon": report.horizon,
            "states_explored": report.states_explored,
            "frontier_exhausted": report.frontier_exhausted,
            "min_trace_above_bound":
                None if report.min_trace_above_bound is None
                else fmt_trace(report.min_trace_above_bound),
            "witnesses": [w.to_json_obj() for w in report.witnesses],
        }, indent=2))
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
        count = sum(1 for _ in enumerate_triangulations(q))
        out(str(count))
    else:
        for t in enumerate_triangulations(q):
            out(t.to_text())
    return EXIT_OK


# -- verify-paper --------------------------------------------------------

def _claim_density(n):
    def run():
        report = verify_proposition(n)
        ok = report["regular_ok"] and report["degenerate_ok"]
        return ok, (f"max-min density {report['regular_max_min_density']} "
                    f"(expected {report['expected']}), "
                    f"{report['extremal_count']} extremal")
    return run


def _claim_systole(name, graph_fn, trace, count, schmutz_n=None):
    def run():
        length, witnesses = systole_combinatorial(graph_fn())
        ok = (abs(length - trace_to_length(trace)) < 1e-12
              and len(witnesses) == count)
        detail = f"length {fmt_float(length)}, {len(witnesses)} witnesses"
        if schmutz_n is not None:
            ok = ok and abs(length - schmutz_bound(schmutz_n)) < 1e-12
            detail += f", meets schmutz_bound({schmutz_n})"
        return ok, detail
    return run


def _claim_fixture_dets(gens_name):
    def run():
        _, getter = NAMED_GENERATOR_SETS[gens_name]
        gens = getter()
        ok = all(m.a * m.d - m.b * m.c == 1 for m in gens.values())
        return ok, f"{len(gens)} matrices, all determinant 1"
    return run


def _claim_gamma5_correction():
    def run():
        printed = Q(16) * Q(14) - Q(-45) * Q(5)
        stored = fixtures.GAMMA10[5]
        ok = (printed == 449
              and stored.a * stored.d - stored.b * stored.c == 1
              and stored.d == -14)
        return ok, ("published entry d=14 has determinant 449; "
                    "stored d=-14 has determinant 1")
    return run


def _claim_word_traces(gens_getter, words, expected_abs):
    def run():
        gens = gens_getter()
        traces = [abs(fixtures.word_matrix(gens, w).trace) for w in words]
        ok = all(t == expected_abs for t in traces)
        return ok, f"{len(words)} words, |trace| {fmt_trace(expected_abs)}"
    return run


def _claim_seven_perturbed():
    def run():
        traces = [abs(fixtures.word_matrix(fixtures.B7, w).trace)
                  for w in fixtures.SEVEN_CUSP_TRACE14_WORDS]
        got = sorted(f"{float(t):.4f}" for t in traces)
        want = sorted(fixtures.SEVEN_CUSP_PERTURBED_TRACES)
        ok = got == want and all(t > 14 for t in traces)
        return ok, "perturbed traces round to " + ", ".join(want)
    return run


def _claim_ten_perturbed():
    def run():
        traces = {abs(fixtures.word_matrix(fixtures.ALPHA10, w).trace)
                  for w in fixtures.TEN_CUSP_SYSTOLE_WORDS}
        ok = (len(traces) == 1
              and f"{-float(next(iter(traces))):.4f}" == "-18.1596")
        return ok, f"shared exact trace {fmt_trace(next(iter(traces)))}"
    return run


def _claim_eleven_perturbed():
    def run():
        traces = [abs(fixtures.word_matrix(fixtures.ALPHA11, w).trace)
                  for w in fixtures.ELEVEN_CUSP_SYSTOLE_WORDS]
        ok = (sorted(set(traces)) == [Q(36361, 2020), Q(454, 25)]
              and all(t > 18 for t in traces))
        return ok, "minima 454/25 and 36361/2020, both above 18"
    return run


def _claim_certified_absence(gens_name):
    def run():
        dev_name, getter = NAMED_GENERATOR_SETS[gens_name]
        diam = fixture_diameter(dev_name)
        report = systole_matrix_group(getter(), 18, diameter=diam)
        ok = report.frontier_exhausted and not report.witnesses
        return ok, (f"bound 18, diameter {fmt_float(diam)}, "
                    f"horizon {fmt_float(report.horizon)}, "
                    f"{report.states_explored} states, "
                    f"minimum above: {fmt_trace(report.min_trace_above_bound)}")
    return run


def _claim_eleven_arithmetic_classes():
    def run():
        diam = fixture_diameter("eleven")
        report = systole_matrix_group(fixtures.GAMMA11, 18, diameter=diam)
        ok = (report.frontier_exhausted and len(report.witnesses) == 6
              and all(abs(w.trace) == 18 for w in report.witnesses))
        return ok, f"{len(report.witnesses)} classes of |trace| 18"
    return run


def _claim_twelve_bound_equality():
    def run():
        lhs = 4 * math.acosh(2.5)
        rhs = 2 * math.acosh(11.5)
        return (abs(lhs - schmutz_bound(12)) < 1e-12
                and abs(lhs - rhs) < 1e-12), \
            f"4 arccosh(5/2) = 2 arccosh(23/2) = {fmt_float(lhs)}"
    return run


def _claim_example_polygon(dev_name, expected):
    def run():
        g, tree, seed = fixtures.named_development(dev_name)
        dev = develop(g, tree, seed=seed)
        got = [str(x) for x in dev.polygon]
        return got == expected, "polygon " + " ".join(got)
    return run


def _paper_claims():
    claims = []
    for n in range(4, 13):
        claims.append(({f"n={n}"}, f"density-n{n}", _claim_density(n)))
    claims.append(({"n=12"}, "schmutz-equality-n12",
                   _claim_twelve_bound_equality()))
    claims.append(({"n=4"}, "systole-tetrahedron",
                   _claim_systole("tetrahedron", tetrahedron, 7, 3,
                                  schmutz_n=4)))
    claims.append(({"n=6"}, "systole-octahedron",
                   _claim_systole("octahedron", octahedron, 14, 12,
                                  schmutz_n=6)))
    claims.append(({"n=12"}, "systole-icosahedron",
                   _claim_systole("icosahedron", icosahedron, 23, 30,
                                  schmutz_n=12)))
    claims.append(({"n=10"}, "systole-ten-cusp",
                   _claim_systole("ten", fixtures.ten_cusp_graph, 18, 8)))
    claims.append(({"n=11"}, "systole-eleven-cusp",
                   _claim_systole("eleven", fixtures.eleven_cusp_graph,
                                  18, 6)))
    claims.append(({"a7", "n=7"}, "a7-determinants",
                   _claim_fixture_dets("a7")))
    claims.append(({"a7", "n=7"}, "a7-word-traces",
                   _claim_word_traces(lambda: fixtures.A7,
                                      fixtures.SEVEN_CUSP_TRACE14_WORDS, 14)))
    claims.append(({"b7", "n=7"}, "b7-perturbed-traces",
                   _claim_seven_perturbed()))
    claims.append(({"gamma10", "n=10"}, "gamma10-determinants",
                   _claim_fixture_dets("gamma10")))
    claims.append(({"gamma10", "gamma5-n10", "n=10"}, "gamma5-correction",
                   _claim_gamma5_correction()))
    claims.append(({"gamma10", "n=10"}, "gamma10-word-traces",
                   _claim_word_traces(lambda: fixtures.GAMMA10,
                                      fixtures.TEN_CUSP_SYSTOLE_WORDS, 18)))
    claims.append(({"alpha10", "n=10"}, "alpha10-perturbed-traces",
                   _claim_ten_perturbed()))
    claims.append(({"alpha10", "n=10"}, "alpha10-certified-absence",
                   _claim_certified_absence("alpha10")))
    claims.append(({"gamma11", "n=11"}, "gamma11-determinants",
                   _claim_fixture_dets("gamma11")))
    claims.append(({"gamma11", "n=11"}, "gamma11-word-traces",
                   _claim_word_traces(lambda: fixtures.GAMMA11,
                                      fixtures.ELEVEN_CUSP_SYSTOLE_WORDS, 18)))
    claims.append(({"gamma11", "n=11"}, "gamma11-systole-classes",
                   _claim_eleven_arithmetic_classes()))
    claims.append(({"alpha11", "n=11"}, "alpha11-perturbed-traces",
                   _claim_eleven_perturbed()))
    claims.append(({"alpha11", "n=11"}, "alpha11-certified-absence",
                   _claim_certified_absence("alpha11")))
    claims.append(({"example2", "n=10"}, "example2-polygon",
                   _claim_example_polygon("ten-compact", [
                       "0/1", "1/2", "1/1", "3/2", "2/1", "7/3", "5/2",
                       "3/1", "10/3", "7/2", "18/5", "29/8", "11/3",
                       "4/1", "9/2", "14/3", "5/1", "1/0"])))
    return claims


def cmd_verify_paper(args, out):
    selector = args.selector
    claims = _paper_claims()
    if selector != "all":
        claims = [c for c in claims if selector in c[0]]
        if not claims:
            raise InputError(f"unknown selector {selector!r}")
    results = []
    for _, name, run in claims:
        ok, detail = run()
        results.append({"claim": name, "ok": ok, "detail": detail})
    if args.json:
        out(json.dumps(results, indent=2))
    else:
        for r in results:
            out(f"{'PASS' if r['ok'] else 'FAIL'} {r['claim']}: {r['detail']}")
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

    p = sub.add_parser("validate", help="check a triangulation file")
    p.add_argument("input")
    p.set_defaults(fn=cmd_validate)

    p = sub.add_parser("density", help="edge density table")
    p.add_argument("input")
    p.set_defaults(fn=cmd_density)

    p = sub.add_parser("develop", help="fundamental polygon and pairings")
    p.add_argument("input")
    p.add_argument("--tree", help="spanning tree as u-v,u-v,...")
    p.add_argument("--seed-edge", help="terminal tree edge as u-v")
    p.add_argument("--svg", help="also write the polygon SVG here")
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

    p = sub.add_parser("render", help="SVG of the developed polygon")
    p.add_argument("input")
    p.add_argument("--tree", help="spanning tree as u-v,u-v,...")
    p.add_argument("--seed-edge", help="terminal tree edge as u-v")
    p.add_argument("-o", "--output")
    p.set_defaults(fn=cmd_render)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    lines = []
    try:
        code = args.fn(args, lines.append)
    except (InputError, ValueError) as exc:
        for line in lines:
            print(line)
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except ClaimFailure as exc:
        for line in lines:
            print(line)
        print(f"failure: {exc}", file=sys.stderr)
        return EXIT_CLAIM
    except ResourceLimitError as exc:
        for line in lines:
            print(line)
        print(f"resource limit: {exc}", file=sys.stderr)
        return EXIT_RESOURCE
    for line in lines:
        print(line)
    return code


if __name__ == "__main__":
    sys.exit(main())
