"""Session-scoped fixtures for the expensive matrix-group searches.

The certified breadth-first sweeps over the 10- and 11-cusp groups take
tens of seconds each; several test modules consult the same reports, so
they are computed once per session here.
"""

from collections import Counter

import pytest

from spheresys import fixtures
from spheresys.developing import SpanningTree, develop, generators
from spheresys.geodesics import (enumerate_geodesics_combinatorial,
                                 polygon_diameter_proxy,
                                 systole_matrix_group)
from spheresys.triangulation import tetrahedron, octahedron


def pytest_terminal_summary(terminalreporter):
    try:
        from test_acceptance import VERDICTS
    except ImportError:
        return
    if VERDICTS:
        terminalreporter.section("acceptance criteria")
        for line in VERDICTS:
            terminalreporter.write_line(line)


@pytest.fixture(scope="session")
def developments():
    out = {}
    for name in ("seven", "ten-compact", "ten-long", "eleven"):
        g, tree, seed = fixtures.named_development(name)
        out[name] = develop(g, tree, seed=seed)
    return out


@pytest.fixture(scope="session")
def diameters(developments):
    return {name: polygon_diameter_proxy(dev)
            for name, dev in developments.items()}


def certified_sweep(name):
    """The bound-18 sweep of a named generator set at its diameter."""
    gens, diameter = fixtures.generator_set(name)
    return systole_matrix_group(gens, 18, diameter=diameter)


@pytest.fixture(scope="session")
def gamma10_search():
    return certified_sweep("gamma10")


@pytest.fixture(scope="session")
def alpha10_search():
    return certified_sweep("alpha10")


@pytest.fixture(scope="session")
def gamma11_search():
    return certified_sweep("gamma11")


@pytest.fixture(scope="session")
def alpha11_search():
    return certified_sweep("alpha11")


@pytest.fixture(scope="session")
def cross_engine_multisets(developments, diameters):
    """Trace multisets up to 30 from both engines, per fixture graph."""
    out = {}
    cases = [("tetrahedron", tetrahedron(), None),
             ("octahedron", octahedron(), None),
             ("seven", None, "seven"),
             ("ten", None, "ten-long"),
             ("eleven", None, "eleven")]
    for label, g, dev_name in cases:
        if dev_name is None:
            dev = develop(g, SpanningTree.bfs_tree(g))
            diam = polygon_diameter_proxy(dev)
        else:
            dev = developments[dev_name]
            g, diam = dev.g, diameters[dev_name]
        gens = {i + 1: m for i, m in enumerate(generators(dev))}
        comb = Counter(abs(w.trace)
                       for w in enumerate_geodesics_combinatorial(g, 30))
        report = systole_matrix_group(gens, 30, diameter=diam)
        matrix = Counter(abs(w.trace) for w in report.witnesses)
        out[label] = (comb, matrix, report)
    return out
