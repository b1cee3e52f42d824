"""Cusped hyperbolic spheres from planar triangulations.

Construct genus-zero finite-index subgroups of the modular group from
sphere triangulations equipped with spanning trees, compute systoles by
certified short-geodesic enumeration, and verify extremal edge-density
facts for small cusp numbers.
"""

from .modular import (
    Frac,
    INF,
    MoebiusMap,
    IDENTITY,
    L,
    R,
    NotHyperbolicError,
    farey_adjacent,
    trace_to_length,
    schmutz_bound,
    parabolic_product_trace,
    lr_word_value,
    cusp_parabolic,
)
from .triangulation import (
    Triangulation,
    ValidationReport,
    DensityReport,
    tetrahedron,
    octahedron,
    icosahedron,
)
from .developing import (
    SpanningTree,
    Development,
    develop,
    generators,
    check_cusp_parabolics,
    render_polygon,
)
from .geodesics import (
    GeodesicWitness,
    MatrixSearchReport,
    ResourceLimitError,
    enumerate_geodesics_combinatorial,
    systole_combinatorial,
    systole_matrix_group,
    polygon_diameter_proxy,
)
from .enumeration import (
    EnumerationQuery,
    enumerate_triangulations,
    max_min_density,
    verify_proposition,
)

__version__ = "0.1.0"
