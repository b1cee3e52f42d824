"""Literal expected answers and stored exact counts.

The answers are written out here rather than read from
``enumeration.KNOWN_COUNTS``, ``enumeration.EXPECTED_MAX_MIN`` or the
command line's claim table, so that merging those tables cannot change
what the benchmark checks against.  Values for the "small" size serve
the self-test.
"""

from fractions import Fraction

# OEIS A000109: simple sphere triangulations by vertex count
A000109 = {4: 1, 5: 1, 6: 2, 7: 5, 8: 14, 9: 50, 10: 233, 11: 1249, 12: 7595}

# largest minimum edge density over the simple classes with n vertices
MAX_MIN_DENSITY = {4: 9, 5: 12, 6: 16, 7: 16, 8: 18, 9: 20, 10: 20, 11: 20,
                   12: 25}

# certified sweeps of the 10-cusp groups by trace bound: number of
# classes found, their common |trace|, and the least |trace| seen above
# the bound
SWEEPS = {
    18: {"gamma10": {"classes": 8, "trace": 18, "min_above": 22},
         "alpha10": {"classes": 0, "trace": 18,
                     "min_above": Fraction(45399, 2500)}},
    10: {"gamma10": {"classes": 0, "trace": 10, "min_above": 18},
         "alpha10": {"classes": 0, "trace": 10,
                     "min_above": Fraction(45399, 2500)}},
}

# systole |trace| -> number of simple classes with n vertices; the
# systole does not depend on the spanning tree, so this holds for every
# seed
CENSUS_SYSTOLES = {
    10: {10: 157, 13: 55, 14: 15, 16: 4, 18: 2},
    7: {10: 2, 13: 2, 14: 1},
}

# Exact counts the seed code produces, by size.  A count that differs
# is printed by name: a speed-up must not change them, and a change of
# search radius must say that it does.
COUNTS = {
    "full": {
        "census.systole_trace.10": 157,
        "census.systole_trace.13": 55,
        "census.systole_trace.14": 15,
        "census.systole_trace.16": 4,
        "census.systole_trace.18": 2,
        "census.witnesses": 478,
        "certify.alpha10.states": 124480,
        "certify.alpha10.witnesses": 0,
        "certify.gamma10.states": 124766,
        "certify.gamma10.witnesses": 8,
        "density.classes.n4": 1,
        "density.classes.n5": 1,
        "density.classes.n6": 2,
        "density.classes.n7": 5,
        "density.classes.n8": 14,
        "density.classes.n9": 50,
        "density.classes.n10": 233,
        "density.classes.n11": 1249,
        "density.classes.n12": 7595,
        "density.extremal.n4": 1,
        "density.extremal.n5": 1,
        "density.extremal.n6": 1,
        "density.extremal.n7": 1,
        "density.extremal.n8": 1,
        "density.extremal.n9": 1,
        "density.extremal.n10": 2,
        "density.extremal.n11": 3,
        "density.extremal.n12": 1,
    },
    "small": {
        "census.systole_trace.10": 2,
        "census.systole_trace.13": 2,
        "census.systole_trace.14": 1,
        "census.witnesses": 18,
        "certify.alpha10.states": 37866,
        "certify.alpha10.witnesses": 0,
        "certify.gamma10.states": 37994,
        "certify.gamma10.witnesses": 0,
        "density.classes.n4": 1,
        "density.classes.n5": 1,
        "density.classes.n6": 2,
        "density.classes.n7": 5,
        "density.classes.n8": 14,
        "density.extremal.n4": 1,
        "density.extremal.n5": 1,
        "density.extremal.n6": 1,
        "density.extremal.n7": 1,
        "density.extremal.n8": 1,
    },
}
