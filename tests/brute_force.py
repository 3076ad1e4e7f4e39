"""Brute-force references for the plane: a form evaluated at every point
of P^2(F_Q) and at every point of every line, through `point_coords`,
`line_points` and the kernel `form_values` alone, with no fiber table
and no vote."""

import numpy as np

from hermplane.plane import form_values, line_count, line_points, point_coords


def _values(f, coords):
    return form_values(f.field, tuple(f.terms.values()), tuple(f.terms), *coords)


def evaluate_all(f):
    """The values of f at every point of P^2, in enumeration order."""
    Q = f.field.order
    return _values(f, point_coords(Q, np.arange(Q * Q + Q + 1)))


def zero_points(f):
    """The enumeration indices of the zeros of f, ascending."""
    return np.flatnonzero(evaluate_all(f) == 0)


def line_zero_counts(f):
    """For every line, in enumeration order, how many of its Q+1 points
    are zeros of f."""
    Q = f.field.order
    coords = line_points(f.field, *point_coords(Q, np.arange(line_count(Q))))
    return np.count_nonzero(_values(f, coords) == 0, axis=-1)


def vanishing_lines(f):
    """The lines on which f vanishes at all Q+1 points, ascending."""
    return np.flatnonzero(line_zero_counts(f) == f.field.order + 1)
