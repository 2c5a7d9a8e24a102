"""Reference computations that several test modules compare against."""

from contactflow.harmonics import GridFunction, SphereGrid, analyze, synthesize


def product(f, h):
    """Exact pointwise product: band limit grows to f.L + h.L."""
    D = f.L + h.L
    grid = SphereGrid.for_degree(D)
    vals = synthesize(f, grid) * synthesize(h, grid)
    return analyze(GridFunction(grid, vals), D)


def pdq(stack):
    """(P, dP, Q), each indexed [l, m, j], from legendre_tables' [m, l, tag, j]."""
    return tuple(stack[:, :, tag].transpose(1, 0, 2) for tag in range(3))
