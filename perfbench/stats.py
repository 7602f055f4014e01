"""Summary statistics the benchmark reports."""

import math


def median(values):
    vals = sorted(values)
    if not vals:
        raise ValueError("median of no values")
    n = len(vals)
    mid = n // 2
    return vals[mid] if n % 2 else 0.5 * (vals[mid - 1] + vals[mid])


def loglog_slope(xs, ys):
    """Least-squares slope of log(y) against log(x): the scaling exponent."""
    lx = [math.log(x) for x in xs]
    ly = [math.log(y) for y in ys]
    mx = sum(lx) / len(lx)
    my = sum(ly) / len(ly)
    sxx = sum((a - mx) ** 2 for a in lx)
    sxy = sum((a - mx) * (b - my) for a, b in zip(lx, ly))
    return sxy / sxx
