"""The reference loop that run.py times around every timed call.

It multiplies two 12-term polynomials with rational coefficients held in
dicts, the kind of work the program's scalar kernel does.  It lives in a
module of its own so that the fresh interpreter of a set-up can time it
in its own process (see run.measure_setup).
"""

import time
from fractions import Fraction

LEFT = {(i, j): Fraction(i + 1, j + 2) for i in range(4) for j in range(3)}
RIGHT = {(i, j): Fraction(j + 3, i + 1) for i in range(3) for j in range(4)}


def loop_s() -> float:
    """Wall time of one run of the reference loop."""
    start = time.perf_counter()
    product = {}
    for (a1, a2), left in LEFT.items():
        for (b1, b2), right in RIGHT.items():
            key = (a1 + b1, a2 + b2)
            product[key] = product.get(key, 0) + left * right
    return time.perf_counter() - start
