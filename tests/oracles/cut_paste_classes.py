"""Exact cut-and-paste overlap-class matrix in rational arithmetic.

Reference for ``privmine.cut_paste_class_matrix``; it does not import
privmine. It follows the operator's output over the record's own items
rather than its cut and paste steps: j ~ U{0..K} of the record's M items are
kept and each of the other M - j is set again with probability rho, so z of
them survive; by symmetry the survivors are a uniform z-subset of the M
items, so q of them fall in the l_u window items the record carries
(hypergeometric); each of the window's other window - l_u bits is set with
probability rho. Entry [l_v, l_u] sums over j, z and q with l_v - q of those
bits set. ``rho`` is taken exactly, as the Fraction of its float.

Run directly to print the census-sized (M = 6) matrix at K = 3,
rho = 0.494, window 3:

    python3 tests/oracles/cut_paste_classes.py
"""

from fractions import Fraction
from math import comb


def class_matrix(M: int, K: int, rho: float, window: int) -> list[list[Fraction]]:
    r = Fraction(rho)
    set_p = [r ** t for t in range(M + 1)]
    clear_p = [(1 - r) ** t for t in range(M + 1)]
    p_z = [sum(Fraction(comb(M - j, z - j), K + 1) * set_p[z - j] * clear_p[M - z]
               for j in range(min(K, z) + 1)) for z in range(M + 1)]
    out = [[Fraction(0)] * (window + 1) for _ in range(window + 1)]
    for l_u in range(window + 1):
        free = window - l_u  # window bits the record does not carry
        for z in range(M + 1):
            for q in range(min(z, l_u) + 1):
                hyp = Fraction(comb(l_u, q) * comb(M - l_u, z - q), comb(M, z))
                for t in range(free + 1):
                    out[q + t][l_u] += p_z[z] * hyp * comb(free, t) * set_p[t] * clear_p[free - t]
    return out


if __name__ == "__main__":
    for row in class_matrix(6, 3, 0.494, 3):
        print("  ".join(f"{float(x):.17f}" for x in row))
