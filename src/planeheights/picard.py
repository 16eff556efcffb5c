"""Exact intersection calculus on the blow-up surface of a degree-d Henon map.

The surface is obtained from the projective plane by 2d-1 blow-ups over each
of the two indeterminacy points, so the divisor class lattice has the basis
[H#, E_1..E_{2d-1}, F_1..F_{2d-1}] of dimension 4d-1.  The intersection
matrix is reconstructed from the configuration's adjacency data (H# meets E_2
and F_2; E_1 meets E_d; the chain E_i - E_{i+1} for 2 <= i <= 2d-2; mirrored
for F) together with the self-intersection list (H#^2 = -3, E_1^2 = F_1^2 =
-d, interior curves -2, the last exceptional curves -1).  At d = 2 the index
ranges degenerate but the formulas remain valid verbatim.  The 4d-1 curves
meet in 4d-2 pairs and form a connected graph, a tree, so the pullback
systems are solved by elimination from the leaves toward H#, with no fill-in.

Everything here is exact rational arithmetic; no floating point.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from typing import List, Tuple


def basis_labels(d: int) -> List[str]:
    if d < 2:
        raise ValueError("d must be >= 2")
    return (["H#"]
            + [f"E{i}" for i in range(1, 2 * d)]
            + [f"F{j}" for j in range(1, 2 * d)])


class DivisorClass:
    """Exact-rational coefficient vector over the basis [H#, E_i, F_j]; a
    plain class, as a tuple's `*` and `+` would repeat and concatenate it."""

    __slots__ = ("d", "coeffs")

    def __init__(self, d: int, coeffs: Tuple[Fraction, ...]):
        if len(coeffs) != 4 * d - 1:
            raise ValueError("coefficient vector has wrong dimension")
        object.__setattr__(self, "d", d)
        object.__setattr__(self, "coeffs", coeffs)

    def __setattr__(self, name, value):
        raise AttributeError(f"DivisorClass is immutable: cannot assign to {name!r}")

    def __eq__(self, other):
        return (self.d, self.coeffs) == (other.d, other.coeffs) if type(other) is DivisorClass else NotImplemented

    def __hash__(self):
        return hash((self.d, self.coeffs))

    def __repr__(self):
        return f"DivisorClass(d={self.d!r}, coeffs={self.coeffs!r})"

    def __add__(self, other):
        self._check(other)
        return DivisorClass(self.d, tuple(a + b for a, b in zip(self.coeffs, other.coeffs)))

    def __sub__(self, other):
        self._check(other)
        return DivisorClass(self.d, tuple(a - b for a, b in zip(self.coeffs, other.coeffs)))

    def scale(self, factor) -> "DivisorClass":
        factor = Fraction(factor)
        return DivisorClass(self.d, tuple(factor * a for a in self.coeffs))

    def dot(self, other) -> Fraction:
        """Intersection number: each curve's self-intersection times a_i b_i,
        plus a_i b_j + a_j b_i for each pair of curves that meet."""
        self._check(other)
        diag, edges = _configuration(self.d)
        a, b = self.coeffs, other.coeffs
        total = sum(s * x * y for s, x, y in zip(diag, a, b))
        return Fraction(total + sum(a[i] * b[j] + a[j] * b[i] for i, j in edges))

    def is_effective(self) -> bool:
        return all(c >= 0 for c in self.coeffs)

    def _check(self, other):
        if not isinstance(other, DivisorClass) or other.d != self.d:
            raise ValueError("divisor classes live on different surfaces")


def _configuration(d: int) -> Tuple[List[int], List[Tuple[int, int]]]:
    """(self-intersections, meeting pairs) of the 4d-1 curves, by basis index.

    The 4d-2 pairs connect all 4d-1 curves, so the configuration is a tree.
    """
    if d < 2:
        raise ValueError("d must be >= 2")
    f = 2 * d - 1  # F_j sits at index f + j, E_i at index i
    diag = [-3] + ([-d] + [-2] * (2 * d - 3) + [-1]) * 2
    edges = [(0, 2), (0, f + 2), (1, d), (f + 1, f + d)]
    for i in range(2, 2 * d - 1):
        edges += [(i, i + 1), (f + i, f + i + 1)]
    return diag, edges


def intersection_matrix(d: int) -> List[List[int]]:
    """Symmetric (4d-1) x (4d-1) integer intersection matrix of the basis."""
    diag, edges = _configuration(d)
    m = [[0] * len(diag) for _ in diag]
    for i, self_int in enumerate(diag):
        m[i][i] = self_int
    for i, j in edges:
        m[i][j] = m[j][i] = 1
    return m


def _solve_on_tree(labels, diag, edges, columns) -> List[List[Fraction]]:
    """Solve G x = b exactly for each column b, where G has diagonal `diag` and
    a 1 at each pair of `edges`, a tree on the vertices rooted at index 0.

    Each vertex folds into its parent, leaves first, so there is no fill-in;
    the root is solved, then the solution is substituted back down the tree.
    A zero pivot is refused, naming its curve in `labels`.
    """
    n = len(diag)
    neighbours = [[] for _ in range(n)]
    for i, j in edges:
        neighbours[i].append(j)
        neighbours[j].append(i)
    parent = [0] + [None] * (n - 1)
    order = [0]  # every vertex after its parent
    for v in order:
        for w in neighbours[v]:
            if parent[w] is None:
                parent[w] = v
                order.append(w)
    piv = [Fraction(a) for a in diag]
    rhs = [[Fraction(col[v]) for col in columns] for v in range(n)]
    for v in reversed(order):
        if piv[v] == 0:
            raise ValueError(f"zero pivot at {labels[v]}: singular intersection system")
        if v:
            p = parent[v]
            piv[p] -= 1 / piv[v]
            rhs[p] = [bp - bv / piv[v] for bp, bv in zip(rhs[p], rhs[v])]
    x = [None] * n
    x[0] = [b / piv[0] for b in rhs[0]]
    for v in order[1:]:
        x[v] = [(b - xp) / piv[v] for b, xp in zip(rhs[v], x[parent[v]])]
    return [[x[v][k] for v in range(n)] for k in range(len(columns))]


@lru_cache(maxsize=None)
def solve_pullbacks(d: int):
    """(pi*H, phi*H, psi*H) from the defining intersection products.

    phi*H meets nothing in the configuration except E_{2d-1}, which it meets
    once; psi*H is the E<->F mirror; pi*H meets only H#, once.  Each gives a
    nonsingular linear system over the Gram matrix, solved on its tree.
    """
    diag, edges = _configuration(d)
    n = 4 * d - 1
    columns = [[int(v == k) for v in range(n)] for k in (0, 2 * d - 1, n - 1)]
    solutions = _solve_on_tree(basis_labels(d), diag, edges, columns)
    pi, phi, psi = (DivisorClass(d, tuple(sol)) for sol in solutions)
    return pi, phi, psi


def closed_form_pullbacks(d: int):
    """Direct transcription of the displayed formulas for the three pullbacks."""
    if d < 2:
        raise ValueError("d must be >= 2")

    def build(h_coeff, e_coeff, f_coeff):
        coeffs = [Fraction(h_coeff)]
        coeffs += [Fraction(e_coeff(i)) for i in range(1, 2 * d)]
        coeffs += [Fraction(f_coeff(j)) for j in range(1, 2 * d)]
        return DivisorClass(d, tuple(coeffs))

    pi = build(
        1,
        lambda i: i if i <= d else d,
        lambda j: j if j <= d else d,
    )
    phi = build(
        d,
        lambda i: 1 if i == 1 else (d if i <= d else 2 * d - i),
        lambda j: j * d if j <= d else d * d,
    )
    psi = build(
        d,
        lambda i: i * d if i <= d else d * d,
        lambda j: 1 if j == 1 else (d if j <= d else 2 * d - j),
    )
    return pi, phi, psi


def effective_excess(d: int) -> DivisorClass:
    """D = phi*H + psi*H - (d + 1/d) pi*H, the effective excess divisor."""
    pi, phi, psi = solve_pullbacks(d)
    return phi + psi - pi.scale(Fraction(d * d + 1, d))


def closed_form_excess(d: int) -> DivisorClass:
    """The displayed coefficients of D, for cross-checking effective_excess."""
    if d < 2:
        raise ValueError("d must be >= 2")
    coeffs = [Fraction(d * d - 1, d)]
    for i in range(1, 2 * d):
        if i == 1:
            coeffs.append(Fraction(d - 1, d))
        elif i <= d:
            coeffs.append(Fraction(d * d - i, d))
        else:
            coeffs.append(Fraction(2 * d - i - 1))
    coeffs = coeffs + coeffs[1:]  # the F block mirrors the E block
    return DivisorClass(d, tuple(coeffs))
