"""Ground-truth schemes built from explicit relation matrices.

Small named schemes (complete graphs, cycles, hypercubes, the Petersen
graph) are generated as 0/1 distance relations; their intersection numbers
are counted directly, each entry of A_i A_j as a popcount of a row and a
column held as int bitsets, and every product is checked to lie in the
span of the relations.  B1 and B1* obey the same three-term recurrence,
so :func:`~asx.scheme.tridiagonal_from_tensor` reads the c/a/b data off
the (P-polynomial ordered) counted B1, and the eigenmatrices come from the
same eigensystem code as the Krein side.  This module cross-validates the
parameter algebra in :mod:`asx.scheme`: the Krein tensor obtained here
from the counted numbers must coincide with the ladder output for the same
tridiagonal data, and the counted p^k_ij with the two eigenmatrix
formulas.  Those two comparison targets, the ladder and the counts, do not
run through the eigensystem code they check.
"""

from __future__ import annotations

from fractions import Fraction
from typing import NamedTuple

from .errors import InvalidParameter, InvariantViolation, NotAScheme, NotPPolynomial, UnknownName
from .scheme import (
    IntersectionTensor,
    KreinTensor,
    SchemeParams,
    dual_eigensystem,
    first_eigenmatrix,
    intersection_tensor,
    tridiagonal_from_tensor,
)


class RelationSet(NamedTuple):
    """0/1 symmetric relation matrices A0..Ad on n points (A0 = I)."""

    n: int
    relations: tuple[tuple[tuple[int, ...], ...], ...]

    @property
    def d(self) -> int:
        return len(self.relations) - 1

    def validate(self) -> None:
        n = self.n
        for idx, A in enumerate(self.relations):
            if len(A) != n or any(len(r) != n for r in A):
                raise NotAScheme(f"relation {idx} is not {n}x{n}")
            for x in range(n):
                for y in range(n):
                    v = A[x][y]
                    if v not in (0, 1):
                        raise NotAScheme(f"relation {idx} has entry {v}")
                    if A[y][x] != v:
                        raise NotAScheme(f"relation {idx} is not symmetric")
                if idx == 0 and A[x][x] != 1:
                    raise NotAScheme("A0 is not the identity")
                if idx > 0 and A[x][x] != 0:
                    raise NotAScheme(f"relation {idx} has a nonzero diagonal")
            if not any(map(any, A)):
                raise NotAScheme(f"relation {idx} is empty")
        for x in range(n):
            for y in range(n):
                if sum(A[x][y] for A in self.relations) != 1:
                    raise NotAScheme(f"relations do not partition at ({x},{y})")


def _count_intersections(rels: RelationSet):
    """p^k_ij read off A_i A_j = sum_k p^k_ij A_k; NotAScheme when the
    products leave the span or the counts are position-dependent.

    Each row and each column of a relation is held as an int bitset, and
    entry (x, y) of A_i A_j is the popcount of row x of A_i AND column y of
    A_j, so no relation is assumed symmetric.  Every entry of every product
    is still checked against the span."""
    n, d, relations = rels.n, rels.d, rels.relations
    # validate() leaves no relation empty, so each has a first pair (x, y)
    rep = [next((x, y) for x, row in enumerate(A) for y, v in enumerate(row) if v)
           for A in relations]

    def bits(v):
        return int("".join(map(str, v)), 2)

    rows = [[bits(r) for r in A] for A in relations]
    cols = [[bits(c) for c in zip(*A)] for A in relations]
    p = [[None] * (d + 1) for _ in range(d + 1)]
    for i in range(d + 1):
        for j in range(d + 1):
            M = [[(r & c).bit_count() for c in cols[j]] for r in rows[i]]
            coeffs = [M[rep[k][0]][rep[k][1]] for k in range(d + 1)]
            for x in range(n):
                for y in range(n):
                    expected = sum(
                        c * relations[k][x][y] for k, c in enumerate(coeffs)
                    )
                    if M[x][y] != expected:
                        raise NotAScheme(
                            f"A{i} A{j} is not in the span of the relations"
                        )
            p[i][j] = coeffs
    return p


def _distance_scheme(n: int, d: int, distance) -> RelationSet:
    """Relations ``A0..Ad`` on ``n`` points: ``(x, y)`` lies in relation k
    when ``distance(x, y) == k``."""
    dist = [[distance(x, y) for y in range(n)] for x in range(n)]
    return RelationSet(
        n,
        tuple(
            tuple(tuple(1 if v == k else 0 for v in row) for row in dist)
            for k in range(d + 1)
        ),
    )


def named_scheme(name: str, parameter: int | None = None) -> RelationSet:
    """Distance relations of a named graph family.

    Supported: ``complete`` (n >= 2 points), ``cycle`` (n >= 3 points),
    ``hypercube`` (dimension 1..9), ``petersen`` (no parameter).
    """
    if name == "complete":
        n = parameter if parameter is not None else 0
        if n < 2:
            raise InvalidParameter("complete graph needs n >= 2")
        return _distance_scheme(n, 1, lambda x, y: 0 if x == y else 1)
    if name == "cycle":
        n = parameter if parameter is not None else 0
        if n < 3:
            raise InvalidParameter("cycle needs n >= 3")
        return _distance_scheme(n, n // 2, lambda x, y: min((x - y) % n, (y - x) % n))
    if name == "hypercube":
        dim = parameter if parameter is not None else 0
        if not 1 <= dim <= 9:
            raise InvalidParameter("hypercube dimension must be 1..9")
        return _distance_scheme(1 << dim, dim, lambda x, y: bin(x ^ y).count("1"))
    if name == "petersen":
        # the Kneser graph K(5, 2): 2-subsets of {0..4}, adjacent when disjoint
        verts = [(i, j) for i in range(5) for j in range(i + 1, 5)]
        return _distance_scheme(
            len(verts),
            2,
            lambda x, y: 0 if x == y else 1 if not set(verts[x]) & set(verts[y]) else 2,
        )
    raise UnknownName(f"unknown scheme {name!r}")


def scheme_from_relations(rels: RelationSet) -> SchemeParams:
    """Exact parameters of a scheme given by relation matrices.

    The relation order must be P-polynomial (B1 irreducible tridiagonal).
    B1 obeys the same three-term recurrence as a Krein matrix, so its
    tridiagonal data are read off the counted tensor by
    :func:`~asx.scheme.tridiagonal_from_tensor`, ``P`` is their
    :func:`~asx.scheme.dual_eigensystem`, then ``Q = n P^{-1}``.  The Krein
    numbers are :func:`~asx.scheme.intersection_tensor` of the dual
    parameter set, so both of its formulas cross-check them, kept as its
    levels.  Intersection numbers are counted directly and attached to the
    result as int levels over 1.
    """
    rels.validate()
    n, d = Fraction(rels.n), rels.d
    p = _count_intersections(rels)
    inters = IntersectionTensor(levels=[(plane, 1, None) for plane in p])
    try:
        spec = tridiagonal_from_tensor(inters)
    except InvariantViolation as exc:
        raise NotPPolynomial(f"counted B1 is not irreducible tridiagonal: {exc}") from exc
    _, P = dual_eigensystem(spec)
    Q = first_eigenmatrix(P, n)
    # the dual parameter set: P <-> Q, valencies <-> multiplicities
    dual = SchemeParams(d, n, P.row(0), Q.row(0), Q=P, P=Q, kreins=None)
    kreins = KreinTensor(levels=intersection_tensor(dual).levels)
    return SchemeParams(d, n, Q.row(0), P.row(0), Q, P, kreins, inters)
