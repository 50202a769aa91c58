"""Ground-truth schemes built from explicit relation matrices.

Small named schemes (complete graphs, cycles, hypercubes, the Petersen
graph) are generated as 0/1 distance relations; their intersection numbers
are counted directly from matrix products.  The eigenmatrices come from
the (P-polynomial ordered) first intersection matrix through the same
eigensystem code as the Krein side, since B1 and B1* obey the same
three-term recurrence.  This module exists to cross-validate the parameter
algebra in :mod:`asx.scheme`: the Krein tensor obtained here from the
counted numbers must coincide with the ladder output for the same
tridiagonal data, and the counted p^k_ij with the two eigenmatrix formulas.
Neither comparison target (ladder, counts) runs through the shared code.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .errors import InvalidParameter, NotAScheme, NotPPolynomial, UnknownName
from .linalg import Matrix
from .scheme import (
    IntersectionTensor,
    KreinTensor,
    KreinTridiagonal,
    SchemeParams,
    dual_eigensystem,
    first_eigenmatrix,
    triple_sums,
)


@dataclass(frozen=True)
class RelationSet:
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
        for x in range(n):
            for y in range(n):
                if sum(A[x][y] for A in self.relations) != 1:
                    raise NotAScheme(f"relations do not partition at ({x},{y})")


def _matmul(A, B, n):
    Bc = list(zip(*B))
    return [[sum(a * b for a, b in zip(row, col)) for col in Bc] for row in A]


def _count_intersections(rels: RelationSet):
    """p^k_ij read off A_i A_j = sum_k p^k_ij A_k; NotAScheme when the
    products leave the span or the counts are position-dependent."""
    n, d = rels.n, rels.d
    rep = {}
    for k, A in enumerate(rels.relations):
        for x in range(n):
            for y in range(n):
                if A[x][y] == 1:
                    rep.setdefault(k, (x, y))
                    break
            if k in rep:
                break
    p = [[[0] * (d + 1) for _ in range(d + 1)] for _ in range(d + 1)]
    for i in range(d + 1):
        for j in range(d + 1):
            M = _matmul(rels.relations[i], rels.relations[j], n)
            coeffs = [M[rep[k][0]][rep[k][1]] for k in range(d + 1)]
            for x in range(n):
                for y in range(n):
                    expected = sum(
                        c * rels.relations[k][x][y] for k, c in enumerate(coeffs)
                    )
                    if M[x][y] != expected:
                        raise NotAScheme(
                            f"A{i} A{j} is not in the span of the relations"
                        )
            for k, c in enumerate(coeffs):
                p[i][j][k] = Fraction(c)
    return p


def named_scheme(name: str, parameter: int | None = None) -> RelationSet:
    """Distance relations of a named graph family.

    Supported: ``complete`` (n >= 2 points), ``cycle`` (n >= 3 points),
    ``hypercube`` (dimension 1..9), ``petersen`` (no parameter).
    """
    if name == "complete":
        n = parameter if parameter is not None else 0
        if n < 2:
            raise InvalidParameter("complete graph needs n >= 2")
        ident = [[1 if x == y else 0 for y in range(n)] for x in range(n)]
        other = [[0 if x == y else 1 for y in range(n)] for x in range(n)]
        return RelationSet(n, (tuple(map(tuple, ident)), tuple(map(tuple, other))))
    if name == "cycle":
        n = parameter if parameter is not None else 0
        if n < 3:
            raise InvalidParameter("cycle needs n >= 3")
        d = n // 2
        rels = []
        for k in range(d + 1):
            A = [
                [1 if min((x - y) % n, (y - x) % n) == k else 0 for y in range(n)]
                for x in range(n)
            ]
            rels.append(tuple(map(tuple, A)))
        return RelationSet(n, tuple(rels))
    if name == "hypercube":
        dim = parameter if parameter is not None else 0
        if not 1 <= dim <= 9:
            raise InvalidParameter("hypercube dimension must be 1..9")
        n = 1 << dim
        rels = []
        for k in range(dim + 1):
            A = [
                [1 if bin(x ^ y).count("1") == k else 0 for y in range(n)]
                for x in range(n)
            ]
            rels.append(tuple(map(tuple, A)))
        return RelationSet(n, tuple(rels))
    if name == "petersen":
        verts = [(i, j) for i in range(5) for j in range(i + 1, 5)]
        n = len(verts)
        adj = [
            [1 if not set(verts[x]) & set(verts[y]) else 0 for y in range(n)]
            for x in range(n)
        ]
        ident = [[1 if x == y else 0 for y in range(n)] for x in range(n)]
        far = [
            [1 - adj[x][y] - ident[x][y] for y in range(n)] for x in range(n)
        ]
        return RelationSet(
            n, (tuple(map(tuple, ident)), tuple(map(tuple, adj)), tuple(map(tuple, far)))
        )
    raise UnknownName(f"unknown scheme {name!r}")


def scheme_from_relations(rels: RelationSet) -> SchemeParams:
    """Exact parameters of a scheme given by relation matrices.

    The relation order must be P-polynomial (B1 irreducible tridiagonal).
    B1 obeys the same three-term recurrence as a Krein matrix, so ``P`` is
    the :func:`~asx.scheme.dual_eigensystem` of its tridiagonal data, then
    ``Q = n P^{-1}`` and the Krein numbers come from the dual orthogonality
    sum.  Intersection numbers are counted directly and attached to the
    result.
    """
    rels.validate()
    n, d = rels.n, rels.d
    p = _count_intersections(rels)
    rng = range(d + 1)
    b1 = Matrix([[p[1][j][k] for k in rng] for j in rng])
    for j in rng:
        for k in rng:
            if abs(j - k) > 1 and b1[j, k] != 0:
                raise NotPPolynomial(f"B1 entry ({j},{k}) = {b1[j, k]} is nonzero")
    c = [b1[k - 1, k] for k in range(1, d + 1)]
    a = [b1[k, k] for k in range(1, d + 1)]
    b = [b1[k + 1, k] for k in range(0, d)]
    if any(x == 0 for x in c) or any(x == 0 for x in b):
        raise NotPPolynomial("B1 is tridiagonal but not irreducible")
    _, P = dual_eigensystem(KreinTridiagonal(d, c, a, b))
    Q = first_eigenmatrix(P, Fraction(n))
    valencies = P.row(0)
    mults = Q.row(0)
    sums = triple_sums([Q.row(u) for u in rng], valencies)
    kreins = KreinTensor(
        [Matrix([[sums[i][j][kk] / (n * mults[kk]) for kk in rng] for j in rng])
         for i in rng]
    )
    inters = IntersectionTensor(
        [Matrix([[p[i][j][kk] for kk in rng] for j in rng]) for i in rng]
    )
    return SchemeParams(
        d=d,
        n=Fraction(n),
        multiplicities=mults,
        valencies=valencies,
        Q=Q,
        P=P,
        kreins=kreins,
        intersections=inters,
    )
