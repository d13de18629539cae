"""Oriented simplicial complexes and sparse integer chains.

Coefficients are exact Python integers; geometry (simplex volumes) is
computed once from vertex coordinates at construction time.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "SimplicialComplex",
    "IntegerChain",
    "ModPClass",
    "boundary",
    "mass",
    "reduce_modp",
    "is_cycle_modp",
    "representative_modp",
]


def _simplex_volume(points: np.ndarray) -> float:
    """k-volume of the simplex spanned by k+1 points, via the Gram determinant."""
    edges = points[1:] - points[0]
    k = edges.shape[0]
    if k == 0:
        return 1.0
    gram = edges @ edges.T
    det = float(np.linalg.det(gram))
    if det <= 0.0:
        return 0.0
    return math.sqrt(det) / math.factorial(k)


class SimplicialComplex:
    """Finite oriented simplicial complex in R^d, d <= 4.

    ``simplices[k]`` is a list of vertex-index tuples; the listed order fixes
    the orientation.  Every face of a k-simplex (k >= 1) must be present
    among the (k-1)-simplices, up to an even/odd permutation of its vertices.
    """

    def __init__(self, vertices, simplices):
        from scipy import sparse

        self.vertices = np.asarray(vertices, dtype=float)
        if self.vertices.ndim != 2 or not 1 <= self.vertices.shape[1] <= 4:
            raise ValueError("vertices must be an (n, d) array with 1 <= d <= 4")
        nv = len(self.vertices)

        self.simplices: dict[int, list[tuple[int, ...]]] = {0: [(i,) for i in range(nv)]}
        for k in sorted(simplices):
            k = int(k)
            if k == 0:
                continue
            cleaned = []
            for s in simplices[k]:
                s = tuple(int(i) for i in s)
                if len(s) != k + 1 or len(set(s)) != k + 1:
                    raise ValueError(f"bad {k}-simplex {s}: need {k + 1} distinct vertices")
                if not all(0 <= i < nv for i in s):
                    raise ValueError(f"vertex index out of range in simplex {s}")
                cleaned.append(s)
            self.simplices[k] = cleaned

        self.dim = max(self.simplices)
        self.volumes: dict[int, np.ndarray] = {}
        for k, simps in self.simplices.items():
            vols = np.array([_simplex_volume(self.vertices[list(s)]) for s in simps])
            if k > 0 and np.any(vols <= 0.0):
                bad = int(np.argmin(vols))
                raise ValueError(f"degenerate {k}-simplex at index {bad}")
            self.volumes[k] = vols

        # signed incidence matrices, incidence[k]: rows (k-1)-simplices, cols k-simplices
        self._index: dict[int, dict[tuple[int, ...], tuple[int, int]]] = {}
        for k, simps in self.simplices.items():
            table = {}
            for j, s in enumerate(simps):
                key, sign = _canonical(s)
                if key in table:
                    raise ValueError(f"duplicate {k}-simplex {s}")
                table[key] = (j, sign)
            self._index[k] = table

        self.incidence: dict[int, sparse.csc_matrix] = {}
        for k in range(1, self.dim + 1):
            simps = self.simplices.get(k, [])
            ri, ci, vals = [], [], []
            for j, s in enumerate(simps):
                for i in range(k + 1):
                    face = s[:i] + s[i + 1:]
                    key, sign = _canonical(face)
                    if key not in self._index[k - 1]:
                        raise ValueError(f"face {face} of {s} missing from the complex")
                    row, row_sign = self._index[k - 1][key]
                    ri.append(row)
                    ci.append(j)
                    vals.append(((-1) ** i) * sign * row_sign)
            self.incidence[k] = sparse.csc_matrix(
                (vals, (ri, ci)),
                shape=(len(self.simplices.get(k - 1, [])), len(simps)),
                dtype=np.int64)

        for k in range(2, self.dim + 1):
            prod = self.incidence[k - 1] @ self.incidence[k]
            prod.eliminate_zeros()
            if prod.count_nonzero():
                raise ValueError(f"incidence matrices violate boundary-of-boundary = 0 at degree {k}")

    def n_simplices(self, k: int) -> int:
        return len(self.simplices.get(k, []))

    def simplex_index(self, vertices) -> tuple[int, int]:
        """Return (index, orientation sign) of the simplex with these vertices."""
        key, sign = _canonical(tuple(int(v) for v in vertices))
        k = len(key) - 1
        j, stored_sign = self._index[k][key]
        return j, sign * stored_sign

    def chain(self, degree: int, coeffs=None) -> "IntegerChain":
        return IntegerChain(self, degree, coeffs or {})

    def chain_from_simplices(self, degree: int, simplex_list) -> "IntegerChain":
        """Chain summing the given simplices (vertex tuples), coefficient +1 each."""
        coeffs: dict[int, int] = {}
        for s in simplex_list:
            j, sign = self.simplex_index(s)
            coeffs[j] = coeffs.get(j, 0) + sign
        return IntegerChain(self, degree, coeffs)

    # -- JSON interface (schema `complex.json`) --

    def to_json(self) -> dict:
        return {
            "vertices": [list(map(float, v)) for v in self.vertices],
            "simplices": {
                str(k): [list(s) for s in simps]
                for k, simps in self.simplices.items()
                if k > 0
            },
        }

    @classmethod
    def from_json(cls, data: dict) -> "SimplicialComplex":
        return cls(data["vertices"], {int(k): v for k, v in data["simplices"].items()})

    @classmethod
    def load(cls, path) -> "SimplicialComplex":
        with open(path) as fh:
            return cls.from_json(json.load(fh))


def _canonical(simplex: tuple[int, ...]) -> tuple[tuple[int, ...], int]:
    """Sorted vertex tuple and the sign of the sorting permutation."""
    order = sorted(range(len(simplex)), key=lambda i: simplex[i])
    sign = 1
    seen = [False] * len(order)
    for start in range(len(order)):
        if seen[start]:
            continue
        length = 0
        i = start
        while not seen[i]:
            seen[i] = True
            i = order[i]
            length += 1
        if length % 2 == 0:
            sign = -sign
    return tuple(simplex[i] for i in order), sign


@dataclass(frozen=True)
class IntegerChain:
    """Sparse integer k-chain on a fixed complex."""

    complex: SimplicialComplex
    degree: int
    coeffs: dict[int, int] = field(default_factory=dict)

    def __post_init__(self):
        cleaned = {int(i): int(c) for i, c in self.coeffs.items() if int(c) != 0}
        n = self.complex.n_simplices(self.degree)
        for i in cleaned:
            if not 0 <= i < n:
                raise ValueError(f"simplex index {i} out of range in degree {self.degree}")
        object.__setattr__(self, "coeffs", cleaned)

    def __add__(self, other: "IntegerChain") -> "IntegerChain":
        self._check_compatible(other)
        coeffs = dict(self.coeffs)
        for i, c in other.coeffs.items():
            coeffs[i] = coeffs.get(i, 0) + c
        return IntegerChain(self.complex, self.degree, coeffs)

    def __sub__(self, other: "IntegerChain") -> "IntegerChain":
        return self + (-1) * other

    def __rmul__(self, scalar: int) -> "IntegerChain":
        return IntegerChain(self.complex, self.degree,
                            {i: scalar * c for i, c in self.coeffs.items()})

    def __eq__(self, other) -> bool:
        return (isinstance(other, IntegerChain)
                and self.complex is other.complex
                and self.degree == other.degree
                and self.coeffs == other.coeffs)

    def is_zero(self) -> bool:
        return not self.coeffs

    def to_dense(self) -> np.ndarray:
        v = np.zeros(self.complex.n_simplices(self.degree), dtype=np.int64)
        for i, c in self.coeffs.items():
            v[i] = c
        return v

    def _check_compatible(self, other: "IntegerChain"):
        if self.complex is not other.complex:
            raise ValueError("chains live on different complexes")
        if self.degree != other.degree:
            raise ValueError("chains have different degrees")

    def to_json(self) -> dict:
        return {"degree": self.degree, "coeffs": {str(i): c for i, c in self.coeffs.items()}}

    @classmethod
    def from_json(cls, complex: SimplicialComplex, data: dict) -> "IntegerChain":
        return cls(complex, int(data["degree"]),
                   {int(i): int(c) for i, c in data["coeffs"].items()})


@dataclass(frozen=True)
class ModPClass:
    """Congruence class mod p, stored through its reduced representative."""

    p: int
    representative: IntegerChain

    def __post_init__(self):
        if self.p < 2:
            raise ValueError("p must be >= 2")
        half = self.p / 2.0
        for c in self.representative.coeffs.values():
            if abs(c) > half or (abs(c) == half and c < 0):
                raise ValueError("representative is not reduced mod p")

    @property
    def degree(self) -> int:
        return self.representative.degree


def boundary(c: IntegerChain) -> IntegerChain:
    if c.degree < 1:
        raise ValueError("no boundary in degree 0")
    mat = c.complex.incidence[c.degree]
    out: dict[int, int] = {}
    for j, coeff in c.coeffs.items():
        for pos in range(mat.indptr[j], mat.indptr[j + 1]):
            i = int(mat.indices[pos])
            out[i] = out.get(i, 0) + int(mat.data[pos]) * coeff
    return IntegerChain(c.complex, c.degree - 1, out)


def mass(c: IntegerChain) -> float:
    vols = c.complex.volumes[c.degree]
    return float(sum(abs(coeff) * vols[i] for i, coeff in c.coeffs.items()))


def representative_modp(value: int, p: int) -> int:
    """Representative of value mod p in the half-open interval (-p/2, p/2]."""
    r = value % p
    if 2 * r > p:
        r -= p
    return r


def reduce_modp(c: IntegerChain, p: int) -> ModPClass:
    if p < 2:
        raise ValueError("p must be >= 2")
    coeffs = {i: representative_modp(coeff, p) for i, coeff in c.coeffs.items()}
    return ModPClass(p, IntegerChain(c.complex, c.degree, coeffs))


def is_cycle_modp(c: IntegerChain, p: int) -> bool:
    if c.degree < 1:
        raise ValueError("no boundary in degree 0")
    return all(coeff % p == 0 for coeff in boundary(c).coeffs.values())
