"""Oriented simplicial complexes and sparse integer chains.

Coefficients are exact Python integers; geometry (simplex volumes) is
computed once from vertex coordinates at construction time.

A complex is assembled from one ``(n, k+1)`` integer array per degree.
Each check on the input is an array test over a whole degree, every volume
of a degree comes from one batched Gram determinant, and every orientation
sign comes from ``_parity``.  Faces are found through one table per degree
that maps a sorted vertex tuple to its (index, sign); the signed incidence
matrices are then built from index arrays, and boundary-of-boundary = 0 is
checked as a self-test of the signs.
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


def _parity(s: np.ndarray) -> np.ndarray:
    """Sign of the permutation that sorts each row of ``s``; 0 for a row
    with a repeated entry.  Rows are short (at most 5), so the product of
    ``sign(s[:, j] - s[:, i])`` over i < j is cheap."""
    sign = np.ones(len(s), dtype=np.int64)
    for j in range(s.shape[1]):
        for i in range(j):
            sign *= np.sign(s[:, j] - s[:, i])
    return sign


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

        arrays = {0: np.arange(nv, dtype=np.int64)[:, None]}
        for k in sorted(int(k) for k in simplices):
            if k == 0:
                continue
            try:
                s = np.array(simplices[k], dtype=np.int64)
            except (TypeError, ValueError, OverflowError):
                s = None  # ragged rows or entries that are not vertex indices
            if s is None or len(s) and s.shape[1:] != (k + 1,):
                raise ValueError(f"bad {k}-simplices: each needs {k + 1} vertex indices")
            s = s.reshape(-1, k + 1)
            if not np.all(_parity(s)):
                raise ValueError(f"bad {k}-simplex: need {k + 1} distinct vertices")
            if s.size and not 0 <= s.min() <= s.max() < nv:
                raise ValueError(f"vertex index out of range in a {k}-simplex")
            arrays[k] = s

        self.simplices: dict[int, list[tuple[int, ...]]] = {
            k: list(map(tuple, s.tolist())) for k, s in arrays.items()}
        self.dim = max(self.simplices)

        self.volumes: dict[int, np.ndarray] = {}
        for k, s in arrays.items():
            edges = self.vertices[s[:, 1:]] - self.vertices[s[:, :1]]
            det = np.linalg.det(edges @ edges.transpose(0, 2, 1))
            vols = np.sqrt(np.maximum(det, 0.0)) / math.factorial(k)
            if k > 0 and np.any(vols <= 0.0):
                bad = int(np.argmin(vols))
                raise ValueError(f"degenerate {k}-simplex at index {bad}")
            self.volumes[k] = vols

        # per degree: sorted vertex tuple -> (index, sign of the sorting permutation)
        self._index: dict[int, dict[tuple[int, ...], tuple[int, int]]] = {}
        for k, s in arrays.items():
            table = dict(zip(map(tuple, np.sort(s, axis=1).tolist()),
                             zip(range(len(s)), _parity(s).tolist())))
            if len(table) < len(s):
                raise ValueError(f"duplicate {k}-simplex (up to vertex order)")
            self._index[k] = table

        # signed incidence matrices, incidence[k]: rows (k-1)-simplices, cols k-simplices
        self.incidence: dict[int, sparse.csc_matrix] = {}
        for k in range(1, self.dim + 1):
            s = arrays.get(k, np.zeros((0, k + 1), dtype=np.int64))
            faces = np.concatenate([np.delete(s, i, axis=1) for i in range(k + 1)])
            found = list(map(self._index.get(k - 1, {}).get,
                             map(tuple, np.sort(faces, axis=1).tolist())))
            if None in found:
                face = tuple(faces[found.index(None)].tolist())
                raise ValueError(f"face {face} of a {k}-simplex missing from the complex")
            rows, row_sign = np.array(found, dtype=np.int64).reshape(-1, 2).T
            face_sign = np.repeat((-1) ** np.arange(k + 1), len(s)) * _parity(faces)
            self.incidence[k] = sparse.csc_matrix(
                (face_sign * row_sign, (rows, np.tile(np.arange(len(s)), k + 1))),
                shape=(self.n_simplices(k - 1), len(s)),
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
        s = np.array([vertices], dtype=np.int64)
        j, stored_sign = self._index[s.shape[1] - 1][tuple(sorted(s[0].tolist()))]
        return j, int(_parity(s)[0]) * stored_sign

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
