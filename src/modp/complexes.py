"""Oriented simplicial complexes and integer chains.

A k-chain is one read-only int64 vector with one entry per k-simplex: its
boundary is one ``np.add.at`` of its signed entries onto the faces of each
simplex, and its mass one dot product with the simplex volumes.  Coefficients are exact; an input, a sum,
a scalar product or a boundary that would leave the int64 range raises
``OverflowError`` instead of wrapping.  Geometry (simplex volumes) is
computed once from vertex coordinates at construction time.

The k-simplices are one read-only ``(n, k+1)`` int64 array of vertex
indices per degree; the order of a row fixes the orientation.  Each input
check is an array test over a degree, each degree's volumes come from one
batched Gram determinant and orientation signs from ``_parity``.  ``_find``
looks simplices up by int64 keys, one ``np.searchsorted`` per degree from 1
to the one asked for: the key of a k-simplex (k >= 1) with sorted vertices
v_0 < ... < v_k is i * n_vertices + v_k, i the index of (v_0, ..., v_{k-1})
among the (k-1)-simplices, and the key of a vertex is its index.  A key is
below n_{k-1} * n_vertices, which no complex that fits in memory brings
near 2^63, and distinct simplices have distinct keys.  Each degree's keys
are sorted once at construction, where a repeated simplex shows as two
equal neighbours.  ``_find`` gives each simplex's faces and their signs,
and boundary-of-boundary = 0 is checked on them as a self-test of the
signs.  The sparse incidence matrices, which the integer programs take,
are built from the same faces on first access, so that a complex loads no
scipy.
"""

from __future__ import annotations

import json
import math
import numbers
import operator
from collections.abc import Mapping
from dataclasses import dataclass
from functools import cached_property
from types import MappingProxyType

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

    ``simplices[k]`` is a read-only ``(n, k+1)`` int64 array of vertex
    indices, one row per k-simplex; the order of a row fixes the orientation.
    Every face of a k-simplex (k >= 1) must be present among the
    (k-1)-simplices, up to an even/odd permutation of its vertices.
    """

    def __init__(self, vertices, simplices):
        self.vertices = np.asarray(vertices, dtype=float)
        if self.vertices.ndim != 2 or not 1 <= self.vertices.shape[1] <= 4:
            raise ValueError("vertices must be an (n, d) array with 1 <= d <= 4")
        nv = len(self.vertices)

        self.simplices: dict[int, np.ndarray] = {0: np.arange(nv, dtype=np.int64)[:, None]}
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
            self.simplices[k] = s
        self.dim = max(self.simplices)

        self.volumes: dict[int, np.ndarray] = {}
        for k, s in self.simplices.items():
            s.flags.writeable = False
            edges = self.vertices[s[:, 1:]] - self.vertices[s[:, :1]]
            det = np.linalg.det(edges @ edges.transpose(0, 2, 1))
            vols = np.sqrt(np.maximum(det, 0.0)) / math.factorial(k)
            if k > 0 and np.any(vols <= 0.0):
                bad = int(np.argmin(vols))
                raise ValueError(f"degenerate {k}-simplex at index {bad}")
            self.volumes[k] = vols
        # to_json writes the volumes of a degree only where they differ from these
        self._geometric_volumes = {k: v.copy() for k, v in self.volumes.items()}

        # each degree's sorted keys and the simplex index of each, for
        # ``_find``; a vertex's key is its index, already in order
        self._keys: dict[int, tuple[np.ndarray, np.ndarray]] = {0: (np.arange(nv),) * 2}
        # faces[k] = (rows, signs), each (k+1, n_k): the index of the face of each
        # k-simplex opposite its vertex i, and the incidence sign (-1)^i times
        # the face's orientation sign
        self._faces: dict[int, tuple[np.ndarray, np.ndarray]] = {}
        for k in range(1, self.dim + 1):
            s = self.simplices.get(k, np.zeros((0, k + 1), dtype=np.int64))
            faces = np.concatenate([np.delete(s, i, axis=1) for i in range(k + 1)])
            rows, sign = self._find(k - 1, faces)
            if not sign.all():
                face = tuple(faces[np.argmax(sign == 0)].tolist())
                raise ValueError(f"face {face} of a {k}-simplex missing from the complex")
            rows = rows.reshape(k + 1, len(s))
            signs = sign.reshape(k + 1, len(s)) * (-1) ** np.arange(k + 1)[:, None]
            self._faces[k] = rows, signs
            # the face opposite the largest vertex holds the others
            top, each = np.argmax(s, axis=1), np.arange(len(s))
            keys = rows[top, each] * nv + s[each, top]
            order = np.argsort(keys)
            keys = keys[order]
            if np.any(keys[1:] == keys[:-1]):
                raise ValueError(f"duplicate {k}-simplex (up to vertex order)")
            self._keys[k] = keys, order

        # boundary-of-boundary = 0: each (k-2)-face of a k-simplex is reached
        # twice, once for each order of dropping its two vertices, with
        # opposite signs; so each simplex's sorted keys 2 * face + (sign > 0)
        # come in pairs 2f, 2f + 1 (a negative sign flips the bit below)
        for k in range(2, self.dim + 1):
            rows, signs = self._faces[k]
            low_rows, low_signs = self._faces[k - 1]
            key = np.sort(((2 * low_rows + (low_signs > 0))[:, rows] ^ (signs < 0))
                          .reshape(-1, rows.shape[1]), axis=0)
            if np.any(key[0::2] % 2) or np.any(key[1::2] != key[0::2] + 1):
                raise ValueError(f"incidence signs violate boundary-of-boundary = 0 at degree {k}")

    @cached_property
    def incidence(self) -> dict:
        """Signed incidence matrices, built on first access: ``incidence[k]``
        is a sparse int64 matrix, rows (k-1)-simplices, columns k-simplices."""
        from scipy import sparse

        return {k: sparse.csc_matrix(
            (signs.ravel(), (rows.ravel(), np.tile(np.arange(rows.shape[1]), k + 1))),
            shape=(self.n_simplices(k - 1), rows.shape[1]), dtype=np.int64)
            for k, (rows, signs) in self._faces.items()}

    def _find(self, k: int, rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """(index, sign) of the k-simplex with the vertices of each row of the
        ``(m, k+1)`` array ``rows``: sign +1 or -1 as the row is an even or odd
        permutation of it, and index 0, sign 0 where there is none."""
        j, found = self._lookup(k, np.sort(rows, axis=1))
        if not found.any():
            return j, np.zeros(len(rows), dtype=np.int64)
        return j, np.where(found, _parity(rows) * _parity(self.simplices[k][j]), 0)

    def _lookup(self, k: int, srt: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """(index, found) of the k-simplex of each row of ``srt``, whose
        vertices increase along the row; index 0 where it is not found.  A
        row is found through its first k vertices, as a (k-1)-simplex."""
        if k not in self._keys or not len(self._keys[k][0]):
            return np.zeros(len(srt), dtype=np.int64), np.zeros(len(srt), dtype=bool)
        nv = len(self.vertices)
        last = srt[:, -1]
        if k == 0:
            found = (last >= 0) & (last < nv)
            return np.where(found, last, 0), found
        keys, index = self._keys[k]
        face, found = self._lookup(k - 1, srt[:, :-1])
        found &= last < nv
        key = np.where(found, face * nv + last, -1)
        at = np.minimum(np.searchsorted(keys, key), len(keys) - 1)
        found &= keys[at] == key
        return np.where(found, index[at], 0), found

    def n_simplices(self, k: int) -> int:
        return len(self.simplices.get(k, ()))

    def simplex_index(self, vertices) -> tuple[int, int]:
        """Return (index, orientation sign) of the simplex with these vertices."""
        s = np.array([vertices], dtype=np.int64)
        j, sign = self._find(s.shape[1] - 1, s)
        if not sign[0]:
            raise KeyError(tuple(s[0].tolist()))
        return int(j[0]), int(sign[0])

    def chain(self, degree: int, coeffs=None) -> "IntegerChain":
        return IntegerChain(self, degree, coeffs)

    def chain_from_simplices(self, degree: int, simplex_rows) -> "IntegerChain":
        """Chain summing the simplices of an ``(m, degree+1)`` array-like of
        vertex rows, each +1 in the orientation of its row."""
        rows = np.asarray(simplex_rows, dtype=np.int64)
        if rows.ndim != 2 or rows.shape[1] != degree + 1:
            raise ValueError(f"a {degree}-simplex needs {degree + 1} vertex indices")
        j, sign = self._find(degree, rows)
        if not sign.all():
            raise KeyError(tuple(rows[np.argmax(sign == 0)].tolist()))
        counts = np.bincount(j, sign, self.n_simplices(degree))  # exact float sums of +-1
        return IntegerChain(self, degree, counts.astype(np.int64))

    # -- JSON interface (schema `complex.json`) --

    def to_json(self) -> dict:
        """Vertices and simplices; ``"volumes"`` holds each degree whose volumes
        were replaced after construction (a conformal weight), and only those."""
        data = {
            "vertices": self.vertices.tolist(),
            "simplices": {str(k): s.tolist() for k, s in self.simplices.items() if k > 0},
        }
        volumes = {str(k): v.tolist() for k, v in self.volumes.items()
                   if not np.array_equal(v, self._geometric_volumes[k])}
        if volumes:
            data["volumes"] = volumes
        return data

    @classmethod
    def from_json(cls, data: dict) -> "SimplicialComplex":
        cx = cls(data["vertices"], {int(k): v for k, v in data["simplices"].items()})
        for k, vols in data.get("volumes", {}).items():
            k, vols = int(k), np.asarray(vols, dtype=float)
            if k not in cx.volumes or vols.shape != cx.volumes[k].shape \
                    or not np.all(np.isfinite(vols) & (vols > 0)):
                raise ValueError(f"bad volumes in degree {k}: need one finite "
                                 f"value > 0 per {k}-simplex")
            cx.volumes[k] = vols
        return cx

    @classmethod
    def load(cls, path) -> "SimplicialComplex":
        with open(path) as fh:
            return cls.from_json(json.load(fh))


_WRAP = 2.0 ** 63


def _exact(result: np.ndarray, estimate: np.ndarray) -> np.ndarray:
    """``result``, an int64 array, checked against ``estimate``, the same sum
    in float64: a wrapped entry is off by a nonzero multiple of 2^64, the
    estimate by far less than 2^63."""
    if np.any(np.abs(result - estimate) >= _WRAP):
        raise OverflowError("chain coefficient outside the int64 range")
    return result


class IntegerChain:
    """Integer k-chain on a fixed complex.

    ``vector`` is a read-only int64 array with one entry per k-simplex.  The
    constructor takes a mapping {simplex index: coefficient} or a length-n
    integer array; ``coeffs`` is a read-only dict of the nonzero entries in
    index order.
    """

    __slots__ = ("complex", "degree", "vector")

    def __init__(self, complex: SimplicialComplex, degree: int, coeffs=None):
        n = complex.n_simplices(degree)
        if coeffs is None or isinstance(coeffs, Mapping):
            coeffs = coeffs or {}
            index = np.fromiter(map(int, coeffs.keys()), dtype=np.int64, count=len(coeffs))
            if len(index) and not 0 <= index.min() <= index.max() < n:
                raise ValueError(f"simplex index out of range in degree {degree}")
            vector = np.zeros(n, dtype=np.int64)
            vector[index] = np.fromiter(map(int, coeffs.values()), dtype=np.int64,
                                        count=len(coeffs))
        else:
            a = np.asarray(coeffs)
            if a.shape != (n,) or a.dtype.kind not in "iu":
                raise ValueError(f"a {degree}-chain needs a mapping or {n} integers")
            vector = _exact(a.astype(np.int64), a.astype(float))
        vector.flags.writeable = False
        self.complex = complex
        self.degree = degree
        self.vector = vector

    @property
    def coeffs(self) -> Mapping[int, int]:
        nz = np.flatnonzero(self.vector)
        return MappingProxyType(dict(zip(nz.tolist(), self.vector[nz].tolist())))

    def __repr__(self) -> str:
        return f"IntegerChain(degree={self.degree}, coeffs={dict(self.coeffs)})"

    def __add__(self, other: "IntegerChain") -> "IntegerChain":
        return self._combine(other, np.add)

    def __sub__(self, other: "IntegerChain") -> "IntegerChain":
        return self._combine(other, np.subtract)

    def __rmul__(self, scalar: int) -> "IntegerChain":
        s = np.int64(operator.index(scalar))
        return IntegerChain(self.complex, self.degree,
                            _exact(s * self.vector, float(s) * self.vector))

    def __eq__(self, other) -> bool:
        return (isinstance(other, IntegerChain)
                and self.complex is other.complex
                and self.degree == other.degree
                and np.array_equal(self.vector, other.vector))

    def is_zero(self) -> bool:
        return not self.vector.any()

    def to_dense(self) -> np.ndarray:
        return self.vector.copy()

    def _combine(self, other: "IntegerChain", op) -> "IntegerChain":
        if self.complex is not other.complex:
            raise ValueError("chains live on different complexes")
        if self.degree != other.degree:
            raise ValueError("chains have different degrees")
        a, b = self.vector, other.vector
        return IntegerChain(self.complex, self.degree, _exact(op(a, b), op(a.astype(float), b)))

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
        check_modulus(self.p)
        v = self.representative.vector
        if not np.array_equal(representative_modp(v, self.p), v):
            raise ValueError("representative is not reduced mod p")

    @property
    def degree(self) -> int:
        return self.representative.degree


def boundary(c: IntegerChain) -> IntegerChain:
    if c.degree < 1:
        raise ValueError("no boundary in degree 0")
    rows, signs = c.complex._faces[c.degree]
    rows, n = rows.ravel(), c.complex.n_simplices(c.degree - 1)
    result = np.zeros(n, dtype=np.int64)
    np.add.at(result, rows, (signs * c.vector).ravel())
    estimate = np.bincount(rows, (signs * c.vector.astype(float)).ravel(), n)
    return IntegerChain(c.complex, c.degree - 1, _exact(result, estimate))


def mass(c: IntegerChain) -> float:
    return float(c.complex.volumes[c.degree] @ np.abs(c.vector.astype(float)))


def representative_modp(value, p: int):
    """Representative of value mod p in the half-open interval (-p/2, p/2];
    entrywise on an integer array."""
    r = value % p
    return r - p * (r > p // 2)


def check_modulus(p) -> None:
    """The rule for every modulus: an integer (``numbers.Integral``) >= 2."""
    if not isinstance(p, numbers.Integral) or p < 2:
        raise ValueError("p must be an integer >= 2")


def reduce_modp(c: IntegerChain, p: int) -> ModPClass:
    check_modulus(p)
    return ModPClass(p, IntegerChain(c.complex, c.degree, representative_modp(c.vector, p)))


def is_cycle_modp(c: IntegerChain, p: int) -> bool:
    # the boundary of c mod p, which stays in int64 where that of c may not
    return not np.any(boundary(c.complex.chain(c.degree, c.vector % p)).vector % p)
