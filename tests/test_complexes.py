"""Chains, boundaries, mod-p representatives, and mass."""

import hashlib
import itertools
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import modp
from modp import fixtures
from conftest import random_chain


def test_boundary_of_boundary_vanishes(triangle):
    cx, _ = triangle
    top = modp.IntegerChain(cx, 2, {0: 1})
    bb = modp.boundary(modp.boundary(top))
    assert all(c == 0 for c in bb.coeffs.values())


def test_boundary_of_triangle_is_its_edge_cycle(triangle):
    cx, t = triangle
    top = modp.IntegerChain(cx, 2, {0: 1})
    assert modp.boundary(top) == t
    assert modp.is_cycle_modp(t, 3)
    assert modp.is_cycle_modp(t, 2)


def test_mass_counts_multiplicity_times_volume(triangle):
    cx, _ = triangle
    # edge 0 joins vertices 0 and 1 at unit distance
    c = modp.IntegerChain(cx, 1, {0: -3})
    assert modp.mass(c) == pytest.approx(3.0)


@pytest.mark.parametrize("value,p,rep", [
    (5, 3, -1),
    (2, 4, 2),   # tie at p/2 resolves to +p/2
    (7, 5, 2),
    (-2, 4, 2),
    (3, 6, 3),
    (0, 3, 0),
])
def test_representative_frozen_values(value, p, rep):
    assert modp.representative_modp(value, p) == rep


@given(st.integers(-10 ** 6, 10 ** 6), st.integers(2, 97))
def test_representative_properties(v, p):
    r = modp.representative_modp(v, p)
    assert (r - v) % p == 0
    assert 2 * abs(r) <= p
    if 2 * abs(r) == p:
        assert r > 0


def test_reduce_modp_minimizes_mass(triangle):
    cx, _ = triangle
    c = modp.IntegerChain(cx, 1, {0: 5, 1: -4, 2: 2})
    red = modp.reduce_modp(c, 3)
    assert red.representative.coeffs == {0: -1, 1: -1, 2: -1}


def test_chain_algebra(triangle):
    cx, t = triangle
    rng = np.random.default_rng(0)
    a = random_chain(rng, cx, 1)
    b = random_chain(rng, cx, 1)
    assert (a + b) - b == a
    assert 2 * a == a + a
    assert modp.mass(a - a) == 0.0


def test_chain_json_round_trip(triangle):
    cx, t = triangle
    data = t.to_json()
    back = modp.IntegerChain.from_json(cx, data)
    assert back == t


def test_complex_json_round_trip():
    cx = fixtures.strip_complex(3)
    assert "volumes" not in cx.to_json()
    back = modp.SimplicialComplex.from_json(cx.to_json())
    assert back.simplices.keys() == cx.simplices.keys()
    for k, s in cx.simplices.items():
        np.testing.assert_array_equal(back.simplices[k], s)
    np.testing.assert_allclose(back.vertices, cx.vertices)


def test_json_round_trip_keeps_reweighted_volumes():
    # the Plateau call of acceptance criterion 6, on the mesh and on its JSON copy
    cx, _ = fixtures.half_plane_mesh(0.2, modp.WeightedMetric("x"))
    data = json.loads(json.dumps(cx.to_json()))
    assert list(data["volumes"]) == ["1"]
    back = modp.SimplicialComplex.from_json(data)
    for k in cx.volumes:
        np.testing.assert_array_equal(back.volumes[k], cx.volumes[k])
    angles = np.radians([-40.0, 0.0, 40.0])
    verts = [fixtures.snap_to_vertex(cx, (math.cos(a), math.sin(a))) for a in angles]
    masses = [modp.plateau_modp(modp.reduce_modp(
        modp.IntegerChain(c, 0, {v: 1 for v in verts}), 3), 3).mass for c in (cx, back)]
    assert masses[0] == masses[1] == pytest.approx(1.1605, abs=1e-4)


@pytest.mark.parametrize("volumes", [{"1": [1.0]}, {"1": [1.0, float("nan"), 1.0]},
                                     {"1": [1.0, 0.0, 1.0]}, {"3": []}],
                         ids=["length", "nan", "zero", "degree"])
def test_complex_json_rejects_bad_volumes(volumes):
    cx, _ = fixtures.triangle_complex()
    with pytest.raises(ValueError, match="bad volumes"):
        modp.SimplicialComplex.from_json({**cx.to_json(), "volumes": volumes})


def test_incidence_is_sparse_and_consistent():
    cx, _ = fixtures.disk_mesh(0.2)
    B1 = cx.incidence[1]
    B2 = cx.incidence[2]
    prod = (B1 @ B2).tocsr()
    prod.eliminate_zeros()
    assert prod.count_nonzero() == 0


_TRIANGLE = [[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]]


@pytest.mark.parametrize("vertices,simplices", [
    (_TRIANGLE, {1: [(0, 1, 2)]}),
    (_TRIANGLE, {1: [(0, 1), (1, 2, 0)]}),
    (_TRIANGLE, {1: [(0, 0)]}),
    (_TRIANGLE, {1: [(0, 3)]}),
    (_TRIANGLE, {1: [(0, -1)]}),
    ([[0.0, 0.0], [1.0, 0.0], [2.0, 0.0]], {1: [(0, 1), (1, 2), (0, 2)], 2: [(0, 1, 2)]}),
    (_TRIANGLE, {1: [(0, 1), (1, 2), (2, 1)]}),
    (_TRIANGLE, {1: [(0, 1), (1, 2)], 2: [(0, 1, 2)]}),
    (_TRIANGLE, {2: [(0, 1, 2)]}),
], ids=["arity", "ragged", "repeated_vertex", "index_out_of_range", "negative_index",
        "degenerate", "duplicate_permuted", "missing_face", "missing_degree"])
def test_complex_rejects_bad_input(vertices, simplices):
    with pytest.raises(ValueError):
        modp.SimplicialComplex(vertices, simplices)


def test_simplices_are_read_only_int64_arrays():
    cx, _ = fixtures.disk_mesh(0.3)
    for k, s in cx.simplices.items():
        assert s.dtype == np.int64 and s.shape == (cx.n_simplices(k), k + 1)
        with pytest.raises(ValueError, match="read-only"):
            s[0, 0] = 1


@pytest.mark.parametrize("vertices", [(0, 3), (3, 0), (1, 1), (0, 1, 3), (0, 1, 2, 3)],
                         ids=["absent", "absent_reversed", "repeated", "absent_triangle",
                              "no_such_degree"])
def test_simplex_index_of_missing_simplex_raises_key_error(vertices):
    cx = fixtures.strip_complex(2)  # edges (0,1), (0,2), (1,2), (1,3), (2,3)
    with pytest.raises(KeyError):
        cx.simplex_index(vertices)


def test_lookups_sort_nothing_after_construction(monkeypatch):
    # each degree's rows are sorted once, at construction; a lookup only searches
    argsort = np.argsort
    calls = []

    def counting(*args, **kw):
        calls.append(1)
        return argsort(*args, **kw)

    monkeypatch.setattr(np, "argsort", counting)
    cx, _ = fixtures.disk_mesh(0.3)
    assert len(calls) == len(cx.simplices)
    calls.clear()
    for k in (1, 2):
        for row in cx.simplices[k][:50]:
            assert cx.simplex_index(row[::-1])[0] >= 0
        cx.chain_from_simplices(k, cx.simplices[k])
    assert calls == []


def test_chain_from_simplices_adds_signed_repeats():
    cx, _ = fixtures.grid_square_complex(2)  # vertices 0 and 1 span the edge (0, 1)
    j, _ = cx.simplex_index((0, 1))
    assert cx.chain_from_simplices(1, [(0, 1), (1, 0)]).is_zero()
    assert cx.chain_from_simplices(1, [(0, 1), (1, 0), (0, 1), (1, 4)]) == \
        cx.chain_from_simplices(1, [(0, 1), (1, 4)])
    assert cx.chain_from_simplices(1, [(1, 0), (1, 0)]).coeffs == {j: -2}
    assert cx.chain_from_simplices(1, np.zeros((0, 2), dtype=np.int64)).is_zero()
    with pytest.raises(KeyError):
        cx.chain_from_simplices(1, [(0, 1), (0, 8)])
    with pytest.raises(ValueError, match="2 vertex indices"):
        cx.chain_from_simplices(1, [(0, 1, 4)])


def test_lookup_does_not_overflow_on_high_vertex_indices():
    # 70000^5 > 2^63: a key that packs five vertex indices in base n_vertices would wrap
    nv = 70_000
    vertices = np.random.default_rng(0).normal(size=(nv, 4))
    top = tuple(range(nv - 5, nv))
    cx = modp.SimplicialComplex(vertices, {
        k: list(itertools.combinations(top, k + 1)) for k in range(1, 5)})
    assert cx.simplex_index(top) == (0, 1)
    assert cx.simplex_index(top[::-1]) == (0, 1)  # reversing five entries is even
    for i in range(5):
        face = top[:i] + top[i + 1:]
        row, sign = cx.simplex_index(face)
        assert cx.incidence[4][row, 0] == (-1) ** i * sign
    assert modp.boundary(modp.boundary(cx.chain(4, {0: 1}))).is_zero()
    with pytest.raises(KeyError):
        cx.simplex_index((0, nv - 1))


_CHAIN = fixtures.triangle_complex()[1]


@pytest.mark.parametrize("call", [
    lambda p: modp.reduce_modp(_CHAIN, p),
    lambda p: modp.ModPClass(p, _CHAIN),
    lambda p: modp.flat_norm_modp(_CHAIN, p),
    lambda p: modp.plateau_modp(modp.reduce_modp(modp.boundary(_CHAIN.complex.chain(1, {0: 1})),
                                                 3), p),
    lambda p: modp.solve_network([((0.0, 0.0), 1), ((1.0, 0.0), 2)], p),
], ids=["reduce_modp", "ModPClass", "flat_norm_modp", "plateau_modp", "solve_network"])
@pytest.mark.parametrize("p", [0, 1, 2.5, 3.0])
def test_every_entry_point_takes_one_modulus_rule(call, p):
    with pytest.raises(ValueError, match=r"^p must be an integer >= 2$"):
        call(p)


@pytest.mark.parametrize("h", [0.0, -0.5, float("nan"), float("inf")])
def test_meshes_reject_bad_size(h):
    with pytest.raises(ValueError, match="mesh size"):
        fixtures.disk_mesh(h)
    with pytest.raises(ValueError, match="mesh size"):
        fixtures.half_plane_mesh(h, modp.WeightedMetric("x"))


def _inversion_sign(s):
    inversions = sum(s[i] > s[j] for i in range(len(s)) for j in range(i + 1, len(s)))
    return -1 if inversions % 2 else 1


def _reference_assembly(vertices, simplices):
    """Volumes and incidence matrices computed one simplex and one face at a time."""
    from scipy import sparse

    volumes = {}
    for k, simps in simplices.items():
        vols = []
        for s in simps:
            edges = vertices[list(s[1:])] - vertices[s[0]]
            det = float(np.linalg.det(edges @ edges.T)) if k else 1.0
            vols.append(math.sqrt(det) / math.factorial(k) if det > 0 else 0.0)
        volumes[k] = np.array(vols)
    incidence = {}
    for k in range(1, max(simplices) + 1):
        rows = {tuple(sorted(f)): (r, _inversion_sign(f))
                for r, f in enumerate(simplices[k - 1])}
        dense = np.zeros((len(simplices[k - 1]), len(simplices[k])), dtype=np.int64)
        for j, s in enumerate(simplices[k]):
            for i in range(k + 1):
                face = s[:i] + s[i + 1:]
                r, sign = rows[tuple(sorted(face))]
                dense[r, j] = (-1) ** i * _inversion_sign(face) * sign
        incidence[k] = sparse.csc_matrix(dense)
    return volumes, incidence


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_assembly_matches_face_by_face_reference(data):
    nv = data.draw(st.integers(5, 8))
    vertices = np.random.default_rng(data.draw(st.integers(0, 2 ** 32 - 1))).normal(size=(nv, 4))
    tops = data.draw(st.lists(st.sets(st.integers(0, nv - 1), min_size=2, max_size=5),
                              min_size=1, max_size=6))
    closure = {tuple(sorted(f)) for t in tops
               for r in range(2, len(t) + 1) for f in itertools.combinations(sorted(t), r)}
    simplices = {0: [(i,) for i in range(nv)]}
    for k in range(1, max(len(f) for f in closure)):
        faces = data.draw(st.permutations(sorted(f for f in closure if len(f) == k + 1)))
        simplices[k] = [tuple(data.draw(st.permutations(f))) for f in faces]
    cx = modp.SimplicialComplex(vertices, {k: s for k, s in simplices.items() if k})
    volumes, incidence = _reference_assembly(vertices, simplices)
    assert cx.simplices.keys() == simplices.keys()
    for k, s in simplices.items():
        np.testing.assert_array_equal(cx.simplices[k], np.array(s))
    for k, vols in volumes.items():
        np.testing.assert_array_equal(cx.volumes[k], vols)
    for k, ref in incidence.items():
        got = cx.incidence[k]
        assert got.dtype == np.int64 and got.shape == ref.shape
        for attr in ("indptr", "indices", "data"):
            np.testing.assert_array_equal(getattr(got, attr), getattr(ref, attr))
    for k in range(1, cx.dim + 1):
        for j, s in enumerate(simplices[k]):
            assert cx.simplex_index(s) == (j, 1)
            swapped = (s[1], s[0]) + s[2:]
            assert cx.simplex_index(swapped) == (j, -1)


def _json_digest(cx, volumes=False):
    obj = cx.to_json()
    if volumes:
        obj["volumes"] = {str(k): v.tolist() for k, v in cx.volumes.items()}
    return hashlib.sha256(json.dumps(obj).encode()).hexdigest()


# SHA-256 of each generated mesh's JSON: witnesses index simplices by
# position, so the order of vertices and simplices must not change.
@pytest.mark.parametrize("build,volumes,digest", [
    (lambda: fixtures.disk_mesh(0.1)[0], False,
     "e9c294fefbe43538d21ebe567dfa33bf59d9446a054cbb1debda6322e375de96"),
    (lambda: fixtures.grid_square_complex(8)[0], False,
     "a3ad49ad2001bf089d74a0bd6444e7c474fbffbde59d0e0996f437aa3c76c403"),
    (lambda: fixtures.strip_complex(5), False,
     "cba1c198efe0f928a7b22cedd8d286275e97e0d85a1c31f28c2567a9344fd232"),
    (lambda: fixtures.half_plane_mesh(0.1, modp.WeightedMetric("x"))[0], True,
     "31052d7f1654a3524018be22ba55c9bbd43bf738f099fc94c238635daacc5af2"),
], ids=["disk_mesh", "grid_square", "strip", "half_plane"])
def test_generated_meshes_are_pinned(build, volumes, digest):
    assert _json_digest(build(), volumes) == digest


@pytest.mark.parametrize("build", [
    lambda: fixtures.triangle_complex()[0],
    lambda: fixtures.strip_complex(5),
    lambda: fixtures.grid_square_complex(8)[0],
    *(lambda h=h: fixtures.disk_mesh(h)[0] for h in (0.45, 0.25, 0.1, 0.05)),
    *(lambda h=h: fixtures.half_plane_mesh(h, modp.WeightedMetric("x"))[0] for h in (0.1, 0.025)),
], ids=["triangle", "strip", "grid_square", "disk_0.45", "disk_0.25", "disk_0.1", "disk_0.05",
        "half_plane_0.1", "half_plane_0.025"])
def test_generated_meshes_are_discs(build):
    # each mesh fixture triangulates a disk, a box or a strip: every edge
    # bounds a triangle, and the Euler characteristic is that of a disk
    cx = build()
    assert np.all(np.diff(cx.incidence[2].tocsr().indptr) > 0)
    assert cx.n_simplices(0) - cx.n_simplices(1) + cx.n_simplices(2) == 1


_INT64 = range(-2 ** 63, 2 ** 63)
_CHAIN_COMPLEXES = [fixtures.triangle_complex()[0], fixtures.strip_complex(4),
                    fixtures.disk_mesh(0.45)[0]]


def _ref_combination(a, b, s):
    """a + s * b on dict chains, zeros dropped, in index order."""
    out = dict(a)
    for i, c in b.items():
        out[i] = out.get(i, 0) + s * c
    return {i: out[i] for i in sorted(out) if out[i]}


def _ref_boundary(cx, k, a):
    mat = cx.incidence[k]
    out = {}
    for j, c in a.items():
        for pos in range(mat.indptr[j], mat.indptr[j + 1]):
            i = int(mat.indices[pos])
            out[i] = out.get(i, 0) + int(mat.data[pos]) * c
    return {i: out[i] for i in sorted(out) if out[i]}


def _check(compute, ref):
    """``compute()`` has coefficients ``ref``, or raises OverflowError when a
    coefficient of ``ref`` leaves int64."""
    if all(c in _INT64 for c in ref.values()):
        assert compute().coeffs == ref
    else:
        with pytest.raises(OverflowError):
            compute()


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_chain_operations_match_dict_reference(data):
    cx = data.draw(st.sampled_from(_CHAIN_COMPLEXES))
    k = data.draw(st.integers(1, cx.dim))
    # small values, and values near the int64 limits where sums can wrap
    size = data.draw(st.sampled_from([3, 2 ** 20, 2 ** 62]))
    values = st.integers(-size, size) | st.sampled_from([2 ** 63 - 1, -2 ** 63, 2 ** 62])
    chains = st.dictionaries(st.integers(0, cx.n_simplices(k) - 1), values.filter(bool))
    a, b = data.draw(chains), data.draw(chains)
    s = data.draw(st.integers(-5, 5))
    p = data.draw(st.integers(2, 12))
    A, B = modp.IntegerChain(cx, k, a), modp.IntegerChain(cx, k, b)

    assert A.coeffs == _ref_combination({}, a, 1)
    assert list(A.coeffs) == sorted(a)
    np.testing.assert_array_equal(A.to_dense()[list(a)], list(a.values()))
    _check(lambda: A + B, _ref_combination(a, b, 1))
    _check(lambda: A - B, _ref_combination(a, b, -1))
    _check(lambda: s * A, _ref_combination({}, a, s))
    d = _ref_boundary(cx, k, a)
    _check(lambda: modp.boundary(A), d)
    assert modp.mass(A) == pytest.approx(
        sum(abs(c) * cx.volumes[k][i] for i, c in a.items()), rel=1e-12)
    red = {i: modp.representative_modp(c, p) for i, c in a.items()}
    assert modp.reduce_modp(A, p).representative.coeffs == _ref_combination({}, red, 1)
    if all(c in _INT64 for c in d.values()):
        assert modp.is_cycle_modp(A, p) == all(c % p == 0 for c in d.values())
    if all(p * c in _INT64 for c in a.values()):
        assert modp.is_cycle_modp(p * A, p)


@pytest.mark.parametrize("build", [lambda: fixtures.strip_complex(7),
                                   lambda: fixtures.disk_mesh(0.3)[0],
                                   lambda: fixtures.grid_square_complex(5)[0]],
                         ids=["strip", "disk", "grid"])
def test_boundary_from_face_rows_equals_incidence_product(build):
    cx = build()
    # the sparse matrices are built on first access, after the boundaries here
    assert "incidence" not in vars(cx)
    rng = np.random.default_rng(18)
    chains = [(k, rng.integers(-5, 6, cx.n_simplices(k))) for k in (1, 2) for _ in range(5)]
    got = [modp.boundary(modp.IntegerChain(cx, k, v)).vector for k, v in chains]
    assert "incidence" not in vars(cx)
    for (k, v), b in zip(chains, got):
        np.testing.assert_array_equal(b, cx.incidence[k] @ v)


def test_chain_overflow_raises():
    cx, _ = fixtures.triangle_complex()
    big = modp.IntegerChain(cx, 1, {0: 2 ** 63 - 1, 1: -2 ** 63})
    for make in (lambda: modp.IntegerChain(cx, 1, {0: 2 ** 63}),
                 lambda: modp.IntegerChain(cx, 1, np.array([2 ** 63, 0, 0], dtype=np.uint64)),
                 lambda: big + big,
                 lambda: big - modp.IntegerChain(cx, 1, {1: 1}),
                 lambda: 2 * big,
                 lambda: -1 * big,
                 lambda: modp.boundary(big)):
        with pytest.raises(OverflowError):
            make()
    assert (big - big).is_zero()
    assert modp.mass(big) == pytest.approx(2.0 ** 63 * (1 + math.sqrt(2)))  # edge 1 is the hypotenuse
    with pytest.raises(ValueError):
        big.vector[0] = 0  # read-only
