"""Triangulation structure, orientation and Pachner move tests."""

import json
import random
from collections import Counter
from dataclasses import replace
from itertools import combinations

import pytest

from hexaform import triangulation as tri
from hexaform.manifolds import builtin_manifold
from hexaform.triangulation import (MoveDescriptor, Triangulation, apply_move,
                                    boundary_delta5, faces, find_moves,
                                    isomorphic, load, orient, relabel, save)
from oracles import (cp2_walk, open_cp2, product_manifold, scan_find_moves,
                     scan_move_parts)

SINGLE = Triangulation("one", ((0, 1, 2, 3, 4),))

# five facets of two glued del-Delta^5's forming an odd dual cycle; no sign
# assignment is coherent (found by search, re-verified exhaustively below)
NON_ORIENTABLE = Triangulation("bad", (
    (0, 1, 4, 5, 6), (0, 1, 4, 5, 7), (0, 3, 4, 5, 7),
    (1, 3, 4, 5, 6), (3, 4, 5, 6, 7)))


class TestFaces:
    def test_standard_pentachoron(self):
        assert faces((0, 1, 2, 3, 4)) == [
            (1, 2, 3, 4), (0, 2, 3, 4), (0, 1, 3, 4), (0, 1, 2, 4), (0, 1, 2, 3)]

    def test_sparse_ids(self):
        assert faces((0, 2, 4, 6, 8)) == [
            (2, 4, 6, 8), (0, 4, 6, 8), (0, 2, 6, 8), (0, 2, 4, 8), (0, 2, 4, 6)]

    def test_extremes(self):
        u = (3, 5, 7, 11, 13)
        fs = faces(u)
        assert min(u) not in fs[0]
        assert max(u) not in fs[-1]


class TestValidation:
    def test_rejects_decreasing(self):
        with pytest.raises(tri.TriangulationError):
            Triangulation("x", ((0, 2, 1, 3, 4),))

    def test_rejects_repeated_vertex(self):
        with pytest.raises(tri.TriangulationError):
            Triangulation("x", ((0, 1, 1, 3, 4),))

    def test_rejects_overshared_tetrahedron(self):
        with pytest.raises(tri.TriangulationError):
            Triangulation("x", ((0, 1, 2, 3, 4), (0, 1, 2, 3, 5), (0, 1, 2, 3, 6)))

    def test_rejects_duplicate_pentachoron(self):
        # each tetrahedron of the doubled pentachoron would count as interior
        with pytest.raises(tri.TriangulationError, match=r"\(0, 1, 2, 3, 4\) listed twice"):
            Triangulation("x", ((0, 1, 2, 3, 4), (0, 1, 2, 3, 4)))
        with pytest.raises(tri.TriangulationError, match="listed twice"):
            Triangulation("x", SINGLE.pentachora * 2, (1, -1))

    def test_rejects_bad_signs(self):
        with pytest.raises(tri.TriangulationError):
            Triangulation("x", ((0, 1, 2, 3, 4),), (2,))

    def test_rejects_incoherent_signs_in_memory(self):
        s4 = builtin_manifold("s4")
        with pytest.raises(tri.NonOrientableError, match="coherent"):
            replace(s4, signs=(-s4.signs[0], *s4.signs[1:]))
        # a sign on a tetrahedron no other pentachoron shares is free
        assert Triangulation("x", SINGLE.pentachora, (-1,)).signs == (-1,)
        assert replace(s4, signs=tuple(-s for s in s4.signs)).is_closed()

    def test_incoherent_file_signs_keep_exit_code(self, tmp_path):
        s4 = builtin_manifold("s4")
        path = tmp_path / "flipped.json"
        path.write_text(json.dumps({
            "name": "s4", "vertices": 6, "pentachora": [list(u) for u in s4.pentachora],
            "signs": [-s4.signs[0], *s4.signs[1:]]}))
        with pytest.raises(tri.NonOrientableError, match=str(path)):
            load(str(path))

    def test_coherent_signs_on_disconnected_file(self, tmp_path):
        s4 = builtin_manifold("s4")
        far = [[v + 6 for v in u] for u in s4.pentachora]
        path = tmp_path / "two.json"
        path.write_text(json.dumps({
            "name": "two", "vertices": 12,
            "pentachora": [list(u) for u in s4.pentachora] + far,
            "signs": list(s4.signs) * 2}))
        with pytest.raises(tri.DisconnectedError):
            load(str(path))


class TestBoundaryDelta5:
    def test_counts(self):
        t = boundary_delta5()
        assert len(t.pentachora) == 6
        assert len(t.tetrahedra()) == 15

    def test_closed(self):
        t = boundary_delta5()
        assert t.is_closed()
        assert all(c == 2 for c in t.counts[3].values())

    def test_euler_characteristic(self):
        assert boundary_delta5().euler_characteristic() == 2

    def test_alternating_signs(self):
        t = boundary_delta5()
        # facet omitting vertex i carries sign (-1)^i
        for sign, u in zip(t.signs, t.pentachora):
            (omitted,) = set(range(6)) - set(u)
            assert sign == (-1) ** omitted

    def test_coherence_oracle(self):
        # every interior tetrahedron gets two opposite induced orientations
        t = boundary_delta5()
        induced = {}
        for sign, u in zip(t.signs, t.pentachora):
            for pos, tet in enumerate(faces(u)):
                induced.setdefault(tet, []).append(sign * (-1) ** pos)
        for tet, pair in induced.items():
            assert sorted(pair) == [-1, 1], tet


class TestOrient:
    def test_single_pentachoron(self):
        assert orient(SINGLE).signs == (1,)

    def test_first_pentachoron_positive(self):
        # orient ignores the signs it is given; negating them keeps coherence
        s4 = boundary_delta5()
        flipped = replace(s4, signs=tuple(-s for s in s4.signs))
        assert orient(flipped).signs == orient(replace(s4, signs=None)).signs == s4.signs

    def test_non_orientable(self):
        with pytest.raises(tri.NonOrientableError):
            orient(NON_ORIENTABLE)

    def test_non_orientable_exhaustively(self):
        # no sign assignment at all satisfies the coherence rule
        t = NON_ORIENTABLE
        inc = {}
        for ui, u in enumerate(t.pentachora):
            for pos, tet in enumerate(faces(u)):
                inc.setdefault(tet, []).append((ui, pos))
        shared = [pair for pair in inc.values() if len(pair) == 2]
        for code in range(2 ** len(t.pentachora)):
            signs = [1 if code & (1 << i) else -1 for i in range(len(t.pentachora))]
            if all(signs[a] * (-1) ** pa == -signs[b] * (-1) ** pb
                   for (a, pa), (b, pb) in shared):
                pytest.fail(f"coherent assignment {signs} exists")

    def test_disconnected(self):
        t = Triangulation("two", ((0, 1, 2, 3, 4), (5, 6, 7, 8, 9)))
        with pytest.raises(tri.DisconnectedError):
            orient(t)


class TestMoves:
    def test_1_5_counts(self):
        t = boundary_delta5()
        d = find_moves(t, "1-5")[0]
        out = apply_move(t, d)
        assert len(out.pentachora) == 10
        assert len(out.vertex_ids) == 7
        assert out.is_closed()

    def test_find_1_5_on_s4(self):
        assert len(find_moves(boundary_delta5(), "1-5")) == 6

    def test_no_2_4_or_3_3_directly_on_s4(self):
        # every candidate replacement facet already exists on 6 vertices
        t = boundary_delta5()
        assert find_moves(t, "2-4") == []
        assert find_moves(t, "3-3") == []

    def test_2_4_then_4_2_round_trip(self):
        t = apply_move(boundary_delta5(), find_moves(boundary_delta5(), "1-5")[0])
        d = find_moves(t, "2-4")[0]
        moved = apply_move(t, d)
        assert len(moved.pentachora) == len(t.pentachora) + 2
        back = apply_move(moved, MoveDescriptor("4-2", tuple(
            i for i, u in enumerate(moved.pentachora)
            if set(u) <= set(d.six_vertices) ), d.six_vertices))
        assert isomorphic(back, t)

    def test_3_3_preserves_count(self):
        t = boundary_delta5()
        for kind in ("1-5", "2-4"):
            t = apply_move(t, find_moves(t, kind)[0])
        d = find_moves(t, "3-3")[0]
        assert len(apply_move(t, d).pentachora) == len(t.pentachora)

    def test_single_pentachoron_no_3_3(self):
        assert find_moves(SINGLE, "3-3") == []

    def test_stale_vertex(self):
        t = boundary_delta5()
        with pytest.raises(tri.StaleVertex):
            apply_move(t, MoveDescriptor("1-5", (0,), (1, 2, 3, 4, 5, 0)))

    def test_unknown_kind(self):
        with pytest.raises(tri.MoveError):
            MoveDescriptor("6-0", (0,), (0, 1, 2, 3, 4, 5))

    def test_bad_target(self):
        t = boundary_delta5()
        with pytest.raises(tri.ConfigurationNotFound):
            apply_move(t, MoveDescriptor("2-4", (0, 0), (0, 1, 2, 3, 4, 5)))

    def test_closedness_and_orientation_preserved(self):
        t = boundary_delta5()
        rng = random.Random(11)
        for _ in range(6):
            pool = []
            for kind in tri.MOVE_KINDS:
                pool.extend(find_moves(t, kind))
            t = apply_move(t, pool[rng.randrange(len(pool))])
            assert t.is_closed()
            assert t.signs is not None

    @pytest.mark.parametrize("make", [boundary_delta5, lambda: builtin_manifold("cp2"),
                                      open_cp2, lambda: product_manifold("s2xs2")],
                             ids=["s4", "cp2", "cp2-open", "s2xs2"])
    def test_sign_rule_against_orient(self, make):
        # 25 seeded walks of 10 moves each, half of them from the reversed
        # orientation; the kind is drawn first so 4-2 and 5-1 moves occur
        start = make()
        for walk in range(25):
            rng = random.Random(walk)
            t = start if walk % 2 else replace(start, signs=tuple(-s for s in start.signs))
            for _ in range(10):
                pools = [m for m in (find_moves(t, kind) for kind in tri.MOVE_KINDS) if m]
                pool = pools[rng.randrange(len(pools))]
                d = pool[rng.randrange(len(pool))]
                out = apply_move(t, d)
                kept = {u: s for i, (u, s) in enumerate(zip(t.pentachora, t.signs))
                        if i not in d.target}
                assert all(out.signs[out.index[u]] == s for u, s in kept.items())
                oracle = orient(replace(out, signs=None)).signs
                assert out.signs in (oracle, tuple(-s for s in oracle))
                assert apply_move(replace(t, signs=None), d) == replace(out, signs=None)
                t = out

    def test_class_kept_when_every_pentachoron_is_a_target(self):
        # a lone pentachoron: no kept sign anchors the result
        plus, minus = replace(SINGLE, signs=(1,)), replace(SINGLE, signs=(-1,))
        d = find_moves(plus, "1-5")[0]
        coned = apply_move(minus, d)
        assert coned.signs == tuple(-s for s in apply_move(plus, d).signs)
        assert apply_move(coned, find_moves(coned, "5-1")[0]).signs == (-1,)

    def test_one_triangulation_per_move_and_no_orient(self, monkeypatch):
        t = apply_move(boundary_delta5(), find_moves(boundary_delta5(), "1-5")[0])
        d = find_moves(t, "2-4")[0]
        built = []
        init = Triangulation.__post_init__
        monkeypatch.setattr(Triangulation, "__post_init__",
                            lambda self: built.append(self) or init(self))

        def no_orient(_):
            raise AssertionError("orientation search called")

        monkeypatch.setattr(tri, "_coherent_signs", no_orient)
        out, s4 = apply_move(t, d), boundary_delta5()
        assert built == [out, s4]
        assert s4.signs == (1, -1, 1, -1, 1, -1)

    def test_regression_after_union_check(self):
        # this exact sequence once produced an overshared tetrahedron because
        # only the before-union's interior simplices were validated
        t = boundary_delta5()
        rng = random.Random(5)
        for _ in range(8):
            pool = []
            for kind in tri.MOVE_KINDS:
                pool.extend(find_moves(t, kind))
            t = apply_move(t, pool[rng.randrange(len(pool))])
        assert t.is_closed()


def _candidates(t: Triangulation) -> list[MoveDescriptor]:
    """Descriptors valid and invalid: every combination of the pentachora
    on every six-vertex set a pentachoron spans with one more vertex, each
    pentachoron coned to every vertex id, and out-of-range targets."""
    verts = sorted(t.vertex_ids)
    out = []
    for i, u in enumerate(t.pentachora):
        for w in verts + [verts[-1] + 1]:
            if w not in u:
                out.append(MoveDescriptor("1-5", (i,), tuple(sorted(u + (w,)))))
    six_sets = sorted({tuple(sorted(set(u) | {w}))
                       for u in t.pentachora for w in verts if w not in u})
    for six in six_sets:
        present = [i for i, u in enumerate(t.pentachora) if set(u) <= set(six)]
        for kind, k in tri.MOVE_KINDS.items():
            out.extend(MoveDescriptor(kind, c, six) for c in combinations(present, k))
    n = len(t.pentachora)
    out.append(MoveDescriptor("2-4", (0, n), tuple(verts[:6])))
    out.append(MoveDescriptor("3-3", (0, 1, 2), tuple(verts[-6:])))
    return out


def _outcome(check, t, d):
    try:
        return ("ok",) + tuple(check(t, d))
    except tri.MoveError as exc:
        return (type(exc), str(exc))


def _reversed(t: Triangulation) -> Triangulation:
    # pentachora out of lexicographic order, as a file may list them
    return Triangulation(t.name, t.pentachora[::-1], t.signs[::-1])


def _cp2_scripted() -> Triangulation:
    # on cp2 every 2-4 after one 1-5 passes through the new vertex, so a
    # second 1-5 hosts the 2-4: a 4-2 undoes it, a 5-1 the first 1-5
    t = builtin_manifold("cp2")
    t = apply_move(t, find_moves(t, "1-5")[0])
    first = max(t.vertex_ids)
    for kind in ("1-5", "2-4"):
        t = apply_move(t, next(d for d in find_moves(t, kind) if first not in d.six_vertices))
    return t


def _hung_triangle() -> Triangulation:
    # a valid 3-3 on a sphere, and one more pentachoron hung on its core
    # triangle by two fresh vertices: the 3-3 is now blocked by its core
    t = boundary_delta5()
    for kind in ("1-5", "2-4"):
        t = apply_move(t, find_moves(t, kind)[0])
    d = find_moves(t, "3-3")[0]
    core = set(d.six_vertices).intersection(*(t.pentachora[i] for i in d.target))
    fresh = max(t.vertex_ids) + 1
    return Triangulation("hung", t.pentachora + (tuple(sorted(core)) + (fresh, fresh + 1),))


MOVE_INPUTS = [boundary_delta5, lambda: builtin_manifold("cp2"), cp2_walk,
               lambda: cp2_walk(seed=3, n=14), lambda: _reversed(cp2_walk()), open_cp2,
               lambda: product_manifold("s2xs2"), _cp2_scripted, _hung_triangle]
MOVE_IDS = ["s4", "cp2", "cp2-walk10", "cp2-walk3", "cp2-walk10-reversed", "cp2-open",
            "s2xs2", "cp2-scripted", "s4-hung-triangle"]


class TestMoveSearchAgainstScan:
    """The simplex-count move search against the scan of every pentachoron
    that it replaced."""

    @pytest.mark.parametrize("make", MOVE_INPUTS, ids=MOVE_IDS)
    def test_found_moves_equal(self, make):
        t = make()
        for kind in tri.MOVE_KINDS:
            assert find_moves(t, kind) == scan_find_moves(t, kind)

    @pytest.mark.parametrize("make", MOVE_INPUTS, ids=MOVE_IDS)
    def test_every_descriptor_has_the_same_outcome(self, make):
        t = make()
        seen = set()
        blocked = set()  # which part of the move the interior simplex is
        for d in _candidates(t):
            new = _outcome(tri._move_parts, t, d)
            assert new == _outcome(scan_move_parts, t, d), d
            seen.add(new[0])
            if new[0] is tri.LinkConditionViolation and new[1].startswith("interior simplex "):
                named = new[1].removeprefix("interior simplex ").split(" meets")[0]
                sigma = tri._obstruction(t, tuple(sorted(d.six_vertices)), d.target)
                assert named == str(sigma), d
                # the core lies in every target, the omitted set in none whole
                blocked.add("core" if all(set(sigma) <= set(t.pentachora[i]) for i in d.target)
                            else "omitted")
        assert {"ok", tri.StaleVertex, tri.LinkConditionViolation,
                tri.ConfigurationNotFound} <= seen
        # the first simplex that fails is the core or the omitted set.  In
        # the targets the core's link is the sphere bounding the omitted
        # simplex; on a manifold its whole link is a sphere or a ball, so it
        # is that sphere, and only a non-manifold has a larger core star
        assert blocked == ({"core", "omitted"} if make is _hung_triangle else {"omitted"})

    def test_inputs_offer_the_rare_kinds_or_none(self):
        t = _cp2_scripted()
        assert find_moves(t, "4-2") and find_moves(t, "5-1")
        t = product_manifold("s2xs2")
        assert not any(find_moves(t, kind) for kind in ("3-3", "4-2", "5-1"))

    def test_5_1_vertex_used_elsewhere(self):
        # the five facets of del-Delta^5 around vertex 5, and one more
        # pentachoron on vertex 5: impossible on a closed manifold
        star = tuple(tuple(v for v in range(6) if v != i) for i in range(5))
        t = Triangulation("star", star + ((5, 6, 7, 8, 9),))
        d = MoveDescriptor("5-1", (0, 1, 2, 3, 4), tuple(range(6)))
        expected = (tri.LinkConditionViolation, "vertex 5 still used outside the move support")
        assert _outcome(scan_move_parts, t, d) == expected
        assert _outcome(tri._move_parts, t, d) == expected


def _scanned_table(t: Triangulation):
    """The incidence table's four parts, each by its own scan."""
    pents = t.pentachora
    cofaces = {f: [(i, faces(u).index(f)) for i, u in enumerate(pents) if f in faces(u)]
               for f in {f for u in pents for f in faces(u)}}
    counts = tuple(Counter(s for u in pents for s in combinations(u, d + 1)) for d in range(4))
    index = {u: pents.index(u) for u in pents}
    sixes = sorted({tuple(sorted(set(u) | set(w)))
                    for u, w in combinations(pents, 2) if len(set(u) & set(w)) == 4})
    six_sets = [(six, tuple(i for i, u in enumerate(pents) if set(u) <= set(six)))
                for six in sixes]
    return cofaces, counts, index, six_sets


class TestIncidenceTable:
    def test_never_stale_along_a_chain(self):
        # each step builds a new object from one whose table is cached
        rng = random.Random(4)
        t = builtin_manifold("cp2")
        for step in range(16):
            assert (t.cofaces, t.counts, t.index, list(t.six_sets.items())) == _scanned_table(t)
            assert t.six_sets is t.six_sets
            if step % 4 == 0:
                before = {kind: find_moves(t, kind) for kind in tri.MOVE_KINDS}
                pool = [d for moves in before.values() for d in moves]
                moved = apply_move(t, pool[rng.randrange(len(pool))])
                assert {kind: find_moves(t, kind) for kind in tri.MOVE_KINDS} == before
                t = moved
            elif step % 4 == 1:
                verts = sorted(t.vertex_ids)
                t = relabel(t, dict(zip(verts, rng.sample(range(2 * len(verts)), len(verts)))))
            elif step % 4 == 2:
                t = replace(t, signs=None)
            else:
                t = orient(t)


class TestRelabelIsomorphic:
    def test_relabel_round_trip(self):
        t = boundary_delta5()
        fwd = {i: i + 10 for i in range(6)}
        back = {v: k for k, v in fwd.items()}
        out = relabel(relabel(t, fwd), back)
        # relabel sorts the pentachoron list; compare as (facet, sign) sets
        assert (set(zip(out.pentachora, out.signs))
                == set(zip(t.pentachora, t.signs)))

    def test_relabel_parity(self):
        t = boundary_delta5()
        swapped = relabel(t, {0: 1, 1: 0})
        # a transposition reverses every pentachoron containing both vertices
        assert isomorphic(replace(swapped, signs=None), replace(t, signs=None))
        for u, s in zip(swapped.pentachora, swapped.signs):
            orig = tuple(sorted({0: 1, 1: 0}.get(v, v) for v in u))
            expect = -1 if {0, 1} <= set(u) else 1
            assert s == expect * t.signs[t.pentachora.index(orig)]

    def test_isomorphic_positive(self):
        t = boundary_delta5()
        assert isomorphic(t, relabel(t, {0: 7, 3: 8}))

    def test_isomorphic_negative(self):
        t = boundary_delta5()
        moved = apply_move(t, find_moves(t, "1-5")[0])
        assert not isomorphic(t, moved)


class TestFileFormat:
    def test_round_trip(self, tmp_path):
        t = boundary_delta5()
        path = tmp_path / "s4.json"
        save(t, str(path))
        assert load(str(path)) == t

    def test_repeated_vertex_rejected(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({
            "name": "bad", "vertices": 5, "pentachora": [[0, 1, 1, 3, 4]]}))
        with pytest.raises(tri.MalformedFile):
            load(str(path))

    def test_missing_field(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"name": "bad", "pentachora": []}))
        with pytest.raises(tri.MalformedFile):
            load(str(path))

    def test_invalid_json(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        with pytest.raises(tri.MalformedFile):
            load(str(path))

    def test_vertex_out_of_range(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({
            "name": "bad", "vertices": 4, "pentachora": [[0, 1, 2, 3, 4]]}))
        with pytest.raises(tri.MalformedFile):
            load(str(path))


class TestBuiltins:
    def test_s4(self):
        t = builtin_manifold("s4")
        assert t == boundary_delta5()

    def test_cp2(self):
        t = builtin_manifold("cp2")
        assert len(t.pentachora) == 36
        assert len(t.vertex_ids) == 9
        assert t.is_closed()
        assert t.euler_characteristic() == 3
        assert t.signs is not None
        # f-vector of the 9-vertex complex projective plane
        assert [len(t.simplices(d)) for d in range(5)] == [9, 36, 84, 90, 36]

    def test_simplices_out_of_range(self):
        # counts[-1] would silently return the tetrahedra
        for dim in (-1, 5):
            with pytest.raises(ValueError):
                builtin_manifold("s4").simplices(dim)

    def test_unknown_name(self):
        with pytest.raises(KeyError):
            builtin_manifold("t4")
