"""Triangulated 4-manifolds with numbered vertices and Pachner moves.

A triangulation is a list of pentachora (5-tuples of vertex ids, strictly
increasing) plus optional orientation signs, one per pentachoron.  All
operations return new values; nothing is mutated in place.
"""

from __future__ import annotations

import json
from collections import Counter
from dataclasses import dataclass, replace
from functools import cached_property
from itertools import chain, combinations

Pentachoron = tuple[int, int, int, int, int]
Tetrahedron = tuple[int, int, int, int]


class TriangulationError(ValueError):
    pass


class NonOrientableError(TriangulationError):
    pass


class DisconnectedError(TriangulationError):
    pass


class MoveError(TriangulationError):
    pass


class ConfigurationNotFound(MoveError):
    pass


class LinkConditionViolation(MoveError):
    pass


class StaleVertex(MoveError):
    pass


class MalformedFile(TriangulationError):
    pass


# before-pentachoron count per move kind; after count is 6 - k
MOVE_KINDS = {"1-5": 1, "2-4": 2, "3-3": 3, "4-2": 4, "5-1": 5}


def faces(u: Pentachoron) -> list[Tetrahedron]:
    """The five 3-faces in inverse lexicographic order: the face omitting
    the smallest vertex comes first, the one omitting the largest last."""
    return [u[:i] + u[i + 1:] for i in range(5)]


@dataclass(frozen=True)
class Triangulation:
    """Pentachora and signs.  The incidence table -- `cofaces`, `counts`,
    `index`, `six_sets` -- is built part by part on first use and cached;
    the object is frozen, so the table cannot go stale."""

    name: str
    pentachora: tuple[Pentachoron, ...]
    signs: tuple[int, ...] | None = None

    def __post_init__(self):
        for u in self.pentachora:
            if len(u) != 5 or any(a >= b for a, b in zip(u, u[1:])) or min(u) < 0:
                raise TriangulationError(f"invalid pentachoron {u}")
        if self.signs is not None:
            if len(self.signs) != len(self.pentachora):
                raise TriangulationError("signs length mismatch")
            if any(s not in (1, -1) for s in self.signs):
                raise TriangulationError("signs must be +-1")
        # the index keeps the last position of a pentachoron listed twice
        twice = next((u for i, u in enumerate(self.pentachora) if self.index[u] != i), None)
        if twice is not None:
            raise TriangulationError(f"pentachoron {twice} listed twice")
        bad = next((t for t, c in self.cofaces.items() if len(c) > 2), None)
        if bad is not None:
            raise TriangulationError(f"tetrahedron {bad} shared by more than 2 pentachora")
        # orient's local rule: the two pentachora on a tetrahedron induce
        # opposite orientations sign * (-1)^pos on it
        s = self.signs
        if s is not None and any(len(c) == 2 and sum(s[ui] * (-1) ** pos for ui, pos in c)
                                 for c in self.cofaces.values()):
            raise NonOrientableError(f"{self.name}: signs are not a coherent orientation")

    @cached_property
    def cofaces(self) -> dict[Tetrahedron, list[tuple[int, int]]]:
        """Each tetrahedron's (pentachoron index, face position) pairs."""
        inc: dict[Tetrahedron, list[tuple[int, int]]] = {}
        for ui, u in enumerate(self.pentachora):
            for pos, tet in enumerate(faces(u)):
                inc.setdefault(tet, []).append((ui, pos))
        return inc

    @cached_property
    def counts(self) -> tuple[Counter, ...]:
        """counts[d][s]: how many pentachora contain the d-simplex s, d = 0..3."""
        return tuple(Counter(chain.from_iterable(combinations(u, d + 1) for u in self.pentachora))
                     for d in range(4))

    @cached_property
    def index(self) -> dict[Pentachoron, int]:
        """The position of each pentachoron in `pentachora`."""
        return {u: i for i, u in enumerate(self.pentachora)}

    @cached_property
    def six_sets(self) -> dict[tuple[int, ...], tuple[int, ...]]:
        """Each six-vertex set spanned by the two pentachora on an interior
        tetrahedron, sorted, with the indices of its present facets: any
        two of those share such a tetrahedron, so its pairs name them all."""
        sets: dict[tuple[int, ...], set[int]] = {}
        for tet, c in self.cofaces.items():
            if len(c) == 2:
                # each pentachoron adds the vertex its face position omits
                six = tuple(sorted(tet + tuple(self.pentachora[ui][pos] for ui, pos in c)))
                sets.setdefault(six, set()).update(ui for ui, _ in c)
        return {six: tuple(sorted(sets[six])) for six in sorted(sets)}

    @property
    def vertex_ids(self) -> frozenset[int]:
        return frozenset(v for (v,) in self.counts[0])

    def tetrahedra(self) -> list[Tetrahedron]:
        return sorted(self.cofaces)

    def is_closed(self) -> bool:
        return all(len(c) == 2 for c in self.cofaces.values())

    def simplices(self, dim: int) -> list[tuple[int, ...]]:
        if not 0 <= dim <= 4:
            raise ValueError(f"no {dim}-simplices in a 4-dimensional complex")
        return sorted(self.index if dim == 4 else self.counts[dim])

    def euler_characteristic(self) -> int:
        return sum((-1) ** d * len(c) for d, c in enumerate(self.counts)) + len(self.index)


def _coherent_signs(t: Triangulation) -> tuple[int, ...]:
    """Coherent signs for t, +1 on its first pentachoron (t's own ignored).

    Two pentachora sharing a tetrahedron must induce opposite orientations
    on it: sign_u * (-1)^pos_u = -sign_u' * (-1)^pos_u'.  Raises
    NonOrientableError if no coherent assignment exists and
    DisconnectedError if the complex is not face-connected.
    """
    if not t.pentachora:
        raise TriangulationError("empty triangulation")
    signs = [1] + [0] * (len(t.pentachora) - 1)
    stack = [0]
    while stack:
        ui = stack.pop()
        for pos, tet in enumerate(faces(t.pentachora[ui])):
            pair = t.cofaces[tet]
            if len(pair) != 2:
                continue
            (a, pa), (b, pb) = pair
            other, opos = (b, pb) if a == ui else (a, pa)
            want = -signs[ui] * (-1) ** pos * (-1) ** opos
            if signs[other] == 0:
                signs[other] = want
                stack.append(other)
            elif signs[other] != want:
                raise NonOrientableError(f"{t.name}: no coherent orientation exists")
    if any(s == 0 for s in signs):
        raise DisconnectedError(f"{t.name}: complex is not connected")
    return tuple(signs)


def orient(t: Triangulation) -> Triangulation:
    """t with coherent orientation signs, +1 on its first pentachoron."""
    return replace(t, signs=_coherent_signs(t))


def boundary_delta5() -> Triangulation:
    """The 6-pentachoron sphere S^4: the facets of a 5-simplex, the one
    omitting vertex i listed i-th with sign (-1)^i (see `apply_move`)."""
    pents = tuple(tuple(v for v in range(6) if v != i) for i in range(6))
    return Triangulation("s4", pents, tuple((-1) ** i for i in range(6)))


@dataclass(frozen=True)
class MoveDescriptor:
    kind: str
    target: tuple[int, ...]       # indices of the before-pentachora
    six_vertices: tuple[int, ...]  # the supporting del-Delta^5 vertex set

    def __post_init__(self):
        if self.kind not in MOVE_KINDS:
            raise MoveError(f"unknown move kind {self.kind!r}")
        if len(self.target) != MOVE_KINDS[self.kind]:
            raise MoveError(f"{self.kind} move needs {MOVE_KINDS[self.kind]} target pentachora")
        if len(set(self.six_vertices)) != 6:
            raise MoveError("six_vertices must be 6 distinct ids")


def _obstruction(t: Triangulation, six: tuple[int, ...],
                 targets: tuple[int, ...]) -> tuple[int, ...] | None:
    """The simplex that blocks replacing the facets `targets` of the sorted
    six-vertex set (see `_move_parts`), or None: the core they share if they
    are not its whole star, else the rest if it already spans a simplex."""
    k = len(targets)
    shared = set(six).intersection(*(t.pentachora[i] for i in targets))
    core = tuple(v for v in six if v in shared)
    omitted = tuple(v for v in six if v not in shared)
    if k >= 2 and t.counts[5 - k][core] != k:
        return core
    if omitted in t.index if k == 5 else t.counts[k - 1][omitted]:
        return omitted
    return None


def _move_parts(t: Triangulation, d: MoveDescriptor):
    """Validate a move descriptor against t's incidence table; return
    (before, after) facets.

    Each of the k targets omits one vertex of the omitted set O and contains
    the core C, the rest of the six vertices.  By the bistellar criterion the
    move is valid exactly when the targets are the whole star of C and O
    spans no simplex yet.  That is complete: a simplex interior to the
    targets' union contains C, so a pentachoron on it contains C; one
    interior to the replacements' union contains O, as does every
    replacement facet.  Both checks are one lookup.  For k = 1 the core is
    the target itself; for k = 5, O is the one replacement facet, found in
    the index.  The pentachoron an error names is searched for only then.
    """
    k = MOVE_KINDS[d.kind]
    n = len(t.pentachora)
    if len(set(d.target)) != k or any(i < 0 or i >= n for i in d.target):
        raise ConfigurationNotFound("target indices invalid")
    six = tuple(sorted(d.six_vertices))
    six_set = set(six)
    before = [t.pentachora[i] for i in d.target]
    for u in before:
        if not set(u) <= six_set:
            raise ConfigurationNotFound(f"pentachoron {u} not supported on {six}")
    omitted = {o for u in before for o in six_set - set(u)}
    if len(omitted) != k:
        raise ConfigurationNotFound("target pentachora are not distinct facets")
    sigma = _obstruction(t, six, d.target)
    if sigma is None:
        return before, [tuple(v for v in six if v != c) for c in six if c not in omitted]
    if k == 1:
        raise StaleVertex(f"new vertex {sigma[0]} already present")
    if k == 5 and len(sigma) == 1:
        raise LinkConditionViolation(f"vertex {sigma[0]} still used outside the move support")
    if k == 5:
        raise LinkConditionViolation(f"replacement pentachoron {sigma} already present")
    u = next(u for i, u in enumerate(t.pentachora)
             if i not in d.target and set(sigma) <= set(u))
    raise LinkConditionViolation(f"interior simplex {sigma} meets pentachoron {u}")


def apply_move(t: Triangulation, d: MoveDescriptor) -> Triangulation:
    """Replace the k target pentachora by the complementary 6-k facets of
    the same del-Delta^5.  A signed input keeps its orientation class: in
    one coherent orientation of del-Delta^5 the facet omitting six[i] has
    sign (-1)^i, so the targets carry eps * (-1)^i for one eps, and the
    replacements, glued along the same boundary, carry -eps * (-1)^i."""
    before, after = _move_parts(t, d)
    kept = [i for i in range(len(t.pentachora)) if i not in d.target]
    pents = [t.pentachora[i] for i in kept] + after
    order = sorted(range(len(pents)), key=pents.__getitem__)
    signs = None
    if t.signs is not None:
        six = sorted(d.six_vertices)
        alt = [(-1) ** six.index(sum(six) - sum(u)) for u in before[:1] + after]
        eps = t.signs[d.target[0]] * alt[0]
        new = [t.signs[i] for i in kept] + [-eps * a for a in alt[1:]]
        signs = tuple(new[i] for i in order)
    # the constructor's coherence check verifies the rule
    return Triangulation(t.name, tuple(pents[i] for i in order), signs)


def find_moves(t: Triangulation, kind: str) -> list[MoveDescriptor]:
    """All valid move descriptors of the given kind.

    A 1-5 move on the fresh vertex max(vertex_ids) + 1 is valid on every
    pentachoron: its omitted vertex spans nothing yet.  A move of kind
    k >= 2 takes all present facets of its six-vertex set as targets, since
    any other would be a replacement that already exists; two of them share
    a tetrahedron, so the set is one of `t.six_sets`.  Its core is the
    intersection of those facets, and `_obstruction` decides it with two
    lookups: the core's star is exactly the targets, and the omitted
    vertices span no simplex.
    """
    if kind not in MOVE_KINDS:
        raise MoveError(f"unknown move kind {kind!r}")
    k = MOVE_KINDS[kind]
    if k == 1:
        fresh = max(t.vertex_ids, default=-1) + 1
        return [MoveDescriptor(kind, (i,), u + (fresh,)) for i, u in enumerate(t.pentachora)]
    out = []
    for six, present in t.six_sets.items():
        if len(present) == k:
            if _obstruction(t, six, present) is None:
                out.append(MoveDescriptor(kind, present, six))
    return out


def relabel(t: Triangulation, mapping: dict[int, int]) -> Triangulation:
    """Rename vertices by a bijection; signs are adjusted by the parity of
    the sorting permutation so the orientation class is preserved."""
    if len(set(mapping.values())) != len(mapping):
        raise TriangulationError("mapping is not injective")
    new_pents = []
    parities = []
    for u in t.pentachora:
        img = [mapping.get(v, v) for v in u]
        # bubble-sorting img swaps one adjacent pair per inversion
        parities.append((-1) ** sum(a > b for a, b in combinations(img, 2)))
        new_pents.append(tuple(sorted(img)))
    order = sorted(range(len(new_pents)), key=lambda i: new_pents[i])
    pents = tuple(new_pents[i] for i in order)
    signs = None
    if t.signs is not None:
        signs = tuple(t.signs[i] * parities[i] for i in order)
    return Triangulation(t.name, pents, signs)


def isomorphic(a: Triangulation, b: Triangulation) -> bool:
    """Relabeling-aware equality: is there a vertex bijection carrying the
    pentachoron set of a onto that of b?  Backtracking search."""
    if len(a.pentachora) != len(b.pentachora):
        return False
    va, vb = sorted(a.vertex_ids), sorted(b.vertex_ids)
    if len(va) != len(vb):
        return False
    set_a, set_b = a.index.keys(), b.index.keys()
    prof_a = {v: a.counts[0][(v,)] for v in va}
    prof_b = {v: b.counts[0][(v,)] for v in vb}
    # order vertices of a by constraint (appearing in many pentachora first)
    order = sorted(va, key=lambda v: -prof_a[v])

    def extend(i: int, mapping: dict[int, int], used: set[int]) -> bool:
        if i == len(order):
            return {tuple(sorted(mapping[v] for v in u)) for u in set_a} == set_b
        v = order[i]
        for w in vb:
            if w in used or prof_a[v] != prof_b[w]:
                continue
            mapping[v] = w
            ok = True
            for u in set_a:
                if all(x in mapping for x in u):
                    if tuple(sorted(mapping[x] for x in u)) not in set_b:
                        ok = False
                        break
            if ok and extend(i + 1, mapping, used | {w}):
                return True
            del mapping[v]
        return False

    return extend(0, {}, set())


# --- file format -----------------------------------------------------------

def save(t: Triangulation, path: str) -> None:
    doc = {
        "name": t.name,
        "vertices": (max(t.vertex_ids) + 1) if t.pentachora else 0,
        "pentachora": [list(u) for u in t.pentachora],
    }
    if t.signs is not None:
        doc["signs"] = list(t.signs)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, sort_keys=True, indent=2)
        fh.write("\n")


def from_dict(doc: dict, source: str = "<dict>") -> Triangulation:
    if not isinstance(doc, dict):
        raise MalformedFile(f"{source}: top-level JSON object expected")
    for key in ("name", "vertices", "pentachora"):
        if key not in doc:
            raise MalformedFile(f"{source}: missing field {key!r}")
    if not isinstance(doc["name"], str):
        raise MalformedFile(f"{source}: name must be a string")
    vertices = doc["vertices"]
    if type(vertices) is not int or vertices < 0:
        raise MalformedFile(f"{source}: vertices must be an int >= 0")
    if not isinstance(doc["pentachora"], list) or not doc["pentachora"]:
        raise MalformedFile(f"{source}: pentachora must be a nonempty list")
    signs = doc.get("signs")
    if signs is not None and not isinstance(signs, list):
        raise MalformedFile(f"{source}: signs must be a list")
    pents = []
    for i, raw in enumerate(doc["pentachora"]):
        if (not isinstance(raw, list) or len(raw) != 5
                or any(type(x) is not int for x in raw)):
            raise MalformedFile(f"{source}: pentachora[{i}] must be 5 ints")
        if len(set(raw)) != 5 or raw != sorted(raw):
            raise MalformedFile(f"{source}: pentachora[{i}] = {raw} must be strictly increasing")
        if raw and raw[-1] >= vertices:
            raise MalformedFile(f"{source}: pentachora[{i}] uses vertex >= declared count")
        pents.append(tuple(raw))
    if signs is not None:
        if len(signs) != len(pents) or any(type(s) is not int or s not in (1, -1)
                                           for s in signs):
            raise MalformedFile(f"{source}: signs must be +-1, one per pentachoron")
        signs = tuple(signs)
    try:
        t = Triangulation(doc["name"], tuple(pents), signs)
    except NonOrientableError as exc:
        raise NonOrientableError(f"{source}: {exc}") from exc
    except TriangulationError as exc:
        raise MalformedFile(f"{source}: {exc}") from exc
    if signs is not None:
        # coherent signs on a disconnected complex: DisconnectedError, as
        # orient raises for a file without signs
        _coherent_signs(t)
    return t


def load(path: str) -> Triangulation:
    with open(path, encoding="utf-8") as fh:
        try:
            doc = json.load(fh)
        except json.JSONDecodeError as exc:
            raise MalformedFile(f"{path}:{exc.lineno}: invalid JSON ({exc.msg})") from exc
        except UnicodeDecodeError as exc:
            raise MalformedFile(f"{path}: not UTF-8 text ({exc.reason})") from exc
        except RecursionError as exc:
            raise MalformedFile(f"{path}: JSON nested too deeply") from exc
        except ValueError as exc:
            # e.g. an integer past the interpreter's digit limit
            raise MalformedFile(f"{path}: {exc}") from exc
    return from_dict(doc, source=path)
