"""Form invariants and exact value-probability distributions."""

import json
import random
from dataclasses import asdict, replace
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

import oracles
from hexaform import invariants, linalg
from hexaform.gf import GF, frobenius_power, make_field
from hexaform.hexagon import _gram, build_constraints, gram_matrix, permitted_space
from hexaform.invariants import (CapExceeded, FormInvariants, FrobeniusSpec,
                                 distribution_equal, enumeration_cap,
                                 form_invariants, probability_distribution)
from hexaform.manifolds import builtin_manifold
from hexaform.triangulation import Triangulation, boundary_delta5, orient
from oracles import (action_of, brute_force_counts, combination, cp2_walk,
                     enumerated_distribution, mat_mul, transpose)

SINGLE = orient(Triangulation("one", ((0, 1, 2, 3, 4),)))


def complement_route_invariants(g):
    """Reference route: complete the saturated radical K to a basis of Z^n
    by W^T = (V^-1)^T, where K^T V is K^T's Smith form [I 0] up to a
    unimodular row transform, so the first columns of W^T span K; then
    read every invariant off the nondegenerate block C^T G C on the
    remaining columns, the signature by rational elimination."""
    n = len(g)
    radical = oracles.dense_kernel(g)
    rank = n - len(radical)
    if rank == 0:
        return FormInvariants(n, n, 0, (0, 0), 1, "even", ())
    if radical:
        snf = linalg.smith_normal_form([list(col) for col in radical])
        assert snf.diagonal == [1] * len(radical)
        basis = transpose(linalg.unimodular_inverse(snf.v))
    else:
        basis = linalg.identity(n)
    assert abs(linalg.det(basis)) == 1
    c = [row[n - rank:] for row in basis]
    reduced = mat_mul(mat_mul(transpose(c), g), c)
    parity = "even" if all(reduced[i][i] % 2 == 0 for i in range(rank)) else "odd"
    factors = tuple(linalg.smith_normal_form(reduced).diagonal)
    return FormInvariants(n, n - rank, rank, oracles.fraction_inertia(reduced),
                          linalg.det(reduced), parity, factors)


@st.composite
def symmetric_matrices(draw):
    n = draw(st.integers(1, 5))
    g = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            g[i][j] = g[j][i] = draw(st.integers(-6, 6))
    return g


@st.composite
def low_rank_forms(draw):
    # A^T D A has rank at most k < n, and a radical that need not be
    # spanned by unit vectors
    n = draw(st.integers(2, 6))
    k = draw(st.integers(1, n - 1))
    a = [draw(st.lists(st.integers(-3, 3), min_size=n, max_size=n)) for _ in range(k)]
    d = draw(st.lists(st.integers(-3, 3), min_size=k, max_size=k))
    return [[sum(a[r][i] * d[r] * a[r][j] for r in range(k)) for j in range(n)]
            for i in range(n)]


class TestFormInvariants:
    def test_zero_matrix(self):
        inv = form_invariants([[0, 0], [0, 0]])
        assert inv.total_dim == 2
        assert inv.radical_dim == 2
        assert inv.rank == 0
        assert inv.parity == "even"
        assert inv.invariant_factors == ()

    def test_diag_1_minus1(self):
        inv = form_invariants([[1, 0], [0, -1]])
        assert inv.signature == (1, 1)
        assert inv.determinant == -1
        assert inv.parity == "odd"
        assert inv.invariant_factors == (1, 1)

    def test_hyperbolic_plane(self):
        # same rank/signature/det as diag(1,-1); parity tells them apart
        inv = form_invariants([[0, 1], [1, 0]])
        assert inv.signature == (1, 1)
        assert inv.determinant == -1
        assert inv.parity == "even"
        assert inv.invariant_factors == (1, 1)

    def test_non_symmetric_rejected(self):
        with pytest.raises(ValueError):
            form_invariants([[0, 1], [2, 0]])

    def test_zero_padding_only_moves_dims(self):
        g = [[2, 1], [1, 2]]
        padded = [[2, 1, 0], [1, 2, 0], [0, 0, 0]]
        a, b = form_invariants(g), form_invariants(padded)
        assert b.total_dim == a.total_dim + 1
        assert b.radical_dim == a.radical_dim + 1
        assert a.equivalent(b)

    def test_congruence_invariance(self):
        rng = random.Random(0)
        g = [[2, 1, 0], [1, -3, 2], [0, 2, 4]]
        for _ in range(25):
            p = linalg.identity(3)
            for _ in range(6):
                i, j = rng.sample(range(3), 2)
                c = rng.choice((-1, 1))
                for row in p:
                    row[j] += c * row[i]
            pt = transpose(p)
            h = mat_mul(mat_mul(pt, g), p)
            assert form_invariants(g).equivalent(form_invariants(h))
            assert form_invariants(h).total_dim == 3

    def test_json_shape(self):
        doc = form_invariants([[1]]).to_json()
        assert set(doc) == {"dim", "radical", "rank", "signature", "det",
                            "parity", "factors"}
        assert doc["det"] == "1"

    @given(st.one_of(symmetric_matrices(), low_rank_forms()))
    @settings(max_examples=300, deadline=None)
    def test_matches_complement_route(self, g):
        assert asdict(form_invariants(g)) == asdict(complement_route_invariants(g))

    def test_matches_complement_route_on_hexagon_grams(self):
        for t in (builtin_manifold("s4"), builtin_manifold("cp2"), cp2_walk()):
            g = [list(row) for row in gram_matrix(t).matrix]
            assert asdict(form_invariants(g)) == asdict(complement_route_invariants(g))


class TestFrobeniusSpec:
    def test_single(self):
        s = FrobeniusSpec.single(2, 2, 1)
        assert (s.m1, s.m2, s.mode) == (0, 1, "single")
        assert s.mode_json() == {"kind": "single", "m": 1}

    def test_double(self):
        s = FrobeniusSpec.double(2, 2, 1, 2)
        assert s.mode_json() == {"kind": "double", "m1": 1, "m2": 2}

    def test_negative_exponent(self):
        with pytest.raises(ValueError):
            FrobeniusSpec.single(2, 1, -1)

    def test_frobenius_keeps_colorings_permitted(self):
        # Frobenius commutes with the integer constraint matrix
        f = make_field(2, 2)
        for t in (SINGLE, boundary_delta5()):
            space = permitted_space(t, f)
            sys = build_constraints(t, f)
            for vec in space.basis:
                twisted = [frobenius_power(f(v), 1) for v in vec]
                for row in sys.rows:
                    total = sum((f(c) * v for c, v in zip(row, twisted)), f.zero)
                    assert total == f.zero


class TestProbabilityDistribution:
    def test_boundary_delta5_concentrated_at_zero(self):
        dist = probability_distribution(boundary_delta5(), FrobeniusSpec.single(2, 1, 0))
        assert dist.counts == ((0, 512),)
        assert dist.probabilities() == {0: 1}

    def test_zero_dimensional_space(self):
        # no pentachora constraint here, so fabricate via cap: a single
        # pentachoron over GF(2) has dim 5; spot-check total instead
        dist = probability_distribution(SINGLE, FrobeniusSpec.single(2, 1, 0))
        assert dist.total == 2 ** 5

    def test_probabilities_sum_to_one(self):
        for model in ("field", "tensor"):
            dist = probability_distribution(
                SINGLE, FrobeniusSpec.single(2, 2, 1), model)
            assert sum(dist.probabilities().values(), Fraction(0)) == 1
            assert dist.total == 4 ** 5

    def test_single_pentachoron_nontrivial(self):
        dist = probability_distribution(SINGLE, FrobeniusSpec.single(2, 1, 0))
        # quadratic form values on a free 5-dim space are not concentrated
        assert len(dist.counts) == 2

    def test_field_is_pushforward_of_tensor(self):
        f = make_field(2, 2)
        spec = FrobeniusSpec.single(2, 2, 0)
        field_dist = probability_distribution(SINGLE, spec, "field")
        tensor_dist = probability_distribution(SINGLE, spec, "tensor")
        g = f.generator()
        pushed: dict[int, int] = {}
        for key, count in tensor_dist.counts:
            digits, rest = [], key
            for _ in range(4):
                digits.append(rest % 2)
                rest //= 2
            total = f.zero
            for s in range(2):
                for t in range(2):
                    total = total + f(digits[s * 2 + t]) * g ** (s + t)
            pushed[total.code] = pushed.get(total.code, 0) + count
        assert pushed == dict(field_dist.counts)

    def test_double_mode(self):
        spec = FrobeniusSpec.double(2, 2, 1, 1)
        dist = probability_distribution(SINGLE, spec)
        # shared Frobenius factors out of both halves: same distribution as
        # m1 = m2 = 0 because x -> x^2 permutes the coloring space
        base = probability_distribution(SINGLE, FrobeniusSpec.double(2, 2, 0, 0))
        assert dict(dist.counts) == dict(base.counts)

    def test_cap_exceeded(self):
        with pytest.raises(CapExceeded, match=r"needs 2\^5 colorings, cap is 10$"):
            probability_distribution(SINGLE, FrobeniusSpec.single(2, 1, 0), cap=10)

    def test_cap_env_override(self, monkeypatch):
        monkeypatch.setenv("HEXAFORM_CAP", "16")
        assert enumeration_cap() == 16
        with pytest.raises(CapExceeded):
            probability_distribution(SINGLE, FrobeniusSpec.single(2, 1, 0))

    def test_unoriented_rejected(self):
        with pytest.raises(ValueError):
            probability_distribution(replace(SINGLE, signs=None),
                                     FrobeniusSpec.single(2, 1, 0))

    def test_bad_model(self):
        with pytest.raises(ValueError):
            probability_distribution(SINGLE, FrobeniusSpec.single(2, 1, 0), "float")

    def test_enumeration_matches_direct_evaluation(self):
        # brute force oracle on the tiny GF(2) space of one pentachoron
        f = make_field(2)
        space = permitted_space(SINGLE, f)
        counts: dict[int, int] = {}
        for code in range(2 ** space.dim):
            coeffs = [f((code >> i) & 1) for i in range(space.dim)]
            col = combination(space, coeffs)
            v = action_of(SINGLE, col, col)
            counts[v.code] = counts.get(v.code, 0) + 1
        dist = probability_distribution(SINGLE, FrobeniusSpec.single(2, 1, 0))
        assert dict(dist.counts) == counts

    def test_json_shape(self):
        doc = probability_distribution(
            SINGLE, FrobeniusSpec.single(2, 2, 1), "tensor").to_json()
        assert set(doc) == {"model", "p", "n", "mode", "entries", "total"}
        assert doc["model"] == "tensor"
        for entry in doc["entries"]:
            rows = entry["value"].split(";")
            assert len(rows) == 2 and all(len(r.split(",")) == 2 for r in rows)


SPACE_DIMS = {"one": 5, "s4": 9}
FIELDS = [(2, 1), (2, 2), (2, 3), (3, 1), (3, 2), (5, 1)]
MODES = [("single", 0, 0), ("single", 0, 1), ("double", 1, 2), ("double", 2, 1)]
# every field of FIELDS whose enumeration stays under 2^21 colorings
ENUMERABLE = [(name, p, n) for name in SPACE_DIMS for p, n in FIELDS
              if (p ** n) ** SPACE_DIMS[name] <= 2 ** 21]


def _spec(p, n, mode):
    kind, m1, m2 = mode
    return FrobeniusSpec.single(p, n, m2) if kind == "single" else FrobeniusSpec.double(p, n, m1, m2)


def _same_report(closed, enumerated):
    assert closed == enumerated
    assert (json.dumps(closed.to_json(), sort_keys=True)
            == json.dumps(enumerated.to_json(), sort_keys=True))


class TestClosedFormAgainstEnumeration:
    @pytest.mark.parametrize("model", ["field", "tensor"])
    @pytest.mark.parametrize("mode", MODES, ids=lambda m: f"{m[0]}{m[1]}{m[2]}")
    @pytest.mark.parametrize("name,p,n", ENUMERABLE)
    def test_single_pentachoron_and_s4(self, name, p, n, mode, model):
        t = SINGLE if name == "one" else boundary_delta5()
        spec = _spec(p, n, mode)
        _same_report(probability_distribution(t, spec, model),
                     enumerated_distribution(t, spec, model))

    @pytest.mark.parametrize("model", ["field", "tensor"])
    @pytest.mark.parametrize("p,n,k", [(2, 1, 12), (3, 1, 10), (2, 2, 8), (5, 1, 7),
                                       (2, 3, 5), (3, 2, 5)])
    def test_cp2_sub_bases(self, monkeypatch, p, n, k, model):
        # cp2's pairing on k basis vectors from the first and up to the
        # last one with a nonzero self-pairing mod p: a nonzero symmetric
        # form, which no enumerable manifold has
        cp2 = builtin_manifold("cp2")
        spec = FrobeniusSpec.double(p, n, 1, 2)
        full = permitted_space(cp2, spec.field())
        gram = _gram(cp2, full)
        live = [i for i in range(full.dim) if gram[i][i]]
        first, last = live[0], live[-1] + 1
        for part in (full.basis[first:first + k], full.basis[last - k:last]):
            sub = replace(full, basis=part)
            monkeypatch.setattr(invariants, "permitted_space", lambda t, f: sub)
            monkeypatch.setattr(oracles, "permitted_space", lambda t, f: sub)
            closed = probability_distribution(cp2, spec, model)
            assert len(closed.counts) > 1
            _same_report(closed, enumerated_distribution(cp2, spec, model))

    @given(st.data())
    @settings(max_examples=150, deadline=None)
    def test_random_pairings(self, data):
        p, n = data.draw(st.sampled_from(FIELDS))
        d = data.draw(st.integers(1, 4).filter(lambda d: (p ** n) ** d <= 6561))
        m = data.draw(st.lists(st.lists(st.integers(0, p - 1), min_size=d, max_size=d),
                               min_size=d, max_size=d))
        spec = FrobeniusSpec.double(p, n, data.draw(st.integers(0, 2)),
                                    data.draw(st.integers(0, 2)))
        model = data.draw(st.sampled_from(["field", "tensor"]))
        assert invariants._value_counts(m, spec, model) == brute_force_counts(m, spec, model)

    def test_closed_form_builds_no_table(self, monkeypatch):
        def no_table(*args):
            raise AssertionError("lookup table built")
        monkeypatch.setattr(GF, "_table", no_table)
        probability_distribution(SINGLE, FrobeniusSpec.double(3, 2, 1, 2), "tensor")


CP2_DISTRIBUTIONS = [
    ((2, 1, 0), {0: Fraction(1, 2), 1: Fraction(1, 2)}),
    ((3, 1, 0), {0: Fraction(1, 3), 1: Fraction(2, 3)}),
    ((5, 1, 0), {0: Fraction(1, 5), 1: Fraction(2, 5), 4: Fraction(2, 5)}),
    ((2, 2, 1), {0: Fraction(1, 4), 1: Fraction(3, 4)}),
]


class TestCp2Distribution:
    """The first nonzero distributions: cp2's form is <1>, so the value is a
    nonzero square as often as the field allows."""

    @pytest.mark.parametrize("pnm,expected", CP2_DISTRIBUTIONS, ids=str)
    def test_pinned_and_invariant_along_a_walk(self, pnm, expected):
        spec = FrobeniusSpec.single(*pnm)
        cp2 = builtin_manifold("cp2")
        with pytest.raises(CapExceeded):
            probability_distribution(cp2, spec)
        base = probability_distribution(cp2, spec, cap=10 ** 100)
        assert base.probabilities() == expected
        for t in (oracles.cp2_walk(seed=3, n=4), cp2_walk()):
            equal, diffs = distribution_equal(
                base, probability_distribution(t, spec, cap=10 ** 100))
            assert equal, diffs

    @pytest.mark.parametrize("p,n,m", [(2, 1, 0), (3, 1, 0), (2, 2, 1), (2, 3, 1)])
    def test_tensor_model_invariant_along_a_walk(self, p, n, m):
        spec = FrobeniusSpec.single(p, n, m)
        base = probability_distribution(builtin_manifold("cp2"), spec, "tensor", cap=10 ** 100)
        assert len(base.counts) > 1
        moved = probability_distribution(cp2_walk(), spec, "tensor", cap=10 ** 100)
        equal, diffs = distribution_equal(base, moved)
        assert equal, diffs


class TestDistributionEqual:
    def test_reflexive(self):
        d = probability_distribution(SINGLE, FrobeniusSpec.single(2, 1, 0))
        equal, diffs = distribution_equal(d, d)
        assert equal and not diffs

    def test_detects_corruption(self):
        d = probability_distribution(SINGLE, FrobeniusSpec.single(2, 1, 0))
        corrupted = type(d)(d.model, d.spec,
                            tuple((k, c + (1 if k == 0 else -1)) for k, c in d.counts),
                            d.dim)
        equal, diffs = distribution_equal(d, corrupted)
        assert not equal
        assert any("value 0" in line for line in diffs)

    def test_model_mismatch(self):
        spec = FrobeniusSpec.single(2, 2, 0)
        a = probability_distribution(SINGLE, spec, "field")
        b = probability_distribution(SINGLE, spec, "tensor")
        with pytest.raises(ValueError):
            distribution_equal(a, b)

    def test_cross_total_comparison(self):
        # same probabilities with scaled counts compare equal
        d = probability_distribution(SINGLE, FrobeniusSpec.single(2, 1, 0))
        scaled = type(d)(d.model, d.spec,
                         tuple((k, 4 * c) for k, c in d.counts), d.dim + 2)
        equal, _ = distribution_equal(d, scaled)
        assert equal
