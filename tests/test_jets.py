"""Truncated bivariate Taylor arithmetic."""

import math
import struct
from fractions import Fraction
from functools import reduce
from operator import add, mul

import pytest
from hypothesis import example, given, settings, strategies as st

from carleman import jets
from carleman.blocks import BaseFunction, Block, polar_block_jet
from carleman.bricks import BrickParams, brick_jet, polar_brick_jet
from carleman.jets import (
    EXACT,
    FLOAT,
    Jet2,
    JetError,
    JetMismatch,
    SingularJet,
    _ZERO,
    _coerce,
    _sum_kernel,
    _tables,
    central_difference,
    finite_difference,
    jet_sin_cos,
    polar_coordinates,
    reciprocal_sum,
)
from carleman.weights import gevrey

B0 = (Fraction(0), Fraction(0))
F0 = (0.0, 0.0)


def poly_jet(coeffs, base=B0, degree=4):
    return Jet2(base, degree, dict(coeffs))


rationals = st.fractions(
    min_value=-4, max_value=4, max_denominator=6
)
coeff_dicts = st.dictionaries(
    st.tuples(st.integers(0, 2), st.integers(0, 2)).filter(lambda a: a[0] + a[1] <= 3),
    rationals.filter(lambda q: q != 0),
    max_size=5,
)


@given(coeff_dicts, coeff_dicts, coeff_dicts)
@settings(max_examples=60, deadline=None)
def test_ring_axioms(a, b, c):
    A, B, C = poly_jet(a), poly_jet(b), poly_jet(c)
    assert (A + B).coeffs == (B + A).coeffs
    assert ((A + B) + C).coeffs == (A + (B + C)).coeffs
    assert (A * B).coeffs == (B * A).coeffs
    assert ((A * B) * C).coeffs == (A * (B * C)).coeffs
    assert (A * (B + C)).coeffs == (A * B + A * C).coeffs


@given(coeff_dicts)
@settings(max_examples=40, deadline=None)
def test_reciprocal_round_trip(a):
    a = dict(a)
    a[(0, 0)] = a.get((0, 0), Fraction(0)) + 1  # keep it invertible
    if a[(0, 0)] == 0:
        a[(0, 0)] = Fraction(2)
    J = poly_jet(a)
    one = J * J.reciprocal()
    assert one.coefficient((0, 0)) == 1
    for alpha, v in one.coeffs.items():
        if alpha != (0, 0):
            assert v == 0


# -- the dense graded storage against a dict-based schoolbook -----------------

def _schoolbook_product(a, b, degree):
    out = {}
    for (i1, j1), c1 in a.items():
        for (i2, j2), c2 in b.items():
            if i1 + i2 + j1 + j2 <= degree:
                key = (i1 + i2, j1 + j2)
                out[key] = out.get(key, 0) + c1 * c2
    return {k: v for k, v in out.items() if v != 0}


def _schoolbook_reciprocal(a, degree):
    inv0 = 1 / a[(0, 0)]
    out = {(0, 0): inv0}
    for n in range(1, degree + 1):
        for i in range(n + 1):
            j = n - i
            out[(i, j)] = -inv0 * sum(
                c * out[(i - bi, j - bj)]
                for (bi, bj), c in a.items()
                if (bi, bj) != (0, 0) and bi <= i and bj <= j
            )
    return {k: v for k, v in out.items() if v != 0}


def _dicts_within(degree):
    key = st.tuples(st.integers(0, degree), st.integers(0, degree))
    return st.dictionaries(key.filter(lambda a: sum(a) <= degree), rationals, max_size=8)


@given(st.data())
@settings(max_examples=80, deadline=None)
def test_product_and_reciprocal_match_dict_schoolbook(data):
    degree = data.draw(st.integers(0, 6))
    a = data.draw(_dicts_within(degree))
    b = data.draw(_dicts_within(degree))
    A, B = poly_jet(a, degree=degree), poly_jet(b, degree=degree)
    product = _schoolbook_product(a, b, degree)
    assert dict((A * B).coeffs) == product
    c = {**a, (0, 0): a.get((0, 0)) or Fraction(3, 2)}  # invertible
    inverse = _schoolbook_reciprocal(c, degree)
    assert dict(poly_jet(c, degree=degree).reciprocal().coeffs) == inverse
    # float jets sum in another order than the schoolbook: equal to rounding
    as_float = lambda d: poly_jet({k: float(v) for k, v in d.items()}, base=F0, degree=degree)
    for got, want in ((as_float(a) * as_float(b), product), (as_float(c).reciprocal(), inverse)):
        scale = max((abs(float(v)) for v in want.values()), default=0.0)
        for alpha in set(got.coeffs) | set(want):
            assert got.coefficient(alpha) == pytest.approx(
                float(want.get(alpha, 0)), rel=1e-12, abs=1e-12 * scale
            )


def fraction_reciprocal(jet):
    """1/jet by the graded solve over Fractions, normalising after every
    scalar operation: the recurrence the integer solve of `Jet2.reciprocal`
    replaces, kept here as its oracle."""
    alphas, _, solve = _tables(jet.degree)
    a = [c for _, c in jet.graded_items()]
    inv0 = Fraction(1) / a[0]
    # sum_{beta <= alpha} a_beta r_{alpha - beta} = [alpha == 0] in graded
    # order; only nonzero a_beta with beta != 0 contribute
    a = [c if c else None for c in a]
    out = [None] * len(a)
    out[0] = inv0
    for p in range(1, len(a)):
        acc = 0
        for b, r in solve[p]:
            ab = a[b]
            if ab is not None:
                rr = out[r]
                if rr is not None:
                    acc = acc + ab * rr
        if acc != 0:
            out[p] = -inv0 * acc
    return Jet2(jet.base, jet.degree, {al: v for al, v in zip(alphas, out) if v is not None})


@st.composite
def invertible_exact_jets(draw):
    """Degree 0-8, rational coefficients with denominators up to 10^6, a
    constant term of either sign, and most other entries structural zeros."""
    degree = draw(st.integers(0, 8))
    wide = st.fractions(min_value=-10**4, max_value=10**4, max_denominator=10**6)
    key = st.tuples(st.integers(0, degree), st.integers(0, degree)).filter(lambda a: sum(a) <= degree)
    coeffs = draw(st.dictionaries(key, st.one_of(wide, rationals), max_size=12))
    c0 = draw(wide.filter(lambda q: q != 0))
    coeffs[(0, 0)] = -abs(c0) if draw(st.booleans()) else c0
    return poly_jet(coeffs, degree=degree)


@given(invertible_exact_jets(), st.integers(1, 3))
@settings(max_examples=150, deadline=None)
def test_exact_reciprocal_is_the_fraction_solve(jet, n):
    want = fraction_reciprocal(jet)
    got = jet.reciprocal()
    assert got == want  # every coefficient, as reduced Fractions
    assert all(type(c) is Fraction for _, c in got.graded_items())
    assert jet ** -n == want**n


@given(st.data())
@settings(max_examples=80, deadline=None)
def test_graded_items_walk_every_index_once_in_graded_order(data):
    degree = data.draw(st.integers(0, 8))
    exact = data.draw(st.booleans())
    if exact:
        values = st.one_of(st.just(Fraction(0)), rationals)
    else:
        values = st.one_of(st.sampled_from([0.0, -0.0]), st.floats(-4, 4))
    key = st.tuples(st.integers(0, degree), st.integers(0, degree))
    entries = st.dictionaries(key.filter(lambda a: sum(a) <= degree), values, max_size=12)
    j = Jet2(B0 if exact else F0, degree, data.draw(entries))
    assert j.kind == (EXACT if exact else FLOAT)
    graded = [(i, n - i) for n in range(degree + 1) for i in range(n + 1)]
    for jet in (j, -j):  # negation turns every float 0.0 into -0.0
        items = list(jet.graded_items())
        assert [alpha for alpha, _ in items] == graded
        for alpha, value in items:
            assert abs(value) == abs(jet.coefficient(alpha))


@pytest.mark.parametrize("kind, zero", [(EXACT, Fraction(0)), (FLOAT, 0.0)])
def test_zero_entries_read_as_the_kinds_zero(kind, zero):
    base = B0 if kind == EXACT else F0
    j = Jet2(base, 3, {(0, 0): 2, (1, 1): 0})
    assert j.kind == kind
    x = Jet2.variable(0, base, 3)
    cancelled = x * x - x * x
    for got in (j.coefficient((1, 1)), j.coefficient((0, 3)), cancelled.value(),
                cancelled.coefficient((2, 0)), (-Jet2.constant(0, base, 3)).value()):
        assert got == zero and type(got) is type(zero)
        assert math.copysign(1, got) == 1
    assert dict(j.coeffs) == {(0, 0): 2}
    assert dict(cancelled.coeffs) == {}
    with pytest.raises(TypeError):
        j.coeffs[(0, 0)] = 1


@pytest.mark.parametrize("key", [(2, 2), (4, 0), (-1, 1), (0, -1)])
def test_keys_outside_the_degree_raise(key):
    with pytest.raises(JetError):
        Jet2(B0, 3, {key: Fraction(1)})


def test_reciprocal_of_zero_constant_raises():
    with pytest.raises(SingularJet):
        poly_jet({(1, 0): Fraction(1)}).reciprocal()


def test_incompatible_jets_raise():
    a = poly_jet({(0, 0): Fraction(1)})
    b = Jet2((Fraction(1), Fraction(0)), 4, {(0, 0): Fraction(1)})
    with pytest.raises(JetMismatch):
        a + b


def test_variable_includes_base_constant():
    x = Jet2.variable(0, (Fraction(3), Fraction(-2)), 3)
    assert x.coefficient((0, 0)) == 3
    assert x.coefficient((1, 0)) == 1
    y = Jet2.variable(1, (Fraction(3), Fraction(-2)), 3)
    assert y.coefficient((0, 0)) == -2
    assert y.coefficient((0, 1)) == 1


def test_known_expansion_geometric():
    # 1/(1 - x) = 1 + x + x^2 + ... around 0
    x = Jet2.variable(0, B0, 5)
    inv = (1 - x).reciprocal()
    for n in range(6):
        assert inv.coefficient((n, 0)) == 1


def test_known_expansion_kernel_at_offset():
    # 1/(2 + x^2) at x = 1: value 1/3, d/dx = -2x/(2+x^2)^2 = -2/9
    base = (Fraction(1), Fraction(0))
    x = Jet2.variable(0, base, 3)
    g = (2 + x * x).reciprocal()
    assert g.coefficient((0, 0)) == Fraction(1, 3)
    assert g.coefficient((1, 0)) == Fraction(-2, 9)


def test_sin_cos_pythagoras_exact():
    t = Jet2.variable(1, B0, 6)
    s, c = jet_sin_cos(t)
    unit = s * s + c * c
    assert unit.coefficient((0, 0)) == 1
    assert all(v == 0 for a, v in unit.coeffs.items() if a != (0, 0))


def test_reciprocal_sum_rejects_bad_operands():
    A = poly_jet({(0, 0): 1, (1, 0): 2})
    y2 = poly_jet({(0, 1): 1})
    assert reciprocal_sum(A, y2, [], []) == poly_jet({})
    with pytest.raises(JetError):
        reciprocal_sum(A, y2, [1, 2], [Fraction(1, 2)])
    with pytest.raises(JetMismatch):
        reciprocal_sum(A, poly_jet({(0, 1): 1}, degree=3), [1], [1])
    # A + (m y2)^2 has zero constant term for the second ratio only
    with pytest.raises(SingularJet):
        reciprocal_sum(poly_jet({(0, 0): -1}), poly_jet({(0, 0): 1}), [2, 1], [1, 1])


# -- the compiled bump superposition against the list-over-k body -------------

def list_over_k_reciprocal_sum(A: Jet2, y2: Jet2, ms, ws) -> Jet2:
    """sum_k ws[k] / (A + (ms[k] y2)^2), bit for bit the per-term formula

        total = 0; for k: total = total + (A + ym * ym).reciprocal().scale(w_k),
        ym = y2.scale(m_k).

    The index k runs innermost: every coefficient of an intermediate jet is
    a list over k, and each list operation repeats, for each k, the scalar
    operation of that formula in the same order: the products in __mul__'s
    (p, q) order, reciprocal's solve order and -inv0 * acc, and the running
    total in increasing k. Zeros are skipped by a pattern that does not
    depend on k (the nonzeros of y2 and A), and a list that is zero for
    every k is dropped, so exact jets pay nothing for structural zeros.
    """
    A._check_compatible(y2)
    if len(ms) != len(ws):
        raise JetError(f"{len(ms)} ratios but {len(ws)} weights")
    kind, zero = A.kind, _ZERO[A.kind]
    if not ms:
        return A._wrap([zero] * len(A._c))
    ms = [_coerce(kind, m) for m in ms]
    ws = [_coerce(kind, w) for w in ws]
    _, sums, solve = _tables(A.degree)
    # (m_k y2)_p for every nonzero y2_p, then their squares as in __mul__
    ys = [(p, [b * m for m in ms]) for p, b in enumerate(y2._c) if b]
    sq = [None] * len(sums)
    for p, a in ys:
        row = sums[p]
        n = len(row)
        for q, b in ys:
            if q >= n:
                break
            r = row[q]
            v = sq[r]
            sq[r] = list(map(mul, a, b)) if v is None else list(map(add, v, map(mul, a, b)))
    # Q = A + (m y2)^2: a list over k, or None where it is zero for every k
    Q = []
    for a, v in zip(A._c, sq):
        if v is not None:
            v = [a + b for b in v] if a else v
        elif a:
            v = [a] * len(ms)
        Q.append(v if v is not None and any(v) else None)
    q0 = Q[0]
    if q0 is None or not all(q0):
        raise SingularJet("reciprocal of a jet with zero constant term")
    one = Fraction(1) if kind == EXACT else 1.0
    inv0 = [one / a for a in q0]
    neg_inv0 = [-i for i in inv0]
    out = [None] * len(Q)
    out[0] = inv0
    for p in range(1, len(Q)):
        acc = None
        for b, r in solve[p]:
            qb = Q[b]
            if qb is not None:
                rr = out[r]
                if rr is not None:
                    prod = map(mul, qb, rr)
                    acc = list(prod) if acc is None else list(map(add, acc, prod))
        if acc is not None and any(acc):
            out[p] = list(map(mul, neg_inv0, acc))
    # scale by w_k and add up in increasing k; a zero term leaves the total
    # as it is, just as the per-term formula skips it
    return A._wrap([zero if v is None else reduce(add, map(mul, v, ws), zero) for v in out])


def _bits(jet):
    """Every coefficient in graded order: a float by its IEEE bytes (so the
    sign of a zero counts), a Fraction by its type and value."""
    return [
        struct.pack("<d", c) if type(c) is float else (type(c), c) for _, c in jet.graded_items()
    ]


def _outcome(f, *args):
    try:
        return _bits(f(*args))
    except SingularJet:
        return SingularJet


# the float coefficients stay in [1/8, 4] in size, so every intermediate of
# the sum stays finite (the kernel's bit-for-bit claim) up to degree 9
_floats = st.one_of(
    st.sampled_from([0.0, -0.0, 1.0, -1.0]),
    st.floats(0.125, 4.0).flatmap(lambda x: st.sampled_from([x, -x])),
)


@st.composite
def superposition_operands(draw):
    """(A, y2, ms, ws) for `reciprocal_sum`: degree 0-9, either kind, with A
    and y2 either free jets (random structural zeros and -0.0 entries) or
    the coordinate jets of a block, Cartesian or polar; ratios may be 0.0."""
    degree = draw(st.integers(0, 9))
    exact = draw(st.booleans())
    value = rationals if exact else _floats
    shape = draw(st.sampled_from(["free", "cartesian", "polar"]))
    if shape == "free":
        base = B0 if exact else F0
        key = st.tuples(st.integers(0, degree), st.integers(0, degree))
        key = key.filter(lambda a: sum(a) <= degree)
        A, y2 = (Jet2(base, degree, draw(st.dictionaries(key, value, max_size=14))) for _ in "ab")
    else:
        if shape == "polar" and exact:
            pt = (draw(st.sampled_from([0, Fraction(1, 3), Fraction(5, 2)])), 0)
        elif shape == "polar":
            r = draw(st.one_of(st.just(0.0), st.floats(0.0, 8.0)))
            pt = (r, draw(st.one_of(st.sampled_from([0.0, -0.0, math.pi]), st.floats(-4.0, 4.0))))
        elif exact:
            pt = (draw(rationals), draw(st.one_of(st.just(0), rationals)))
        else:
            pt = (draw(st.floats(-8.0, 8.0)), draw(st.one_of(st.just(0.0), st.floats(-8.0, 8.0))))
        x1, x2 = polar_coordinates(pt, degree) if shape == "polar" else (
            Jet2.variable(0, pt, degree), Jet2.variable(1, pt, degree)
        )
        inv_rho = draw(st.sampled_from([1, 2, 13]))
        q = draw(st.sampled_from([1, 2, Fraction(3, 2)]))
        if not exact:
            inv_rho, q = float(inv_rho), float(q)
        y1 = x1.scale(inv_rho) - q
        A, y2 = 1 + y1 * y1, x2.scale(inv_rho)
    terms = draw(st.integers(1, 5))
    if exact:
        ms = draw(st.lists(st.integers(1, 6), min_size=terms, max_size=terms))
    else:
        ratio = st.one_of(st.just(0.0), st.floats(0.25, 4.0))
        ms = draw(st.lists(ratio, min_size=terms, max_size=terms))
    ws = draw(st.lists(value, min_size=terms, max_size=terms))
    return A, y2, ms, ws


@given(superposition_operands())
@settings(max_examples=300, deadline=None)
# a zero ratio: present entries of m y2 that are 0.0 for that k only
@example((Jet2.variable(0, F0, 4) + 1.0, Jet2.variable(1, F0, 4), [0.0, 1.0], [1.0, -0.5]))
# q0 = 0 at the second k only
@example((Jet2.constant(-1.0, F0, 3), Jet2.constant(1.0, F0, 3), [2.0, 1.0], [1.0, 1.0]))
def test_compiled_kernel_is_the_list_over_k_body(operands):
    want = _outcome(list_over_k_reciprocal_sum, *operands)
    got = _outcome(reciprocal_sum, *operands)
    assert got == want


@pytest.mark.parametrize("base", [B0, F0])
def test_one_vanishing_constant_term_raises_singular_jet(base):
    # A + (m y2)^2 has zero constant term for m = 1 only, the second of three
    A, y2 = Jet2.constant(-1, base, 3), Jet2.constant(1, base, 3)
    with pytest.raises(SingularJet):
        reciprocal_sum(A, y2, [2, 1, 3], [1, 1, 1])
    with pytest.raises(SingularJet):  # no constant term in A or y2: never compiled
        reciprocal_sum(Jet2.variable(0, base, 3), Jet2.variable(1, base, 3), [1], [1])


@pytest.mark.parametrize("chunk", [1, 2, 5])
def test_kernel_sums_split_into_statements_keep_their_order(monkeypatch, chunk):
    # a generated sum longer than _CHUNK terms continues in further
    # statements, still added left to right: dense operands at degree 6 give
    # sums of up to 16 terms
    base = (0.5, 0.25)
    x1, x2 = Jet2.variable(0, base, 6), Jet2.variable(1, base, 6)
    A, y2 = 1 + x1 * x1 + (x1 - x2).reciprocal(), (x1 + x2).reciprocal()
    assert all(A._c) and all(y2._c)
    want = _bits(list_over_k_reciprocal_sum(A, y2, [1.0, 2.5, 3.0], [0.5, -0.25, 1.0]))
    monkeypatch.setattr(jets, "_CHUNK", chunk)
    _sum_kernel.cache_clear()
    try:
        assert _bits(reciprocal_sum(A, y2, [1.0, 2.5, 3.0], [0.5, -0.25, 1.0])) == want
    finally:
        _sum_kernel.cache_clear()


# -- the float reciprocal, a one-term bump sum, against the table walk ---------

def table_walk_reciprocal(self: Jet2) -> Jet2:
    """The float solve `Jet2.reciprocal` ran before it became the one-term
    `reciprocal_sum`, kept here verbatim as its oracle: the graded solve
    walked over `_tables`, skipping zero entries of the jet and of the
    partial reciprocal."""
    a = self._c
    a00 = a[0]
    if a00 == 0:
        raise SingularJet("reciprocal of a jet with zero constant term")
    inv0 = 1.0 / a00
    # solve sum_{beta <= alpha} a_beta r_{alpha - beta} = [alpha == 0] in
    # graded order; only nonzero a_beta with beta != 0 contribute
    a = [c if c else None for c in a]
    out = [None] * len(a)
    out[0] = inv0
    solve = _tables(self.degree)[2]
    for p in range(1, len(a)):
        acc = 0
        for b, r in solve[p]:
            ab = a[b]
            if ab is not None:
                rr = out[r]
                if rr is not None:
                    acc = acc + ab * rr
        if acc != 0:
            out[p] = -inv0 * acc
    return self._filled(out)


@st.composite
def float_jets(draw):
    """Degree 0-9, entries from `_floats` (so the solve stays finite), with
    random structural zeros and -0.0 entries, the constant term included."""
    degree = draw(st.integers(0, 9))
    key = st.tuples(st.integers(0, degree), st.integers(0, degree)).filter(lambda a: sum(a) <= degree)
    return Jet2(F0, degree, draw(st.dictionaries(key, _floats, max_size=20)))


@given(float_jets())
@settings(max_examples=300, deadline=None)
@example(Jet2(F0, 3, {(0, 0): -0.0, (1, 0): 1.0}))
@example(Jet2(F0, 4, {(0, 0): 0.5, (0, 1): -0.0, (2, 0): 1.0, (1, 1): -2.0}))
def test_float_reciprocal_is_the_table_walk(jet):
    assert _outcome(Jet2.reciprocal, jet) == _outcome(table_walk_reciprocal, jet)


# -- polar coordinate jets in closed form against jet_sin_cos ------------------

def _polar_by_products(pt, degree):
    r = Jet2.variable(0, pt, degree)
    s, c = jet_sin_cos(Jet2.variable(1, pt, degree))
    return r * c, r * s


@given(
    st.integers(0, 9),
    st.one_of(st.sampled_from([0.0, -0.0]), st.floats(0.0, 10.0)),
    st.one_of(st.sampled_from([0.0, -0.0, math.pi, -math.pi]), st.floats(-4.0, 4.0)),
)
@settings(max_examples=200, deadline=None)
def test_polar_coordinates_are_r_times_sin_cos(degree, r, theta):
    got, want = polar_coordinates((r, theta), degree), _polar_by_products((r, theta), degree)
    assert [_bits(j) for j in got] == [_bits(j) for j in want]
    assert all(j.kind == FLOAT and j.base == (r, theta) for j in got)


@pytest.mark.parametrize("degree", range(10))
@pytest.mark.parametrize("r", [Fraction(3, 7), 0, Fraction(-2)])
def test_exact_polar_coordinates_are_r_times_sin_cos(degree, r):
    got, want = polar_coordinates((r, 0), degree), _polar_by_products((r, 0), degree)
    assert [_bits(j) for j in got] == [_bits(j) for j in want]
    assert all(j.kind == EXACT for j in got)


def test_exact_polar_coordinates_need_a_zero_angle():
    for theta in (Fraction(1, 2), 1, Fraction(-3)):
        with pytest.raises(JetError, match="zero constant term"):
            polar_coordinates((Fraction(1), theta), 4)


def test_sin_cos_known_series():
    t = Jet2.variable(1, B0, 5)
    s, c = jet_sin_cos(t)
    assert s.coefficient((0, 1)) == 1
    assert s.coefficient((0, 3)) == Fraction(-1, 6)
    assert s.coefficient((0, 5)) == Fraction(1, 120)
    assert c.coefficient((0, 2)) == Fraction(-1, 2)
    assert c.coefficient((0, 4)) == Fraction(1, 24)


def test_sin_cos_float_nonzero_angle():
    base = (0.0, 0.7)
    t = Jet2.variable(1, base, 4)
    s, c = jet_sin_cos(t)
    assert s.coefficient((0, 0)) == pytest.approx(math.sin(0.7))
    assert c.coefficient((0, 0)) == pytest.approx(math.cos(0.7))
    assert s.coefficient((0, 1)) == pytest.approx(math.cos(0.7))


def test_exact_sin_cos_nonzero_angle_rejected():
    base = (Fraction(0), Fraction(1, 2))
    t = Jet2.variable(1, base, 4)
    with pytest.raises(JetError):
        jet_sin_cos(t)


def test_float_scalar_in_exact_jet_rejected():
    with pytest.raises(JetError):
        Jet2.constant(0.5, B0, 3)


_H = BaseFunction(gevrey(1), 8)
_BLOCK = Block(_H, Fraction(2), Fraction(1, 2))
_BRICK = BrickParams(2, 3, Fraction(1, 2))
# the nine jet builders, each (point, degree) -> one jet
BUILDERS = {
    "Jet2": lambda pt, d: Jet2(pt, d, {(0, 0): 3, (1, 0): Fraction(1, 2)}),
    "Jet2.constant": lambda pt, d: Jet2.constant(Fraction(2, 3), pt, d),
    "Jet2.variable": lambda pt, d: Jet2.variable(1, pt, d),
    "polar_coordinates": lambda pt, d: polar_coordinates(pt, d)[1],
    "BaseFunction.jet": lambda pt, d: _H.jet(pt, d),
    "Block.jet": lambda pt, d: _BLOCK.jet(pt, d),
    "polar_block_jet": lambda pt, d: polar_block_jet(_BLOCK, pt, d),
    "brick_jet": lambda pt, d: brick_jet(_BRICK, pt, d),
    "polar_brick_jet": lambda pt, d: polar_brick_jet(_BRICK, pt, d),
}


@pytest.mark.parametrize("name", BUILDERS)
@pytest.mark.parametrize(
    "pt, kind, scalar",
    [
        ((Fraction(1, 3), 0), EXACT, Fraction),
        ((2, Fraction(0)), EXACT, Fraction),
        ((0.5, 0.25), FLOAT, float),
        ((Fraction(1, 3), 0.25), FLOAT, float),
        ((0.5, 0), FLOAT, float),
    ],
    ids=["fraction-int", "int-fraction", "float", "fraction-float", "float-int"],
)
def test_every_builder_takes_its_kind_from_the_point(name, pt, kind, scalar):
    jet = BUILDERS[name](pt, 3)
    assert jet.kind == kind
    assert all(type(v) is scalar for v in jet.base)
    assert all(type(c) is scalar for _, c in jet.graded_items())
    if kind == FLOAT:
        # a mixed point gives the bits of the all-float point
        assert jet == BUILDERS[name]((float(pt[0]), float(pt[1])), 3)


def test_builders_that_assumed_a_kind_follow_the_point():
    # brick_jet defaulted to exact and refused a float point
    assert brick_jet(_BRICK, (0.5, 0.25), 3).kind == FLOAT
    # BaseFunction.jet defaulted to float and made a rational point float
    jet = _H.jet((Fraction(1, 3), Fraction(0)), 4)
    assert jet.kind == EXACT
    assert jet.value() == _H.value(Fraction(1, 3), Fraction(0), exact=True)


@pytest.mark.parametrize("pt", [("1/3", 0), (Fraction(1, 3),), (0, 0, 0), (None, 0.5)])
def test_a_point_of_no_known_kind_raises(pt):
    with pytest.raises(JetError, match="base point"):
        Jet2.variable(0, pt, 3)


def test_powers_multiply_from_the_jet_itself():
    for base in (B0, F0):
        x = Jet2.variable(0, base, 4) + Jet2.variable(1, base, 4).scale(3)
        assert x ** 0 == Jet2.constant(1, base, 4)
        assert x ** 1 == x
        assert x ** 2 == x * x
        assert x ** 3 == x * x * x


def test_value_and_derivative_conventions():
    f = poly_jet({(0, 0): Fraction(7), (2, 1): Fraction(5)})
    assert f.value() == 7
    # the coefficient is the derivative over the factorials: 10 / (2! * 1!)
    assert f.coefficient((2, 1)) == 5


def test_finite_difference_matches_analytic():
    f = lambda pt: math.exp(0.3 * pt[0]) * math.cos(pt[1])
    at = (0.2, -0.4)
    want = 0.3 * math.exp(0.3 * at[0]) * -math.sin(at[1])  # d2 of d1 f
    got = finite_difference(f, at, (1, 1))
    assert got == pytest.approx(want, rel=1e-8)


def test_finite_difference_order_cap():
    with pytest.raises(JetError):
        finite_difference(lambda pt: 0.0, (0, 0), (3, 2))


def test_central_difference_first_order():
    f = lambda pt: pt[0] ** 2 + 3 * pt[0] * pt[1]
    got = central_difference(f, (1.0, 2.0), (1, 0), 1e-4)
    assert got == pytest.approx(2.0 + 6.0, rel=1e-6)
