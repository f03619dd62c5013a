"""Every exact field of the certificate's flat axis derivatives pinned bit for bit.

`flat_axis_derivative` returns the dominant term, the cross and total
intervals and the truncation tail as exact rationals. The certificate's
verdicts rest on these numbers, so any change to how they are computed
(factoring, summation order, interval products) must leave every endpoint
the same reduced Fraction. Each greedy layout at lambda_max 256 is pinned
by one sha256 digest over the sign, length and big-endian bytes
(`int.to_bytes`) of every numerator and denominator of every row, in order.
The two endpoints the certificate reads, `cross_hi` and `total_lower`, are
formed without the intervals and must equal their interval endpoints.
"""

import hashlib
from fractions import Fraction

import pytest

from carleman.flat import EFunction, FlatFunction, build_layout, flat_axis_derivative
from carleman.weights import parse_family


def _digest(values) -> str:
    h = hashlib.sha256()
    for v in values:
        for n in (v.numerator, v.denominator):
            raw = abs(n).to_bytes(max(1, (abs(n).bit_length() + 7) // 8), "big")
            h.update(b"-" if n < 0 else b"+")
            h.update(len(raw).to_bytes(8, "big"))
            h.update(raw)
    return h.hexdigest()


PINS = {
    ("gevrey:1", "sqrt"): (
        [2, 12, 52, 212],
        "df039e439509846c392fa18577e43322e6932fa55398f6758d85b6e16de3efd1",
    ),
    ("gevrey:2", "sqrt"): (
        [2, 6, 14, 30, 62, 126, 254],
        "e7ea4a5d20cd6ae31097747c8a739983603b6d3703bf0943222ab865b9266ac9",
    ),
    ("gevrey:1", "power:1/3"): (
        [2, 24, 200],
        "50eb73e56d90da5f36a129be8b2a0f267aab24bb1dda3c7360133e5f09770a4d",
    ),
    ("gevrey:3", "sqrt"): (  # cube ratios
        [2, 4, 8, 14, 24, 40, 66, 106, 170],
        "e20d0274d89232a645ae776dc7820f026ddb1170439fb17af3a4f8b94ba5ff6e",
    ),
    ("shift:2:gevrey:1", "sqrt"): (  # ratios (2k+1)(2k+2), two primes or more
        [2, 6, 14, 30, 62, 126, 254],
        "3049ec0dd2809ac11adb05ecca7d77fae68f82d8f7549c641fff31c1f918b409",
    ),
}


@pytest.mark.parametrize("family, e_spec", list(PINS), ids=[f"{m}-{e}" for m, e in PINS])
def test_flat_axis_derivative_exact_fields_pinned(family, e_spec):
    orders, digest = PINS[family, e_spec]
    fn = FlatFunction(build_layout(parse_family(family), EFunction.parse(e_spec), 256))
    assert fn.layout.orders == orders
    fields: list[Fraction] = []
    for lam in fn.layout.orders:
        ax = flat_axis_derivative(fn, lam, lam)
        # the two endpoints the certificate reads, formed without the intervals
        assert (ax.cross_hi, ax.total_lower) == (ax.cross_iv.hi, ax.total_iv.lo)
        fields += [
            ax.dominant_exact,
            ax.cross_iv.lo,
            ax.cross_iv.hi,
            ax.total_iv.lo,
            ax.total_iv.hi,
            ax.tail_exact,
        ]
    assert _digest(fields) == digest
