"""Every derivative-bound sweep pinned bit for bit.

Each sweep is run at the parameters the acceptance suite uses (the block
sweep, which the suite does not run, at those of test_blocks.py), and the
polar sweeps once more with a constant small enough that the bound fails,
so the failure tags are pinned too. A result is pinned as (checked, number
of failures, sha256 prefix of repr(failures), max_log_ratio,
empirical_constant), the two floats as exact literals (repr round-trips).
The block and polar block sweeps run once more at degree 10, past every
degree the acceptance suite reaches, and the jets they read are pinned by
the IEEE bytes of every coefficient too.
"""

import hashlib
import random
import struct
from fractions import Fraction

import pytest

from carleman.blocks import (
    BaseFunction,
    base_upper_check,
    block_upper_check,
    polar_block_bound_check,
)
from carleman.bricks import (
    BrickParams,
    SweepResult,
    brick_taylor_check,
    cauchy_kernel_check,
    polar_brick_bound_check,
)
from carleman.flat import (
    EFunction,
    FlatFunction,
    build_layout,
    flat_upper_check,
    polar_flat_check,
)
from carleman.weights import gevrey

POLAR_PARAMS = [
    BrickParams(q, m, rho) for q in (1, 3) for m in (1, 4) for rho in (1, Fraction(1, 3))
]
POLAR_GEOMS = [
    (Fraction(2), Fraction(1, 2)),
    (Fraction(3), Fraction(1, 3)),
    (Fraction(3, 2), Fraction(1, 4)),
    (Fraction(5), Fraction(1, 5)),
]
BLOCK_GEOMS = [(Fraction(1), Fraction(1, 2)), (Fraction(4), Fraction(1, 8))]


def _kernel_c_values():
    rng = random.Random(20)
    return [Fraction(rng.randint(1, 48), rng.randint(1, 12)) for _ in range(20)]


def _greedy_flat():
    return FlatFunction(build_layout(gevrey(1), EFunction.parse("sqrt"), 64))


SWEEPS = {
    "cauchy-kernel": lambda: cauchy_kernel_check(_kernel_c_values(), degree=8, points=5, seed=21),
    "brick-taylor": lambda: brick_taylor_check(
        [BrickParams(2, 3, Fraction(1, 2)), BrickParams(1, 1, 1)], degree=8, points=3, seed=22
    ),
    "polar-brick": lambda: polar_brick_bound_check(
        POLAR_PARAMS, degree=6, radii=5, angles=5, seed=24
    ),
    "polar-brick-failing": lambda: polar_brick_bound_check(
        POLAR_PARAMS, degree=4, radii=3, angles=2, C=1.0, seed=24
    ),
    "base-upper": lambda: base_upper_check(
        BaseFunction(gevrey(1), 60), degree=6, points=25, seed=23
    ),
    "block-upper": lambda: block_upper_check(
        BaseFunction(gevrey(1), 40), BLOCK_GEOMS, degree=4, points=4
    ),
    "block-upper-degree-10": lambda: block_upper_check(
        BaseFunction(gevrey(1), 40), BLOCK_GEOMS, degree=10, points=4
    ),
    "polar-block": lambda: polar_block_bound_check(
        BaseFunction(gevrey(1)), POLAR_GEOMS, degree=5, radii=5, angles=10, seed=25
    ),
    "polar-block-degree-10": lambda: polar_block_bound_check(
        BaseFunction(gevrey(1)), POLAR_GEOMS, degree=10, radii=4, angles=5, seed=28
    ),
    "polar-block-failing": lambda: polar_block_bound_check(
        BaseFunction(gevrey(1), 12), POLAR_GEOMS, degree=3, radii=3, angles=2, C=1.0, seed=25
    ),
    "flat-upper": lambda: flat_upper_check(_greedy_flat(), degree=5, points=48, seed=26),
    "polar-flat": lambda: polar_flat_check(_greedy_flat(), degree=5, radii=5, angles=10, seed=27),
    "polar-flat-failing": lambda: polar_flat_check(
        _greedy_flat(), degree=3, radii=3, angles=2, C=0.01, seed=27
    ),
}

PINS = {
    "base-upper": (700, 0, "4f53cda18c2baa0c", -7.376898359376189, 0.0),
    "block-upper": (120, 0, "4f53cda18c2baa0c", -7.376898359353471, 0.0),
    "block-upper-degree-10": (528, 0, "4f53cda18c2baa0c", -7.376898359353471, 0.0),
    "brick-taylor": (270, 0, "4f53cda18c2baa0c", -2.0794415416798357, 1.725960788073832),
    "cauchy-kernel": (4500, 0, "4f53cda18c2baa0c", -2.0794415416798344, 1.7411776613292256),
    "flat-upper": (1050, 0, "4f53cda18c2baa0c", -12.464494694311746, 0.0),
    "polar-block": (4200, 0, "4f53cda18c2baa0c", -12.31985719573281, 1.3351926240970458),
    "polar-block-degree-10": (5280, 0, "4f53cda18c2baa0c", -13.404814959909753, 1.3787428284062466),
    "polar-block-failing": (240, 240, "72e402ccdbafff11", 33.27106466687738, 1.0394644440742176),
    "polar-brick": (5600, 0, "4f53cda18c2baa0c", -10.701484712581587, 1.8282481042839698),
    "polar-brick-failing": (720, 33, "634ec69b42c020ed", 2.4969281411375595, 1.647708653984124),
    "polar-flat": (1050, 0, "4f53cda18c2baa0c", -18.55358054202004, 0.0),
    "polar-flat-failing": (60, 46, "77cb47a2b9921731", 9.401018150923196, 0.0),
}


def _pin(res):
    digest = hashlib.sha256(repr(res.failures).encode()).hexdigest()[:16]
    return (res.checked, len(res.failures), digest, res.max_log_ratio, res.empirical_constant)


@pytest.mark.parametrize("name", sorted(SWEEPS))
def test_sweep_pinned(name):
    assert _pin(SWEEPS[name]()) == PINS[name]


@pytest.mark.parametrize(
    "name, digest",
    [("block-upper-degree-10", "0c09bb9e9858a4a7"), ("polar-block-degree-10", "c7b09cee024e7869")],
)
def test_degree_10_sweep_jets_pinned(monkeypatch, name, digest):
    """sha256 prefix of the IEEE bytes of every coefficient of every jet the
    sweep reads, in the order it reads them."""
    h, sweep = hashlib.sha256(), SweepResult.sweep

    def read(res, jet, *args, **kwargs):
        for _, c in jet.graded_items():
            h.update(struct.pack("<d", c))
        return sweep(res, jet, *args, **kwargs)

    monkeypatch.setattr(SweepResult, "sweep", read)
    SWEEPS[name]()
    assert h.hexdigest()[:16] == digest
