"""Tests for the greedy layout, the flat superposition, and its certificates.

Numeric expectations are frozen outputs of the certified pipeline (exact
rational or interval arithmetic underneath); tolerances only absorb the final
float rendering.
"""

import dataclasses
import hashlib
import math
import os
import threading
import time
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from carleman import flat
from carleman.blocks import BaseFunction, polar_block_jet
from carleman.flat import (
    INPROCESS_MAX_TERMS,
    EFunction,
    FlatAxisValue,
    FlatFunction,
    Layout,
    LayoutError,
    build_layout,
    flat_axis_derivative,
    flat_upper_check,
    layout_from_orders,
    lower_bound_certificate,
    polar_flat_check,
    sharpness_scan,
    _add_coprime,
    _fork_map,
)
from carleman.intervals import RInterval
from carleman.jets import FLOAT, Jet2
from carleman.logscale import log_of_fraction
from carleman.weights import WeightSequence, analytic, gevrey, log_power, parse_family, shift


@pytest.fixture(scope="module")
def greedy_layout():
    return build_layout(gevrey(1), EFunction.parse("sqrt"), 64)


@pytest.fixture(scope="module")
def flat_fn(greedy_layout):
    return FlatFunction(greedy_layout)


@pytest.fixture(scope="module")
def cert_rows(flat_fn):
    return lower_bound_certificate(flat_fn).rows


def test_center_map_parse_and_validation():
    e = EFunction.parse("sqrt")
    assert e.power == Fraction(1, 2)
    iv = e.interval(Fraction(1, 4))
    assert iv.lo == iv.hi == Fraction(1, 2)
    assert EFunction.parse("power:1/3").power == Fraction(1, 3)
    with pytest.raises(LayoutError):
        EFunction.parse("cbrt")
    with pytest.raises(LayoutError):
        EFunction("bad", power=Fraction(3, 2))
    # a rational power outside (0, 1) is reported as out of range
    with pytest.raises(LayoutError, match=r"\(0, 1\)"):
        EFunction.parse("power:2")
    with pytest.raises(LayoutError, match="rational"):
        EFunction.parse("power:abc")


def test_greedy_layout_shape(greedy_layout):
    lay = greedy_layout
    assert lay.orders == [2, 12, 52]
    assert [e.rho for e in lay.entries] == [
        Fraction(1, 3),
        Fraction(1, 13),
        Fraction(1, 53),
    ]
    assert lay.eps_exact == Fraction(1, 3)
    assert lay.terms == 64
    assert lay.entries[0].center == pytest.approx(math.sqrt(1 / 3), rel=1e-12)
    # each accepted center is below half the previous one
    centers = [e.center for e in lay.entries]
    assert all(b < a / 2 for a, b in zip(centers, centers[1:]))
    assert float(lay.delta_min_lo) == pytest.approx(0.13998953416392554, rel=1e-9)


def test_greedy_layout_4096_pinned(tmp_path):
    # the six greedy blocks to lambda_max 4096 and the bytes of the saved
    # layout, as the factorial-quotient code produced them
    layout = build_layout(gevrey(1), EFunction.parse("sqrt"), 4096)
    assert layout.orders == [2, 12, 52, 212, 852, 3412]
    path = tmp_path / "layout.json"
    layout.save(path)
    assert hashlib.sha256(path.read_bytes()).hexdigest() == (
        "dea69536b19a955753af50a31bd1a311bff2a0231f5cdf5487afc5f42c902ab8"
    )


def test_layout_entry_weight():
    lay = layout_from_orders(gevrey(1), EFunction.parse("sqrt"), [2])
    e = lay.entries[0]
    # weight = M_2 rho^4 / 2^2 with rho = 1/3
    assert e.weight == Fraction(2) * Fraction(1, 3) ** 4 / 4


def test_layout_requires_exact_family():
    with pytest.raises(LayoutError):
        build_layout(log_power(math.e), EFunction.parse("sqrt"), 16)


def test_layout_from_orders_validation():
    E = EFunction.parse("sqrt")
    with pytest.raises(LayoutError):
        layout_from_orders(gevrey(1), E, [])
    with pytest.raises(LayoutError):
        layout_from_orders(gevrey(1), E, [4, 2])
    with pytest.raises(LayoutError):
        layout_from_orders(gevrey(1), E, [3])
    # rho = 1 means the center cannot clear it
    with pytest.raises(LayoutError):
        layout_from_orders(analytic(), E, [2])
    # orders 2 and 4 are fine loose but violate the halving rule
    layout_from_orders(gevrey(1), E, [2, 4])
    with pytest.raises(LayoutError):
        layout_from_orders(gevrey(1), E, [2, 4], require_sparsity=True)
    # terms must exceed the largest order and reach the bump-term minimum
    layout_from_orders(gevrey(1), E, [2], terms=4)
    with pytest.raises(LayoutError):
        layout_from_orders(gevrey(1), E, [2], terms=3)
    with pytest.raises(LayoutError):
        layout_from_orders(gevrey(1), E, [2, 4], terms=4)
    with pytest.raises(LayoutError):
        build_layout(gevrey(1), E, 64, terms=52)


def test_layout_round_trip(tmp_path, greedy_layout):
    path = tmp_path / "layout.json"
    greedy_layout.save(path)
    back = Layout.load(path)
    assert back.orders == greedy_layout.orders
    assert back.eps_exact == greedy_layout.eps_exact
    assert back.terms == greedy_layout.terms
    assert [e.rho for e in back.entries] == [e.rho for e in greedy_layout.entries]


def test_refused_save_leaves_the_file_as_it_was(tmp_path):
    # a gevrey:1000 layout has a float field that cannot hold its value
    layout = build_layout(gevrey(1000), EFunction.parse("sqrt"), 4)
    path = tmp_path / "layout.json"
    path.write_text("earlier contents\n")
    with pytest.raises(LayoutError, match="cannot hold"):
        layout.save(path)
    assert path.read_text() == "earlier contents\n"


def test_layout_load_rejects_tampering(greedy_layout):
    data = greedy_layout.to_json_dict()
    data["entries"][0]["rho"] = "1/4"
    with pytest.raises(LayoutError):
        Layout.from_json_dict(data)
    data = greedy_layout.to_json_dict()
    data["terms"] = 2
    with pytest.raises(LayoutError):
        Layout.from_json_dict(data)


@pytest.mark.parametrize("order", ["2", True, 2.0, 12, None])
def test_layout_load_rejects_an_entry_order_edited(greedy_layout, order):
    # each entry's order must be the int at its index of orders
    data = greedy_layout.to_json_dict()
    data["entries"][0]["order"] = order
    with pytest.raises(LayoutError, match="per integer order"):
        Layout.from_json_dict(data)
    del data["entries"][0]["order"]
    with pytest.raises(LayoutError, match="per integer order"):
        Layout.from_json_dict(data)


@pytest.mark.parametrize("eps", ["abc", "1/0", 0.3333333333333333, ["1/3"]])
def test_layout_load_rejects_an_eps_exact_that_is_no_rational(greedy_layout, eps):
    data = greedy_layout.to_json_dict()
    data["eps_exact"] = eps
    with pytest.raises(LayoutError, match="no rational"):
        Layout.from_json_dict(data)


@pytest.mark.parametrize("eps", ["1/4", "0.3333333333333333", None])
def test_layout_load_rejects_an_eps_exact_off_the_rebuild(greedy_layout, eps):
    data = greedy_layout.to_json_dict()
    assert data["eps_exact"] == "1/3"
    Layout.from_json_dict({**data, "eps_exact": "2/6"})  # the same value, another spelling
    data["eps_exact"] = eps
    with pytest.raises(LayoutError, match="disagrees"):
        Layout.from_json_dict(data)


def test_layout_load_rejects_an_eps_exact_where_the_rebuild_has_none():
    # eps = min(5^(-1/2), 13^(-1/6)) = 1/sqrt(5) is irrational
    layout = layout_from_orders(gevrey(1), EFunction.parse("sqrt"), [4, 12])
    assert layout.eps_exact is None
    data = layout.to_json_dict()
    assert Layout.from_json_dict(data).eps_exact is None
    data["eps_exact"] = "1/5"
    with pytest.raises(LayoutError, match="disagrees"):
        Layout.from_json_dict(data)


@pytest.mark.parametrize("rho", ["1/0", "one third", ""])
def test_layout_load_rejects_a_rho_that_is_no_rational(greedy_layout, rho):
    data = greedy_layout.to_json_dict()
    data["entries"][-1]["rho"] = rho
    with pytest.raises(LayoutError, match="no rational"):
        Layout.from_json_dict(data)


def test_layout_load_rejects_tiny_centres_edited():
    # gevrey:200 centres run from 1.9e-48 down to 9e-124, all below an
    # absolute 1e-9 of any edit
    data = build_layout(gevrey(200), EFunction.parse("sqrt"), 16).to_json_dict()
    assert max(e["center"] for e in data["entries"]) < 1e-40
    Layout.from_json_dict(data)
    for e in data["entries"]:
        e["center"] = 1e-10
    with pytest.raises(LayoutError, match="disagrees"):
        Layout.from_json_dict(data)


def test_flat_value_matches_jet_constant(flat_fn):
    # the weighted sum of block values, summed apart from any jet
    blocks = list(zip(flat_fn.layout.entries, flat_fn._blocks))
    for pt in [(0.3, 0.2), (0.5773, 0.0), (-1.0, 0.4)]:
        jet = flat_fn.jet(pt, 2)
        value = math.fsum(float(e.weight) * b.value(*pt) for e, b in blocks)
        assert jet.coefficient((0, 0)) == pytest.approx(value, rel=1e-11)


def test_flat_jets_are_weighted_block_sums(flat_fn):
    pt, degree = (0.4, 0.9), 3
    cart = Jet2.constant(0, pt, degree)
    polar = Jet2.constant(0, pt, degree)
    for e, b in zip(flat_fn.layout.entries, flat_fn._blocks):
        w = math.exp(e.weight_log)
        cart = cart + b.jet(pt, degree).scale(w)
        polar = polar + polar_block_jet(b, pt, degree).scale(w)
    assert cart.kind == polar.kind == FLOAT
    assert flat_fn.jet(pt, degree) == cart
    assert flat_fn.polar_jet(pt, degree) == polar
    # the block weights are floats, so a rational point gives the same float jets
    exact_pt = (Fraction(2, 5), Fraction(9, 10))
    assert flat_fn.jet(exact_pt, degree) == cart
    assert flat_fn.polar_jet(exact_pt, degree) == polar


def test_axis_derivative_structure(flat_fn):
    ax = flat_axis_derivative(flat_fn, 2, 2)
    assert ax.sign == -1  # (-1)^(order/2) with order 2
    assert ax.dominant_exact > 0
    assert ax.total_lower >= ax.dominant_exact  # cross terms share the sign
    assert ax.tail_exact > 0
    assert ax.paths_agree
    with pytest.raises(LayoutError):
        flat_axis_derivative(flat_fn, 3, 2)
    with pytest.raises(LayoutError):
        flat_axis_derivative(flat_fn, 2, 6)
    with pytest.raises(LayoutError):
        flat_axis_derivative(flat_fn, 64, 2)


def test_certificate_frozen_values(flat_fn):
    cert = lower_bound_certificate(flat_fn)
    assert cert.all_ok
    assert [r.order for r in cert.rows] == [2, 12, 52]
    lhs = [r.lhs_log for r in cert.rows]
    assert lhs[0] == pytest.approx(-1.6256029060946275, rel=1e-9)
    assert lhs[1] == pytest.approx(42.37310436386815, rel=1e-9)
    assert lhs[2] == pytest.approx(400.52331908765336, rel=1e-9)
    roots = [r.ratio_root for r in cert.rows]
    assert roots[0] == pytest.approx(1.8820929443711245, rel=1e-9)
    assert roots[1] == pytest.approx(2.770963396201949, rel=1e-9)
    assert roots[2] == pytest.approx(3.2106091698638064, rel=1e-9)
    # order-2 target side is exactly eps^2 2! M_2^2 / 16 = 1/18
    assert cert.rows[0].rhs_log == pytest.approx(math.log(1 / 18), rel=1e-12)
    assert all(r.paths_agree for r in cert.rows)
    assert cert.lambda0_estimate == 636


def test_certificate_builds_no_exact_weights(monkeypatch):
    # the moments read the integers M_k, m_k; no weight Fraction is formed.
    # Rows may run in forked workers, so each row checks in its own process
    row_of = flat._certificate_row

    def checked_row(fn, target):
        row = row_of(fn, target)
        assert fn.base._exact_w == {}, f"row {target.order} built exact weights"
        return row

    monkeypatch.setattr(flat, "_certificate_row", checked_row)
    _usable_cpus(monkeypatch, 2)
    fn = FlatFunction(build_layout(gevrey(1), EFunction.parse("sqrt"), 256))
    cert = lower_bound_certificate(fn)
    assert cert.all_ok
    assert sorted(cert.rows_s) == fn.layout.orders
    assert fn.base._exact_w == {}


# the five layouts of tests/test_axis_pins.py and the selftest's layout
ORACLE_LAYOUTS = [
    ("gevrey:1", "sqrt", 64),
    ("gevrey:1", "sqrt", 256),
    ("gevrey:2", "sqrt", 256),
    ("gevrey:1", "power:1/3", 256),
    ("gevrey:3", "sqrt", 256),
    ("shift:2:gevrey:1", "sqrt", 256),
]


def _rows_both_ways(fn, monkeypatch):
    """Each row as it reads its products from brackets, and as it reads them
    from the exact products alone, the oracle: both read one moment per row."""
    axes = {}

    def shared_axis(fn, order, at):
        if order not in axes:
            axes[order] = flat_axis_derivative(fn, order, at)
        return dataclasses.replace(axes[order])  # no product read yet

    monkeypatch.setattr(flat, "flat_axis_derivative", shared_axis)
    bracketed = [flat._certificate_row(fn, e) for e in fn.layout.entries]
    no_brackets = property(lambda ax: dict.fromkeys(ax._multipliers))
    monkeypatch.setattr(FlatAxisValue, "_brackets", no_brackets)
    exact = [flat._certificate_row(fn, e) for e in fn.layout.entries]
    return [_row_bits(r) for r in bracketed], [_row_bits(r) for r in exact]


@pytest.mark.parametrize(
    "family, e_spec, lambda_max", ORACLE_LAYOUTS, ids=[f"{m}-{e}-{n}" for m, e, n in ORACLE_LAYOUTS]
)
def test_rows_read_from_brackets_equal_the_exact_oracle(family, e_spec, lambda_max, monkeypatch):
    fn = FlatFunction(build_layout(parse_family(family), EFunction.parse(e_spec), lambda_max))
    bracketed, exact = _rows_both_ways(fn, monkeypatch)
    assert bracketed == exact


def test_a_row_forms_no_exact_product_and_no_moment_denominator(greedy_256, monkeypatch):
    def refuse(*args):
        pytest.fail("formed an exact product or the moment's denominator")

    for name in ("dominant_exact", "cross_hi", "total_lower", "moment"):
        monkeypatch.setattr(FlatAxisValue, name, property(refuse))
    monkeypatch.setattr(BaseFunction, "axis_moment", refuse)
    fn = greedy_256["gevrey:1"]
    rows = [flat._certificate_row(fn, e) for e in fn.layout.entries]
    assert all(r.ok and r.dominant_ok and r.cross_ok and r.paths_agree for r in rows)


def test_a_bracket_straddling_its_bound_reads_the_exact_product(flat_fn, monkeypatch):
    # every numerator bracket widened to [0, 2^4096 hi]: each comparison and
    # each log is undecided, so each product is formed exactly once
    want = [_row_bits(flat._certificate_row(flat_fn, e)) for e in flat_fn.layout.entries]
    bracket_of, times, formed = flat._bracket_factored, FlatAxisValue._times_moment, []

    def straddling(*args):
        (lo, hi, t), den = bracket_of(*args)
        return (0, hi << 4096, t), den

    def counted(ax, name):
        formed.append(name)
        return times(ax, name)

    monkeypatch.setattr(flat, "_bracket_factored", straddling)
    monkeypatch.setattr(FlatAxisValue, "_times_moment", counted)
    got = [_row_bits(flat._certificate_row(flat_fn, e)) for e in flat_fn.layout.entries]
    assert got == want
    assert len(formed) == 3 * len(want)


def test_a_failed_base_proof_reads_the_exact_product(greedy_256, monkeypatch):
    # in gevrey:2's row 254 a base of factor.lo and of factor.hi shares a
    # prime with the moment's numerator: those products are Fraction products
    fn = greedy_256["gevrey:2"]
    ax = flat_axis_derivative(fn, 254, 254)
    assert [name for name, b in ax._brackets.items() if b is None] == ["cross_hi", "total_lower"]
    bracketed, exact = _rows_both_ways(fn, monkeypatch)
    assert bracketed[-1] == exact[-1]


def _usable_cpus(monkeypatch, n):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(n)), raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: n)


def _no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def _row_bits(row):
    return [v.hex() if isinstance(v, float) else v for v in dataclasses.astuple(row)]


@pytest.fixture(scope="module")
def greedy_256():
    return {
        family: FlatFunction(build_layout(parse_family(family), EFunction.parse("sqrt"), 256))
        for family in ("gevrey:1", "gevrey:2")
    }


@pytest.mark.parametrize("family", ["gevrey:1", "gevrey:2"])
def test_forked_rows_equal_in_process_rows(greedy_256, family, monkeypatch):
    fn = greedy_256[family]
    assert fn.base.terms > INPROCESS_MAX_TERMS
    _usable_cpus(monkeypatch, 2)
    forked = lower_bound_certificate(fn)
    _no_child_left()
    _usable_cpus(monkeypatch, 1)
    here = lower_bound_certificate(fn)
    # this process and one child share the rows
    assert forked.workers == 2 and here.workers == 1
    assert [_row_bits(r) for r in forked.rows] == [_row_bits(r) for r in here.rows]
    assert [r.order for r in forked.rows] == fn.layout.orders
    assert sorted(forked.rows_s) == sorted(here.rows_s) == fn.layout.orders
    assert forked.lambda0_estimate == here.lambda0_estimate


def _refuse_fork():
    pytest.fail("the certificate forked")


def test_rows_run_in_process_on_one_cpu(greedy_256, monkeypatch):
    _usable_cpus(monkeypatch, 1)
    monkeypatch.setattr(os, "fork", _refuse_fork)
    assert lower_bound_certificate(greedy_256["gevrey:1"]).workers == 1


def test_rows_run_in_process_without_fork(greedy_256, monkeypatch):
    _usable_cpus(monkeypatch, 2)
    monkeypatch.delattr(os, "fork")
    assert lower_bound_certificate(greedy_256["gevrey:1"]).workers == 1


def test_rows_run_in_process_beside_another_thread(greedy_256, monkeypatch):
    _usable_cpus(monkeypatch, 2)
    monkeypatch.setattr(os, "fork", _refuse_fork)
    stop = threading.Event()
    waiter = threading.Thread(target=stop.wait, args=(30,))
    waiter.start()
    try:
        assert lower_bound_certificate(greedy_256["gevrey:1"]).workers == 1
    finally:
        stop.set()
        waiter.join(30)
    assert not waiter.is_alive()


def test_rows_of_a_small_layout_run_in_process(flat_fn, monkeypatch):
    # selftest's 64-term certificates would pay more for a fork than a row
    assert flat_fn.base.terms <= INPROCESS_MAX_TERMS
    _usable_cpus(monkeypatch, 2)
    monkeypatch.setattr(os, "fork", _refuse_fork)
    assert lower_bound_certificate(flat_fn).workers == 1


def test_a_row_error_in_a_worker_comes_back_with_its_type(greedy_256, monkeypatch):
    row_of = flat._certificate_row

    def failing_row(fn, target):
        if target.order == 12:  # the child's first row
            raise LayoutError(f"no row at order 12 in process {os.getpid()}")
        return row_of(fn, target)

    monkeypatch.setattr(flat, "_certificate_row", failing_row)
    _usable_cpus(monkeypatch, 2)
    with pytest.raises(LayoutError, match="no row at order 12 in process") as ei:
        lower_bound_certificate(greedy_256["gevrey:1"])
    assert str(ei.value).rpartition(" ")[2] != str(os.getpid())
    _no_child_left()


def test_fork_map_keeps_order_and_caps_the_running_workers(tmp_path):
    log = tmp_path / "log"

    def item(x):
        fd = os.open(log, os.O_WRONLY | os.O_APPEND | os.O_CREAT)
        os.write(fd, b"+")  # an appended byte lands whole
        time.sleep(0.02)
        os.write(fd, b"-")
        os.close(fd)
        return x * x, os.getpid()

    for workers in (2, 3):
        log.write_bytes(b"")
        out = _fork_map(item, list(range(7)), workers)
        _no_child_left()
        assert [v for v, _ in out] == [x * x for x in range(7)]
        # process j runs item j first; each item runs once
        pids = [pid for _, pid in out]
        assert pids[0] == os.getpid() and len(set(pids[:workers])) == len(set(pids)) == workers
        marks = log.read_bytes()
        running = [sum(1 if c == ord("+") else -1 for c in marks[:n]) for n in range(15)]
        assert len(marks) == 14 and max(running) <= workers and running[-1] == 0
    assert _fork_map(item, [3], 4) == [(9, os.getpid())]
    # a queue that might not fit a pipe's buffer is not written
    assert {pid for _, pid in _fork_map(lambda x: (x, os.getpid()), range(1025), 2)} == {os.getpid()}
    assert _fork_map(item, [1, 2], 1) == [(1, os.getpid()), (4, os.getpid())]


def test_fork_map_reports_a_worker_that_dies():
    def item(x):
        if x:
            os._exit(3)
        return x

    with pytest.raises(RuntimeError, match="ended with wait status 768 and no result"):
        _fork_map(item, [0, 1], 2)
    _no_child_left()


def test_fork_map_reaps_its_workers_when_interrupted():
    def item(x):
        if not x:
            raise KeyboardInterrupt
        time.sleep(x)

    t0 = time.perf_counter()
    with pytest.raises(KeyboardInterrupt):
        _fork_map(item, [0, 30, 30], 3)
    assert time.perf_counter() - t0 < 10
    _no_child_left()


def test_fork_map_raises_an_unpicklable_error_as_a_runtime_error():
    class Local(Exception):  # a local class does not pickle
        pass

    def item(x):
        if x:
            raise Local("lost in transit")
        return x

    with pytest.raises(RuntimeError, match="lost in transit"):
        _fork_map(item, [0, 1], 2)
    _no_child_left()


def test_certificate_needs_two_blocks():
    # a lone block has no second centre to bound its cross terms by
    E = EFunction.parse("sqrt")
    for layout in (
        layout_from_orders(gevrey(1), E, [12]),
        build_layout(gevrey(1), E, 2),
        build_layout(gevrey(1), EFunction.parse("power:1/1000"), 64),
    ):
        assert len(layout.entries) == 1 and layout.delta_min_lo == 0
        with pytest.raises(LayoutError, match="at least two blocks"):
            lower_bound_certificate(FlatFunction(layout))


def test_certificate_rhs_formula(flat_fn):
    cert = lower_bound_certificate(flat_fn)
    eps = Fraction(1, 3)
    for row in cert.rows:
        lam = row.order
        want = (
            lam * math.log(float(eps))
            + math.lgamma(lam + 1)
            + 2 * gevrey(1).log_weight(lam)
            - lam * math.log(4)
        )
        assert row.rhs_log == pytest.approx(want, rel=1e-9)


def test_upper_sweeps(flat_fn):
    up = flat_upper_check(flat_fn, degree=4, points=6, seed=6)
    assert up.ok
    polar = polar_flat_check(flat_fn, degree=3, radii=3, angles=2, seed=7)
    assert polar.ok


def test_polar_check_requires_normalized_family():
    # the greedy shift:2:gevrey:1 layout keeps orders [2, 6, 14, 30, 62]; M_1 = 2
    fn = FlatFunction(build_layout(shift(gevrey(1), 2), EFunction.parse("sqrt"), 64))
    assert fn.layout.orders == [2, 6, 14, 30, 62]
    with pytest.raises(LayoutError):
        polar_flat_check(fn, degree=3, radii=2, angles=2)


def test_sharpness_frozen_roots(flat_fn, cert_rows):
    rep = sharpness_scan(flat_fn, gevrey(1), cert_rows)
    assert rep.verdict == "growing-diagnostic"
    roots = [r.root for r in rep.rows]
    assert roots[0] == pytest.approx(0.22180678063136305, rel=1e-9)
    assert roots[1] == pytest.approx(1.2212679402989646, rel=1e-9)
    assert roots[2] == pytest.approx(5.411320789316332, rel=1e-9)
    assert rep.hypothesis_verdict == "strictly-contained-diagnostic"


def test_sharpness_bounded_for_square_shift(flat_fn, cert_rows):
    rep = sharpness_scan(flat_fn, shift(gevrey(1), 2), cert_rows)
    assert rep.verdict == "bounded-diagnostic"
    assert max(r.root for r in rep.rows) <= 2 * min(r.root for r in rep.rows)
    assert rep.hypothesis_verdict == "contained"


def test_sharpness_reads_the_certified_axis_value(flat_fn, cert_rows):
    # each sharpness row carries the log of the certified lower bound of
    # its own axis derivative, the value the certificate row already holds
    rep = sharpness_scan(flat_fn, gevrey(1), cert_rows)
    assert [r.order for r in rep.rows] == flat_fn.layout.orders
    for row in rep.rows:
        ax = flat_axis_derivative(flat_fn, row.order, row.order)
        assert row.deriv_log == log_of_fraction(ax.total_lower)


# -- the float-log pre-check in front of the root enclosures -----------------

def _reference_orders(M, E, lambda_max):
    """The greedy scan with every center enclosed."""
    orders, prev = [], None
    for order in range(2, lambda_max + 1, 2):
        rho = Fraction(1, M.exact_ratio(order))
        center = E.interval(rho)
        if not center.certainly_gt(rho):
            continue
        if prev is not None and not center.certainly_lt(prev * Fraction(1, 2)):
            continue
        orders.append(order)
        prev = center
    return orders


def _reference_summary(M, E, orders):
    """Entries, eps and separation of a layout with every eps root enclosed."""
    rhos = [Fraction(1, M.exact_ratio(o)) for o in orders]
    entries = [(rho, E.interval(rho)) for rho in rhos]
    roots = [RInterval.nth_root(rho**2, o) for o, rho in zip(orders, rhos)]
    eps_lo = min(r.lo for r in roots)
    eps_hi = min(r.hi for r in roots)
    gaps = [(a[1] - b[1]).abs().lo for i, a in enumerate(entries) for b in entries[i + 1:]]
    return (list(orders), entries, eps_lo, eps_hi, eps_lo if eps_lo == eps_hi else None,
            min(gaps) if gaps else Fraction(0))


def _summary(layout):
    return (layout.orders, [(e.rho, e.center_iv) for e in layout.entries], layout.eps_lo,
            layout.eps_hi, layout.eps_exact, layout.delta_min_lo)


def _ratio_family(name, ratio):
    return WeightSequence(name, lambda k: math.fsum(math.log(ratio(j)) for j in range(k)), ratio)


@pytest.mark.parametrize("e_spec", ["sqrt", "power:1/3", "power:2/3"])
@pytest.mark.parametrize(
    "family", ["gevrey:1", "gevrey:2", "gevrey:3", "shift:2:gevrey:1", "power:2:gevrey:1"]
)
def test_precheck_layout_matches_full_enclosure(family, e_spec):
    M, E = parse_family(family), EFunction.parse(e_spec)
    layout = build_layout(M, E, 1024)
    assert _summary(layout) == _reference_summary(M, E, _reference_orders(M, E, 1024))


def test_precheck_exact_ties_match_full_enclosure():
    sqrt = EFunction.parse("sqrt")
    # the order-4 center sqrt(1/12) is exactly half the order-2 one, sqrt(1/3)
    M = _ratio_family("halving-tie", lambda k: (1, 1, 3, 3, 12, 12)[k] if k < 6 else k + 7)
    layout = build_layout(M, sqrt, 16)
    assert 4 not in layout.orders
    assert _summary(layout) == _reference_summary(M, sqrt, _reference_orders(M, sqrt, 16))
    # the eps roots of orders 2 and 4 are both exactly 1/4
    M = _ratio_family("eps-tie", lambda k: (1, 1, 4, 4)[k] if k < 4 else 16)
    layout = layout_from_orders(M, sqrt, [2, 4])
    assert layout.eps_exact == Fraction(1, 4)
    assert _summary(layout) == _reference_summary(M, sqrt, [2, 4])


def test_precheck_near_ties_below_float_resolution():
    # centers 1/j and 1/(2j+1) differ from an exact halving by 1e-17
    # relative, so the float logs cannot order them: the enclosures must
    cube = EFunction.parse("power:1/3")
    for j in range(10**17, 10**17 + 20):
        M = _ratio_family("near-halving", lambda k: j**3 if k < 4 else (2 * j + 1) ** 3)
        assert build_layout(M, cube, 6).orders == _reference_orders(M, cube, 6) == [2, 4]
    # eps roots 1/k and 1/(k+1) at orders 2 and 6, either one the least
    sqrt = EFunction.parse("sqrt")
    for k in range(10**16, 10**16 + 200):
        for m2, m6 in ((k + 1, k**3), (k, (k + 1) ** 3)):
            M = _ratio_family("near-eps", lambda i: m2 if i < 6 else m6)
            layout = layout_from_orders(M, sqrt, [2, 6])
            assert _summary(layout) == _reference_summary(M, sqrt, [2, 6])


def test_precheck_encloses_every_tiny_eps_root(monkeypatch):
    # the order-2 root is exactly 1e-45 and the order-4 root 1e-45 (1 + 1e-6):
    # far apart in float logs, but the order-4 enclosure is [0, 1e-40], so it
    # holds the least lower end (cube-root centers, so index 3 is a center)
    M = _ratio_family("tiny", lambda k: 1 if k < 2 else 10**45 if k < 4 else 10**84 * 999998)
    cube = EFunction.parse("power:1/3")
    indices = _count_root_calls(monkeypatch)
    layout = layout_from_orders(M, cube, [2, 4])
    assert indices.count(2) == indices.count(4) == 1
    assert layout.eps_lo == 0 and layout.eps_hi == Fraction(1, 10**45)
    assert layout.eps_exact is None
    assert _summary(layout) == _reference_summary(M, cube, [2, 4])


def _count_root_calls(monkeypatch):
    """Record the index of every root enclosure from here on."""
    indices = []
    nth_root = RInterval.nth_root

    def counting(cls, x, n):
        indices.append(n)
        return nth_root(x, n)

    monkeypatch.setattr(RInterval, "nth_root", classmethod(counting))
    return indices


def test_precheck_encloses_only_the_deciding_roots(monkeypatch):
    indices = _count_root_calls(monkeypatch)
    layout = build_layout(gevrey(1), EFunction.parse("sqrt"), 4096)
    assert layout.orders == [2, 12, 52, 212, 852, 3412]
    assert len(indices) <= 20
    assert max(indices) <= 2


@st.composite
def based_fractions(draw):
    """(x, bases) for `_add_coprime`: x = a/b reduced, b a product of powers of
    the bases; a may be 0."""
    bases = tuple(draw(st.lists(st.sampled_from([2, 4, 8, 3, 9, 5, 6, 7, 15, 10007, 2**61 - 1]),
                                max_size=3)))
    b = math.prod(q ** draw(st.integers(0, 40)) for q in bases)
    return Fraction(draw(st.integers(-(2**300), 2**300)), b), bases


@settings(max_examples=300, deadline=None)
@given(based_fractions(), based_fractions())
@example((Fraction(7, 2**30), (2,)), (Fraction(11, 3**20 * 5), (3, 5)))  # coprime bases
@example((Fraction(1, 4), (4,)), (Fraction(3, 8), (8,)))  # two powers of 2: 1/4 + 3/8 = 5/8
@example((Fraction(0), ()), (Fraction(5, 9), (9,)))  # a zero summand
@example((Fraction(5, 9), (9,)), (Fraction(0), (2,)))
def test_add_coprime_matches_fraction(x, y):
    want = x[0] + y[0]
    got, bases = _add_coprime(x, y)
    assert (got.numerator, got.denominator) == (want.numerator, want.denominator)
    assert got == want and hash(got) == hash(want) and bases == x[1] + y[1]
