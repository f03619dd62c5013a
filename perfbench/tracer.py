"""In-memory span tracer that wraps carleman's public functions from outside.

`Tracer.install()` replaces each function in TARGETS, in its defining module
and in every carleman module that imported it by name, with a wrapper that
records a span (id, parent, name, tag, start, end). Spans stay in memory and
are written out once, at the end. Each target belongs to a group, the layer
unit the per-layer metrics are reported in:

  calls   spans entered from outside the group (nested same-group calls,
          such as `__sub__` calling `__add__`, count once)
  self    time in the group's spans minus time in their child spans
  incl    wall time of the group's outermost spans

Hooks ("notes") record work counters that need arguments or results:
distinct keys, bump terms summed, interval endpoint bits, bytes written.
"""

from __future__ import annotations

import gzip
import importlib
import os
import sys
import time
from fractions import Fraction

Clock = time.perf_counter_ns


def _kind_group(prefix):
    return lambda args: f"{prefix}.{args[0].kind}"


def _criterion_group(args):
    return f"acceptance.c{args[0]:02d}"


def _note_weight(tr, group, name, args, kwargs, result):
    tr.note_key(group, (args[0].name, name, args[1]))


def _note_bits(tr, group, name, args, kwargs, result):
    lo = getattr(result, "lo", None)
    if isinstance(lo, Fraction):
        hi = result.hi
        bits = max(
            lo.numerator.bit_length() + lo.denominator.bit_length(),
            hi.numerator.bit_length() + hi.denominator.bit_length(),
        )
        if bits > tr.counters["intervals.endpoint_bits_max"]:
            tr.counters["intervals.endpoint_bits_max"] = bits


def _note_terms(tr, group, name, args, kwargs, result):
    tr.counters["blocks.axis_sum_interval.terms"] += args[0].terms


def _note_kept(tr, group, name, args, kwargs, result):
    lambda_max = args[2] if len(args) > 2 else kwargs["lambda_max"]
    tr.counters["flat.layout.kept"] += len(result.entries)
    tr.counters["flat.layout.tried"] += len(range(2, lambda_max + 1, 2))


def _note_axis(tr, group, name, args, kwargs, result):
    layout = args[0].layout
    key = (layout.m_family, layout.e_spec, tuple(layout.orders), layout.terms, args[1], args[2])
    tr.note_key(group, key)


def _note_bytes(tr, group, name, args, kwargs, result):
    path = args[1] if name == "flat.Layout.save" else result
    tr.counters["reports.bytes"] += os.path.getsize(path)


def _axis_tag(args, kwargs):
    return args[1]


_ARITH = (
    "__add__", "__radd__", "__neg__", "__sub__", "__rsub__", "__mul__", "__rmul__",
    "reciprocal", "__truediv__", "__rtruediv__", "__pow__", "abs",
    "certainly_ge", "certainly_le", "certainly_lt", "certainly_gt",
)
_ROOTS = ("RInterval.nth_root", "RInterval.rational_power", "RInterval.sqrt", "RInterval.root")
_VERIFY = (
    "full_verification", "verify_log_convex", "verify_diff_closed",
    "verify_gap_sums", "verify_strict_window", "verify_level_growth",
)

# (module, attribute path, group or group-of-args, note hook, tag-of-args)
TARGETS = [
    ("weights", "WeightSequence.exact", "weights.exact", _note_weight, None),
    ("weights", "WeightSequence.exact_ratio", "weights.exact", _note_weight, None),
    ("ostrowski", "phi", "ostrowski.phi", None, None),
    ("ostrowski", "phi_at_ratio", "ostrowski.phi", None, None),
    *[("intervals", f"RInterval.{m}", "intervals.arith", _note_bits, None) for m in _ARITH],
    *[("intervals", f, "intervals.root", None, None)
      for f in ("integer_nth_root", "exact_nth_root", "nth_root_bounds", *_ROOTS)],
    ("jets", "Jet2.__mul__", _kind_group("jets.mul"), None, None),
    ("jets", "Jet2.__rmul__", _kind_group("jets.mul"), None, None),
    ("jets", "Jet2.reciprocal", _kind_group("jets.reciprocal"), None, None),
    ("blocks", "BaseFunction.axis_sum_interval", "blocks.axis_sum_interval", _note_terms, None),
    ("blocks", "BaseFunction.jet", "blocks.jet", None, None),
    ("blocks", "Block.jet", "blocks.jet", None, None),
    ("blocks", "polar_block_jet", "blocks.jet", None, None),
    ("blocks", "BaseFunction.__init__", "blocks.base_init", None, None),
    ("flat", "build_layout", "flat.build_layout", _note_kept, None),
    ("flat", "flat_axis_derivative", "flat.axis_derivative", _note_axis, _axis_tag),
    ("flat", "lower_bound_certificate", "flat.certificate", None, None),
    ("flat", "flat_upper_check", "flat.sweep", None, None),
    ("flat", "polar_flat_check", "flat.sweep", None, None),
    ("bricks", "cauchy_kernel_check", "bricks.exact_check", None, None),
    ("bricks", "brick_taylor_check", "bricks.exact_check", None, None),
    ("bricks", "polar_brick_bound_check", "bricks.polar_check", None, None),
    ("counterexample", "CounterexampleSequence.__init__", "counterexample.build", None, None),
    ("counterexample", "build_schedule", "counterexample.build", None, None),
    *[("counterexample", f, "counterexample.verify", None, None) for f in _VERIFY],
    ("logscale", "log_of_fraction", "logscale.log_of_fraction", None, None),
    ("acceptance", "run_criterion", _criterion_group, None, None),
    ("reports", "ReportBuilder.write", "reports.write", _note_bytes, None),
    ("reports", "write_csv", "reports.write", _note_bytes, None),
    ("flat", "Layout.save", "reports.write", _note_bytes, None),
]

CERT_ROW_ORDERS = (2, 12, 52, 212)

# name -> (unit, statistic, group or counter); BENCHMARK.json lists the same names
PER_LAYER = {
    "weights.exact.calls": ("count", "calls", "weights.exact"),
    "weights.exact.distinct_ratio": ("ratio", "distinct", "weights.exact"),
    "weights.exact.self_s": ("s", "self", "weights.exact"),
    "ostrowski.phi.calls": ("count", "calls", "ostrowski.phi"),
    "ostrowski.phi.self_s": ("s", "self", "ostrowski.phi"),
    "intervals.arith.calls": ("count", "calls", "intervals.arith"),
    "intervals.arith.self_s": ("s", "self", "intervals.arith"),
    "intervals.endpoint_bits_max": ("bits", "counter", "intervals.endpoint_bits_max"),
    "intervals.root.calls": ("count", "calls", "intervals.root"),
    "intervals.root.self_s": ("s", "self", "intervals.root"),
    **{
        f"jets.{op}.{kind}.{stat}": (unit, stat_kind, f"jets.{op}.{kind}")
        for op in ("mul", "reciprocal")
        for kind in ("float", "exact")
        for stat, unit, stat_kind in (("calls", "count", "calls"), ("self_s", "s", "self"))
    },
    "blocks.axis_sum_interval.calls": ("count", "calls", "blocks.axis_sum_interval"),
    "blocks.axis_sum_interval.terms": ("count", "counter", "blocks.axis_sum_interval.terms"),
    "blocks.axis_sum_interval.self_s": ("s", "self", "blocks.axis_sum_interval"),
    "blocks.jet.calls": ("count", "calls", "blocks.jet"),
    "blocks.jet.self_s": ("s", "self", "blocks.jet"),
    "blocks.base_init_s": ("s", "incl", "blocks.base_init"),
    "flat.build_layout_s": ("s", "incl", "flat.build_layout"),
    "flat.layout.kept_ratio": ("ratio", "kept", "flat.layout"),
    "flat.axis_derivative.calls": ("count", "calls", "flat.axis_derivative"),
    "flat.axis_derivative.distinct_ratio": ("ratio", "distinct", "flat.axis_derivative"),
    **{f"flat.row.{o}_s": ("s", "row", o) for o in CERT_ROW_ORDERS},
    "flat.sweep_s": ("s", "incl", "flat.sweep"),
    "bricks.exact_check_s": ("s", "incl", "bricks.exact_check"),
    "bricks.polar_check_s": ("s", "incl", "bricks.polar_check"),
    "counterexample.build_s": ("s", "incl", "counterexample.build"),
    "counterexample.verify_s": ("s", "self", "counterexample.verify"),
    "logscale.log_of_fraction.calls": ("count", "calls", "logscale.log_of_fraction"),
    "logscale.log_of_fraction.self_s": ("s", "self", "logscale.log_of_fraction"),
    **{f"acceptance.c{i:02d}_s": ("s", "incl", f"acceptance.c{i:02d}") for i in range(1, 12)},
    "reports.write_s": ("s", "incl", "reports.write"),
    "reports.bytes": ("bytes", "counter", "reports.bytes"),
    "trace.spans": ("count", "spans", None),
}


class Tracer:
    def __init__(self):
        self.spans: list[tuple] = []  # (id, parent, name, tag, start_ns, end_ns)
        self.stack: list[list] = []  # [span id, group, child ns]
        self.stats: dict[str, list[int]] = {}  # group -> [calls, self ns, incl ns]
        self.keys: dict[str, set] = {}
        self.noted: dict[str, int] = {}
        self.counters = {
            "intervals.endpoint_bits_max": 0,
            "blocks.axis_sum_interval.terms": 0,
            "flat.layout.kept": 0,
            "flat.layout.tried": 0,
            "reports.bytes": 0,
        }
        self.next_id = 1
        self.t0 = Clock()

    def note_key(self, group, key) -> None:
        self.keys.setdefault(group, set()).add(key)
        self.noted[group] = self.noted.get(group, 0) + 1

    def wrap(self, fn, name, group, note, tag):
        spans, stack, stats = self.spans, self.stack, self.stats

        def traced(*args, **kwargs):
            g = group(args) if callable(group) else group
            sid = self.next_id
            self.next_id += 1
            parent = stack[-1] if stack else None
            frame = [sid, g, 0]
            stack.append(frame)
            start = Clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = Clock()
                stack.pop()
                dur = end - start
                st = stats.get(g)
                if st is None:
                    st = stats[g] = [0, 0, 0]
                st[1] += dur - frame[2]
                if parent is None or parent[1] != g:
                    st[0] += 1
                    st[2] += dur
                if parent is not None:
                    parent[2] += dur
                spans.append((sid, parent[0] if parent else 0, name, tag(args, kwargs) if tag else "", start, end))
            if note is not None:
                note(self, g, name, args, kwargs, result)
            return result

        return traced

    def install(self) -> None:
        """Wrap every target. Call after importing carleman.cli, which loads
        every module of the package."""
        loaded = [m for n, m in sorted(sys.modules.items()) if n == "carleman" or n.startswith("carleman.")]
        for mod_name, path, group, note, tag in TARGETS:
            module = importlib.import_module(f"carleman.{mod_name}")
            owner_path, _, attr = path.rpartition(".")
            owner = getattr(module, owner_path) if owner_path else module
            raw = owner.__dict__[attr]
            is_classmethod = isinstance(raw, classmethod)
            fn = raw.__func__ if is_classmethod else raw
            wrapped = self.wrap(fn, f"{mod_name}.{path}", group, note, tag)
            new = classmethod(wrapped) if is_classmethod else wrapped
            if owner_path:
                setattr(owner, attr, new)
            else:
                for m in loaded:
                    for k, v in list(vars(m).items()):
                        if v is fn:
                            setattr(m, k, new)

    # -- results -------------------------------------------------------------

    def _row_seconds(self) -> dict[int, float]:
        """Certificate row time: from the start of a row's axis derivative to
        the start of the next row, the last row running to the certificate's
        end (so it includes the lambda0 scan)."""
        certs = {s[0]: s for s in self.spans if s[2] == "flat.lower_bound_certificate"}
        rows: dict[int, list] = {}
        for s in self.spans:
            if s[2] == "flat.flat_axis_derivative" and s[1] in certs:
                rows.setdefault(s[1], []).append(s)
        out: dict[int, float] = {}
        for cid, children in rows.items():
            children.sort(key=lambda s: s[4])
            ends = [c[4] for c in children[1:]] + [certs[cid][5]]
            for child, end in zip(children, ends):
                out[child[3]] = out.get(child[3], 0.0) + (end - child[4]) / 1e9
        return out

    def metrics(self) -> dict[str, float]:
        rows = self._row_seconds()
        out = {}
        for name, (unit, stat, key) in PER_LAYER.items():
            calls, self_ns, incl_ns = self.stats.get(key, (0, 0, 0)) if isinstance(key, str) else (0, 0, 0)
            if stat == "calls":
                v = calls
            elif stat == "self":
                v = self_ns / 1e9
            elif stat == "incl":
                v = incl_ns / 1e9
            elif stat == "distinct":
                n = self.noted.get(key, 0)
                v = len(self.keys.get(key, ())) / n if n else 0.0
            elif stat == "kept":
                tried = self.counters["flat.layout.tried"]
                v = self.counters["flat.layout.kept"] / tried if tried else 0.0
            elif stat == "row":
                v = rows.get(key, 0.0)
            elif stat == "spans":
                v = len(self.spans)
            else:
                v = self.counters[key]
            out[name] = v
        return out

    def write_spans(self, path) -> None:
        with gzip.open(path, "wt") as fh:
            fh.write("id,parent,name,tag,start_ns,end_ns\n")
            for sid, parent, name, tag, start, end in sorted(self.spans):
                fh.write(f"{sid},{parent},{name},{tag},{start - self.t0},{end - self.t0}\n")
