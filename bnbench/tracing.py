"""Spans at bnloci's layer boundaries, recorded from outside the library.

A wrapper is installed at each name where a calling layer looks up its
callee: a module global (``bnloci.sweeps.beta_universal``) or a class
attribute (``FactDatabase.find_b``).  Each call records a span (name, start,
end, parent, request id) in memory; ``fold`` turns one request's spans into
per-(name, parent) totals and drops them, so memory stays bounded by the
largest single request.  ``installed`` restores every original on exit.
"""

from __future__ import annotations

import functools
import importlib
from contextlib import contextmanager
from time import perf_counter_ns

BNCALC = ("beta_classical", "beta_twisted", "beta_universal", "chi_tensor",
          "line_bn_degree_bound", "asympt_neg", "t4_beta_poly",
          "universal_neg_criterion")
RULE_ENTRIES = ("certify_phi", "certify_rfold", "certify_elem", "certify_t9",
                "certify_t4", "certify_t10", "certify_c8", "bn_np1_nonempty",
                "s_nonempty")
SWEEP_ROWS = ("table1_rows", "table2_rows", "ex40_rows", "bnmap_rows")


def _is_hit(result) -> int:
    return result is not None


def _length(result) -> int:
    return len(result)


def _sites():
    """(module, class or None, attribute, span name, observer) per site."""
    sites = []
    for module in ("bnloci.certkit", "bnloci.sweeps", "bnloci.cli"):
        mod = importlib.import_module(module)
        for fn in BNCALC:
            if fn in vars(mod):
                sites.append((module, None, fn, "bncalc." + fn, None))
    for fn in RULE_ENTRIES + ("_certify_b", "bn_line_nonempty"):
        sites.append(("bnloci.certkit", None, fn, "certkit." + fn, _is_hit))
    sites += [
        ("bnloci.certkit", None, "_fact_certificate", "certkit._fact_certificate",
         _is_hit),
        ("bnloci.certkit", None, "revalidate", "certkit.revalidate", None),
        ("bnloci.certkit", None, "quad_neg_threshold", "exactnum.quad_neg_threshold", None),
        ("bnloci.certkit", "Certificate", "to_json", "certkit.to_json", _length),
        ("bnloci.certkit", "Certificate", "to_dict", "certkit.to_dict", None),
        ("bnloci.certkit", "FactDatabase", "load", "certkit.facts.load", None),
        ("bnloci.certkit", "FactDatabase", "save", "certkit.facts.save", None),
        ("bnloci.certkit", "FactDatabase", "find_b", "certkit.facts.find_b", _is_hit),
        ("bnloci.certkit", "FactDatabase", "find_s", "certkit.facts.find_s", _is_hit),
    ]
    for fn in ("dual_span_type", "elem_transform_type", "r_fold_type"):
        sites.append(("bnloci.certkit", None, fn, "spanops." + fn, None))
    for fn in ("dmax_search", "table2_min_genus") + SWEEP_ROWS:
        sites.append(("bnloci.sweeps", None, fn, "sweeps." + fn, None))
    for module in ("bnloci.sweeps", "bnloci.cli"):
        sites.append((module, None, "rows_to_csv", "sweeps.rows_to_csv", _length))
    for fn in RULE_ENTRIES:
        sites.append(("bnloci.cli", None, fn, "certkit." + fn, _is_hit))
    for fn in SWEEP_ROWS:
        sites.append(("bnloci.cli", None, fn, "sweeps." + fn, None))
    return sites


class Tracer:
    """Spans of the current request plus folded totals of finished ones.

    A span is [name, start_ns, end_ns, parent index, request id, value],
    where value is what the site's observer extracted from the result (a hit
    flag or a byte count).
    """

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.stack = [-1]
        self.request = 0
        self.totals: dict[tuple[str, str], list[int]] = {}

    def wrap(self, fn, name: str, observe):
        spans, stack = self.spans, self.stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = len(spans)
            span = [name, 0, 0, stack[-1], self.request, 0]
            spans.append(span)
            stack.append(index)
            span[1] = perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = perf_counter_ns()
                stack.pop()
            if observe is not None:
                span[5] = observe(result)
            return result

        return wrapper

    def fold(self) -> None:
        """Add the current request's spans to the totals and drop them."""
        spans = self.spans
        own = self_times(spans)
        for span, self_ns in zip(spans, own):
            parent = spans[span[3]][0] if span[3] >= 0 else ""
            entry = self.totals.setdefault((span[0], parent), [0, 0, 0, 0])
            entry[0] += 1
            entry[1] += span[2] - span[1]
            entry[2] += self_ns
            entry[3] += span[5]
        spans.clear()
        self.request += 1


def self_times(spans) -> list[int]:
    """Each span's duration minus the part of it that its children cover."""
    children: dict[int, list[int]] = {}
    for i, span in enumerate(spans):
        if span[3] >= 0:
            children.setdefault(span[3], []).append(i)
    out = []
    for i, span in enumerate(spans):
        start, end = span[1], span[2]
        covered = 0
        reach = start
        for c in sorted(children.get(i, ()), key=lambda c: spans[c][1]):
            lo, hi = max(spans[c][1], reach), min(spans[c][2], end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out.append(end - start - covered)
    return out


@contextmanager
def installed(tracer: Tracer):
    """Install every wrapper; restore the originals however the block ends."""
    saved = []
    try:
        for module, cls, attr, name, observe in _sites():
            owner = importlib.import_module(module)
            if cls is not None:
                owner = getattr(owner, cls)
            raw = vars(owner)[attr]
            if isinstance(raw, classmethod):
                new = classmethod(tracer.wrap(raw.__func__, name, observe))
            else:
                new = tracer.wrap(raw, name, observe)
            saved.append((owner, attr, raw))
            setattr(owner, attr, new)
        yield tracer
    finally:
        for owner, attr, raw in reversed(saved):
            setattr(owner, attr, raw)


def site_originals() -> dict:
    """The object at every site, for checking that a restore was complete."""
    out = {}
    for module, cls, attr, _, _ in _sites():
        owner = importlib.import_module(module)
        if cls is not None:
            owner = getattr(owner, cls)
        out[(module, cls, attr)] = vars(owner)[attr]
    return out


# ---------------------------------------------------------------------------
# Per-layer metrics from the folded totals


def layer_metrics(totals: dict) -> dict:
    def select(pred):
        calls = incl = own = value = 0
        for (name, parent), (c, i, s, v) in totals.items():
            if pred(name, parent):
                calls, incl, own, value = calls + c, incl + i, own + s, value + v
        return calls, incl / 1e6, own / 1e6, value

    rules = {"certkit." + f for f in RULE_ENTRIES + ("_certify_b", "bn_line_nonempty")}
    rules.add("certkit._fact_certificate")
    finds = ("certkit.facts.find_b", "certkit.facts.find_s")
    m = {}

    # A rule called by the client (or by cli), as opposed to a sub-certificate
    # or revalidate's re-run.
    calls, _, own, hits = select(
        lambda n, p: n in rules and p not in rules and p != "certkit.revalidate")
    m["certkit.certify.calls"] = calls
    m["certkit.certify.hit_ratio"] = hits / calls if calls else 0.0
    m["certkit.certify.self_ms"] = own
    calls, _, own, _ = select(lambda n, p: n in rules and p in rules)
    m["certkit.subcert.calls"] = calls
    m["certkit.subcert.self_ms"] = own
    _, _, own, size = select(lambda n, p: n == "certkit.to_json")
    m["certkit.to_json.self_ms"] = own
    m["certkit.to_json.bytes"] = size
    m["certkit.to_dict.calls"] = select(lambda n, p: n == "certkit.to_dict")[0]
    m["certkit.to_dict.ms"] = select(
        lambda n, p: n == "certkit.to_dict" and p != "certkit.to_dict")[1]
    m["certkit.revalidate.self_ms"] = select(lambda n, p: n == "certkit.revalidate")[2]
    calls, incl, _, hits = select(lambda n, p: n in finds)
    m["certkit.facts.lookups"] = calls
    m["certkit.facts.hit_ratio"] = hits / calls if calls else 0.0
    m["certkit.facts.lookup_ms"] = incl
    m["certkit.facts.load_ms"] = select(lambda n, p: n == "certkit.facts.load")[1]
    m["certkit.facts.save_ms"] = select(lambda n, p: n == "certkit.facts.save")[1]

    calls, incl, _, _ = select(lambda n, p: n == "exactnum.quad_neg_threshold")
    m["exactnum.quad_neg_threshold.calls"] = calls
    m["exactnum.quad_neg_threshold.ms"] = incl
    calls, incl, _, _ = select(lambda n, p: n.startswith("bncalc."))
    m["bncalc.calls"] = calls
    m["bncalc.ms"] = incl
    calls, incl, _, _ = select(lambda n, p: n == "bncalc.beta_universal")
    m["bncalc.beta_universal.calls"] = calls
    m["bncalc.beta_universal.ns_per_call"] = incl * 1e6 / calls if calls else 0.0
    calls, incl, _, _ = select(lambda n, p: n.startswith("spanops."))
    m["spanops.calls"] = calls
    m["spanops.ms"] = incl

    calls, _, own, _ = select(lambda n, p: n == "sweeps.dmax_search")
    m["sweeps.dmax_search.calls"] = calls
    m["sweeps.dmax_search.self_ms"] = own
    m["sweeps.dmax_search.beta_evals"] = select(
        lambda n, p: n == "bncalc.beta_universal" and p == "sweeps.dmax_search")[0]
    m["sweeps.table2_min_genus.self_ms"] = select(
        lambda n, p: n == "sweeps.table2_min_genus")[2]
    m["sweeps.table2_min_genus.beta_evals"] = select(
        lambda n, p: n == "bncalc.beta_universal" and p == "sweeps.table2_min_genus")[0]
    m["sweeps.rows.self_ms"] = select(
        lambda n, p: n in {"sweeps." + f for f in SWEEP_ROWS})[2]
    _, incl, _, size = select(lambda n, p: n == "sweeps.rows_to_csv")
    m["sweeps.rows_to_csv.ms"] = incl
    m["sweeps.rows_to_csv.bytes"] = size
    return m
