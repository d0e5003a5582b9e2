#!/usr/bin/env python3
"""Tests of the benchmark itself (standard library unittest).

    python3 bnbench/selftest.py

Run from the root of a checkout.  Covers seeded input generation, the
restoring of every wrapper, identical output digests with and without
tracing, self time on a synthetic span tree, and that the oracles reject
wrong outputs.
"""

from __future__ import annotations

import json
import subprocess
import sys
import tempfile
import unittest
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import oracles  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from bnloci import certkit  # noqa: E402


def _ops(name: str, seed: int):
    """The generated operations, with the per-run directory masked out, and
    the bytes of any generated facts file."""
    with tempfile.TemporaryDirectory(prefix=".bnbench-", dir=ROOT) as tmp:
        wl = workloads.build(name, seed, Path(tmp))
        text = repr(wl.ops).replace(tmp, "<work>")
        facts = wl.master.read_bytes() if hasattr(wl, "master") else b""
    return text, facts


class SeededInputs(unittest.TestCase):
    def test_same_seed_same_inputs(self):
        for name in workloads.NAMES:
            with self.subTest(name):
                self.assertEqual(_ops(name, 7), _ops(name, 7))
                self.assertNotEqual(_ops(name, 7)[0], _ops(name, 8)[0])

    def test_user_facts_have_unique_keys_and_load(self):
        with tempfile.TemporaryDirectory(prefix=".bnbench-", dir=ROOT) as tmp:
            wl = workloads.build("cli_mix", 3, Path(tmp))
            records = json.loads(wl.master.read_text())
            keys = {(r["kind"], r["n"], r.get("k", r.get("v")), r["d"]) for r in records}
            self.assertEqual(len(records), workloads.USER_FACTS)
            self.assertEqual(len(keys), len(records))
            db = certkit.FactDatabase.load(wl.master)
            self.assertEqual(len(db.facts()), len(certkit.BUILTIN_FACTS) + len(records))


class Wrappers(unittest.TestCase):
    def test_restores_every_original(self):
        before = tracing.site_originals()
        with tracing.installed(tracing.Tracer()):
            during = tracing.site_originals()
            self.assertTrue(all(during[k] is not v for k, v in before.items()))
        after = tracing.site_originals()
        self.assertTrue(all(after[k] is v for k, v in before.items()))

    def test_restores_after_an_exception(self):
        before = tracing.site_originals()
        with self.assertRaises(KeyError):
            with tracing.installed(tracing.Tracer()):
                raise KeyError("boom")
        after = tracing.site_originals()
        self.assertTrue(all(after[k] is v for k, v in before.items()))

    def test_traced_call_records_nested_spans(self):
        tracer = tracing.Tracer()
        with tracing.installed(tracer):
            cert = certkit.certify_phi(certkit.CurveClass(7, "general"),
                                       (5, 12, 6), (2, 10, 4))
            cert.to_json()
            tracer.fold()
        m = tracing.layer_metrics(tracer.totals)
        self.assertEqual(m["certkit.certify.calls"], 1)
        self.assertEqual(m["certkit.certify.hit_ratio"], 1.0)
        self.assertEqual(m["certkit.to_json.bytes"], len(cert.to_json()))
        self.assertGreaterEqual(m["certkit.subcert.calls"], 2)
        self.assertEqual(m["bncalc.beta_universal.calls"], 1)


class SelfTime(unittest.TestCase):
    def test_synthetic_tree(self):
        # [name, start, end, parent, request, value]
        spans = [
            ["root", 0, 100, -1, 0, 0],
            ["a", 10, 40, 0, 0, 0],
            ["a.1", 20, 30, 1, 0, 0],
            ["b", 35, 60, 0, 0, 0],     # overlaps a: the children cover 10..60
            ["c", 90, 120, 0, 0, 0],    # runs past the root: only 90..100 counts
        ]
        self.assertEqual(tracing.self_times(spans), [40, 20, 10, 25, 30])

    def test_fold_groups_by_name_and_parent(self):
        tracer = tracing.Tracer()
        tracer.spans.extend([
            ["sweeps.dmax_search", 0, 50, -1, 0, 0],
            ["bncalc.beta_universal", 5, 15, 0, 0, 0],
            ["bncalc.beta_universal", 20, 30, 0, 0, 0],
        ])
        tracer.fold()
        m = tracing.layer_metrics(tracer.totals)
        self.assertEqual(m["sweeps.dmax_search.beta_evals"], 2)
        self.assertEqual(m["sweeps.dmax_search.self_ms"], 30 / 1e6)
        self.assertEqual(m["bncalc.beta_universal.ns_per_call"], 10)
        self.assertEqual(tracer.spans, [])


class Oracles(unittest.TestCase):
    def test_rejects_wrong_beta(self):
        cert = certkit.certify_phi(certkit.CurveClass(7, "general"), (5, 12, 6), (2, 10, 4))
        tree = json.loads(cert.to_json())
        self.assertIsNone(oracles.check_certificate(tree))
        tree["subcertificates"][1]["beta"] += 1
        self.assertIsNotNone(oracles.check_certificate(tree))

    def test_exit_contract(self):
        proved = {"status": "proved", "conclusion": {"strength": "stable"}}
        semi = {"status": "proved", "conclusion": {"strength": "semistable"}}
        self.assertIsNone(oracles.check_certify_exit(0, b"{}", proved))
        self.assertIsNotNone(oracles.check_certify_exit(0, b"{}", semi))
        self.assertIsNone(oracles.check_certify_exit(3, b"{}", semi))
        self.assertIsNotNone(oracles.check_certify_exit(4, b"x", None))
        self.assertIsNotNone(oracles.check_certify_exit(1, b"", None))

    def test_rejects_wrong_sweep_rows(self):
        from bnloci import sweeps
        text = sweeps.rows_to_csv(sweeps.table1_rows(10, (6, 22, 7), range(2, 9)),
                                  sweeps.TABLE1_HEADER)
        params = (10, (6, 22, 7), range(2, 9))
        self.assertIsNone(oracles.check_sweep("table1", params, text))
        lines = text.splitlines()
        cells = lines[3].split(",")
        cells[3] = str(int(cells[3]) + 1)
        bad = "\n".join(lines[:3] + [",".join(cells)] + lines[4:]) + "\n"
        self.assertIsNotNone(oracles.check_sweep("table1", params, bad))
        text2 = sweeps.rows_to_csv(sweeps.table2_rows(range(2, 11)), sweeps.TABLE2_HEADER)
        self.assertIsNone(oracles.check_sweep("table2", (range(2, 11),), text2))
        self.assertIsNotNone(oracles.check_sweep(
            "table2", (range(2, 11),), text2.replace("\n3,7,", "\n3,8,")))


def _digest(workload: str, trace: int) -> str:
    out = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", "5",
         "--seconds", "0.2", "--trace", str(trace)],
        cwd=ROOT, stdout=subprocess.PIPE, text=True, check=True).stdout.splitlines()
    result = json.loads(out[-1])
    assert result["correct"] and result["failed"] == 0, out[-1]
    return next(l.split()[-1] for l in out if l.startswith("output_sha256"))


class TracedEqualsUntraced(unittest.TestCase):
    def test_same_output_sha256(self):
        for name in workloads.NAMES:
            with self.subTest(name):
                self.assertEqual(_digest(name, 0), _digest(name, 1))


if __name__ == "__main__":
    unittest.main()
