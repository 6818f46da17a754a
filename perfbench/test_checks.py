"""Each output check passes a sound row and fails the same row doctored.

    python3 -m unittest discover -s perfbench -p 'test_*.py'
"""

import copy
import math
import os
import sys
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import checks  # noqa: E402
import workloads  # noqa: E402


def _request(workload, name, seed=1):
    for req in workloads.WORKLOADS[workload](seed):
        if req.name == name:
            return req
    raise KeyError(name)


def _grid_row(kind, lower, upper, cover_size, n=3):
    return {"kind": kind, "n": n, "epsilon": 0.125, "lower": lower,
            "upper": upper, "cover_size": cover_size,
            "method": "GenericGrid", "seed": 1}


GRID_DOC = {"rows": [
    _grid_row("amalgamated", 1.14, 1.66, 146),
    _grid_row("condensed-upper", 2.09, 2.35, 1024),
    _grid_row("free", 1.26, 1.82, 272),
    _grid_row("trajectory", 1.32, 1.66, 146),
]}

VERIFY_DOC = {"rows": [
    {"check": "lipschitz", "ok": "yes",
     "detail": "difference=0.0004 bound=0.18"},
    {"check": "shift", "ok": "yes", "detail": "difference=0.04 bound=0.9"},
]}


def _sweep_doc(truth, upper_n4=3.3423058638339636, cover_n4=640000):
    return {"rows": [
        {"kind": "amalgamated", "n": 4, "epsilon": 0.0625, "lower": 2.9,
         "upper": upper_n4, "cover_size": cover_n4,
         "method": "AnalyticBox", "seed": 1},
        {"kind": "amalgamated:extrapolated", "n": 12, "epsilon": 0.0625,
         "lower": truth - 0.07, "upper": truth + 0.07, "cover_size": 0,
         "method": "Extrapolated", "seed": 1},
    ]}


class AmplitudeTest(unittest.TestCase):
    def test_amplitudes_of_potential_specs(self):
        self.assertEqual(checks.amplitude("random:7,0.25"), 0.25)
        self.assertEqual(checks.amplitude("random:7"), 0.25)
        self.assertEqual(checks.amplitude("zero"), 0.0)
        self.assertEqual(checks.amplitude("constants:0.3,-0.5"), 0.5)

    def test_similarity_dimensions(self):
        sd = checks.similarity_dimension
        self.assertAlmostEqual(sd([3, 3]), math.log(2) / math.log(3))
        self.assertAlmostEqual(sd([2, 2]), 1.0)
        golden = (1 + math.sqrt(5)) / 2
        self.assertAlmostEqual(sd([2, 4]), math.log2(golden))


class GridCheckTest(unittest.TestCase):
    req = _request("torus-grid", "estimate-shear")

    def failures(self, doc):
        return checks.check_grid(self.req, doc)

    def doctored(self, index, **fields):
        doc = copy.deepcopy(GRID_DOC)
        doc["rows"][index].update(fields)
        return doc

    def test_sound_rows_pass(self):
        self.assertEqual(self.failures(GRID_DOC), [])

    def test_lower_below_minus_amplitude_fails(self):
        self.assertTrue(self.failures(self.doctored(0, lower=-0.3)))

    def test_crossed_bracket_fails(self):
        self.assertTrue(self.failures(self.doctored(1, lower=2.5)))

    def test_infinite_bound_fails(self):
        self.assertTrue(self.failures(self.doctored(1, upper=math.inf)))

    def test_upper_far_from_cover_rate_fails(self):
        # log(1024)/3 = 2.31; 2.6 is more than S = 0.25 above it
        self.assertTrue(self.failures(self.doctored(1, upper=2.6)))
        self.assertTrue(self.failures(self.doctored(1, cover_size=4096)))

    def test_free_upper_above_cover_rate_fails(self):
        # log(272)/3 + 0.25 = 2.12
        self.assertTrue(self.failures(self.doctored(2, upper=2.2)))
        self.assertEqual(self.failures(self.doctored(2, lower=0.5,
                                                     upper=0.9)), [])

    def test_amalgamated_above_trajectory_fails(self):
        self.assertTrue(self.failures(self.doctored(3, upper=1.6)))


class VerifyCheckTest(unittest.TestCase):
    req = _request("torus-grid", "verify-shear")

    def test_sound_rows_pass(self):
        self.assertEqual(checks.check_verify(self.req, VERIFY_DOC), [])

    def test_row_reading_no_fails(self):
        doc = copy.deepcopy(VERIFY_DOC)
        doc["rows"][1]["ok"] = "no"
        self.assertTrue(checks.check_verify(self.req, doc))

    def test_lipschitz_difference_above_both_amplitudes_fails(self):
        doc = copy.deepcopy(VERIFY_DOC)
        doc["rows"][0]["detail"] = "difference=0.51 bound=0.6"
        self.assertTrue(checks.check_verify(self.req, doc))

    def test_no_rows_fails(self):
        self.assertTrue(checks.check_verify(self.req, {"rows": []}))


class SweepCheckTest(unittest.TestCase):
    def request(self, truth):
        base = _request("closed-form", "sweep-diag-1")
        return workloads.Request(base.name, base.command, base.config,
                                 base.checks, {"amalgamated": truth})

    def test_truth_inside_extrapolated_row_passes(self):
        req = self.request(math.log(10))
        self.assertEqual(checks.check_sweep(req, _sweep_doc(math.log(10))),
                         [])

    def test_truth_outside_extrapolated_row_fails(self):
        req = self.request(math.log(10))
        self.assertTrue(checks.check_sweep(req, _sweep_doc(math.log(12))))

    def test_missing_extrapolated_row_fails(self):
        req = self.request(math.log(10))
        doc = _sweep_doc(math.log(10))
        doc["rows"].pop()
        self.assertTrue(checks.check_sweep(req, doc))

    def test_every_request_names_its_truths(self):
        for req in workloads.closed_form(3):
            if req.command == "sweep":
                kinds = req.config["kinds"].split(",")
                self.assertEqual(sorted(kinds), sorted(req.truths))


class ZeroPotentialCheckTest(unittest.TestCase):
    req = _request("closed-form", "sweep-shear")

    def test_exact_count_passes(self):
        self.assertEqual(checks.check_zero_potential(
            self.req, _sweep_doc(0.0)), [])

    def test_count_off_by_one_fails(self):
        self.assertTrue(checks.check_zero_potential(
            self.req, _sweep_doc(0.0, cover_n4=640001)))


class DimensionCheckTest(unittest.TestCase):
    single = _request("closed-form", "dimension-3-3")
    family = _request("closed-form", "dimension-3-3_5-5")
    log2_3 = math.log(2) / math.log(3)
    log2_5 = math.log(2) / math.log(5)

    def test_sound_roots_pass(self):
        self.assertEqual(checks.check_dimension(self.single, {
            "t_uA": 0.644, "per_map_roots": [0.644]}), [])
        self.assertEqual(checks.check_dimension(self.family, {
            "t_uA": 0.222, "per_map_roots": [0.644, 0.435]}), [])

    def test_root_off_the_similarity_dimension_fails(self):
        self.assertTrue(checks.check_dimension(self.single, {
            "t_uA": self.log2_3 + 0.05,
            "per_map_roots": [self.log2_3 + 0.05]}))
        self.assertTrue(checks.check_dimension(self.family, {
            "t_uA": 0.2, "per_map_roots": [self.log2_3, 0.5]}))

    def test_family_root_above_smallest_map_root_fails(self):
        self.assertTrue(checks.check_dimension(self.family, {
            "t_uA": self.log2_5 + 0.003,
            "per_map_roots": [self.log2_3, self.log2_5]}))

    def test_missing_map_root_fails(self):
        self.assertTrue(checks.check_dimension(self.family, {
            "t_uA": 0.2, "per_map_roots": [self.log2_3]}))


class LocalentCheckTest(unittest.TestCase):
    req = _request("closed-form", "localent-product")

    def doc(self, h_plus):
        return {"rows": [{"x": 0.25, "y": "", "h_plus": 0.8,
                          "h_lower": 0.8, "ok": "yes"},
                         {"x": 0.5, "y": "", "h_plus": h_plus,
                          "h_lower": h_plus, "ok": "yes"}]}

    def test_rates_within_slack_pass(self):
        self.assertEqual(checks.check_localent(self.req, self.doc(0.84)), [])

    def test_rate_above_symbol_entropy_slack_fails(self):
        self.assertTrue(checks.check_localent(self.req, self.doc(0.85)))


class WorkloadTest(unittest.TestCase):
    def test_same_seed_same_configs(self):
        for make in workloads.WORKLOADS.values():
            self.assertEqual(make(5), make(5))

    def test_seed_changes_inputs_but_not_the_request_list(self):
        for make in workloads.WORKLOADS.values():
            a, b = make(5), make(6)
            self.assertEqual([r.name for r in a], [r.name for r in b])
            self.assertNotEqual(a, b)


if __name__ == "__main__":
    unittest.main()
