"""The benchmark's checks accept right outputs and reject corrupted ones.

Run with ``python3 -m pytest benchmarks``.  The reports below are the
verdict sections the CLI prints for small known inputs.
"""

import copy
from fractions import Fraction

import numpy as np
import pytest

import checks
import workloads

# ---------------------------------------------------------------- certify

H2, OMEGA2 = np.diag([2.0, -1.0]), np.eye(2)
CERTIFY_OK = {"verdict": {"passed": True, "q": 1, "k": 3, "dk": 10 / 9, "min_margin": 2 / 3 - 1e-13,
                          "ma_residual": 2e-15}}


def test_certify_expectation_is_closed_form():
    assert checks.certify_expectation(H2, OMEGA2, q=1) == pytest.approx({"k": 3, "dk": 10 / 9, "min_margin": 2 / 3})


def _certify_problems(report, code=0):
    expect = checks.certify_expectation(H2, OMEGA2, q=1)
    return checks.check_certify(report, code, expect, q=1, tol=1e-12, margin_required=1e-8)


def test_certify_accepts_right_report():
    assert _certify_problems(CERTIFY_OK) == []


@pytest.mark.parametrize("field, value", [("k", 4), ("min_margin", 2 / 3 + 1e-6), ("ma_residual", 1e-9),
                                          ("passed", False), ("dk", 10 / 9 + 1e-9)])
def test_certify_rejects_corruption(field, value):
    bad = copy.deepcopy(CERTIFY_OK)
    bad["verdict"][field] = value
    assert _certify_problems(bad)


def test_certify_rejects_wrong_exit_code():
    assert _certify_problems(CERTIFY_OK, code=1)


# ------------------------------------------------------------------- glue

GLUE_OK = {"verdict": {"threshold": 0.125, "smoothing_eps": 0.25, "regions": [
    {"name": "outside U_C", "n_points": 965055, "passed": True},
    {"name": "V_C", "n_points": 3464, "passed": True},
    {"name": "U_C minus V_C", "n_points": 56050, "passed": True},
]}}


def test_glue_accepts_right_report():
    assert checks.check_glue(GLUE_OK, 0, 0.125) == []


def test_glue_rejects_empty_region():
    bad = copy.deepcopy(GLUE_OK)
    bad["verdict"]["regions"][1].update(n_points=0, passed=True)
    assert checks.check_glue(bad, 0, 0.125)


def test_glue_rejects_wrong_threshold():
    assert checks.check_glue(GLUE_OK, 0, 0.25)


def test_glue_threshold_is_dyadic_sup_outside_band():
    grid = 8
    phi_s = checks.log_trig_pole(grid, [0.5, 0.5], weight=1.0)
    phi_b = np.zeros_like(phi_s)
    # Outside a band of 2 cells the closest cells are 3 cells from the pole on
    # one axis, where -phi_s = -log(sin(3 pi / 8)) = 0.079; the next power of
    # two is 1/8.
    assert checks.glue_threshold(phi_b, phi_s, pole_band=2) == 0.125


# ------------------------------------------------------------- ag-surface

P1XP1 = workloads.AG_MODELS["p1xp1"]
GRAM = [[Fraction(v) for v in row] for row in P1XP1["pairing"]]
AG_OK = {"verdict": {"one_ample": True, "witness": {
    "vector": ["1", "2"], "generator_coefficients": ["1", "2"], "pairing": "1"}}}


def _ag_problems(report, code, divisor=(1, -1)):
    return checks.check_ag_surface(report, code, GRAM, P1XP1["effective"], P1XP1["nef"], list(divisor))


def test_ag_accepts_right_report():
    assert _ag_problems(AG_OK, 0) == []
    not_ample = {"verdict": {"one_ample": False, "witness": None}}
    assert _ag_problems(not_ample, 1, divisor=(-1, -1)) == []


def test_ag_rejects_flipped_one_ampleness():
    assert _ag_problems({"verdict": {"one_ample": False, "witness": None}}, 1)


def test_ag_rejects_wrong_witness_pairing():
    bad = copy.deepcopy(AG_OK)
    bad["verdict"]["witness"]["pairing"] = "2"
    assert _ag_problems(bad, 0)


def test_caratheodory_membership():
    dp6 = workloads._del_pezzo(3)
    assert checks.cone_contains(dp6["effective"], (1, 0, 0, 0))  # H = (H - E1 - E2) + E1 + E2
    assert not checks.cone_contains(dp6["effective"], (-1, 0, 0, 0))
    assert checks.cone_contains(dp6["effective"], (0, 0, 0, 0))


def test_dual_cone_of_del_pezzo_7():
    dp7 = workloads._del_pezzo(2)
    assert set(workloads.dual_cone_rank3(dp7["pairing"], dp7["effective"])) == set(dp7["nef"])


# ------------------------------------------------------------- degeneracy

def test_degeneracy_count_matches_brute_force():
    axis = np.linspace(-1.0, 1.0, 5)
    grids = np.meshgrid(*[axis] * 6, indexing="ij")
    z1_zero = (grids[0] == 0) & (grids[1] == 0)
    z2_zero = (grids[2] == 0) & (grids[3] == 0)
    assert workloads.degeneracy_expectation(5, [0, 1]) == (int(np.count_nonzero(z1_zero | z2_zero)), 5**6)
    assert workloads.degeneracy_expectation(5, [1]) == (int(np.count_nonzero(z2_zero)), 5**6)


DEGENERACY_OK = {"verdict": {"total_points": 531441, "flagged_count": 6561, "fibre_dimensions": [0, 1]}}


def test_degeneracy_accepts_right_report():
    assert checks.check_degeneracy(DEGENERACY_OK, 1, 6561, 531441, [0, 1]) == []


@pytest.mark.parametrize("field, value", [("flagged_count", 6562), ("flagged_count", 6560),
                                          ("fibre_dimensions", [0, 2])])
def test_degeneracy_rejects_corruption(field, value):
    bad = copy.deepcopy(DEGENERACY_OK)
    bad["verdict"][field] = value
    assert checks.check_degeneracy(bad, 1, 6561, 531441, [0, 1])

