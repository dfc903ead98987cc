"""``moduli.cartan_check`` in sl_n coordinates against the dense jets.

``cartan_check`` sums each jet pairing over the non-zero coordinates of
the fixed gdot and the Gram entries of the trace form, and forms the
bracket [gdot_1, gdot_2] once per disk for term3 and for Omega.  The
oracle (``helpers.dense_cartan_terms``) is the former body: n x n
matrices of ``Jet2`` and all n^2 products of their trace, with term3
and Omega by the dense commutator and trace pairing.  Also here: ambient
sl3 tangents whose gdot has Cartan coordinates (Gram weights 2 and -1),
and a count guard that no matrix is formed inside ``cartan_check``.
"""

import random

import pytest
from helpers import dense_cartan_terms

from higgsres import (
    GaussRat,
    RatFunc,
    ambient_higgs_tangent,
    cartan_check,
    load_scenario,
    symplectic_omega,
)
from higgsres.lie import MatrixLieAlgebra
from higgsres.solver import SeedStream
from higgsres.suites import random_higgs_pair

U = RatFunc.x()
ZERO = RatFunc.const(0)


def _fields(report) -> tuple:
    return report.term1, report.term2, report.term3, report.omega_value


def _pairs(fixtures_dir, fixture: str, count: int) -> list:
    """The first ``count`` pairs of the seed-1 ``cartan-suite`` stream."""
    scenario = load_scenario(fixtures_dir / f"{fixture}.json")
    root = SeedStream("cartan-suite", 1)
    return [random_higgs_pair(scenario, root.child("trial", t)) for t in range(count)]


@pytest.mark.parametrize("fixture", ["f1", "f2", "f3"])
def test_coordinate_jets_match_dense_jets(fixtures_dir, fixture):
    nonzero = 0
    for point, (t1, t2) in _pairs(fixtures_dir, fixture, 20):
        report = cartan_check(point, t1, t2)
        assert _fields(report) == dense_cartan_terms(point, t1, t2)
        assert report.omega_value == symplectic_omega(point, t1, t2)
        assert report.ok
        nonzero += not (report.term1.is_zero() and report.term2.is_zero())
    assert nonzero >= 1  # the jet terms are not all 0 == 0


def _sl3_point(fixtures_dir):
    """A Higgs point on f3's bundle (sl3, two marked points)."""
    scenario = load_scenario(fixtures_dir / "f3.json")
    return random_higgs_pair(scenario, SeedStream("cartan-ambient", 1))[0]


def _gauss(rng) -> GaussRat:
    return GaussRat(rng.randint(-3, 3) or 1, rng.randint(-2, 2))


def _ambient(point, g_dot, disks):
    zero = point.algebra.coadjoint_from([ZERO] * point.algebra.dim)
    return ambient_higgs_tangent(point, g_dot, zero, disks)


def test_cartan_weights_on_sl3_hand_case(fixtures_dir):
    """gdot_2 = u^-1 (H1 + 2 H2) at the first point, phidot'_1 = H1 + 3 H2
    there: <phidot'_1, gdot_2> = u^-1 ((2 - 3) + 2 (-1 + 6)), so term1 is
    9; term2, term3 and Omega's other terms vanish."""
    point = _sl3_point(fixtures_dir)
    sl3 = point.algebra
    h1, h2 = sl3.labels.index("H1"), sl3.labels.index("H2")

    def coords(values):
        out = [ZERO] * sl3.dim
        for k, v in values.items():
            out[k] = v
        return out

    nothing = sl3.coadjoint_from(coords({}))
    t1 = _ambient(
        point,
        [sl3.element_from(coords({})), sl3.element_from(coords({}))],
        [sl3.coadjoint_from(coords({h1: RatFunc.const(1), h2: RatFunc.const(3)})), nothing],
    )
    t2 = _ambient(
        point,
        [sl3.element_from(coords({h1: U ** -1, h2: U ** -1 * 2})), sl3.element_from(coords({}))],
        [nothing, nothing],
    )
    report = cartan_check(point, t1, t2)
    assert _fields(report) == (GaussRat(9), GaussRat(0), GaussRat(0), GaussRat(9))
    assert _fields(report) == dense_cartan_terms(point, t1, t2)


def test_cartan_on_ambient_sl3_tangents_with_cartan_coordinates(fixtures_dir):
    """Random ambient tangents: each gdot has a Cartan coordinate with a
    pole and sometimes one more coordinate; each phidot' is regular with
    random coordinates."""
    point = _sl3_point(fixtures_dir)
    sl3 = point.algebra
    cartan = [sl3.labels.index("H1"), sl3.labels.index("H2")]
    rng = random.Random("cartan-ambient-sl3")
    n_points = point.curve.n_points
    weighted = 0
    for trial in range(12):
        tangents = []
        for _ in range(2):
            g_dot, disks = [], []
            for _ in range(n_points):
                coeffs = [ZERO] * sl3.dim
                coeffs[rng.choice(cartan)] = RatFunc.monomial(_gauss(rng), -rng.randint(1, 2))
                if rng.randrange(2):
                    coeffs[rng.randrange(sl3.dim)] = RatFunc.monomial(_gauss(rng), rng.randint(-2, 1))
                g_dot.append(sl3.element_from(coeffs))
                disks.append(
                    sl3.coadjoint_from(
                        [RatFunc([_gauss(rng), _gauss(rng)]) if rng.randrange(2) else ZERO for _ in range(sl3.dim)]
                    )
                )
            tangents.append(_ambient(point, g_dot, disks))
        report = cartan_check(point, *tangents)
        assert _fields(report) == dense_cartan_terms(point, *tangents)
        assert report.omega_value == symplectic_omega(point, *tangents)
        assert report.ok
        weighted += not report.term1.is_zero() and not report.term2.is_zero()
    assert weighted >= 6


def test_cartan_check_forms_no_matrix(fixtures_dir, monkeypatch):
    """Once the tangents are built, ``cartan_check`` forms no span-element
    matrix: it reads coordinates only.  The count is deterministic."""
    pairs = _pairs(fixtures_dir, "f2", 5) + _pairs(fixtures_dir, "f3", 3)
    calls = []
    matrix = MatrixLieAlgebra._matrix

    def counted(self, coeffs):
        calls.append(self.name)
        return matrix(self, coeffs)

    monkeypatch.setattr(MatrixLieAlgebra, "_matrix", counted)
    for point, (t1, t2) in pairs:
        assert cartan_check(point, t1, t2).ok
    assert calls == []
    # the guard itself counts: the dense oracle reads the matrices
    point, (t1, t2) = pairs[0]
    dense_cartan_terms(point, t1, t2)
    assert calls
