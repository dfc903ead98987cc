"""``moduli.cartan_check`` in sl_n coordinates against the dense jets.

``cartan_check`` sums each jet pairing over the non-zero coordinates of
the fixed gdot and the Gram entries of the trace form, and forms the
bracket [gdot_1, gdot_2] once per disk for term3 and for Omega.  The
oracle (``helpers.dense_cartan_terms``) is the former body: n x n
matrices of ``Jet2`` and all n^2 products of their trace, with term3
and Omega by the dense commutator and trace pairing.  Also here: ambient
sl3 tangents whose gdot has Cartan coordinates (Gram weights 2 and -1),
and count guards that no matrix is formed inside ``cartan_check``, nor
inside ``random_higgs_pair``.
The value components of the jet pairings, which ``cartan_check`` drops,
are checked against ``liouville_lambda``, so the jets carry lambda as
well as its derivative ``Omega = d lambda``.
"""

import random

import pytest
from helpers import dense_cartan_terms, entry_higgs_rhs

from higgsres import (
    GaussRat,
    RatFunc,
    ambient_higgs_tangent,
    cartan_check,
    liouville_lambda,
    load_scenario,
    symplectic_omega,
)
from higgsres.field import Jet2
from higgsres.lie import MatrixLieAlgebra, pairing
from higgsres.moduli import _jet_pairing
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


def test_higgs_pairs_and_cartan_check_form_no_matrix(fixtures_dir, monkeypatch):
    """From the Higgs-field system to the jet recomputation, the Higgs
    side forms no span-element matrix: ``random_higgs_pair`` (frame,
    point, tangent right sides and tangents) and ``cartan_check`` read
    coordinates only, over 5 f2 and 3 f3 pairs of the seed-1 stream."""
    scenarios = {f: load_scenario(fixtures_dir / f"{f}.json") for f in ("f2", "f3")}
    calls = []
    matrix = MatrixLieAlgebra._matrix

    def counted(self, coeffs):
        calls.append(self.name)
        return matrix(self, coeffs)

    monkeypatch.setattr(MatrixLieAlgebra, "_matrix", counted)
    root = SeedStream("cartan-suite", 1)
    for fixture, count in (("f2", 5), ("f3", 3)):
        for t in range(count):
            point, (t1, t2) = random_higgs_pair(scenarios[fixture], root.child("trial", t))
            assert cartan_check(point, t1, t2).ok
    assert calls == []
    # the guard itself counts: the entry-row oracle reads the matrices
    entry_higgs_rhs(point, t1.g_dot)
    assert calls


def _jet_values(point, t1, t2) -> tuple:
    """(sum_i Res of the value of the e1 jet pairing against gdot_2, the
    same for the e2 jet pairing against gdot_1): the value components
    that ``cartan_check`` computes and drops."""
    along1 = along2 = GaussRat(0)
    for i in range(point.curve.n_points):
        phi = point.phi_prime[i]
        jet1 = _jet_pairing(Jet2.lift1, phi, t1.phi_prime_dot[i], t2.g_dot[i])
        jet2 = _jet_pairing(Jet2.lift2, phi, t2.phi_prime_dot[i], t1.g_dot[i])
        along1 = along1 + jet1.v.laurent_coefficient(-1)
        along2 = along2 + jet2.v.laurent_coefficient(-1)
    return along1, along2


def _residue_pairs(point, rng) -> list:
    """Two ambient tangents at the point, each with gdot_i = u^-1 b_a at
    one random disk i and 0 at the others, a drawn among the indices
    whose b_a pairs with phi'_i at u^0 (gdot_i = 0 when there is none), so
    lambda reads a non-zero residue that no other disk cancels; each
    phidot' is regular with random coordinates."""
    algebra = point.algebra
    tangents = []
    for _ in range(2):
        g_dot, disks = [], []
        pole = rng.randrange(point.curve.n_points)
        for i, phi in enumerate(point.phi_prime):
            coeffs = [ZERO] * algebra.dim
            live = []
            for a in range(algebra.dim):
                unit = [ZERO] * algebra.dim
                unit[a] = RatFunc.const(1)
                if not pairing(phi, algebra.element_from(unit)).laurent_coefficient(0).is_zero():
                    live.append(a)
            if live and i == pole:
                coeffs[rng.choice(live)] = U ** -1
            g_dot.append(algebra.element_from(coeffs))
            disks.append(
                algebra.coadjoint_from(
                    [RatFunc([_gauss(rng), _gauss(rng)]) if rng.randrange(2) else ZERO for _ in range(algebra.dim)]
                )
            )
        tangents.append(_ambient(point, g_dot, disks))
    return tangents


@pytest.mark.parametrize("fixture", ["f1", "f2", "f3"])
def test_jet_values_are_the_liouville_form(fixtures_dir, fixture):
    """The value of the e1 jet pairing against gdot_2 sums to lambda(t2),
    and that of the e2 pairing against gdot_1 to lambda(t1), on seed-1
    cartan-suite pairs (where lambda is 0) and on ambient pairs whose
    gdot has a simple pole on a coordinate that phi' pairs with."""
    pairs = _pairs(fixtures_dir, fixture, 10)
    rng = random.Random(f"jet-values-{fixture}")
    ambient = [(point, tuple(_residue_pairs(point, rng))) for point, _ in pairs[:5]]
    nonzero = 0
    for point, (t1, t2) in pairs + ambient:
        values = _jet_values(point, t1, t2)
        assert values == (liouville_lambda(point, t2), liouville_lambda(point, t1))
        assert cartan_check(point, t1, t2).ok
        nonzero += any(not v.is_zero() for v in values)
    assert nonzero >= 3
