"""Instance generation and the randomized verification suites.

A trial builds a full random instance from a scenario's recipe: fresh
determinant-1 cocycles at every marked point (resampled until the
section space is nontrivial), a sampled section, and two tangents whose
loop-algebra directions are resampled on infeasibility.  Every quantity
derives from a splittable seed stream, so (scenario, seed, trials)
reproduces byte-identical results.

The corrupt suite is the negative control: it perturbs the derived disk
deformation off its defining equation and expects the validators to
reject the tuple or the pairing to become nonzero.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

from .errors import Infeasible
from .field import GQ_ZERO, GaussRat, RatFunc
from .hamiltonian import XVector
from .moduli import (
    HiggsPoint,
    HiggsTangent,
    YPoint,
    YTangent,
    ambient_higgs_tangent,
    higgs_from_y,
    identity_check,
    make_higgs_point,
    make_higgs_tangent,
    make_y_point,
    make_y_tangent,
    pullback_omega,
    symplectic_omega,
    unchecked_y_tangent,
    validate_y_tangent,
)
from .scenario import Scenario
from .solver import (
    SeedStream,
    build_higgs_field_space,
    build_higgs_tangent_space,
    build_section_space,
    build_tangent_space,
    random_cocycle,
    random_loop_algebra,
    sample_affine,
    sample_vector,
)

_TANGENT_ATTEMPTS = 6


@dataclass
class Instance:
    point: YPoint
    tangents: list
    section_dim: int
    bundle_attempts: int
    tangent_retries: int


def _random_bundle(scenario: Scenario, rng: SeedStream):
    n = scenario.rep.algebra.n
    return [
        random_cocycle(n, scenario.suite.cocycle, rng.child("pt", i))
        for i in range(scenario.curve.n_points)
    ]


def _sample_tangent(scenario: Scenario, point, rng: SeedStream, build):
    """Random g_dot with a feasible tangent space, resampled on Infeasible.

    ``build`` is the tangent-space builder for ``point``.  The last
    attempt draws a regular g_dot, which is always feasible.  Returns
    (g_dot, space, the attempt's stream, attempt index).
    """
    g_dot_recipe = scenario.suite.g_dot
    for attempt in range(_TANGENT_ATTEMPTS):
        sub = rng.child("attempt", attempt)
        if attempt == _TANGENT_ATTEMPTS - 1:
            g_dot_recipe = replace(g_dot_recipe, pole_order=0)
        g_dot = [
            random_loop_algebra(scenario.rep.algebra, g_dot_recipe, sub.child("g", i))
            for i in range(scenario.curve.n_points)
        ]
        try:
            return g_dot, build(point, g_dot, scenario.bounds), sub, attempt
        except Infeasible:
            continue
    raise AssertionError("unreachable: a regular g_dot is always feasible")


def build_instance(scenario: Scenario, rng: SeedStream) -> Instance:
    """One random instance: bundle, section, and two tangents."""
    suite = scenario.suite
    bundle = None
    space = None
    attempts = 0
    for attempt in range(suite.max_attempts):
        attempts = attempt + 1
        candidate = _random_bundle(scenario, rng.child("bundle", attempt))
        space = build_section_space(
            scenario.curve, scenario.rep, candidate, scenario.bounds
        )
        bundle = candidate
        if space.dim >= suite.min_section_dim:
            break
    if space.dim:
        s_circ = sample_vector(space, rng.child("section"), suite.sample_num, suite.sample_den)
    else:
        s_circ = XVector.zero(scenario.rep.space.dim)
    point = make_y_point(scenario.curve, scenario.rep, bundle, s_circ, space.system)
    tangents = []
    retries = 0
    for j in (1, 2):
        g_dot, tangent_space, sub, used = _sample_tangent(
            scenario, point, rng.child("tangent", j), build_tangent_space
        )
        s_dot = sample_affine(tangent_space, sub.child("s"), suite.sample_num, suite.sample_den)
        tangents.append(make_y_tangent(point, g_dot, s_dot))
        retries += used
    return Instance(point, tangents, space.dim, attempts, retries)


# ---------------------------------------------------------------------------
# scenario-pinned single instances (explicit bundle/section/tangents)
# ---------------------------------------------------------------------------


def scenario_point(scenario: Scenario, rng: SeedStream) -> YPoint:
    """The point described by the scenario's bundle/section blocks."""
    s_circ = scenario.section.vector
    system = None
    if s_circ is None:
        space = build_section_space(
            scenario.curve, scenario.rep, scenario.bundle, scenario.bounds
        )
        if space.dim == 0:
            s_circ = XVector.zero(scenario.rep.space.dim)
        else:
            s_circ = sample_vector(
                space,
                rng.child("section", scenario.section.seed),
                scenario.suite.sample_num,
                scenario.suite.sample_den,
            )
        system = space.system
    return make_y_point(scenario.curve, scenario.rep, scenario.bundle, s_circ, system)


def scenario_tangents(scenario: Scenario, point: YPoint, rng: SeedStream) -> list:
    """The tangents described by the scenario's y_tangents blocks."""
    suite = scenario.suite
    out = []
    for k, tangent in enumerate(scenario.y_tangents):
        sub = rng.child("y_tangent", k, tangent.seed)
        g_dot, s_dot = tangent.g_dot, tangent.s_circ_dot
        if g_dot is None:
            g_dot, space, sub, _ = _sample_tangent(scenario, point, sub, build_tangent_space)
        elif s_dot is None:
            space = build_tangent_space(point, g_dot, scenario.bounds)
        if s_dot is None:
            s_dot = sample_affine(space, sub.child("s"), suite.sample_num, suite.sample_den)
        out.append(make_y_tangent(point, g_dot, s_dot))
    return out


def scenario_higgs(scenario: Scenario):
    """The Higgs point and tangents pinned by the scenario's higgs block."""
    higgs = scenario.higgs
    if higgs is None:
        return None, []
    point = make_higgs_point(scenario.curve, scenario.rep.algebra, higgs.bundle, higgs.phi_circ)
    tangents = [
        make_higgs_tangent(point, t.g_dot, t.phi_circ_dot)
        if t.phi_prime_dot is None
        else ambient_higgs_tangent(point, t.g_dot, t.phi_circ_dot, t.phi_prime_dot)
        for t in higgs.tangents
    ]
    return point, tangents


def random_higgs_pair(scenario: Scenario, rng: SeedStream):
    """A random Higgs point with two random tangents over the scenario bundle."""
    suite = scenario.suite
    algebra = scenario.rep.algebra
    bundle = scenario.bundle
    fields = build_higgs_field_space(scenario.curve, algebra, bundle, scenario.bounds)
    if fields.dim:
        phi = sample_vector(fields, rng.child("phi"), suite.sample_num, suite.sample_den)
    else:
        phi = algebra.coadjoint(
            [[RatFunc.const(0)] * algebra.n for _ in range(algebra.n)]
        )
    point = make_higgs_point(scenario.curve, algebra, bundle, phi, fields.system)
    tangents = []
    for j in (1, 2):
        g_dot, space, sub, _ = _sample_tangent(
            scenario, point, rng.child("tangent", j), build_higgs_tangent_space
        )
        phi_dot = sample_affine(space, sub.child("phi"), suite.sample_num, suite.sample_den)
        tangents.append(make_higgs_tangent(point, g_dot, phi_dot))
    return point, tangents


# ---------------------------------------------------------------------------
# suites
# ---------------------------------------------------------------------------


@dataclass
class TrialRecord:
    index: int
    section_dim: int
    bundle_attempts: int
    tangent_retries: int
    pullback: GaussRat = GQ_ZERO
    identity_ok: bool = False
    residuals_zero: bool = False
    alpha_residue_sum: GaussRat = GQ_ZERO
    disk_ok: bool = False
    residual_texts: list = field(default_factory=list)
    rows: int = 0
    cols: int = 0
    rank: int = 0
    nonzeros: int = 0

    @property
    def ok(self) -> bool:
        return self.pullback.is_zero() and self.identity_ok


def run_random_suite(scenario: Scenario, seed: int, trials: int) -> list:
    """The main theorem suite: random instances, exact zero expected on all."""
    root = SeedStream("random-suite", seed)
    records = []
    for t in range(trials):
        inst = build_instance(scenario, root.child("trial", t))
        rec = TrialRecord(
            index=t,
            section_dim=inst.section_dim,
            bundle_attempts=inst.bundle_attempts,
            tangent_retries=inst.tangent_retries,
            **inst.point.system.counts,
        )
        t1, t2 = inst.tangents
        rec.pullback = pullback_omega(inst.point, t1, t2)
        ident = identity_check(inst.point, t1, t2)
        rec.residuals_zero = all(r.is_zero() for r in ident.residuals)
        rec.alpha_residue_sum = ident.alpha_residue_sum
        rec.disk_ok = all(ident.disk_regular) and all(
            r.is_zero() for r in ident.disk_residues
        )
        rec.identity_ok = ident.ok
        if not ident.ok:
            # keep the offending intermediate values for the report
            rec.residual_texts = [r.to_text("u") for r in ident.residuals]
        records.append(rec)
    return records


@dataclass
class CorruptRecord:
    index: int
    violations: int
    omega: GaussRat
    detected: bool
    section_dim: int
    bundle_attempts: int
    tangent_retries: int
    rows: int
    cols: int
    rank: int
    nonzeros: int


def run_corrupt_suite(scenario: Scenario, seed: int, trials: int) -> list:
    """Negative control: perturbed disk deformations must be caught."""
    root = SeedStream("corrupt-suite", seed)
    records = []
    for t in range(trials):
        rng = root.child("trial", t)
        inst = build_instance(scenario, rng)
        t1, t2 = inst.tangents
        # perturb sdot'_i at a random point/coordinate with a nonzero germ
        i = rng.randint(0, scenario.curve.n_points - 1)
        r = rng.randint(0, scenario.rep.space.dim - 1)
        delta = rng.nonzero_gauss(2, 1)
        power = rng.randint(0, 1)
        u = RatFunc.x()
        bad_prime = list(t1.s_prime_dot)
        coords = list(bad_prime[i].coords)
        coords[r] = coords[r] + delta * u ** power
        bad_prime[i] = XVector(coords)
        corrupted = unchecked_y_tangent(t1.base, t1.g_dot, t1.s_circ_dot, bad_prime)
        violations = validate_y_tangent(corrupted)
        # evaluate the pairing on the corrupted data without re-validation
        h = higgs_from_y(inst.point)
        h1 = _raw_pushforward(corrupted, h)
        h2 = _raw_pushforward(t2, h)
        omega = symplectic_omega(h, h1, h2)
        records.append(
            CorruptRecord(
                index=t,
                violations=len(violations),
                omega=omega,
                detected=bool(violations) or not omega.is_zero(),
                section_dim=inst.section_dim,
                bundle_attempts=inst.bundle_attempts,
                tangent_retries=inst.tangent_retries,
                **inst.point.system.counts,
            )
        )
    return records


def _raw_pushforward(t: YTangent, h: HiggsPoint) -> HiggsTangent:
    """dmu-image of tangent data without the cocycle consistency re-check.

    Only the corrupt suite uses this: corrupted data must still be
    evaluated to show the pairing detects it.
    """
    rep = t.base.rep
    phi_circ_dot = rep.dmoment(t.base.s_circ, t.s_circ_dot)
    phi_prime_dot = [
        rep.dmoment(t.base.s_prime[i], t.s_prime_dot[i])
        for i in range(t.base.curve.n_points)
    ]
    return HiggsTangent(h, t.g_dot, phi_circ_dot, phi_prime_dot)
