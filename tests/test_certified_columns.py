"""Certified columns: each pruned twisted system against the system of all
candidates.

``TwistedSystem`` assembles and eliminates only the candidate columns a
section can use (``ranges``): those whose f_t reaches, at a marked
infinity and a marked 0, the floor w*ord T_i + the least order in row k
of rho(g_i).  The oracle here assembles every column (``assemble`` over
the full ranges) and eliminates them all (``linalg.Elimination`` over
every column).  On seeded f1, f2, f3 and lambda bundles, accepted and
rejected draws, on the section and the Higgs-field side, both must give
the same dimension, null vectors, counts and tangent solutions, feasible
and infeasible, before and after a tangent widens the system.  The
certified columns are also recomputed here, from each candidate pulled
to the chart and the dense rho(g_i) (``helpers.rho_group``, the
coadjoint transition of g_i^-1), so a bound that keeps too few columns
or too many fails.
"""

from dataclasses import replace

import pytest
from helpers import coadjoint_transition, rho_group

from higgsres import _kernels as K
from higgsres import load_scenario
from higgsres.lie import Coadjoint, CoadjointElement
from higgsres.linalg import Elimination
from higgsres.moduli import make_higgs_point, make_y_point
from higgsres.solver import (
    SeedStream,
    assemble,
    build_higgs_field_space,
    build_section_space,
    polar_rhs,
    random_cocycle,
    random_loop_algebra,
    sample_vector,
)

DRAWS = 6
G_DOTS = 6


def _dense_rho(rep, g_i):
    """rho(g_i) as dense rows: the block matrix of ``rho_group``, or on the
    Higgs side the matrix whose column k is the coordinates of g_i b_k g_i^-1."""
    if isinstance(rep, Coadjoint):
        algebra = rep.algebra
        columns = [coadjoint_transition(g_i.inverse(), CoadjointElement(algebra, b)).coeffs for b in algebra.basis]
        return list(zip(*columns))
    return rho_group(rep, g_i)


def _certified_columns(curve, candidates, rep, g) -> set:
    """The columns k * size + t whose candidate f_t has, at every marked
    infinity and marked 0, at least the order w*ord T_i + the least order
    in row k of rho(g_i)."""
    size = candidates.size
    floors = {}
    for i, p in enumerate(curve.marked_points):
        if p.is_infinity or p.value.is_zero():
            rho = _dense_rho(rep, g[i])
            twist = rep.weight * curve.transition(i).valuation()
            floors[i] = [twist + min(x.valuation() for x in row if not x.is_zero()) for row in rho]
    orders = [
        {i: curve.chart(i).pull(f).valuation() for i in floors} for f in candidates.functions
    ]
    return {
        k * size + t
        for k in range(rep.dim)
        for t in range(size)
        if all(orders[t][i] >= floor[k] for i, floor in floors.items())
    }


def _columns(system) -> set:
    size = system.candidates.size
    return {k * size + t for k, (lo, hi) in enumerate(system.ranges) for t in range(lo, hi + 1)}


def _all_candidates(system, g):
    """(row index, elimination, counts) of the system of every candidate
    column, from the full ``assemble`` rows."""
    candidates, rep = system.candidates, system.rep
    size = candidates.size
    frame = [[rep.column(g_i, k) for k in range(rep.dim)] for g_i in g]
    keys, rows, nonzeros = assemble(candidates, frame, rep.weight, [(0, size - 1)] * rep.dim)
    ncols = rep.dim * size
    elimination = Elimination(rows, range(ncols))
    counts = {"rows": len(keys), "cols": ncols, "rank": ncols - len(elimination.null_basis), "nonzeros": nonzeros}
    return {key: r for r, key in enumerate(keys)}, elimination, counts


def _solve(index, elimination, rhs):
    """The solution with free coordinates 0 for the polar data rhs, or None."""
    column = {}
    for i, disk in enumerate(rhs):
        for row, coefficients in disk.items():
            for e, triple in coefficients.items():
                if not K.gq_is_zero(triple):
                    column[index.get((i, row, e), elimination.nrows)] = triple
    return elimination.solve(column)


def _build(side, scenario, g):
    if side == "section":
        return build_section_space(scenario.curve, scenario.rep, g, scenario.bounds)
    return build_higgs_field_space(scenario.curve, scenario.rep.algebra, g, scenario.bounds)


def _point(side, scenario, g, system, rng):
    """A point sampled from the system, and its disk values."""
    if side == "section":
        point = make_y_point(scenario.curve, scenario.rep, g, sample_vector(system, rng), system)
        return point, point.s_prime
    point = make_higgs_point(scenario.curve, scenario.rep.algebra, g, sample_vector(system, rng), system)
    return point, point.phi_prime


@pytest.mark.parametrize("fixture", ["f1", "f2", "f3", "lambda"])
@pytest.mark.parametrize("side", ["section", "higgs"])
def test_certified_columns_match_all_candidates(fixtures_dir, fixture, side):
    scenario = load_scenario(str(fixtures_dir / f"{fixture}.json"))
    curve, algebra, suite = scenario.curve, scenario.rep.algebra, scenario.suite
    rng = SeedStream("certified-columns", fixture, side)
    kinds = dict.fromkeys(
        ("accepted", "rejected", "pruned", "feasible", "infeasible", "widened", "after widening"), 0
    )
    for d in range(DRAWS):
        sub = rng.child("bundle", d)
        g = [random_cocycle(algebra.n, suite.cocycle, sub.child("g", i)) for i in range(curve.n_points)]
        system = _build(side, scenario, g)
        candidates = system.candidates
        columns = _certified_columns(curve, candidates, system.rep, g)
        assert _columns(system) == columns
        index, full, counts = _all_candidates(system, g)
        assert system.null_vectors == full.null_basis
        assert system.dim == len(full.null_basis)
        assert system.counts == counts
        kinds["accepted" if system.dim else "rejected"] += 1
        kinds["pruned"] += len(columns) < counts["cols"]
        if not system.dim:
            continue
        point, disk = _point(side, scenario, g, system, sub.child("point"))
        widened = False
        for e in range(G_DOTS):
            recipe = replace(suite.g_dot, pole_order=1 + e % 3)
            g_dot = [random_loop_algebra(algebra, recipe, sub.child("g_dot", e, i)) for i in range(curve.n_points)]
            rhs = polar_rhs(point.rep, g_dot, disk)
            before = _columns(system)
            part = system.particular(rhs)
            assert part == _solve(index, full, rhs)
            kinds["feasible" if part is not None else "infeasible"] += 1
            kinds["after widening"] += widened
            if _columns(system) != before:
                widened = True
                kinds["widened"] += 1
                assert before < _columns(system)
            if part is not None:
                assert set(part) <= _columns(system)
        # a build of the bundle now shares the widened system, whose null
        # vectors are still those of all the candidates
        again = _build(side, scenario, g)
        assert again.elimination is system.elimination
        assert again.null_vectors == full.null_basis
    assert all(kinds.values()), kinds
