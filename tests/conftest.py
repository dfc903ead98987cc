"""Shared fixtures: paths and the smallest marked-curve setups."""

from __future__ import annotations

import pathlib

import pytest

from higgsres import (
    INFINITY,
    MarkedCurve,
    OneForm,
    P1Point,
    RatFunc,
    builtin_rep,
    torus,
)

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent
FIXTURES = REPO_ROOT / "fixtures"


@pytest.fixture(scope="session")
def fixtures_dir() -> pathlib.Path:
    return FIXTURES


@pytest.fixture(scope="session")
def curve_one_point() -> MarkedCurve:
    """Marked point at infinity, alpha = -dz, T = u."""
    return MarkedCurve([INFINITY], OneForm(RatFunc.const(-1)), [RatFunc.x()])


@pytest.fixture(scope="session")
def curve_two_points() -> MarkedCurve:
    """Marked points {0, inf}, alpha = dz/z^2, T_0 = u, T_inf = i."""
    from higgsres import GaussRat

    return MarkedCurve(
        [P1Point.finite(0), INFINITY],
        OneForm(RatFunc(1, [0, 0, 1])),
        {P1Point.finite(0): RatFunc.x(), INFINITY: RatFunc.const(GaussRat(0, 1))},
    )


@pytest.fixture(scope="session")
def rep_sl2():
    return builtin_rep("sl2-standard")


@pytest.fixture(scope="session")
def twisted_bundle():
    """The degree-shifted cocycle diag(u^-1, u) at one point."""
    return [torus(2, [-1, 1])]
