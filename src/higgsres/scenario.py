"""Declarative scenario files: parsing, validation, fixture access.

A scenario is a JSON document describing the field (always the Gaussian
rationals), a representation, the marked curve with its trivializing
form and square-root transitions, a bundle (explicit matrices or a
generator word), section/tangent data (explicit or solver-driven with
seeds), optional Higgs data for the cotangent-side commands, optional
1-forms for the residue command, and the random-suite recipe.

All rationals are strings in the expression grammar of the field module,
so exactness survives serialization.  Parse errors carry a JSON-path
location; validation (curve invariants, representation identities,
determinant-1 bundles) happens before any computation.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Any

from .curve import MarkedCurve, curve_validate
from .errors import (
    HiggsresError,
    NotInAlgebra,
    ParseError,
    ValidationError,
)
from .field import RatFunc, parse_ratfunc
from .hamiltonian import HamiltonianRep, builtin_rep, rep_validate, XVector
from .lie import LoopAlgebraElement, LoopGroupElement, elementary, torus
from .residues import OneForm, P1Point
from .solver import CocycleRecipe, GdotRecipe, SolverBounds


@dataclass
class SuiteRecipe:
    """Knobs of the randomized suites; all scenario-overridable."""

    cocycle: CocycleRecipe = field(default_factory=CocycleRecipe)
    g_dot: GdotRecipe = field(default_factory=GdotRecipe)
    min_section_dim: int = 1
    max_attempts: int = 8
    sample_num: int = 2
    sample_den: int = 2


@dataclass
class Scenario:
    """A parsed and validated scenario, ready for command dispatch."""

    name: str
    rep: HamiltonianRep
    curve: MarkedCurve
    bundle: list
    section_spec: dict
    y_tangent_specs: list
    bounds: SolverBounds
    suite: SuiteRecipe
    higgs_spec: dict | None
    forms: list
    raw: dict


def _expect(obj: Any, types, path: str, what: str):
    if not isinstance(obj, types):
        raise ParseError(f"expected {what}", location=path)
    return obj


def _parse_rf(text: Any, var: str, path: str) -> RatFunc:
    _expect(text, str, path, "a rational-function string")
    try:
        return parse_ratfunc(text, var)
    except ParseError as exc:
        raise ParseError(str(exc.args[0]).split(" (at ")[0], location=f"{path}, {exc.location}") from None


def _parse_point(text: Any, path: str) -> P1Point:
    _expect(text, str, path, "a point string ('a+b*i' or 'inf')")
    try:
        return P1Point.parse(text)
    except ParseError as exc:
        raise ParseError("bad point coordinate", location=f"{path}, {exc.location}") from None


def _parse_matrix(rows: Any, n: int, var: str, path: str) -> list:
    _expect(rows, list, path, f"a {n}x{n} matrix of strings")
    if len(rows) != n or any(not isinstance(r, list) or len(r) != n for r in rows):
        raise ParseError(f"expected a {n}x{n} matrix", location=path)
    return [
        [_parse_rf(rows[i][j], var, f"{path}[{i}][{j}]") for j in range(n)]
        for i in range(n)
    ]


def _parse_curve(block: Any, path: str) -> MarkedCurve:
    _expect(block, dict, path, "a curve block")
    pts_raw = _expect(block.get("marked_points"), list, f"{path}.marked_points", "a list of points")
    if not pts_raw:
        raise ParseError("at least one marked point is required", f"{path}.marked_points")
    points = [
        _parse_point(p, f"{path}.marked_points[{k}]") for k, p in enumerate(pts_raw)
    ]
    alpha = OneForm(_parse_rf(block.get("alpha"), "z", f"{path}.alpha"))
    trans_raw = _expect(block.get("transitions"), dict, f"{path}.transitions", "a point->T mapping")
    transitions = []
    for k, p in enumerate(points):
        key = pts_raw[k]
        if key not in trans_raw:
            raise ParseError(f"missing transition for point {key!r}", f"{path}.transitions")
        transitions.append(_parse_rf(trans_raw[key], "u", f"{path}.transitions[{key!r}]"))
    try:
        return MarkedCurve(points, alpha, transitions)
    except HiggsresError as exc:
        raise ValidationError(str(exc)) from None


def _parse_word_factor(factor: Any, n: int, path: str) -> LoopGroupElement:
    _expect(factor, dict, path, "a generator word factor")
    kind = factor.get("type")
    if kind == "torus":
        exps = _expect(factor.get("exponents"), list, f"{path}.exponents", "a list of ints")
        if len(exps) != n or not all(isinstance(e, int) for e in exps):
            raise ParseError(f"expected {n} integer exponents", f"{path}.exponents")
        try:
            return torus(n, exps)
        except HiggsresError as exc:
            raise ValidationError(str(exc)) from None
    if kind == "elementary":
        j = factor.get("j")
        k = factor.get("k")
        if not (isinstance(j, int) and isinstance(k, int) and 1 <= j <= n and 1 <= k <= n and j != k):
            raise ParseError(f"need distinct 1-based indices j, k <= {n}", path)
        coeff = _parse_rf(factor.get("coeff"), "u", f"{path}.coeff")
        return elementary(n, j, k, coeff)
    raise ParseError("factor type must be 'torus' or 'elementary'", f"{path}.type")


def _parse_bundle(block: Any, curve: MarkedCurve, n: int, path: str) -> list:
    if block is None:
        return [LoopGroupElement.identity(n) for _ in curve.marked_points]
    _expect(block, dict, path, "a bundle block")
    kind = block.get("kind", "explicit")
    out = []
    if kind == "explicit":
        mats = _expect(block.get("matrices"), dict, f"{path}.matrices", "a point->matrix mapping")
        for k, p in enumerate(curve.marked_points):
            key = str(p)
            if key not in mats:
                raise ParseError(f"missing bundle matrix for point {key!r}", f"{path}.matrices")
            rows = _parse_matrix(mats[key], n, "u", f"{path}.matrices[{key!r}]")
            try:
                out.append(LoopGroupElement(rows))
            except HiggsresError as exc:
                raise ValidationError(
                    f"bundle matrix at {key}: {exc}"
                ) from None
        return out
    if kind == "word":
        words = _expect(block.get("words"), dict, f"{path}.words", "a point->factor-list mapping")
        for p in curve.marked_points:
            key = str(p)
            if key not in words:
                raise ParseError(f"missing bundle word for point {key!r}", f"{path}.words")
            factors = _expect(words[key], list, f"{path}.words[{key!r}]", "a list of factors")
            g = LoopGroupElement.identity(n)
            for t, f in enumerate(factors):
                g = g * _parse_word_factor(f, n, f"{path}.words[{key!r}][{t}]")
            out.append(g)
        return out
    raise ParseError("bundle kind must be 'explicit' or 'word'", f"{path}.kind")


def _parse_bounds(block: Any, path: str) -> SolverBounds:
    if block is None:
        return SolverBounds()
    _expect(block, dict, path, "a bounds block")
    degree = block.get("degree", SolverBounds.degree)
    pole = block.get("pole_order", SolverBounds.pole_order)
    if not (isinstance(degree, int) and isinstance(pole, int) and degree >= 0 and pole >= 0):
        raise ParseError("bounds must be non-negative integers", path)
    return SolverBounds(degree=degree, pole_order=pole)


def _parse_suite(block: Any, path: str) -> SuiteRecipe:
    if block is None:
        return SuiteRecipe()
    _expect(block, dict, path, "a suite block")

    def integer(key, value, location):
        if not isinstance(value, int):
            raise ParseError(f"{key} must be an integer", location)
        # attempt counts and denominators must be positive, the rest non-negative
        minimum = 1 if key in ("max_attempts", "max_den", "sample_den") else 0
        if value < minimum:
            raise ValidationError(f"{location} must be at least {minimum}, got {value}")
        return value

    def sub(name, cls, defaults):
        b = block.get(name)
        if b is None:
            return cls()
        _expect(b, dict, f"{path}.{name}", "a recipe block")
        return cls(
            **{
                key: integer(key, b[key], f"{path}.{name}.{key}")
                for key in defaults
                if key in b
            }
        )

    recipe = SuiteRecipe(
        cocycle=sub("cocycle", CocycleRecipe, ("length", "max_exponent", "torus_amplitude", "max_num", "max_den")),
        g_dot=sub("g_dot", GdotRecipe, ("terms", "pole_order", "degree", "max_num", "max_den")),
    )
    for key in ("min_section_dim", "max_attempts", "sample_num", "sample_den"):
        if key in block:
            setattr(recipe, key, integer(key, block[key], f"{path}.{key}"))
    return recipe


def _parse_explicit_rep(block: dict, path: str) -> HamiltonianRep:
    """An algebra-level representation given by explicit rho matrices.

    Such representations drive every pointwise and Higgs-side command;
    section transport (the Y-side) additionally needs a group action,
    which only the built-in kinds provide.
    """
    from .hamiltonian import SymplecticSpace, _sl
    from .matrices import mat_from

    alg_name = block.get("algebra")
    if not (isinstance(alg_name, str) and alg_name.startswith("sl")):
        raise ParseError("explicit representation needs algebra 'slN'", f"{path}.algebra")
    try:
        n = int(alg_name[2:])
    except ValueError:
        raise ParseError("explicit representation needs algebra 'slN'", f"{path}.algebra") from None
    algebra = _sl(n)
    omega_rows = _expect(block.get("omega"), list, f"{path}.omega", "an omega matrix")
    dim = len(omega_rows)
    omega = _parse_matrix(omega_rows, dim, "z", f"{path}.omega")
    for i, row in enumerate(omega):
        for j, e in enumerate(row):
            if not e.is_constant():
                raise ParseError("omega entries must be constants", f"{path}.omega[{i}][{j}]")
    try:
        space = SymplecticSpace(mat_from(omega))
    except HiggsresError as exc:
        raise ValidationError(f"{path}.omega: {exc}") from None
    rho_block = _expect(block.get("rho"), dict, f"{path}.rho", "a label->matrix mapping")
    rho = {}
    for lab in algebra.labels:
        if lab not in rho_block:
            raise ParseError(f"missing rho matrix for basis element {lab!r}", f"{path}.rho")
        rho[lab] = mat_from(_parse_matrix(rho_block[lab], dim, "z", f"{path}.rho[{lab!r}]"))
    try:
        return HamiltonianRep(algebra, space, rho, kind="explicit", name=block.get("name", f"{alg_name}-explicit"))
    except HiggsresError as exc:
        raise ValidationError(f"{path}: {exc}") from None


def parse_scenario(text: str, source: str = "<scenario>") -> Scenario:
    """Parse and fully validate a scenario document.

    Raises ParseError (malformed text/structure, with a location) or
    ValidationError (well-formed data violating a domain invariant).
    """
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(
            f"invalid JSON: {exc.msg}", location=f"{source}:{exc.lineno}:{exc.colno}"
        ) from None
    _expect(raw, dict, source, "a JSON object")

    field_tag = raw.get("field", "gauss-rational")
    if field_tag != "gauss-rational":
        raise ValidationError(
            f"unsupported field {field_tag!r}; this build is exact over Q(i)"
        )
    name = raw.get("name", source)

    rep_block = raw.get("representation", "sl2-standard")
    if isinstance(rep_block, str):
        try:
            rep = builtin_rep(rep_block)
        except HiggsresError as exc:
            raise ValidationError(str(exc)) from None
    elif isinstance(rep_block, dict):
        rep = _parse_explicit_rep(rep_block, "representation")
    else:
        raise ParseError(
            "representation must be a built-in name or an explicit block",
            "representation",
        )
    rep_report = rep_validate(rep)
    if not rep_report.ok:
        raise ValidationError(
            "representation fails Hamiltonian identities", rep_report.violations
        )

    curve = _parse_curve(raw.get("curve"), "curve")
    curve_report = curve_validate(curve)
    if not curve_report.ok:
        raise ValidationError("curve invariants violated", curve_report.violations)

    bundle = _parse_bundle(raw.get("bundle"), curve, rep.algebra.n, "bundle")
    bounds = _parse_bounds(raw.get("bounds"), "bounds")
    suite = _parse_suite(raw.get("suite"), "suite")

    section_spec = raw.get("section", {"kind": "solve", "seed": 0})
    _expect(section_spec, dict, "section", "a section block")
    if section_spec.get("kind") not in ("solve", "explicit"):
        raise ParseError("section kind must be 'solve' or 'explicit'", "section.kind")
    if section_spec.get("kind") == "explicit":
        coords = _expect(section_spec.get("coords"), list, "section.coords", "a list of strings")
        if len(coords) != rep.space.dim:
            raise ParseError(
                f"expected {rep.space.dim} coordinates", "section.coords"
            )
        section_spec = dict(section_spec)
        section_spec["vector"] = XVector(
            [_parse_rf(c, "z", f"section.coords[{k}]") for k, c in enumerate(coords)]
        )

    tangent_specs = raw.get("y_tangents", [
        {"kind": "random", "seed": 1},
        {"kind": "random", "seed": 2},
    ])
    _expect(tangent_specs, list, "y_tangents", "a list of tangent blocks")
    parsed_tangents = []
    for k, spec in enumerate(tangent_specs):
        path = f"y_tangents[{k}]"
        _expect(spec, dict, path, "a tangent block")
        out = dict(spec)
        if "g_dot" in spec and isinstance(spec["g_dot"], dict) and "kind" not in spec["g_dot"]:
            mats = {}
            for p in curve.marked_points:
                key = str(p)
                if key not in spec["g_dot"]:
                    raise ParseError(f"missing g_dot matrix for {key!r}", f"{path}.g_dot")
                rows = _parse_matrix(spec["g_dot"][key], rep.algebra.n, "u", f"{path}.g_dot[{key!r}]")
                try:
                    mats[key] = LoopAlgebraElement(rep.algebra, rows)
                except NotInAlgebra as exc:
                    raise ValidationError(f"{path}.g_dot[{key!r}]: {exc}") from None
            out["g_dot_elements"] = [mats[str(p)] for p in curve.marked_points]
        if "s_circ_dot" in spec and isinstance(spec["s_circ_dot"], list):
            coords = spec["s_circ_dot"]
            if len(coords) != rep.space.dim:
                raise ParseError(f"expected {rep.space.dim} coordinates", f"{path}.s_circ_dot")
            out["s_circ_dot_vector"] = XVector(
                [_parse_rf(c, "z", f"{path}.s_circ_dot[{j}]") for j, c in enumerate(coords)]
            )
        parsed_tangents.append(out)

    higgs_spec = None
    if raw.get("higgs") is not None:
        hb = _expect(raw["higgs"], dict, "higgs", "a higgs block")
        n = rep.algebra.n
        higgs_spec = {
            "phi_circ": _parse_matrix(hb.get("phi_circ"), n, "z", "higgs.phi_circ"),
            "tangents": [],
        }
        if "bundle" in hb:
            higgs_spec["bundle"] = _parse_bundle(hb["bundle"], curve, n, "higgs.bundle")
        for k, tb in enumerate(hb.get("tangents", [])):
            path = f"higgs.tangents[{k}]"
            _expect(tb, dict, path, "a higgs tangent block")
            gdots = _expect(tb.get("g_dot"), dict, f"{path}.g_dot", "a point->matrix mapping")
            g_dot = []
            for p in curve.marked_points:
                key = str(p)
                if key not in gdots:
                    raise ParseError(f"missing g_dot matrix for {key!r}", f"{path}.g_dot")
                rows = _parse_matrix(gdots[key], n, "u", f"{path}.g_dot[{key!r}]")
                try:
                    g_dot.append(LoopAlgebraElement(rep.algebra, rows))
                except NotInAlgebra as exc:
                    raise ValidationError(f"{path}.g_dot[{key!r}]: {exc}") from None
            phi_dot = _parse_matrix(tb.get("phi_circ_dot"), n, "z", f"{path}.phi_circ_dot")
            parsed = {"g_dot": g_dot, "phi_circ_dot": phi_dot}
            if tb.get("ambient"):
                # disk values given explicitly: ambient-space tangent data
                pp = _expect(
                    tb.get("phi_prime_dot"), dict,
                    f"{path}.phi_prime_dot", "a point->matrix mapping",
                )
                prime = []
                for p in curve.marked_points:
                    key = str(p)
                    if key not in pp:
                        raise ParseError(
                            f"missing phi_prime_dot matrix for {key!r}",
                            f"{path}.phi_prime_dot",
                        )
                    prime.append(
                        _parse_matrix(pp[key], n, "u", f"{path}.phi_prime_dot[{key!r}]")
                    )
                parsed["ambient"] = True
                parsed["phi_prime_dot"] = prime
            higgs_spec["tangents"].append(parsed)

    forms = []
    for k, f in enumerate(raw.get("forms", [])):
        forms.append(OneForm(_parse_rf(f, "z", f"forms[{k}]")))

    return Scenario(
        name=name,
        rep=rep,
        curve=curve,
        bundle=bundle,
        section_spec=section_spec,
        y_tangent_specs=parsed_tangents,
        bounds=bounds,
        suite=suite,
        higgs_spec=higgs_spec,
        forms=forms,
        raw=raw,
    )


def load_scenario(path: str) -> Scenario:
    with open(path, "r", encoding="utf-8") as fh:
        text = fh.read()
    return parse_scenario(text, source=path)
