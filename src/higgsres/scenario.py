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
determinant-1 bundles) happens before any computation.  Only this module
reads the JSON: each point-keyed block goes through ``_per_point``, and the
result is typed data (``SectionData``, ``YTangentData``, ``HiggsData``).
"""

from __future__ import annotations

import json
from contextlib import contextmanager
from dataclasses import dataclass, field, fields, is_dataclass
from typing import Any

from .curve import MarkedCurve, curve_validate
from .errors import HiggsresError, ParseError, ValidationError
from .field import RatFunc, parse_ratfunc
from .hamiltonian import HamiltonianRep, SymplecticSpace, builtin_rep, rep_validate, XVector
from .lie import CoadjointElement, LoopAlgebraElement, LoopGroupElement, elementary, sl, torus
from .matrices import mat_from
from .residues import OneForm, P1Point
from .solver import CocycleRecipe, GdotRecipe, SolverBounds


@dataclass
class SuiteRecipe:
    """Knobs of the randomized suites; all scenario-overridable.

    An integer knob is non-negative, or at least its ``minimum``.
    """

    cocycle: CocycleRecipe = field(default_factory=CocycleRecipe)
    g_dot: GdotRecipe = field(default_factory=GdotRecipe)
    min_section_dim: int = 1
    max_attempts: int = field(default=8, metadata={"minimum": 1})
    sample_num: int = 2
    sample_den: int = field(default=2, metadata={"minimum": 1})


@dataclass
class SectionData:
    """Explicit coordinates, or (vector None) solved and sampled from ("section", seed)."""

    vector: XVector | None = None
    seed: int = 0


@dataclass
class YTangentData:
    """A y_tangents entry; what it leaves out is sampled from ("y_tangent", k, seed)."""

    seed: int
    g_dot: list | None = None
    s_circ_dot: XVector | None = None


@dataclass
class HiggsTangentData:
    """A higgs.tangents entry; ambient tangents give phi_prime_dot, the rest derive it."""

    g_dot: list
    phi_circ_dot: CoadjointElement
    phi_prime_dot: list | None = None


@dataclass
class HiggsData:
    """The higgs block, with its bundle override or else the scenario's bundle."""

    phi_circ: CoadjointElement
    bundle: list
    tangents: list


@dataclass
class Scenario:
    """A parsed and validated scenario, ready for command dispatch."""

    name: str
    rep: HamiltonianRep
    curve: MarkedCurve
    bundle: list
    section: SectionData
    y_tangents: list
    bounds: SolverBounds
    suite: SuiteRecipe
    higgs: HiggsData | None
    forms: list


@contextmanager
def _invalid(where: str = ""):
    """Report a domain error raised while building parsed data as invalid."""
    try:
        yield
    except HiggsresError as exc:
        raise ValidationError(f"{where}{exc}") from None


def _is_int(value: Any) -> bool:
    """A JSON integer; true and false are not integers here."""
    return isinstance(value, int) and not isinstance(value, bool)


def _expect_int(value: Any, path: str) -> int:
    if not _is_int(value):
        raise ParseError("expected an integer", location=path)
    return value


def _expect(obj: Any, types, path: str, what: str):
    if not isinstance(obj, types):
        raise ParseError(f"expected {what}", location=path)
    return obj


def _expect_keys(block: Any, names, path: str, what: str) -> None:
    """A dict whose every key is one of ``names``: a misspelled key is an
    error at ``<path>.<key>`` (at ``<key>`` on the top level), not a
    silently ignored entry or a default."""
    _expect(block, dict, path, what)
    for key in block:
        if key not in names:
            where = f"{path}.{key}" if path else key
            raise ParseError(f"unknown key {key!r}, expected one of {', '.join(names)}", where)


def _field_names(cls) -> list:
    return [f.name for f in fields(cls)]


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


def _per_point(mapping: Any, points: list, path: str, what: str) -> list:
    """The (value, location) of each marked point's entry in a point-keyed block.

    A key may spell its point any way ``P1Point.parse`` accepts; every
    key must name a marked point, and each marked point needs exactly one.
    """
    _expect(mapping, dict, path, f"a point->{what} mapping")
    found = {}
    for key, value in mapping.items():
        point = _parse_point(key, f"{path}[{key!r}]")
        if point not in points:
            raise ParseError(f"{key!r} is not a marked point", path)
        if point in found:
            raise ParseError(f"two keys for the point {point}", path)
        found[point] = (value, f"{path}[{key!r}]")
    for point in points:
        if point not in found:
            raise ParseError(f"missing {what} for point {str(point)!r}", path)
    return [found[point] for point in points]


def _parse_matrix(rows: Any, n: int, var: str, path: str) -> list:
    _expect(rows, list, path, f"a {n}x{n} matrix of strings")
    if len(rows) != n or any(not isinstance(r, list) or len(r) != n for r in rows):
        raise ParseError(f"expected a {n}x{n} matrix", location=path)
    return [
        [_parse_rf(rows[i][j], var, f"{path}[{i}][{j}]") for j in range(n)]
        for i in range(n)
    ]


def _require_regular(f: RatFunc, curve: MarkedCurve, path: str) -> RatFunc:
    """f, a global function of z, when it has no pole off the marked points."""
    if not curve.is_regular_on_complement(f):
        raise ValidationError(f"{path}: has a pole away from the marked points")
    return f


def _parse_vector(coords: Any, dim: int, curve: MarkedCurve, path: str) -> XVector:
    """Global coordinates in z, each regular away from the marked points."""
    _expect(coords, list, path, "a list of strings")
    if len(coords) != dim:
        raise ParseError(f"expected {dim} coordinates", path)
    out = []
    for k, c in enumerate(coords):
        where = f"{path}[{k}]"
        out.append(_require_regular(_parse_rf(c, "z", where), curve, where))
    return XVector(out)


def _parse_element(cls, rows: Any, algebra, var: str, path: str):
    """A matrix block as a LoopAlgebraElement or CoadjointElement of ``algebra``."""
    mat = _parse_matrix(rows, algebra.n, var, path)
    with _invalid(f"{path}: "):
        return cls(algebra, mat)


def _parse_global_element(rows: Any, algebra, curve: MarkedCurve, path: str) -> CoadjointElement:
    """A coadjoint matrix in z whose entries are regular away from the marked points."""
    element = _parse_element(CoadjointElement, rows, algebra, "z", path)
    for i, row in enumerate(element.mat):
        for j, e in enumerate(row):
            _require_regular(e, curve, f"{path}[{i}][{j}]")
    return element


def _parse_g_dot(block: Any, curve: MarkedCurve, algebra, path: str) -> list:
    return [
        _parse_element(LoopAlgebraElement, rows, algebra, "u", where)
        for rows, where in _per_point(block, curve.marked_points, path, "g_dot matrix")
    ]


def _parse_curve(block: Any, path: str) -> MarkedCurve:
    _expect_keys(block, ("marked_points", "alpha", "transitions"), path, "a curve block")
    pts_raw = _expect(block.get("marked_points"), list, f"{path}.marked_points", "a list of points")
    if not pts_raw:
        raise ParseError("at least one marked point is required", f"{path}.marked_points")
    points = [
        _parse_point(p, f"{path}.marked_points[{k}]") for k, p in enumerate(pts_raw)
    ]
    alpha = OneForm(_parse_rf(block.get("alpha"), "z", f"{path}.alpha"))
    transitions = [
        _parse_rf(text, "u", where)
        for text, where in _per_point(block.get("transitions"), points, f"{path}.transitions", "transition")
    ]
    with _invalid():
        return MarkedCurve(points, alpha, transitions)


def _parse_word_factor(factor: Any, n: int, path: str) -> LoopGroupElement:
    _expect(factor, dict, path, "a generator word factor")
    kind = factor.get("type")
    if kind == "torus":
        _expect_keys(factor, ("type", "exponents"), path, "a generator word factor")
        exps = _expect(factor.get("exponents"), list, f"{path}.exponents", "a list of ints")
        if len(exps) != n or not all(_is_int(e) for e in exps):
            raise ParseError(f"expected {n} integer exponents", f"{path}.exponents")
        with _invalid(f"{path}.exponents: "):
            return torus(n, exps)
    if kind == "elementary":
        _expect_keys(factor, ("type", "j", "k", "coeff"), path, "a generator word factor")
        j = _expect_int(factor.get("j"), f"{path}.j")
        k = _expect_int(factor.get("k"), f"{path}.k")
        if not (1 <= j <= n and 1 <= k <= n and j != k):
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
        _expect_keys(block, ("kind", "matrices"), path, "a bundle block")
        for rows, where in _per_point(block.get("matrices"), curve.marked_points, f"{path}.matrices", "bundle matrix"):
            rows = _parse_matrix(rows, n, "u", where)
            with _invalid(f"{where}: "):
                out.append(LoopGroupElement(rows))
        return out
    if kind == "word":
        _expect_keys(block, ("kind", "words"), path, "a bundle block")
        for factors, where in _per_point(block.get("words"), curve.marked_points, f"{path}.words", "bundle word"):
            _expect(factors, list, where, "a list of factors")
            g = LoopGroupElement.identity(n)
            for t, f in enumerate(factors):
                g = g * _parse_word_factor(f, n, f"{where}[{t}]")
            out.append(g)
        return out
    raise ParseError("bundle kind must be 'explicit' or 'word'", f"{path}.kind")


def _parse_bounds(block: Any, path: str) -> SolverBounds:
    if block is None:
        return SolverBounds()
    _expect_keys(block, _field_names(SolverBounds), path, "a bounds block")
    for key, value in block.items():
        if not (_is_int(value) and value >= 0):
            raise ParseError("bounds must be non-negative integers", f"{path}.{key}")
    return SolverBounds(**block)


def _parse_recipe(block: Any, cls, path: str):
    """The recipe dataclass cls (the suite's or one nested in it) from its block.

    A field whose default is a recipe reads a nested block, null for its
    defaults; every other field is an integer, non-negative or at least
    the ``minimum`` in its metadata (a range error is invalid data).
    """
    if block is None:
        return cls()
    _expect_keys(block, _field_names(cls), path, "a recipe block")
    values = {}
    for f in fields(cls):
        if f.name not in block:
            continue
        value, location = block[f.name], f"{path}.{f.name}"
        if is_dataclass(f.default_factory):
            values[f.name] = _parse_recipe(value, f.default_factory, location)
            continue
        if not _is_int(value):
            raise ParseError(f"{f.name} must be an integer", location)
        minimum = f.metadata.get("minimum", 0)
        if value < minimum:
            raise ValidationError(f"{location} must be at least {minimum}, got {value}")
        values[f.name] = value
    return cls(**values)


def _parse_constant_matrix(rows: Any, n: int, what: str, path: str) -> list:
    """An n x n matrix of constants: a representation does not vary with z."""
    mat = _parse_matrix(rows, n, "z", path)
    for i, row in enumerate(mat):
        for j, e in enumerate(row):
            if not e.is_constant():
                raise ParseError(f"{what} entries must be constants", f"{path}[{i}][{j}]")
    return mat


def _parse_explicit_rep(block: dict, path: str) -> HamiltonianRep:
    """An algebra-level representation given by explicit rho matrices.

    Such representations drive every pointwise and Higgs-side command;
    section transport (the Y-side) additionally needs a group action,
    which only the built-in block sums provide.
    """
    _expect_keys(block, ("algebra", "omega", "rho", "name"), path, "an explicit representation block")
    alg_name = block.get("algebra")
    if not (isinstance(alg_name, str) and alg_name.startswith("sl")):
        raise ParseError("explicit representation needs algebra 'slN'", f"{path}.algebra")
    try:
        n = int(alg_name[2:])
    except ValueError:
        raise ParseError("explicit representation needs algebra 'slN'", f"{path}.algebra") from None
    if n < 2:
        raise ValidationError(f"{path}.algebra: rank must be at least 2, got {alg_name!r}")
    algebra = sl(n)
    omega_rows = _expect(block.get("omega"), list, f"{path}.omega", "an omega matrix")
    dim = len(omega_rows)
    omega = mat_from(_parse_constant_matrix(omega_rows, dim, "omega", f"{path}.omega"))
    with _invalid(f"{path}.omega: "):
        space = SymplecticSpace(omega)
    rho_block = _expect(block.get("rho"), dict, f"{path}.rho", "a label->matrix mapping")
    rho = {}
    for lab in algebra.labels:
        if lab not in rho_block:
            raise ParseError(f"missing rho matrix for basis element {lab!r}", f"{path}.rho")
        rho[lab] = mat_from(_parse_constant_matrix(rho_block[lab], dim, "rho", f"{path}.rho[{lab!r}]"))
    name = _expect(block.get("name", f"{alg_name}-explicit"), str, f"{path}.name", "a string")
    with _invalid(f"{path}: "):
        return HamiltonianRep(algebra, space, rho, name=name)


def _parse_section(block: Any, dim: int, curve: MarkedCurve) -> SectionData:
    _expect(block, dict, "section", "a section block")
    kind = block.get("kind")
    if kind == "explicit":
        _expect_keys(block, ("kind", "coords"), "section", "a section block")
        return SectionData(vector=_parse_vector(block.get("coords"), dim, curve, "section.coords"))
    if kind != "solve":
        raise ParseError("section kind must be 'solve' or 'explicit'", "section.kind")
    _expect_keys(block, ("kind", "seed"), "section", "a section block")
    return SectionData(seed=_expect_int(block.get("seed", 0), "section.seed"))


def _parse_y_tangents(blocks: Any, curve: MarkedCurve, rep: HamiltonianRep) -> list:
    _expect(blocks, list, "y_tangents", "a list of tangent blocks")
    out = []
    for k, block in enumerate(blocks):
        path = f"y_tangents[{k}]"
        _expect_keys(block, ("kind", "seed", "g_dot", "s_circ_dot"), path, "a tangent block")
        if block.get("kind", "random") != "random":
            raise ParseError("y tangent kind must be 'random'", f"{path}.kind")
        tangent = YTangentData(seed=_expect_int(block.get("seed", k), f"{path}.seed"))
        if block.get("g_dot") is not None:
            tangent.g_dot = _parse_g_dot(block["g_dot"], curve, rep.algebra, f"{path}.g_dot")
        if block.get("s_circ_dot") is not None:
            tangent.s_circ_dot = _parse_vector(block["s_circ_dot"], rep.space.dim, curve, f"{path}.s_circ_dot")
        out.append(tangent)
    return out


def _parse_higgs(block: Any, curve: MarkedCurve, algebra, bundle: list) -> HiggsData | None:
    if block is None:
        return None
    _expect_keys(block, ("phi_circ", "bundle", "tangents"), "higgs", "a higgs block")
    phi_circ = _parse_global_element(block.get("phi_circ"), algebra, curve, "higgs.phi_circ")
    if "bundle" in block:
        bundle = _parse_bundle(block["bundle"], curve, algebra.n, "higgs.bundle")
    tangents = []
    blocks = _expect(block.get("tangents", []), list, "higgs.tangents", "a list of higgs tangent blocks")
    for k, tb in enumerate(blocks):
        path = f"higgs.tangents[{k}]"
        _expect(tb, dict, path, "a higgs tangent block")
        # only an ambient tangent reads its disk values
        ambient = _expect(tb.get("ambient", False), bool, f"{path}.ambient", "true or false")
        keys = ("g_dot", "phi_circ_dot", "ambient") + (("phi_prime_dot",) if ambient else ())
        _expect_keys(tb, keys, path, "a higgs tangent block")
        tangent = HiggsTangentData(
            _parse_g_dot(tb.get("g_dot"), curve, algebra, f"{path}.g_dot"),
            _parse_global_element(tb.get("phi_circ_dot"), algebra, curve, f"{path}.phi_circ_dot"),
        )
        if ambient:
            # disk values given explicitly: ambient-space tangent data
            tangent.phi_prime_dot = [
                _parse_element(CoadjointElement, rows, algebra, "u", where)
                for rows, where in _per_point(
                    tb.get("phi_prime_dot"), curve.marked_points, f"{path}.phi_prime_dot", "phi_prime_dot matrix"
                )
            ]
        tangents.append(tangent)
    return HiggsData(phi_circ, bundle, tangents)


_TOP_LEVEL = (
    "field", "name", "representation", "curve", "bundle", "bounds",
    "section", "y_tangents", "higgs", "forms", "suite",
)


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
    _expect_keys(raw, _TOP_LEVEL, "", "a JSON object")

    field_tag = raw.get("field", "gauss-rational")
    if field_tag != "gauss-rational":
        raise ValidationError(
            f"unsupported field {field_tag!r}; this build is exact over Q(i)"
        )
    name = _expect(raw.get("name", source), str, "name", "a string")

    rep_block = raw.get("representation", "sl2-standard")
    if isinstance(rep_block, str):
        with _invalid("representation: "):
            rep = builtin_rep(rep_block)
    elif isinstance(rep_block, dict):
        rep = _parse_explicit_rep(rep_block, "representation")
    else:
        raise ParseError(
            "representation must be a built-in name or an explicit block",
            "representation",
        )
    violations = rep_validate(rep)
    if violations:
        raise ValidationError("representation fails Hamiltonian identities", violations)

    curve = _parse_curve(raw.get("curve"), "curve")
    violations = curve_validate(curve)
    if violations:
        raise ValidationError("curve invariants violated", violations)

    bundle = _parse_bundle(raw.get("bundle"), curve, rep.algebra.n, "bundle")
    bounds = _parse_bounds(raw.get("bounds"), "bounds")
    suite = _parse_recipe(raw.get("suite"), SuiteRecipe, "suite")

    return Scenario(
        name=name,
        rep=rep,
        curve=curve,
        bundle=bundle,
        section=_parse_section(raw.get("section", {"kind": "solve"}), rep.space.dim, curve),
        y_tangents=_parse_y_tangents(
            raw.get("y_tangents", [{"seed": 1}, {"seed": 2}]), curve, rep
        ),
        bounds=bounds,
        suite=suite,
        higgs=_parse_higgs(raw.get("higgs"), curve, rep.algebra, bundle),
        forms=[
            OneForm(_parse_rf(f, "z", f"forms[{k}]"))
            for k, f in enumerate(_expect(raw.get("forms", []), list, "forms", "a list of 1-form strings"))
        ],
    )


def load_scenario(path: str) -> Scenario:
    with open(path, "r", encoding="utf-8") as fh:
        text = fh.read()
    return parse_scenario(text, source=path)
