"""Scenario parsing, validation errors, CLI dispatch, and report formats."""

import json
import random

import pytest

from higgsres import ParseError, ValidationError, parse_scenario, suites
from higgsres.cli import main, run
from higgsres.field import RatFunc
from higgsres.moduli import IdentityReport
from higgsres.scenario import load_scenario


MINIMAL = {
    "field": "gauss-rational",
    "name": "tiny",
    "representation": "sl2-standard",
    "curve": {
        "marked_points": ["inf"],
        "alpha": "-1",
        "transitions": {"inf": "u"},
    },
    "bundle": {"kind": "explicit", "matrices": {"inf": [["1/u", "0"], ["0", "u"]]}},
    "bounds": {"degree": 3, "pole_order": 0},
}


def test_fixture_files_parse(fixtures_dir):
    for name in ("f1.json", "f2.json", "f3.json", "lambda.json"):
        scenario = load_scenario(str(fixtures_dir / name))
        assert scenario.curve.n_points >= 1


def test_minimal_scenario_parses():
    scenario = parse_scenario(json.dumps(MINIMAL))
    assert scenario.name == "tiny"
    assert scenario.rep.name == "sl2-standard"


def test_vanishing_alpha_is_validation_error():
    doc = json.loads(json.dumps(MINIMAL))
    doc["curve"]["alpha"] = "z"
    with pytest.raises(ValidationError) as err:
        parse_scenario(json.dumps(doc))
    assert any("zero" in v for v in err.value.violations)


def test_malformed_rational_is_parse_error_with_location():
    doc = json.loads(json.dumps(MINIMAL))
    doc["curve"]["alpha"] = "3//4"
    with pytest.raises(ParseError) as err:
        parse_scenario(json.dumps(doc))
    assert "curve.alpha" in err.value.location


def test_malformed_json_is_parse_error():
    with pytest.raises(ParseError) as err:
        parse_scenario("{not json", source="bad.json")
    assert "bad.json" in err.value.location


def test_bad_bundle_matrix_is_validation_error():
    doc = json.loads(json.dumps(MINIMAL))
    doc["bundle"]["matrices"]["inf"] = [["u", "0"], ["0", "u"]]
    with pytest.raises(ValidationError):
        parse_scenario(json.dumps(doc))


def test_word_bundles_parse():
    doc = json.loads(json.dumps(MINIMAL))
    doc["bundle"] = {
        "kind": "word",
        "words": {
            "inf": [
                {"type": "torus", "exponents": [-1, 1]},
                {"type": "elementary", "j": 1, "k": 2, "coeff": "u^2"},
            ]
        },
    }
    scenario = parse_scenario(json.dumps(doc))
    assert scenario.bundle[0].mat[0][1].to_text("u") == "u"


def test_unknown_field_tag_rejected():
    doc = json.loads(json.dumps(MINIMAL))
    doc["field"] = "reals"
    with pytest.raises(ValidationError):
        parse_scenario(json.dumps(doc))


EXPLICIT_REP = {
    "algebra": "sl2",
    "omega": [["0", "1"], ["-1", "0"]],
    "rho": {
        "E": [["0", "1"], ["0", "0"]],
        "H": [["1", "0"], ["0", "-1"]],
        "F": [["0", "0"], ["1", "0"]],
    },
}


def test_explicit_representation_accepted():
    doc = json.loads(json.dumps(MINIMAL))
    doc["representation"] = EXPLICIT_REP
    scenario = parse_scenario(json.dumps(doc))
    assert scenario.rep.blocks is None
    assert scenario.rep.space.dim == 2


def test_explicit_representation_with_broken_rho_rejected():
    doc = json.loads(json.dumps(MINIMAL))
    rep = json.loads(json.dumps(EXPLICIT_REP))
    rep["rho"]["E"] = [["1", "0"], ["0", "1"]]  # not in sp(omega)
    doc["representation"] = rep
    with pytest.raises(ValidationError) as err:
        parse_scenario(json.dumps(doc))
    assert any("sp(omega)" in v for v in err.value.violations)


def test_explicit_representation_higgs_commands_work(fixtures_dir, capsys):
    # Higgs-side evaluation needs no group action on the symplectic space
    doc = json.loads(json.dumps(MINIMAL))
    doc["representation"] = EXPLICIT_REP
    doc["higgs"] = {
        "phi_circ": [["0", "0"], ["0", "0"]],
        "tangents": [
            {"g_dot": {"inf": [["0", "0"], ["1/u", "0"]]},
             "phi_circ_dot": [["0", "0"], ["0", "0"]]},
            {"g_dot": {"inf": [["0", "0"], ["0", "0"]]},
             "phi_circ_dot": [["0", "1"], ["0", "0"]]},
        ],
    }
    import pathlib, tempfile

    with tempfile.TemporaryDirectory() as tmp:
        path = pathlib.Path(tmp) / "explicit.json"
        path.write_text(json.dumps(doc))
        assert main(["omega", str(path)]) == 0
        assert "value=-1" in capsys.readouterr().out
        # section transport is refused with a clear validation error
        assert main(["check-theorem", str(path)]) == 3


# ---------------------------------------------------------------------------
# CLI
# ---------------------------------------------------------------------------


def _fixture(fixtures_dir, name):
    return str(fixtures_dir / name)


def test_cli_validate_ok(fixtures_dir, capsys):
    assert main(["validate", _fixture(fixtures_dir, "f1.json")]) == 0
    out = capsys.readouterr().out
    assert "curve-invariants" in out and "PASS" in out


def test_cli_check_theorem(fixtures_dir, capsys):
    assert main(["check-theorem", _fixture(fixtures_dir, "f1.json")]) == 0
    assert "value=0" in capsys.readouterr().out


def test_cli_pullback_omega_json(fixtures_dir, capsys):
    code = main(
        ["pullback-omega", _fixture(fixtures_dir, "f2.json"), "--format", "json"]
    )
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["verdict"] == "pass"
    assert payload["checks"][0]["value"] == "0"
    assert "time_ms" not in payload["checks"][0]


def test_cli_check_identity_and_cartan(fixtures_dir, capsys):
    assert main(["check-identity", _fixture(fixtures_dir, "f3.json")]) == 0
    assert main(["check-cartan", _fixture(fixtures_dir, "f2.json")]) == 0
    out = capsys.readouterr().out
    assert "cartan-00" in out


def test_cli_lambda_value(fixtures_dir, capsys):
    assert main(["lambda", _fixture(fixtures_dir, "lambda.json")]) == 0
    assert "value=-1/2" in capsys.readouterr().out


def test_cli_omega_reference(fixtures_dir, capsys):
    assert main(["omega", _fixture(fixtures_dir, "f1.json")]) == 0
    assert "value=-1" in capsys.readouterr().out


def test_cli_exit_codes(tmp_path, fixtures_dir, capsys):
    missing = tmp_path / "nope.json"
    assert main(["validate", str(missing)]) == 2
    bad = tmp_path / "bad.json"
    bad.write_text("{broken")
    assert main(["validate", str(bad)]) == 2
    invalid = tmp_path / "invalid.json"
    doc = json.loads(json.dumps(MINIMAL))
    doc["curve"]["alpha"] = "z"
    invalid.write_text(json.dumps(doc))
    assert main(["validate", str(invalid)]) == 3
    capsys.readouterr()


def test_cli_random_suite_small(fixtures_dir, capsys):
    code = main(
        [
            "random-suite",
            _fixture(fixtures_dir, "f1.json"),
            "--seed",
            "11",
            "--trials",
            "3",
            "--format",
            "json",
        ]
    )
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    trials = [c for c in payload["checks"] if c["name"].startswith("trial-")]
    assert len(trials) == 3
    assert all(c["value"] == "0" for c in trials)


def test_cli_random_suite_reports_a_broken_identity(fixtures_dir, capsys, monkeypatch):
    """A trial whose identity report has a non-zero residual fails with
    its residuals in the detail, the identity verdict fails, and the run
    exits 1."""
    broken = IdentityReport(residuals=[RatFunc.x()])
    monkeypatch.setattr(suites, "identity_check", lambda p, t1, t2: broken)
    assert run(["random-suite", _fixture(fixtures_dir, "f1.json"), "--trials", "1"])[0] == 1
    lines = capsys.readouterr().out.splitlines()
    assert lines[1].split()[:2] == ["trial-000", "FAIL"]
    assert lines[1].endswith("identity=BROKEN residuals: u]")
    assert lines[3].split() == ["all-identities-hold", "FAIL"]


def test_cli_corrupt_suite_detects(fixtures_dir, capsys):
    code = main(
        [
            "corrupt-suite",
            _fixture(fixtures_dir, "f1.json"),
            "--seed",
            "11",
            "--trials",
            "4",
        ]
    )
    assert code == 0
    out = capsys.readouterr().out
    assert "all-corruptions-detected" in out


# the --stats block of f1 at seed 1 (20 trials): per-trial counts the
# default report does not print, appended after the verdict line; rows,
# cols, rank and nonzeros are those of the accepted bundle's section system,
# and residue_points is 0 on f1's one marked point, where a residue of
# omega(sdot_1, sdot_2) alpha must vanish by itself
F1_SEED1_STATS = """\
stats (20 trials):
  trial  section_dim  bundle_attempts  tangent_retries  rows  cols  rank  nonzeros  residue_points
    000            2                2                1    12    14    12        12               0
    001            1                3                5    14    14    13        24               0
    002            1                3                0    14    14    13        26               0
    003            1                5                0    14    14    13        26               0
    004            1                2                1    14    14    13        26               0
    005            2                3                1    14    14    12        16               0
    006            1                2                2    13    14    13        13               0
    007            1                1                0    14    14    13        20               0
    008            1                1                0    14    14    13        20               0
    009            1                1                1    14    14    13        20               0
    010            1                1                0    13    14    13        26               0
    011            1                1                0    16    14    13        27               0
    012            1                3                0    15    14    13        20               0
    013            1                1                1    15    14    13        40               0
    014            1                2                1    14    14    13        20               0
    015            1                1                0    14    14    13        26               0
    016            1                1                0    15    14    13        20               0
    017            1                2                6    14    14    13        19               0
    018            1                3                0    16    14    13        20               0
    019            1                1                0    18    14    13        33               0
  total           22               39               19   287   280   258       454               0
"""


def test_cli_random_suite_reports_a_vacuous_trial_as_info(fixtures_dir, capsys):
    """f2 seed 2 trial 32 rejects all 8 bundles it draws, so its section is
    0 and its checks hold vacuously: the trial is info, not pass, and the
    summary names the count; the verdict and exit code stay those of the
    checks."""
    args = ["random-suite", _fixture(fixtures_dir, "f2.json"), "--seed", "2", "--trials", "33"]
    assert main(args + ["--format", "json", "--stats"]) == 0
    payload = json.loads(capsys.readouterr().out)
    checks = {c["name"]: c for c in payload["checks"]}
    assert checks["trial-032"] == {
        "name": "trial-032",
        "status": "info",
        "value": "0",
        "detail": "vacuous: section space of dimension 0 after 8 bundles",
    }
    trials = [c for name, c in checks.items() if name.startswith("trial-")]
    assert [c["status"] for c in trials] == ["pass"] * 32 + ["info"]
    assert checks["all-pullbacks-zero"]["detail"] == "of 33 trials, 1 vacuous"
    assert checks["all-pullbacks-zero"]["status"] == "pass"
    assert payload["verdict"] == "pass" and payload["counts"]["info"] == 1
    row = payload["stats"]["trials"][32]
    assert (row["section_dim"], row["bundle_attempts"]) == (0, 8)
    # a run without vacuous trials keeps the summary as it was
    assert main(args[:-1] + ["32", "--format", "json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    summary = next(c for c in payload["checks"] if c["name"] == "all-pullbacks-zero")
    assert summary["detail"] == "of 32 trials" and payload["counts"]["info"] == 0


def test_cli_random_suite_stats_block_f1_seed1(fixtures_dir, capsys):
    args = ["random-suite", _fixture(fixtures_dir, "f1.json"), "--seed", "1"]
    assert main(args) == 0
    plain = capsys.readouterr().out
    assert main(args + ["--stats"]) == 0
    assert capsys.readouterr().out == plain + F1_SEED1_STATS


@pytest.mark.parametrize("command", ["random-suite", "corrupt-suite"])
def test_cli_stats_json_adds_only_the_stats_key(fixtures_dir, capsys, command):
    args = [command, _fixture(fixtures_dir, "f3.json"), "--seed", "1", "--trials", "3"]
    assert main(args + ["--format", "json"]) == 0
    plain = json.loads(capsys.readouterr().out)
    assert main(args + ["--format", "json", "--stats"]) == 0
    payload = json.loads(capsys.readouterr().out)
    stats = payload.pop("stats")
    assert payload == plain
    rows = stats["trials"]
    assert [row["trial"] for row in rows] == [0, 1, 2]
    columns = (
        "section_dim", "bundle_attempts", "tangent_retries", "rows", "cols", "rank", "nonzeros",
        "residue_points",
    )
    assert stats["total"] == {c: sum(row[c] for row in rows) for c in columns}
    # the residues at f3's two marked points sum to zero: none or both are non-zero
    assert all(row["residue_points"] in (0, 2) for row in rows)
    assert all(row["section_dim"] >= 1 and row["bundle_attempts"] >= 1 for row in rows)
    # rank-nullity: the sections are the null space of the section system
    assert all(row["rank"] + row["section_dim"] == row["cols"] for row in rows)
    # a system of rank r has at least r non-zeros and at most rows * cols
    assert all(row["rank"] <= row["nonzeros"] <= row["rows"] * row["cols"] for row in rows)


@pytest.mark.parametrize("command", ["random-suite", "corrupt-suite"])
@pytest.mark.parametrize("trials", ["0", "-1"])
def test_cli_rejects_trials_below_one(fixtures_dir, capsys, command, trials):
    # no suite may report its checks passed "of 0 trials"
    with pytest.raises(SystemExit) as exc:
        main([command, _fixture(fixtures_dir, "f1.json"), "--trials", trials])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"argument --trials: must be at least 1, got {trials}" in captured.err
    assert "Traceback" not in captured.err


def test_cli_reports_are_deterministic(fixtures_dir, capsys):
    args = [
        "random-suite",
        _fixture(fixtures_dir, "f2.json"),
        "--seed",
        "3",
        "--trials",
        "2",
        "--format",
        "json",
    ]
    assert main(args) == 0
    first = capsys.readouterr().out
    assert main(args) == 0
    second = capsys.readouterr().out
    assert first == second



@pytest.mark.parametrize(
    "field, value",
    [
        ("max_attempts", 0),
        ("cocycle.max_num", -1),
        ("cocycle.max_num", 0),
        ("cocycle.max_exponent", -1),
        ("cocycle.torus_amplitude", -1),
        ("cocycle.max_den", 0),
        ("g_dot.max_num", -1),
        ("g_dot.max_num", 0),
        ("g_dot.degree", -1),
        ("g_dot.max_den", 0),
        ("sample_num", -1),
        ("sample_den", 0),
    ],
)
def test_out_of_range_suite_recipe_is_validation_error(tmp_path, fixtures_dir, capsys, field, value):
    doc = json.loads((fixtures_dir / "f1.json").read_text())
    block = doc["suite"]
    *parents, key = field.split(".")
    for name in parents:
        block = block[name]
    block[key] = value
    path = tmp_path / "bad_suite.json"
    path.write_text(json.dumps(doc))
    code, report = run(["random-suite", str(path), "--trials", "1"])
    assert (code, report) == (3, None)
    assert f"suite.{field}" in capsys.readouterr().err

# Instances sampled at seed 1, recorded as section_dim/bundle_attempts/
# tangent_retries per trial.  A refactor of the solver or the suites must
# keep sampling exactly these instances.
PINNED_SUITE_RECORDS = {
    "f1.json": "2/2/1 1/3/5 1/3/0 1/5/0 1/2/1",
    "f3.json": "4/1/4 4/1/0 4/3/1 2/1/0 4/1/4",
}

PINNED_CARTAN_TERMS = [
    ("0", "0", "0", "0"),
    ("0", "2-6*i", "-2+6*i", "0"),
    ("16", "0", "16", "0"),
]


@pytest.mark.parametrize("name", sorted(PINNED_SUITE_RECORDS))
def test_random_suite_instances_are_pinned(fixtures_dir, name):
    from higgsres.suites import run_random_suite

    records = run_random_suite(load_scenario(str(fixtures_dir / name)), 1, 5)
    got = " ".join(
        f"{r.section_dim}/{r.bundle_attempts}/{r.tangent_retries}" for r in records
    )
    assert got == PINNED_SUITE_RECORDS[name]
    assert all(r.ok for r in records)


def test_higgs_pair_instances_are_pinned(fixtures_dir):
    from higgsres import cartan_check, format_gauss
    from higgsres.solver import SeedStream
    from higgsres.suites import random_higgs_pair

    scenario = load_scenario(str(fixtures_dir / "f2.json"))
    root = SeedStream("cartan-suite", 1)
    got = []
    for t in range(3):
        point, (t1, t2) = random_higgs_pair(scenario, root.child("trial", t))
        res = cartan_check(point, t1, t2)
        assert res.ok
        got.append(
            tuple(format_gauss(x) for x in (res.term1, res.term2, res.term3, res.omega_value))
        )
    assert got == PINNED_CARTAN_TERMS


Z_DEPENDENT_RHO = {
    "E": [["0", "z"], ["0", "0"]],
    "H": [["1", "0"], ["0", "-1"]],
    "F": [["0", "0"], ["1/z", "0"]],
}
SL2_DIAG = [["1/u", "0"], ["0", "u"]]
SL2_ZERO = [["0", "0"], ["0", "0"]]
# a scenario path that names a directory
A_DIRECTORY = object()


# global data with a pole at z = 0, which f1 does not mark: (keys, value, key named)
POLES_OFF_THE_MARKED_POINTS = [
    (("section",), {"kind": "explicit", "coords": ["1/z", "0"]}, "section.coords[0]"),
    (("y_tangents", 0, "s_circ_dot"), ["0", "1/z"], "y_tangents[0].s_circ_dot[1]"),
    (("higgs", "phi_circ"), [["0", "1/z"], ["0", "0"]], "higgs.phi_circ[0][1]"),
    (("higgs", "tangents", 1, "phi_circ_dot"), [["0", "0"], ["1/z", "0"]],
     "higgs.tangents[1].phi_circ_dot[1][0]"),
]


def word_bundle(factor):
    return {"kind": "word", "words": {"inf": [factor]}}


@pytest.mark.parametrize(
    "keys, value, code, where",
    [
        (("forms",), 5, 2, "forms"),
        (("higgs", "tangents"), 5, 2, "higgs.tangents"),
        (("representation",), dict(EXPLICIT_REP, algebra="sl0"), 3, "representation.algebra"),
        (("representation",), dict(EXPLICIT_REP, algebra="sl1"), 3, "representation.algebra"),
        (("representation",), dict(EXPLICIT_REP, algebra="sl-2"), 3, "representation.algebra"),
        # a 0-dimensional symplectic space has only zero sections
        (("representation",), "sl2-standard-x0", 3, "representation"),
        (("representation",), dict(EXPLICIT_REP, omega=[]), 3, "representation.omega"),
        # a negative power of zero divides by zero
        (("curve", "alpha"), "0^-1", 2, "curve.alpha, column 5"),
        # the curve invariants cannot hold with a zero alpha or a zero twist
        (("curve", "alpha"), "0", 3, "alpha is identically zero"),
        (("curve", "transitions", "inf"), "0", 3, "transition T at inf is zero"),
        (("forms",), ["1/z", "z*(z-z)^-2"], 2, "forms[1], column 11"),
        # the missing rho is found before any structure constant of sl9 is built
        (("representation",), dict(EXPLICIT_REP, algebra="sl9", rho={}), 2, "representation.rho"),
        # a key must name a marked point, and only one key may name it
        (("bundle", "matrices", "0"), SL2_DIAG, 2, "bundle.matrices"),
        (("bundle", "matrices", "oo"), SL2_DIAG, 2, "bundle.matrices"),
        (("curve", "transitions", "1/2"), "u", 2, "curve.transitions"),
        (("curve", "transitions", "x"), "u", 2, "curve.transitions['x']"),
        (("higgs", "tangents", 0, "g_dot", "infinity"), SL2_ZERO, 2, "higgs.tangents[0].g_dot"),
        (("y_tangents", 0, "g_dot"), {"inf": SL2_ZERO, "i": SL2_ZERO}, 2, "y_tangents[0].g_dot"),
        # JSON booleans are not integers
        (("bounds", "degree"), True, 2, "bounds.degree"),
        (("bounds", "pole_order"), False, 2, "bounds.pole_order"),
        (("suite", "max_attempts"), True, 2, "suite.max_attempts"),
        (("suite", "cocycle", "length"), True, 2, "suite.cocycle.length"),
        (("bundle",), word_bundle({"type": "torus", "exponents": [True, -1]}), 2,
         "bundle.words['inf'][0].exponents"),
        (("bundle",), word_bundle({"type": "elementary", "j": True, "k": 2, "coeff": "u"}), 2,
         "bundle.words['inf'][0].j"),
        (("bundle",), word_bundle({"type": "elementary", "j": 2, "k": True, "coeff": "u"}), 2,
         "bundle.words['inf'][0].k"),
        # seeds name sampling streams: only integers
        (("section", "seed"), "5", 2, "section.seed"),
        (("section", "seed"), 5.0, 2, "section.seed"),
        (("section", "seed"), True, 2, "section.seed"),
        (("y_tangents", 0, "seed"), "1", 2, "y_tangents[0].seed"),
        (("y_tangents", 1, "seed"), 2.0, 2, "y_tangents[1].seed"),
        # a torus factor of determinant u^2
        (("bundle",), word_bundle({"type": "torus", "exponents": [1, 1]}), 3,
         "bundle.words['inf'][0].exponents: torus exponents must sum to zero"),
        *((keys, value, 3, where + ": has a pole away from the marked points")
          for keys, value, where in POLES_OFF_THE_MARKED_POINTS),
        # the scenario path itself cannot be read (no keys: value is the file)
        ((), A_DIRECTORY, 2, "error: cannot read scenario: [Errno 21] Is a directory"),
        ((), b'{"name": "f\xe9"}', 2, "error: cannot read scenario: 'utf-8' codec can't decode"),
        # a misspelled recipe key is an error, not its default
        (("bounds", "degre"), 10, 2, "unknown key 'degre', expected one of degree, pole_order (at bounds.degre)"),
        (("suite", "max_attempt"), 8, 2, "suite.max_attempt"),
        (("suite", "cocycle", "lenght"), 3, 2, "suite.cocycle.lenght"),
        (("suite", "g_dot", "term"), 2, 2, "suite.g_dot.term"),
        # and so is a misspelled key of any other block, at <block>.<key>
        (("bounds_",), {}, 2, "unknown key 'bounds_', expected one of field, name, representation"),
        (("curve", "alfa"), "-1", 2, "curve.alfa"),
        (("bundle", "matrix"), {}, 2, "unknown key 'matrix', expected one of kind, matrices (at bundle.matrix)"),
        # a word reads its words only
        (("bundle",), dict(word_bundle({"type": "torus", "exponents": [-1, 1]}), matrices={}), 2,
         "bundle.matrices"),
        (("bundle",), word_bundle({"type": "torus", "exponents": [-1, 1], "exponent": 1}), 2,
         "bundle.words['inf'][0].exponent"),
        (("bundle",), word_bundle({"type": "elementary", "j": 1, "k": 2, "coeff": "u", "scale": "2"}), 2,
         "bundle.words['inf'][0].scale"),
        (("section", "sed"), 5, 2, "unknown key 'sed', expected one of kind, seed (at section.sed)"),
        # an explicit section reads no seed
        (("section",), {"kind": "explicit", "coords": ["1", "0"], "seed": 5}, 2, "section.seed"),
        (("y_tangents", 0, "sede"), 1, 2, "y_tangents[0].sede"),
        (("higgs", "phicirc"), SL2_ZERO, 2, "higgs.phicirc"),
        (("higgs", "tangents", 0, "gdot"), {"inf": SL2_ZERO}, 2, "higgs.tangents[0].gdot"),
        # a tangent that is not ambient reads no disk values
        (("higgs", "tangents", 0, "phi_prime_dot"), {"inf": SL2_ZERO}, 2, "higgs.tangents[0].phi_prime_dot"),
        (("representation",), dict(EXPLICIT_REP, nmae="x"), 2, "representation.nmae"),
        # E = z e12 and F = 1/z e21 close up as sl2 at each z, but rho must be constant
        (("representation",), dict(EXPLICIT_REP, rho=Z_DEPENDENT_RHO), 2,
         "rho entries must be constants (at representation.rho['E'][0][1])"),
        # ambient is a JSON boolean, the name a string, and a y tangent's kind is random
        (("higgs", "tangents", 0, "ambient"), "no", 2, "expected true or false (at higgs.tangents[0].ambient)"),
        (("higgs", "tangents", 1, "ambient"), 0, 2, "higgs.tangents[1].ambient"),
        (("name",), ["x"], 2, "expected a string (at name)"),
        (("representation",), dict(EXPLICIT_REP, name=["x"]), 2, "expected a string (at representation.name)"),
        (("y_tangents", 0, "kind"), 7, 2, "y tangent kind must be 'random' (at y_tangents[0].kind)"),
        (("y_tangents", 1, "kind"), "explicit", 2, "y_tangents[1].kind"),
    ],
)
def test_malformed_scenario_exit_code(tmp_path, fixtures_dir, capsys, keys, value, code, where):
    path = tmp_path / "malformed.json"
    if value is A_DIRECTORY:
        path.mkdir()
    elif not keys:
        path.write_bytes(value)
    else:
        doc = json.loads((fixtures_dir / "f1.json").read_text())
        block = doc
        for key in keys[:-1]:
            block = block[key]
        block[keys[-1]] = value
        path.write_text(json.dumps(doc))
    assert run(["validate", str(path)]) == (code, None)
    captured = capsys.readouterr()
    assert captured.out == ""
    assert where in captured.err and "Traceback" not in captured.err


@pytest.mark.parametrize("command", ["validate", "random-suite", "check-theorem", "omega"])
def test_zero_copies_of_the_standard_rep_fail_every_command(tmp_path, fixtures_dir, capsys, command):
    doc = json.loads((fixtures_dir / "f1.json").read_text())
    doc["representation"] = "sl2-standard-x0"
    path = tmp_path / "x0.json"
    path.write_text(json.dumps(doc))
    assert run([command, str(path)]) == (3, None)
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "representation: omega must be square of even, non-zero size" in captured.err


@pytest.mark.parametrize("command", ["validate", "check-theorem", "random-suite", "omega"])
@pytest.mark.parametrize("keys, value, where", POLES_OFF_THE_MARKED_POINTS)
def test_pole_off_the_marked_points_fails_every_command(
    tmp_path, fixtures_dir, capsys, command, keys, value, where
):
    doc = json.loads((fixtures_dir / "f1.json").read_text())
    block = doc
    for key in keys[:-1]:
        block = block[key]
    block[keys[-1]] = value
    path = tmp_path / "pole.json"
    path.write_text(json.dumps(doc))
    assert run([command, str(path)]) == (3, None)
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"{where}: has a pole away from the marked points" in captured.err


PROBE_VALUES = [5, "x", [], {}, None, True, -1, "1/0", [[]], 2.5]


def _value_paths(node, path=()):
    """Key path of every value below the root of a JSON document."""
    if isinstance(node, dict):
        items = node.items()
    elif isinstance(node, list):
        items = enumerate(node)
    else:
        return
    for key, child in items:
        yield path + (key,)
        yield from _value_paths(child, path + (key,))


@pytest.mark.parametrize("fixture", ["f1.json", "lambda.json"])
def test_type_mutations_exit_cleanly(tmp_path, fixtures_dir, capsys, fixture):
    # every value of the fixture in turn is replaced by an ill-typed one
    # (a seeded 3 of the 10 per value; all 10 take about 13 s); every run
    # must end in exit 0, 2 or 3 without a traceback, never in exit 1
    original = (fixtures_dir / fixture).read_text()
    rng = random.Random(fixture)
    path = tmp_path / "mutated.json"
    failures = []
    for where in _value_paths(json.loads(original)):
        for value in rng.sample(PROBE_VALUES, 3):
            doc = json.loads(original)
            block = doc
            for key in where[:-1]:
                block = block[key]
            block[where[-1]] = value
            path.write_text(json.dumps(doc))
            for command in ("validate", "lambda"):
                code, _ = run([command, str(path)])
                err = capsys.readouterr().err
                if code not in (0, 2, 3) or "Traceback" in err:
                    failures.append((where, value, command, code))
    assert failures == []


def _with(fixtures_dir, tmp_path, keys, value):
    """f1 with the value at keys replaced, written to a temporary file."""
    doc = json.loads((fixtures_dir / "f1.json").read_text())
    block = doc
    for key in keys[:-1]:
        block = block[key]
    block[keys[-1]] = value
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(doc))
    return str(path)


def test_cli_residue_sum_of_a_non_split_form(tmp_path, fixtures_dir, capsys):
    # z^2 + z + 1 has no root in Q(i): the sum is checked, not refused
    path = _with(fixtures_dir, tmp_path, ("forms",), ["1/(z^2+z+1)"])
    assert main(["residue-sum", path]) == 0
    lines = [line.split() for line in capsys.readouterr().out.splitlines()]
    assert ["residue-sum-00", "PASS", "value=0"] in [line[:3] for line in lines]


@pytest.mark.parametrize(
    "command, keys, text, where",
    [
        ("residue-sum", ("forms",), ["(" * 250 + "1/z" + ")" * 250], "forms[0], column "),
        ("validate", ("bundle", "matrices", "inf", 0, 0), "(" * 250 + "1/u" + ")" * 250,
         "bundle.matrices['inf'][0][0], column "),
        ("residue-sum", ("forms",), ["-" * 1000 + "1/z"], "forms[0], column "),
    ],
    ids=["form-parentheses", "bundle-parentheses", "form-minus-signs"],
)
def test_deeply_nested_expression_is_parse_error(tmp_path, fixtures_dir, capsys, command, keys, text, where):
    path = _with(fixtures_dir, tmp_path, keys, text)
    assert run([command, path]) == (2, None)
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "expression nested too deeply (at " + where in captured.err
    assert "Traceback" not in captured.err


def test_nested_expression_within_the_stack_still_parses(tmp_path, fixtures_dir, capsys):
    path = _with(fixtures_dir, tmp_path, ("forms",), ["(" * 200 + "1/z" + ")" * 200])
    assert main(["residue-sum", path]) == 0
    assert "residue-sum-00  PASS  value=0" in capsys.readouterr().out
