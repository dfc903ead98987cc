"""Scenario paths that the shipped fixtures do not reach, pinned through the CLI.

Each case rewrites ``fixtures/f2.json`` (two marked points, ``0`` and
``inf``) to take one parser path: an explicit section, y-tangents with an
explicit ``g_dot`` with and without ``s_circ_dot``, a ``higgs.bundle``
override and a generator-word bundle.  The exit code and stdout of each
command are pinned.  Cases without a ``higgs`` block run ``lambda`` and
``omega`` on the pushed-forward section data, so their values depend on
the section and tangents the parser produced.
"""

from __future__ import annotations

import itertools
import json

import pytest

from higgsres.cli import _COMMANDS, run
from higgsres.scenario import parse_scenario
from higgsres.solver import SeedStream
from higgsres.suites import scenario_point, scenario_tangents

# directions and tangent vectors sampled on f2 (SeedStream("instance", 1))
G_DOT_1 = {
    "0": [["-2*i - 1/u^2", "0"], ["0", "2*i + 1/u^2"]],
    "inf": [["0", "2 - 1/u^2"], ["0", "0"]],
}
G_DOT_2 = {
    "0": [["0", "-1"], ["1", "0"]],
    "inf": [["-2*u", "1/u"], ["0", "2*u"]],
}
S_DOT_1 = ["(-1/2-1/2*i) - 1/z^2", "0", "(2+i) - 1/z^2", "0"]
S_DOT_2 = ["-1/2", "0", "1+i", "0"]
F2_BUNDLE = {
    "kind": "explicit",
    "matrices": {"0": [["1/u", "0"], ["0", "u"]], "inf": [["1", "0"], ["0", "1"]]},
}


def _f2(fixtures_dir, higgs=False):
    doc = json.loads((fixtures_dir / "f2.json").read_text())
    if not higgs:
        del doc["higgs"]
    return doc


def explicit_section(doc):
    doc["section"] = {"kind": "explicit", "coords": ["1", "0", "1", "0"]}


def explicit_g_dot(doc):
    doc["y_tangents"] = [{"seed": 1, "g_dot": G_DOT_1}, {"g_dot": G_DOT_2}]


def explicit_g_dot_and_s_dot(doc):
    doc["y_tangents"] = [
        {"g_dot": G_DOT_1, "s_circ_dot": S_DOT_1},
        {"g_dot": G_DOT_2, "s_circ_dot": S_DOT_2},
    ]


def higgs_bundle_override(doc):
    # the scenario bundle becomes the identity; only the override carries f2's twist
    del doc["bundle"]
    doc["higgs"]["bundle"] = F2_BUNDLE


def default_seeds(doc):
    # the section stream defaults to ("section", 0), tangent k's to ("y_tangent", k, k)
    doc["section"] = {"kind": "solve"}
    doc["y_tangents"] = [{}, {"kind": "random"}]


def word_bundle(doc):
    doc["bundle"] = {
        "kind": "word",
        "words": {
            "inf": [{"type": "elementary", "j": 1, "k": 2, "coeff": "1"}],
            "0": [{"type": "torus", "exponents": [-1, 1]}],
        },
    }


CASES = [
    (explicit_section, False, ("validate", "check-theorem", "lambda")),
    (explicit_g_dot, False, ("check-theorem", "lambda", "omega")),
    (explicit_g_dot_and_s_dot, False, ("check-theorem", "lambda", "omega")),
    (higgs_bundle_override, True, ("omega", "lambda")),
    (word_bundle, False, ("check-theorem", "check-identity", "lambda")),
]

_PASS_0 = "  vanishing-pullback  PASS  value=0\nverdict: pass (1 pass, 0 fail, 0 info)\n"
_LAMBDA_0 = (
    "  lambda-00  PASS  value=0\n  lambda-01  PASS  value=0\n"
    "verdict: pass (2 pass, 0 fail, 0 info)\n"
)
_OMEGA_0 = "  omega-00-01  PASS  value=0\nverdict: pass (1 pass, 0 fail, 0 info)\n"


def _report(command, body):
    return 0, f"scenario f2 :: {command} (seed 1)\n{body}"


EXPECTED = {
    "explicit_section validate": _report(
        "validate",
        "  curve-invariants           PASS\n"
        "  representation-identities  PASS\n"
        "  bundle-determinants        PASS  [det = 1 verified at parse]\n"
        "  explicit-section           PASS\n"
        "verdict: pass (4 pass, 0 fail, 0 info)\n",
    ),
    "explicit_section check-theorem": _report("check-theorem", _PASS_0),
    "explicit_section lambda": _report("lambda", _LAMBDA_0),
    "explicit_g_dot check-theorem": _report("check-theorem", _PASS_0),
    "explicit_g_dot lambda": _report("lambda", _LAMBDA_0),
    "explicit_g_dot omega": _report("omega", _OMEGA_0),
    "explicit_g_dot_and_s_dot check-theorem": _report("check-theorem", _PASS_0),
    "explicit_g_dot_and_s_dot lambda": _report("lambda", _LAMBDA_0),
    "explicit_g_dot_and_s_dot omega": _report("omega", _OMEGA_0),
    "higgs_bundle_override omega": _report("omega", _OMEGA_0),
    "higgs_bundle_override lambda": _report("lambda", _LAMBDA_0),
    "word_bundle check-theorem": _report("check-theorem", _PASS_0),
    "word_bundle check-identity": _report(
        "check-identity",
        "  identity-residual-00  PASS  value=0\n"
        "  identity-residual-01  PASS  value=0\n"
        "  alpha-residue-sum     PASS  value=0\n"
        "  disk-term-regular     PASS\n"
        "verdict: pass (4 pass, 0 fail, 0 info)\n",
    ),
    "word_bundle lambda": _report("lambda", _LAMBDA_0),
}

# (s_circ, s_circ_dot of both tangents) of the single instance at --seed 1
PINNED_INSTANCES = {
    explicit_g_dot: ("1 0 1 0", ["-1/(z^2) 0 (-1/2*z^2 - 1)/(z^2) 0", "-2 0 0 0"]),
    default_seeds: ("-1/2 0 -1+i 0", ["(-z + 1/2)/(z) 0 (z + 1-i)/(z) 0", "1/2+i 0 2-i 0"]),
}


def run_case(tmp_path, fixtures_dir, rewrite, higgs, command):
    doc = _f2(fixtures_dir, higgs)
    rewrite(doc)
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(doc))
    code, _ = run([command, str(path), "--seed", "1"])
    return code


@pytest.mark.parametrize(
    "rewrite, higgs, command",
    [(rw, higgs, cmd) for rw, higgs, cmds in CASES for cmd in cmds],
    ids=lambda v: getattr(v, "__name__", v if isinstance(v, str) else None),
)
def test_scenario_path_report_is_pinned(tmp_path, fixtures_dir, capsys, rewrite, higgs, command):
    code = run_case(tmp_path, fixtures_dir, rewrite, higgs, command)
    captured = capsys.readouterr()
    assert (code, captured.out) == EXPECTED[f"{rewrite.__name__} {command}"]
    assert captured.err == ""


@pytest.mark.parametrize("rewrite", list(PINNED_INSTANCES), ids=lambda f: f.__name__)
def test_scenario_instance_is_pinned(fixtures_dir, rewrite):
    # the seed streams of sampled sections and tangents keep their paths
    doc = _f2(fixtures_dir)
    rewrite(doc)
    scenario = parse_scenario(json.dumps(doc))
    rng = SeedStream("instance", 1)
    point = scenario_point(scenario, rng)
    tangents = scenario_tangents(scenario, point, rng)

    def text(vector):
        return " ".join(c.to_text("z") for c in vector.coords)

    got = (text(point.s_circ), [text(t.s_circ_dot) for t in tangents])
    assert got == PINNED_INSTANCES[rewrite]


def respell(doc):
    """Write every marked point, and every key naming one, in another spelling."""
    spellings = {
        "inf": itertools.cycle(["oo", "infinity", "inf"]),
        "0": itertools.cycle(["0/1", "-0", "0*i", "0"]),
    }

    def block(mapping):
        return {next(spellings[key]): value for key, value in mapping.items()}

    curve = doc["curve"]
    curve["marked_points"] = [next(spellings[p]) for p in curve["marked_points"]]
    curve["transitions"] = block(curve["transitions"])
    bundle = doc["bundle"]
    for key in ("matrices", "words"):
        if key in bundle:
            bundle[key] = block(bundle[key])
    tangents = doc.get("y_tangents", []) + doc.get("higgs", {}).get("tangents", [])
    for tangent in tangents:
        for key in ("g_dot", "phi_prime_dot"):
            if key in tangent:
                tangent[key] = block(tangent[key])


def _word_bundle_with_explicit_tangents(doc):
    word_bundle(doc)
    explicit_g_dot_and_s_dot(doc)


@pytest.mark.parametrize(
    "fixture, rewrite",
    [("f1", None), ("f2", None), ("lambda", None), ("f2", _word_bundle_with_explicit_tangents)],
    ids=["f1", "f2", "lambda", "f2-words-tangents"],
)
def test_any_spelling_of_a_marked_point_is_a_key(tmp_path, fixtures_dir, capsys, fixture, rewrite):
    doc = json.loads((fixtures_dir / f"{fixture}.json").read_text())
    if rewrite is not None:
        rewrite(doc)
    plain, respelled = tmp_path / "plain.json", tmp_path / "respelled.json"
    plain.write_text(json.dumps(doc))
    respell(doc)
    respelled.write_text(json.dumps(doc))
    for command in _COMMANDS:
        args = ["--seed", "1", "--trials", "1"]
        expected = run([command, str(plain), *args])[0], capsys.readouterr()
        got = run([command, str(respelled), *args])[0], capsys.readouterr()
        assert got == expected, command
