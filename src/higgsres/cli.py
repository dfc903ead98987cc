"""Command-line interface: scenario-driven exact verification.

Subcommands operate on a scenario JSON file and emit a report (text or
JSON).  Exit codes: 0 all checks pass, 1 a check failed, 2 parse error,
3 validation error.

    validate         curve/representation/bundle invariants
    residue-sum      global residue sums of the scenario's 1-forms
    lambda           tautological-form values on the scenario's Higgs tangents
    omega            pairing values on Higgs tangent pairs
    pullback-omega   the pairing pulled back through the moment map
    check-identity   per-point identity residuals and residue bookkeeping
    check-cartan     jet-derived exterior-derivative consistency
    check-theorem    asserts the pullback vanishes on the scenario instance
    random-suite     N random instances, all pullbacks must vanish exactly
    corrupt-suite    negative control with perturbed disk data
"""

from __future__ import annotations

import argparse
import sys
import time

from .curve import curve_validate
from .errors import HiggsresError, ParseError, ValidationError
from .field import format_gauss
from .hamiltonian import rep_validate
from .moduli import (
    cartan_check,
    higgs_from_y,
    identity_check,
    liouville_lambda,
    pullback_omega,
    pushforward_tangent,
    symplectic_omega,
)
from .report import STATS_COLUMNS, Report
from .residues import residue_sum
from .scenario import Scenario, load_scenario
from .solver import SeedStream
from .suites import (
    run_corrupt_suite,
    run_random_suite,
    scenario_higgs,
    scenario_point,
    scenario_tangents,
)

EXIT_CHECK_FAILED = 1
EXIT_PARSE_ERROR = 2
EXIT_VALIDATION_ERROR = 3


def _timer():
    start = time.perf_counter()
    return lambda: (time.perf_counter() - start) * 1000.0


def cmd_validate(scenario: Scenario, args, report: Report):
    elapsed = _timer()
    violations = curve_validate(scenario.curve)
    report.add(
        "curve-invariants",
        "fail" if violations else "pass",
        detail="; ".join(violations),
        time_ms=elapsed(),
    )
    elapsed = _timer()
    violations = rep_validate(scenario.rep)
    report.add(
        "representation-identities",
        "fail" if violations else "pass",
        detail="; ".join(violations),
        time_ms=elapsed(),
    )
    report.add("bundle-determinants", "pass", detail="det = 1 verified at parse")
    if scenario.section.vector is not None:
        elapsed = _timer()
        scenario_point(scenario, SeedStream(args.seed))
        report.add("explicit-section", "pass", time_ms=elapsed())


def cmd_residue_sum(scenario: Scenario, args, report: Report):
    forms = scenario.forms or [scenario.curve.alpha]
    for k, form in enumerate(forms):
        elapsed = _timer()
        total = residue_sum(form)
        report.add(
            f"residue-sum-{k:02d}",
            "pass" if total.is_zero() else "fail",
            value=format_gauss(total),
            detail=form.coeff.to_text("z"),
            time_ms=elapsed(),
        )


def _require_higgs(scenario: Scenario, minimum: int, args):
    """Higgs data from the scenario's higgs block, or pushed-forward
    section data when the block is absent."""
    point, tangents = scenario_higgs(scenario)
    if point is None:
        ypoint, ytangents = _y_instance(scenario, args)
        point = higgs_from_y(ypoint)
        tangents = [pushforward_tangent(t) for t in ytangents]
    if len(tangents) < minimum:
        raise ValidationError(
            f"this command needs a 'higgs' block with at least {minimum} tangent(s)"
        )
    return point, tangents


def cmd_lambda(scenario: Scenario, args, report: Report):
    point, tangents = _require_higgs(scenario, 1, args)
    for k, t in enumerate(tangents):
        elapsed = _timer()
        value = liouville_lambda(point, t)
        report.add(
            f"lambda-{k:02d}", "pass", value=format_gauss(value), time_ms=elapsed()
        )


def cmd_omega(scenario: Scenario, args, report: Report):
    point, tangents = _require_higgs(scenario, 2, args)
    for a in range(len(tangents)):
        for b in range(a + 1, len(tangents)):
            elapsed = _timer()
            value = symplectic_omega(point, tangents[a], tangents[b])
            report.add(
                f"omega-{a:02d}-{b:02d}",
                "pass",
                value=format_gauss(value),
                time_ms=elapsed(),
            )


def _y_instance(scenario: Scenario, args):
    rng = SeedStream("instance", args.seed)
    point = scenario_point(scenario, rng)
    tangents = scenario_tangents(scenario, point, rng)
    if len(tangents) < 2:
        raise ValidationError("need two section tangents (y_tangents block)")
    return point, tangents


def cmd_pullback_omega(scenario: Scenario, args, report: Report):
    point, tangents = _y_instance(scenario, args)
    elapsed = _timer()
    value = pullback_omega(point, tangents[0], tangents[1])
    report.add("pullback-omega", "pass", value=format_gauss(value), time_ms=elapsed())


def cmd_check_theorem(scenario: Scenario, args, report: Report):
    point, tangents = _y_instance(scenario, args)
    elapsed = _timer()
    value = pullback_omega(point, tangents[0], tangents[1])
    report.add(
        "vanishing-pullback",
        "pass" if value.is_zero() else "fail",
        value=format_gauss(value),
        time_ms=elapsed(),
    )


def cmd_check_identity(scenario: Scenario, args, report: Report):
    point, tangents = _y_instance(scenario, args)
    elapsed = _timer()
    ident = identity_check(point, tangents[0], tangents[1])
    for i, res in enumerate(ident.residuals):
        report.add(
            f"identity-residual-{i:02d}",
            "pass" if res.is_zero() else "fail",
            value=res.to_text("u"),
        )
    report.add(
        "alpha-residue-sum",
        "pass" if ident.alpha_residue_sum.is_zero() else "fail",
        value=format_gauss(ident.alpha_residue_sum),
        time_ms=elapsed(),
    )
    report.add("disk-term-regular", "pass" if ident.disk_ok else "fail")


def cmd_check_cartan(scenario: Scenario, args, report: Report):
    point, tangents = _require_higgs(scenario, 2, args)
    pairs = [
        (tangents[a], tangents[b])
        for a in range(len(tangents))
        for b in range(a + 1, len(tangents))
    ]
    for k, (t1, t2) in enumerate(pairs):
        elapsed = _timer()
        res = cartan_check(point, t1, t2)
        report.add(
            f"cartan-{k:02d}",
            "pass" if res.ok else "fail",
            value=format_gauss(res.omega_value),
            detail=(
                f"terms {format_gauss(res.term1)}, {format_gauss(res.term2)}, "
                f"{format_gauss(res.term3)}"
            ),
            time_ms=elapsed(),
        )


def _trial_stats(records) -> list:
    """One row per record: its ``STATS_COLUMNS``, the rows, columns, rank
    and non-zeros read off its section system's ``counts``."""
    out = []
    for rec in records:
        values = {**vars(rec), **rec.system.counts}
        out.append({"trial": rec.index, **{name: values[name] for name in STATS_COLUMNS}})
    return out


def cmd_random_suite(scenario: Scenario, args, report: Report):
    elapsed = _timer()
    records = run_random_suite(scenario, args.seed, args.trials)
    for rec in records:
        status = "pass" if rec.ok else "fail"
        detail = (
            f"dim={rec.section_dim} attempts={rec.bundle_attempts} "
            f"identity={'ok' if rec.identity_ok else 'BROKEN'}"
        )
        if rec.vacuous and rec.ok:
            # a zero section passes every check, so it verifies nothing
            status = "info"
            detail = f"vacuous: section space of dimension 0 after {rec.bundle_attempts} bundles"
        if rec.residual_texts:
            detail += " residuals: " + "; ".join(rec.residual_texts)
        report.add(f"trial-{rec.index:03d}", status, value=format_gauss(rec.pullback), detail=detail)
    vacuous = sum(1 for r in records if r.vacuous)
    report.add(
        "all-pullbacks-zero",
        "pass" if all(r.pullback.is_zero() for r in records) else "fail",
        value=str(sum(1 for r in records if r.pullback.is_zero())),
        detail=f"of {len(records)} trials" + (f", {vacuous} vacuous" if vacuous else ""),
        time_ms=elapsed(),
    )
    report.add(
        "all-identities-hold",
        "pass" if all(r.identity_ok for r in records) else "fail",
    )
    if args.stats:
        report.stats = _trial_stats(records)


def cmd_corrupt_suite(scenario: Scenario, args, report: Report):
    elapsed = _timer()
    records = run_corrupt_suite(scenario, args.seed, args.trials)
    for rec in records:
        report.add(
            f"corrupt-{rec.index:03d}",
            "pass" if rec.detected else "fail",
            value=format_gauss(rec.omega),
            detail=f"validator-violations={rec.violations}",
        )
    report.add(
        "all-corruptions-detected",
        "pass" if all(r.detected for r in records) else "fail",
        value=str(sum(1 for r in records if r.detected)),
        detail=f"of {len(records)} trials",
        time_ms=elapsed(),
    )
    if args.stats:
        report.stats = _trial_stats(records)


_COMMANDS = {
    "validate": (cmd_validate, "verify curve and representation invariants"),
    "residue-sum": (cmd_residue_sum, "residue sums of the scenario's 1-forms"),
    "lambda": (cmd_lambda, "tautological-form values on Higgs tangents"),
    "omega": (cmd_omega, "pairing values on Higgs tangent pairs"),
    "pullback-omega": (cmd_pullback_omega, "the pairing pulled back to section data"),
    "check-identity": (cmd_check_identity, "per-point identity residuals"),
    "check-cartan": (cmd_check_cartan, "jet-based exterior-derivative consistency"),
    "check-theorem": (cmd_check_theorem, "assert the pullback vanishes"),
    "random-suite": (cmd_random_suite, "randomized vanishing suite"),
    "corrupt-suite": (cmd_corrupt_suite, "negative control suite"),
}


def _positive_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="higgsres",
        description="Exact residue verification of moment-map section data on P^1.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_, help_text) in _COMMANDS.items():
        p = sub.add_parser(name, help=help_text)
        p.add_argument("scenario", help="path to a scenario JSON file")
        p.add_argument("--seed", type=int, default=0, help="master seed (default 0)")
        p.add_argument(
            "--trials", type=_positive_int, default=20, help="number of randomized trials (>= 1)"
        )
        p.add_argument(
            "--format", choices=("text", "json"), default="text", dest="fmt"
        )
        p.add_argument(
            "--timing",
            action="store_true",
            help="include wall-clock timings (makes output nondeterministic)",
        )
        if name in ("random-suite", "corrupt-suite"):
            p.add_argument(
                "--stats",
                action="store_true",
                help="append per-trial section dimensions, bundle attempts, tangent "
                "retries and section-system rows, columns and rank, with totals",
            )
    return parser


def run(argv=None):
    """Dispatch a command line; returns (exit_code, report_or_None).

    The report is None when the scenario failed to parse or validate
    (exit codes 2 and 3); diagnostics go to stderr in that case.
    """
    args = build_parser().parse_args(argv)
    handler, _ = _COMMANDS[args.command]
    report = Report(
        command=args.command,
        scenario=args.scenario,
        seed=args.seed,
        show_timing=args.timing,
    )
    try:
        scenario = load_scenario(args.scenario)
        report.scenario = scenario.name
        handler(scenario, args, report)
    except (OSError, UnicodeDecodeError) as exc:
        # a missing file, a directory, an unreadable or non-UTF-8 file
        print(f"error: cannot read scenario: {exc}", file=sys.stderr)
        return EXIT_PARSE_ERROR, None
    except ParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return EXIT_PARSE_ERROR, None
    except ValidationError as exc:
        print(f"validation error: {exc}", file=sys.stderr)
        for v in exc.violations:
            print(f"  - {v}", file=sys.stderr)
        return EXIT_VALIDATION_ERROR, None
    except HiggsresError as exc:
        print(f"validation error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_VALIDATION_ERROR, None
    sys.stdout.write(report.to_json() if args.fmt == "json" else report.to_text())
    return report.exit_code, report


def main(argv=None) -> int:
    code, _ = run(argv)
    return code


if __name__ == "__main__":
    raise SystemExit(main())
