"""Command line interface.

    slemma validate <file>
    slemma classify <file> [--seed S] [--samples N] [--box R] [--tol T]
    slemma certificate <file> [--method p1|separation]
    slemma counterexample <file>
    slemma geometry <file> [--export cloud.txt]
    slemma farkas <file>
    slemma conjecture-scan --count C --dim n --seed S
    slemma verify <file> --alpha a1,...,ap

Exit codes: 0 definitive verdict or clean report, 2 undetermined,
1 usage or I/O error, 3 numerical failure.

The flags `--box`, `--samples`, `--seed` and `--tol` come from
`problem.SETTINGS` and override the file's `config`, and
`problem.check_setting` checks both, as it checks `conjecture-scan`'s
`--seed`.  The `command:` line of a command that takes them echoes all
four as the run used them.  A handler loads
the problem, runs `implication`'s stage functions (the ones `classify`
runs) or, for `verify`, the one multiplier check, renders the report and
maps the exit code.  `certificate --method p1` runs classify's certificate stage, and
`--method separation` its separation route.
"""

import argparse
import contextlib
import functools
import sys

import numpy as np

from . import certificate as cert_mod
from . import farkas as farkas_mod
from . import geometry, report
from .errors import NotConverged, NumericalBreakdown, SlemmaError
from .implication import (UNDETERMINED, ClassifyConfig, certificate_stage,
                          classify_instance, counterexample_stage,
                          image_cloud, image_geometry, separation_stage)
from .problem import SETTINGS, ParseError, check_setting, load_problem
from .report import Report, command_line
from .rng import derive_seed

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_UNDETERMINED = 2
EXIT_NUMERICAL = 3


def _config_from(pf, args):
    """File config with the given flags on top, each value checked."""
    cfg = ClassifyConfig()
    flags = vars(args)
    for setting in SETTINGS:
        value = flags.get(setting.flag)
        if value is None:
            value = pf.config.get(setting.key)
        if value is not None:
            setattr(cfg, setting.field, check_setting(setting, value))
    return cfg


def _load(args):
    """(problem file, its system, the config with the flags applied)."""
    pf = load_problem(args.file)
    return pf, pf.system(), _config_from(pf, args)


def _echo_command(args, pf, cfg):
    """The command line of the run: the file, `certificate`'s method and,
    for a command that takes the search flags, each search setting as the
    run used it, so a sampled claim names its N, R and seed."""
    parts = ["slemma", args.command, pf.path or "<file>"]
    if args.command == "certificate":
        parts += ["--method", args.method]
    if "tol" in vars(args):
        parts += ["--seed", cfg.seed, "--samples", cfg.samples,
                  "--box", cfg.box_radius, "--tol", cfg.psd_tol]
    return command_line(*parts)


def cmd_validate(args, out):
    pf = load_problem(args.file)
    system = pf.system()
    rep = Report("problem file")
    report.describe_instance(rep, pf, system)
    rep.add("all_linear", system.is_linear())
    for idx, entry in enumerate(pf.entries):
        kind = next(iter(entry))
        block = rep.add_block(f"f{idx}")
        block.add("kind", kind)
        if kind == "expr":
            block.add("source", entry["expr"])
        elif kind == "quadratic":
            block.add("Q", np.array(entry["quadratic"]["Q"], dtype=float))
            block.add("c", np.array(entry["quadratic"]["c"], dtype=float))
            block.add("d", float(entry["quadratic"]["d"]))
        else:
            block.add("a", np.array(entry["linear"]["a"], dtype=float))
            block.add("b", float(entry["linear"]["b"]))
    if pf.config:
        rep.add_block("config", sorted(pf.config.items()))
    out.write(rep.render(args.json))
    return EXIT_OK


def cmd_classify(args, out):
    pf, system, cfg = _load(args)
    result = classify_instance(system, cfg)
    command = _echo_command(args, pf, cfg)
    rep = report.classify_report(pf, system, result, command)
    out.write(rep.render(args.json))
    if result.verdict == UNDETERMINED:
        return EXIT_UNDETERMINED
    return EXIT_OK


def cmd_certificate(args, out):
    pf, system, cfg = _load(args)
    rep = Report("certificate search")
    rep.add("command", _echo_command(args, pf, cfg))
    report.describe_instance(rep, pf, system)
    rep.add("method", args.method)

    notes, alternative = [], None
    if args.method == "separation":
        search = separation_stage(system, cfg, image_cloud(system, cfg))
        detail = {"outcome": search.outcome, "rounds": search.rounds,
                  "alpha0": search.alpha0}
    else:
        search, notes, _ = certificate_stage(system, cfg)
        alternative = search.witness
        detail = {"best_alpha": search.best_alpha,
                  "best_lambda_min": search.best_lambda_min,
                  "upper_bound": search.upper_bound}
    cert = search.certificate

    report.certificate_block(rep, cert)
    for key, value in detail.items():
        if value is not None:
            rep.add(key, value)
    if notes:
        rep.add("notes", list(notes))
    if alternative is not None:
        rep.add("alternative_x", alternative)
    if args.save and cert is not None:
        with open(args.save, "w", encoding="utf-8") as handle:
            handle.write(cert_mod.format_certificate(cert))
        rep.add("saved", args.save)
    out.write(rep.render(args.json))
    return EXIT_OK if cert is not None else EXIT_UNDETERMINED


def cmd_counterexample(args, out):
    pf, system, cfg = _load(args)
    result = counterexample_stage(system, cfg)
    rep = Report("counterexample search")
    rep.add("command", _echo_command(args, pf, cfg))
    report.describe_instance(rep, pf, system)
    report.counterexample_block(rep, result)
    out.write(rep.render(args.json))
    return EXIT_OK if result.found else EXIT_UNDETERMINED


def cmd_geometry(args, out):
    pf, system, cfg = _load(args)
    cloud, ev, image_falsify = image_geometry(system, cfg)
    rep = Report("image-set geometry")
    rep.add("command", _echo_command(args, pf, cfg))
    report.describe_instance(rep, pf, system)
    cloud_block = rep.add_block("cloud")
    cloud_block.add("size", cloud.size)
    cloud_block.add("box_radius", cloud.box_radius)
    cloud_block.add("seed", cloud.seed)
    cloud_block.add("skipped", cloud.skipped)
    rep.add("image_points_in_k", ev.k_members)
    report.hull_block(rep, ev.hull)
    report.separator_block(rep, ev.hull.separator)
    report.falsify_block(rep, image_falsify, "image_convexity_falsifier")
    report.falsify_block(rep, ev.epi_falsify, "epi_convexity_falsifier")
    report.falsify_block(rep, ev.conical_falsify,
                         "conical_convexity_falsifier")
    if args.export:
        geometry.export_cloud(cloud, args.export)
        rep.add("exported", args.export)
    out.write(rep.render(args.json))
    return EXIT_OK


def cmd_farkas(args, out):
    pf, system, cfg = _load(args)
    if not system.is_linear():
        raise ParseError(
            "the linear alternatives need every function to be affine: "
            "a linear entry, or a quadratic entry with Q = 0")
    data = farkas_mod.linear_data(system)
    result = farkas_mod.solve(data)
    residuals = farkas_mod.verify_farkas(data, result)
    rep = report.farkas_report(pf, data, result, residuals,
                               _echo_command(args, pf, cfg))
    out.write(rep.render(args.json))
    return EXIT_OK if result.kind != farkas_mod.INCONSISTENT else \
        EXIT_UNDETERMINED


def cmd_conjecture_scan(args, out):
    seed = check_setting(next(s for s in SETTINGS if s.flag == "seed"),
                         args.seed)
    try:
        scan = geometry.conjecture_scan(args.count, args.dim, seed)
    except ValueError as exc:       # the scan's own argument check
        raise ParseError(str(exc)) from None
    command = (f"slemma conjecture-scan --count {args.count} "
               f"--dim {args.dim} --seed {args.seed}")
    rep = report.conjecture_report(scan, command)
    out.write(rep.render(args.json))
    return EXIT_OK


def cmd_verify(args, out):
    pf, system, cfg = _load(args)
    if (args.alpha is None) == (args.certificate is None):
        raise ParseError("verify needs one of --alpha and --certificate")
    if args.alpha is not None:
        try:
            alpha = np.array([float(v) for v in args.alpha.split(",")]) \
                if args.alpha.strip() else np.zeros(0)
        except ValueError:
            raise ParseError(f"--alpha expects comma-separated numbers, "
                             f"got {args.alpha!r}") from None
        source = f"--alpha {args.alpha}"
    else:
        try:
            with open(args.certificate, encoding="utf-8") as handle:
                alpha = cert_mod.parse_certificate(handle.read())
        except ValueError as exc:
            raise ParseError(str(exc)) from exc
        source = f"--certificate {args.certificate}"
    rep = Report("certificate verification")
    rep.add("command", f"{_echo_command(args, pf, cfg)} {source}")
    report.describe_instance(rep, pf, system)
    rep.add("alpha", alpha)
    check = cert_mod.check_multipliers(
        system, alpha, tol=cfg.psd_tol, radius=cfg.box_radius,
        samples=cfg.samples, seed=derive_seed(cfg.seed, 13))
    if check.label == cert_mod.EXACT_PSD:
        rep.add("verdict", "Valid" if check.valid else "Invalid")
        rep.add("lambda_min", check.lambda_min)
        if check.violating_x is not None:
            rep.add("violating_x", check.violating_x)
        elif check.direction is not None:
            rep.add("violating_direction", check.direction)
    else:
        rep.add("verdict", "NoViolation (sampled only)" if check.valid
                else "Violated")
        rep.add("min_observed", check.value)
        if check.violating_x is not None:
            rep.add("x", check.violating_x)
    out.write(rep.render(args.json))
    return EXIT_OK


@functools.cache
def build_parser():
    parser = argparse.ArgumentParser(
        prog="slemma",
        description="S-procedure verification toolkit: certificates, "
                    "counterexamples, and image-set geometry.")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, with_search_flags=False):
        p.add_argument("--json", action="store_true",
                       help="machine-readable report")
        if with_search_flags:
            for setting in SETTINGS:
                if setting.flag:
                    p.add_argument(f"--{setting.flag}", type=setting.kind,
                                   default=None)

    p = sub.add_parser("validate", help="parse and report the instance")
    p.add_argument("file")
    add_common(p)

    p = sub.add_parser("classify", help="full instance classification")
    p.add_argument("file")
    add_common(p, with_search_flags=True)

    p = sub.add_parser("certificate", help="certificate search only")
    p.add_argument("file")
    p.add_argument("--method", choices=["p1", "separation"], default="p1")
    p.add_argument("--save", default=None, metavar="cert.txt",
                   help="write the found certificate in its text form")
    add_common(p, with_search_flags=True)

    p = sub.add_parser("counterexample", help="counterexample search only")
    p.add_argument("file")
    add_common(p, with_search_flags=True)

    p = sub.add_parser("geometry",
                       help="cloud, cone and hull tests, falsifiers")
    p.add_argument("file")
    p.add_argument("--export", default=None, metavar="cloud.txt")
    add_common(p, with_search_flags=True)

    p = sub.add_parser("farkas", help="linear alternatives")
    p.add_argument("file")
    add_common(p)

    p = sub.add_parser("conjecture-scan",
                       help="scan random quadratic triples for non-convex "
                            "upper sets")
    p.add_argument("--count", type=int, required=True)
    p.add_argument("--dim", type=int, required=True)
    p.add_argument("--seed", type=int, required=True)
    add_common(p)

    p = sub.add_parser("verify", help="verify a user-supplied certificate")
    p.add_argument("file")
    p.add_argument("--alpha", default=None,
                   help="comma-separated multipliers a1,...,ap")
    p.add_argument("--certificate", default=None, metavar="cert.txt",
                   help="read the multipliers from a saved certificate")
    add_common(p, with_search_flags=True)
    return parser


_HANDLERS = {
    "validate": cmd_validate,
    "classify": cmd_classify,
    "certificate": cmd_certificate,
    "counterexample": cmd_counterexample,
    "geometry": cmd_geometry,
    "farkas": cmd_farkas,
    "conjecture-scan": cmd_conjecture_scan,
    "verify": cmd_verify,
}


def main(argv=None, out=None, err=None):
    out = out or sys.stdout
    err = err or sys.stderr
    parser = build_parser()
    try:
        # argparse prints --help, usage and its errors on sys.stdout and
        # sys.stderr; they belong on out and err
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else EXIT_OK
    try:
        return _HANDLERS[args.command](args, out)
    except (ParseError, OSError) as exc:
        err.write(f"error: {exc}\n")
        return EXIT_USAGE
    except (NumericalBreakdown, NotConverged) as exc:
        err.write(f"numerical failure: {exc}\n")
        return EXIT_NUMERICAL
    except SlemmaError as exc:
        err.write(f"error: {exc}\n")
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
