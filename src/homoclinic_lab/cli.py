"""Command-line front end.

Every subcommand prints a JSON document (default) or CSV (--format csv)
with the resolved configuration echoed back, to stdout or --out.  Exit
codes: 0 success, 1 a statistical or acceptance gate failed, 2 usage error.
Output is deterministic for fixed flags.
"""

import argparse
import csv
import dataclasses
from fractions import Fraction
import io
import json
import os
import sys

from . import acceptance, groups, montecarlo, rng, spectral, symbolic
from .groups import F2
from .homoclinic import Configuration
from .montecarlo import ExperimentConfig
from .ring import PolyF, RingElement, kernel_convolution, parse_ring_element


def _jobs(text):
    """A --jobs or HOMOCLINIC_LAB_JOBS value; anything but a positive
    integer is a usage error."""
    try:
        jobs = int(text)
    except ValueError:
        jobs = 0
    if jobs < 1:
        raise argparse.ArgumentTypeError(
            f"jobs must be a positive integer, got {text!r}")
    return jobs


def _emit(doc, args, csv_rows=None):
    """Write doc as JSON, or for --format csv the rows that csv_rows(), a
    callable, returns; the rows are built only for CSV."""
    fmt = getattr(args, "format", "json")
    if fmt == "csv":
        if csv_rows is None:
            print("this subcommand has no CSV form", file=sys.stderr)
            raise SystemExit(2)
        buf = io.StringIO()
        writer = csv.writer(buf)
        for row in csv_rows():
            writer.writerow(row)
        text = buf.getvalue()
    else:
        text = json.dumps(doc, indent=2) + "\n"
    out = getattr(args, "out", None)
    if out:
        with open(out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _doc(command, config, **payload):
    doc = {"schema": acceptance.SCHEMA, "command": command, "config": config}
    doc.update(payload)
    return doc


def _load_config_arg(args, group, default_window, default_alphabet):
    """Input configuration: --config FILE (JSON; '-' for stdin) holding a
    configuration of the given group, or a seeded random fill of the default
    window."""
    if args.config:
        if args.config == "-":
            raw = json.load(sys.stdin)
        else:
            with open(args.config) as fh:
                raw = json.load(fh)
        config = Configuration.from_json_dict(raw)
        if config.group != group:
            raise ValueError(f"--config holds a {config.group} configuration, "
                             f"this command reads {group}")
        return config
    lo, hi = default_alphabet
    ids = rng.element_ids(group, default_window)
    vals = rng.symbols(args.seed, 0, ids, hi - lo + 1)
    return Configuration(group, {s: int(v) + lo for s, v in
                                 zip(default_window, vals)}, (lo, hi))


def _cmd_patterns(args):
    rows = sorted(symbolic.allowed_patterns(args.M, args.range))
    doc = _doc("patterns", {"M": args.M, "range": args.range},
               count=len(rows), patterns=[list(r) for r in rows])
    _emit(doc, args, csv_rows=lambda: [("k", "l", "m")] + rows)
    return 0


def _cmd_trees(args):
    trees = symbolic.enumerate_trees(args.size)
    count = len(trees)
    config = {"size": args.size, "count_only": bool(args.count_only)}
    if args.count_only:
        _emit(_doc("trees", config, count=count), args,
              csv_rows=lambda: [("size", "count"), (args.size, count)])
        return 0
    trees = sorted(t.sorted_words() for t in trees)
    doc = _doc("trees", config, count=count, trees=trees)
    _emit(doc, args,
          csv_rows=lambda: [("words",)] + [(" ".join(t),) for t in trees])
    return 0


def _cmd_kernel(args):
    if args.radius < 0:
        raise ValueError("radius must be nonnegative")
    f = PolyF(args.M, args.group)
    window = groups.negative_monoid(args.group, args.radius)
    nums, den = kernel_convolution(f, {groups.identity(args.group): 1},
                                   window, star=True)
    ring = RingElement(args.group, {s: Fraction(n, den)
                                    for s, n in nums.items()})
    full = f.full_inverse_l1
    doc = _doc("kernel",
               {"M": args.M, "group": args.group, "radius": args.radius},
               partial_l1=str(full - f.tail_l1_beyond(args.radius)),
               full_l1=str(full),
               element=ring.to_json_dict())
    _emit(doc, args, csv_rows=lambda: [("w", "num", "den")] + [
        (t["w"], t["num"], t["den"]) for t in doc["element"]["terms"]])
    return 0


def _cmd_cover(args):
    symbolic.check_M(args.M)
    if args.radius < 0:
        raise ValueError("radius must be nonnegative")
    window = groups.ball(args.group, args.radius)
    d = _load_config_arg(args, args.group, window, (0, args.M))
    res = symbolic.reduce_cover(d, args.M)
    doc = _doc("cover",
               {"M": args.M, "group": args.group, "radius": args.radius,
                "seed": args.seed},
               output=res.config.to_json_dict(),
               carry=res.carry.to_json_dict(),
               spill={groups.format_element(d.group, s): v
                      for s, v in sorted(res.spill.items())})
    _emit(doc, args)
    return 0


def _cmd_tau(args):
    symbolic.check_M(args.M)
    window = groups.negative_monoid(F2, args.radius)
    d = _load_config_arg(args, F2, window, (0, args.M - 1))
    site = groups.parse_element(F2, args.site)
    config = {"M": args.M, "radius": args.radius, "site": args.site,
              "seed": args.seed}
    try:
        res = symbolic.carry_add(d, site, args.M)
    except symbolic.BoundaryOverflow as exc:
        _emit(_doc("tau", config, error="boundary overflow",
                   overflow_site=groups.format_element(F2, exc.site)), args)
        return 1
    _emit(_doc("tau", config, output=res.config.to_json_dict(),
               carry=res.carry.to_json_dict()), args)
    return 0


def _cmd_percolation(args):
    if args.ones or not args.config:
        window = groups.ball(F2, args.radius)
        c = Configuration(F2, {s: 1 for s in window}, (-1, 1))
    else:
        c = _load_config_arg(args, F2, groups.ball(F2, args.radius), (-1, 1))
    start = groups.parse_element(F2, args.start)
    rep = symbolic.percolation_path(c, start, args.n, args.M)
    doc = _doc("percolation",
               {"M": args.M, "n": args.n, "start": args.start,
                "ones": bool(args.ones), "radius": args.radius},
               path=rep["path"], steps=rep["steps"])
    _emit(doc, args)
    return 0


def _cmd_fourier(args):
    f = PolyF(args.M, args.group)
    g = parse_ring_element(args.g, group=args.group)
    verdict = spectral.rational_witness(g, f)
    member = isinstance(verdict, RingElement)
    radius = (args.radius if args.radius is not None
              else spectral.auto_radius(g, verdict))
    value = spectral.mu_hat(g, f, radius)
    doc = _doc("fourier",
               {"M": args.M, "group": args.group, "g": args.g,
                "radius": radius})
    doc["zero"] = value == 0
    doc["witness"] = None if member else verdict.to_json_dict(args.group)
    doc["member"] = member
    doc["mu_hat"] = spectral.value_json(value)
    if member:
        doc["quotient"] = verdict.to_json_dict()
    _emit(doc, args)
    return 0


def _cmd_divide(args):
    f = PolyF(args.M, args.group)
    g = parse_ring_element(args.g, group=args.group)
    verdict = spectral.rational_witness(g, f)
    member = isinstance(verdict, RingElement)
    doc = _doc("divide", {"M": args.M, "group": args.group, "g": args.g},
               divisible=member,
               quotient=verdict.to_json_dict() if member else None,
               witness=None if member else verdict.to_json_dict(args.group))
    _emit(doc, args)
    return 0


def _experiment_command(run, csv_rows=None):
    """A subcommand emitting run(cfg, args) with the schema, and
    csv_rows(report) as its CSV form if given; cfg takes --radius, if the
    subcommand has it, as its sample radius and the flags named like
    ExperimentConfig fields, its defaults for the rest."""
    def command(args):
        flags = {field.name for field in dataclasses.fields(ExperimentConfig)}
        if "radius" in args:
            args.sample_radius = args.radius
        cfg = ExperimentConfig(**{
            name: value for name, value in vars(args).items() if name in flags})
        rep = run(cfg, args)
        rep["schema"] = acceptance.SCHEMA
        _emit(rep, args,
              csv_rows=(lambda: csv_rows(rep)) if csv_rows else None)
        return 0 if rep["passed"] else 1
    return command


def _haar_rows(rep):
    return [("site", "bin", "count")] + [
        (c["site"], b, n) for c in rep["coordinates"]
        for b, n in enumerate(c["histogram"])]


def _cmd_report(args):
    rep = acceptance.run_all(seed=args.seed, jobs=args.jobs)
    _emit(rep, args, csv_rows=lambda: [("number", "name", "passed")] + [
        (c["number"], c["name"], c["passed"]) for c in rep["criteria"]])
    return 0 if rep["passed"] else 1


_FLAGS = {
    "M": lambda p: p.add_argument("--M", type=int, default=3),
    "group": lambda p: p.add_argument(
        "--group", choices=[groups.F2, groups.Z2], default=groups.F2),
    "config": lambda p: p.add_argument(
        "--config", help="input configuration JSON ('-' = stdin)"),
    "seed": lambda p: p.add_argument(
        "--seed", type=int, default=acceptance.DEFAULT_SEED),
    "samples": lambda p: p.add_argument("--samples", type=int, default=10_000),
    # absent, these take ExperimentConfig's defaults
    "eval-radius": lambda p: p.add_argument(
        "--eval-radius", dest="eval_radius", type=int,
        default=argparse.SUPPRESS),
    "bins": lambda p: p.add_argument("--bins", type=int,
                                     default=argparse.SUPPRESS),
    # a string default goes through _jobs too, when the flag is not given
    "jobs": lambda p: p.add_argument(
        "--jobs", type=_jobs,
        default=os.environ.get("HOMOCLINIC_LAB_JOBS") or "1"),
}


def _command(sub, name, help, fn, *flags, radius=None):
    """The subcommand name running fn, with --format, --out, the named
    flags and --radius when a default is given: each subcommand gets only
    the flags it reads, so a flag it would ignore is a usage error.
    Returns the parser, for the subcommand's own arguments."""
    p = sub.add_parser(name, help=help)
    p.add_argument("--format", choices=["json", "csv"], default="json")
    p.add_argument("--out")
    for flag in flags:
        _FLAGS[flag](p)
    if radius is not None:
        p.add_argument("--radius", type=int, default=radius)
    p.set_defaults(fn=fn)
    return p


def build_parser():
    top = argparse.ArgumentParser(
        prog="homoclinic-lab",
        description="Exact and statistical experiments on the principal "
                    "algebraic action of f = M - a - b")
    sub = top.add_subparsers(dest="command", required=True)

    p = _command(sub, "patterns", "allowed local SFT patterns", _cmd_patterns,
                 "M")
    p.add_argument("--range", type=int, default=2)

    p = _command(sub, "trees", "enumerate carry trees", _cmd_trees)
    p.add_argument("--size", type=int, required=True)
    p.add_argument("--count-only", action="store_true", dest="count_only")

    _command(sub, "kernel", "truncated kernel coefficients", _cmd_kernel,
             "M", "group", radius=4)
    _command(sub, "cover", "reduce a window to the M-letter alphabet",
             _cmd_cover, "M", "group", "config", "seed", radius=3)

    p = _command(sub, "tau", "add one at a site and carry", _cmd_tau,
                 "M", "config", "seed", radius=6)
    p.add_argument("--site", default="")

    p = _command(sub, "percolation", "forced path in a difference "
                 "configuration", _cmd_percolation, "M", "config", radius=4)
    p.add_argument("--ones", action="store_true",
                   help="use the all-ones configuration")
    p.add_argument("--start", default="")
    p.add_argument("--n", type=int, default=2)

    p = _command(sub, "fourier", "certified transform value at a character",
                 _cmd_fourier, "M", "group")
    p.add_argument("--g", required=True, help="ring element, e.g. '1 + a'")
    p.add_argument("--radius", type=int, default=None)

    p = _command(sub, "divide", "exact division by f with witness",
                 _cmd_divide, "M", "group")
    p.add_argument("--g", required=True)

    _command(sub, "haar-test", "coordinate uniformity experiment",
             _experiment_command(
                 lambda cfg, args: montecarlo.haar_window_test(
                     cfg, jobs=args.jobs), _haar_rows),
             "M", "group", "seed", "samples", "eval-radius", "bins", "jobs",
             radius=12)
    _command(sub, "tau-test", "carry invariance experiment",
             _experiment_command(
                 lambda cfg, args: montecarlo.tau_invariance_test(cfg)),
             "M", "seed", "samples", "eval-radius", radius=14)
    # collisions folds from pair depth 8 to 14 whatever the sample radius,
    # so it takes no --radius
    _command(sub, "collisions", "parametrization collision search",
             _experiment_command(
                 lambda cfg, args: montecarlo.collision_search(cfg)),
             "M", "group", "seed", "samples", "eval-radius")
    _command(sub, "report", "run the full acceptance suite", _cmd_report,
             "seed", "jobs")
    return top


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except (OSError, ValueError, spectral.RadiusInsufficient) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
