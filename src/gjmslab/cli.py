"""Command-line front end: computations, probes, and the verify suite (gjmslab.checks).

Subcommands: eigenvalues | sharp-constant | minimize | solve | probe | verify
| sweep.  Options can also come from a plain key=value config file
(--config).  Each line is parsed as the flag --key=value, so config values
are checked exactly like flags, a config run reports the same bytes as the
same options given as flags, and explicit flags win; the --p and --f of
solve and probe exclude each other, also across the file.  Exit codes: 0
success, 2 usage/config error (including inputs outside the mathematical
domain or past the double range, and K >= Q), 3 numerical check failure, 4
internal inconsistency.

Argparse types parse every option value, comma lists and a:p terms included.
One function builds every JSON report: it echoes the parsed options as
inputs (the plumbing, such as --out and --config, aside), then the results
with their tolerances and a provenance block; with a fixed seed two runs
differ only in the wall-time field.  Tables, the --trace-out trace included,
are RFC-4180 CSV with LF line ends and repr-formatted floats, so they
re-parse to identical values.  An output path that cannot be written is a
usage error.

Each subcommand imports the modules it uses when it runs.  At module level
this file needs only gjmslab.closed_forms and gjmslab.errors, so
sharp-constant, sweep with --starts 0 (the default), --help and --version
load no numpy; eigenvalues loads spectral and kernels, solve and probe load
spectral, conformal and lane_emden, minimize loads spectral, conformal and
rayleigh, and only verify loads checks, which loads all but rayleigh.
"""

from __future__ import annotations

import argparse
import csv
import functools
import io
import json
import math
import sys
import time
from typing import TYPE_CHECKING

from . import __version__
from .closed_forms import SphereParams, gjms_lambda0, in_double_range, sharp_constant
from .errors import AliasingError, DomainError, InconsistencyError, ToolkitError

if TYPE_CHECKING:
    from .lane_emden import Nonlinearity
    from .spectral import Workspace, ZonalFunction

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_NUMERICAL = 3
EXIT_INCONSISTENT = 4


class UsageError(Exception):
    pass


# ---------------------------------------------------------------------------
# option plumbing: argparse types, config files, output


def _floats(text: str) -> list[float]:
    """Comma-separated numbers; blank entries are skipped."""
    try:
        return [float(tok) for tok in text.split(",") if tok.strip()]
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected comma-separated numbers, got {text.strip()!r}"
        ) from None


def _ints(text: str) -> list[int]:
    values = _floats(text)
    if not all(math.isfinite(v) and v == int(v) for v in values):
        raise argparse.ArgumentTypeError(f"expected comma-separated integers, got {text!r}")
    return [int(v) for v in values]


def _terms(text: str) -> list[tuple[float, float]] | None:
    """A right-hand side given as 'a1:p1,a2:p2'; an empty string gives none."""
    if not text:
        return None
    terms = []
    for i, tok in enumerate(t for t in text.split(",") if t.strip()):
        parts = tok.split(":")
        if len(parts) != 2:
            raise argparse.ArgumentTypeError(f"term {i + 1}: expected a:p, got {tok!r}")
        try:
            terms.append((float(parts[0]), float(parts[1])))
        except ValueError:
            raise argparse.ArgumentTypeError(
                f"term {i + 1}: non-numeric entry in {tok!r}"
            ) from None
    return terms


def _seed(text: str) -> int:
    """A numpy seed, which is a nonnegative integer."""
    try:
        seed = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if seed < 0:
        raise argparse.ArgumentTypeError(f"--seed must be >= 0, got {seed}")
    return seed


def read_config(path: str) -> dict:
    """Plain key=value file; '#' starts a comment, keys use flag names."""
    values = {}
    try:
        with open(path) as fh:
            lines = fh.readlines()
    except OSError as exc:
        raise UsageError(f"cannot read config {path}: {exc}") from exc
    for lineno, raw in enumerate(lines, start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise UsageError(f"{path}:{lineno}: expected key=value, got {line!r}")
        key, value = line.split("=", 1)
        key = key.strip().replace("-", "_")
        if not key:
            raise UsageError(f"{path}:{lineno}: empty key")
        values[key] = value.strip()
    return values


def _emit(text: str, out: str | None) -> None:
    if not out:
        sys.stdout.write(text)
        return
    try:
        with open(out, "w") as fh:
            fh.write(text)
    except OSError as exc:
        raise UsageError(f"cannot write {out}: {exc}") from exc


def _csv_table(header: list[str], rows: list) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    for row in rows:
        writer.writerow([repr(v) if isinstance(v, float) else v for v in row])
    return buf.getvalue()


#: parsed options that route the run and shape no number, so no report echoes them
_PLUMBING = frozenset({"command", "config", "func", "out", "format", "trace_out", "started"})


def _report(args, results: dict, Q: int | None = None, /, **inputs) -> str:
    """JSON report text: the options as `inputs`, then `results` and provenance.

    `inputs` echoes every parsed option but the plumbing; keyword entries
    replace echoed values, and an entry that is None is dropped.  Provenance
    takes seed and K from the options, and Q, the node count of the rule the
    results came from, from the caller.  A NaN or infinite number, which
    JSON cannot hold, raises ToolkitError (exit 3).
    """
    inputs = {**{k: v for k, v in vars(args).items() if k not in _PLUMBING}, **inputs}
    report = {
        "command": args.command,
        "inputs": {k: v for k, v in inputs.items() if v is not None},
        "results": results,
        "provenance": {
            "toolkit_version": __version__,
            "wall_time_s": time.time() - args.started,
            "seed": getattr(args, "seed", None),
            "K": getattr(args, "K", None),
            "Q": Q,
        },
    }
    try:
        return json.dumps(report, sort_keys=True, indent=2, allow_nan=False) + "\n"
    except ValueError as exc:
        raise ToolkitError(f"the {args.command} report holds a non-finite number") from exc


def _table(args, header: list[str], rows: list, **results) -> None:
    """Emit rows as CSV, or as the `rows` of a JSON report beside `results`."""
    if args.format == "csv":
        _emit(_csv_table(header, rows), args.out)
    else:
        rows = [dict(zip(header, row)) for row in rows]
        _emit(_report(args, {"rows": rows, **results}), args.out)


def _nonlinearity(args, params: SphereParams) -> Nonlinearity:
    from .lane_emden import Nonlinearity

    if args.f is not None:
        return Nonlinearity.from_terms(args.f, params)
    if args.p is not None:
        return Nonlinearity.single_power(1.0, args.p, params)
    raise UsageError("provide a right-hand side via --f or --p")


# ---------------------------------------------------------------------------
# subcommands


def cmd_eigenvalues(args) -> int:
    from .kernels import IDENTITY_TOLERANCE, funk_hecke_spectrum, green_constant
    from .spectral import gjms_eigenvalues

    params = SphereParams(n=args.n, m=args.m)
    spec = gjms_eigenvalues(params, args.K)
    kernel = funk_hecke_spectrum(params, args.K)
    gc = green_constant(params, kernel=kernel, gjms=spec)
    rows = [
        [k, float(spec.lam[k]), float(kernel.mu[k]), float(gc.g_mn * kernel.mu[k] * spec.lam[k])]
        for k in range(args.K + 1)
    ]
    header = ["k", "lambda", "mu", "g_mu_lambda"]
    _table(args, header, rows, g_mn=gc.g_mn, c_n=gc.c_n, identity_tolerance=IDENTITY_TOLERANCE)
    return EXIT_OK


def cmd_sharp_constant(args) -> int:
    rows = [[args.m, args.n, p, sharp_constant(args.m, args.n, p)] for p in args.p]
    _table(args, ["m", "n", "p", "sharp_constant"], rows)
    return EXIT_OK


def cmd_minimize(args) -> int:
    from .rayleigh import OptimizerConfig, minimize as minimize_quotient
    from .spectral import default_rule_size

    if args.p is None:
        raise UsageError("minimize needs --p (flag or config)")
    cfg = OptimizerConfig(
        params=SphereParams(n=args.n, m=args.m),
        p=args.p,
        K=args.K,
        starts=args.starts,
        seed=args.seed,
        tol_grad=args.tol,
        max_iter=args.max_iter,
    )
    result = minimize_quotient(cfg)
    if args.trace_out:
        _emit(_csv_table(["iter", "value", "grad_norm"], result.trace), args.trace_out)
    S = sharp_constant(args.m, args.n, args.p)
    results = {
        "minimization": result.to_dict(),
        "sharp_constant": S,
        "relative_error": abs(result.value / S - 1.0),
    }
    Q = default_rule_size(args.K)
    _emit(_report(args, results, Q, tol=None, tol_grad=args.tol), args.out)
    return EXIT_OK


def _solve_initial(args, f: Nonlinearity, ws: Workspace, c_star: float | None) -> ZonalFunction:
    import numpy as np

    from .conformal import bubble_on_sphere
    from .lane_emden import probe_start
    from .spectral import ZonalFunction

    choice = args.init
    params, K = ws.params, ws.K
    base = c_star if (c_star is not None and c_star > 0) else 1.0
    if choice == "constant":
        c = np.zeros(K + 1)
        c[0] = base * math.sqrt(params.area)
        return ZonalFunction(params, c)
    if choice.startswith("bubble:"):
        try:
            lam = float(choice.split(":", 1)[1])
        except ValueError as exc:
            raise UsageError(f"--init bubble:LAM needs a number, got {choice!r}") from exc
        u = bubble_on_sphere(lam, ws)
        # scaled so the bubble family solves the unit-coefficient critical power
        p_max = f.max_exponent
        scale = 1.0
        if p_max > 1.0:
            lam0_scaled = gjms_lambda0(args.m, args.n) * 2.0 ** (2 * args.m)
            scale = in_double_range(pow)(lam0_scaled, 1.0 / (p_max - 1.0))
        return ZonalFunction(params, scale * u.coeffs)
    if choice == "random":
        return probe_start(ws, base, np.random.default_rng([args.seed, 0]))
    raise UsageError(f"unknown --init {choice!r}; use constant, bubble:LAM, or random")


def cmd_solve(args) -> int:
    from .lane_emden import constant_solution, solve_newton
    from .spectral import Workspace

    params = SphereParams(n=args.n, m=args.m)
    f = _nonlinearity(args, params)
    ws = Workspace.shared(params, args.K, args.Q or None)
    c_star = constant_solution(args.m, args.n, f)
    init = _solve_initial(args, f, ws, c_star)
    result = solve_newton(
        args.m, args.n, f, init, tol=args.tol, max_iter=args.max_iter, workspace=ws
    )
    results = {
        "solve": result.to_dict(),
        "constant_solution": c_star,
        "tolerance": args.tol,
    }
    Q = len(ws.nodes)
    inputs = {"p": None, "f": f.describe(), "classification": f.classification, "Q": Q}
    _emit(_report(args, results, Q, **inputs), args.out)
    return EXIT_OK


def cmd_probe(args) -> int:
    from .lane_emden import uniqueness_probe
    from .spectral import default_rule_size

    f = _nonlinearity(args, SphereParams(n=args.n, m=args.m))
    report = uniqueness_probe(
        args.m, args.n, f, trials=args.trials, seed=args.seed, K=args.K, tol=args.tol
    )
    results = {"probe": report.to_dict(), "tolerance": args.tol}
    _emit(_report(args, results, default_rule_size(args.K), p=None, f=f.describe()), args.out)
    return EXIT_OK


def cmd_sweep(args) -> int:
    if args.starts > 0:
        from .rayleigh import MIN_EXPONENT_GAP, OptimizerConfig, minimize as minimize_quotient

    rows = []
    for m in args.m:
        for n in args.n:
            for p in args.p:
                try:
                    params = SphereParams(n=n, m=m)
                    S = sharp_constant(m, n, p)
                except DomainError:
                    continue
                row = [m, n, p, S]
                if args.starts > 0:
                    # the optimizer needs the open exponent range; boundary
                    # points keep their closed-form column with blank cells
                    if 2.0 + MIN_EXPONENT_GAP < p < params.critical_norm_exponent:
                        cfg = OptimizerConfig(
                            params=params, p=p, K=args.K, starts=args.starts, seed=args.seed
                        )
                        res = minimize_quotient(cfg)
                        row.extend([res.value, abs(res.value / S - 1.0)])
                    else:
                        row.extend(["", ""])
                rows.append(row)
    header = ["m", "n", "p", "sharp_constant"]
    if args.starts > 0:
        header += ["minimize_value", "relative_error"]
    _emit(_csv_table(header, rows), args.out)
    return EXIT_OK


# ---------------------------------------------------------------------------
# verification suite


def cmd_verify(args) -> int:
    from .checks import verify_checks
    from .spectral import default_rule_size

    rows = verify_checks(args.m, args.n, args.K, args.seed, args.trials)
    all_pass = all(passed for *_, passed in rows)
    if args.format == "json":
        checks = [dict(zip(("name", "margin", "tolerance", "passed"), row)) for row in rows]
        text = _report(args, {"checks": checks, "passed": all_pass}, default_rule_size(args.K))
    else:
        lines = [f"{'check':34s} {'margin':>12s} {'tolerance':>12s} {'status':>8s}"]
        for name, margin, tol, passed in rows:
            lines.append(
                f"{name:34s} {margin:12.3e} {tol:12.3e} {'pass' if passed else 'FAIL':>8s}"
            )
        lines.append(f"{'overall':34s} {'':12s} {'':12s} {'pass' if all_pass else 'FAIL':>8s}")
        text = "\n".join(lines) + "\n"
    _emit(text, args.out)
    return EXIT_OK if all_pass else EXIT_NUMERICAL


# ---------------------------------------------------------------------------
# parser


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gjmslab",
        description="Zonal spectral toolkit for conformal operators on round spheres.",
        allow_abbrev=False,
    )
    parser.add_argument("--version", action="version", version=f"gjmslab {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    # an abbreviated flag would run from the command line but not from a config file
    add_parser = functools.partial(sub.add_parser, allow_abbrev=False)
    newton_tol_help = (
        "relative Newton stop ||res / Lambda|| <= tol ||c|| on P u = f(u+), "
        "u+ = max(u, 0) (default %(default)g)"
    )

    def common(p, m=True, n=True, K=None, seed=False, tol=None, tol_help=None, fmt=None):
        p.add_argument("--config", help="key=value option file; explicit flags win")
        if m:
            p.add_argument("--m", type=int, required=False, default=1)
        if n:
            p.add_argument("--n", type=int, required=False, default=3)
        if K is not None:
            p.add_argument("--K", type=int, default=K)
        if seed:
            p.add_argument("--seed", type=_seed, default=0)
        if tol is not None:
            p.add_argument("--tol", type=float, default=tol, help=tol_help)
        p.add_argument("--out", help="output path (default stdout)")
        if fmt:
            p.add_argument("--format", choices=fmt, default=fmt[0])

    def rhs(p):
        # not required: main parses once before it adds the config file
        group = p.add_mutually_exclusive_group()
        group.add_argument("--p", type=float, help="single-power right-hand side u^p")
        group.add_argument("--f", type=_terms, help="general right-hand side 'a1:p1,a2:p2'")

    p = add_parser("eigenvalues", help="operator and kernel spectra with the inverse identity")
    common(p, K=32, fmt=("csv", "json"))
    p.set_defaults(func=cmd_eigenvalues)

    p = add_parser("sharp-constant", help="closed-form sharp constants over a p grid")
    common(p, fmt=("csv", "json"))
    p.add_argument("--p", type=_floats, default="", help="comma-separated exponents (may be empty)")
    p.set_defaults(func=cmd_sharp_constant)

    p = add_parser("minimize", help="multistart quotient minimization")
    common(p, K=32, seed=True, tol=1e-9, fmt=("json",))
    p.add_argument("--p", type=float, default=None, help="norm exponent (required here or in config)")
    p.add_argument("--starts", type=int, default=20)
    p.add_argument("--max-iter", type=int, default=2000)
    p.add_argument("--trace-out", help="CSV path for the convergence trace")
    p.set_defaults(func=cmd_minimize)

    p = add_parser("solve", help="one damped Newton solve")
    common(p, K=32, seed=True, tol=1e-12, tol_help=newton_tol_help, fmt=("json",))
    rhs(p)
    p.add_argument("--Q", type=int, default=0, help="quadrature size (default 2K+8)")
    p.add_argument("--max-iter", type=int, default=60)
    p.add_argument("--init", default="constant", help="constant | bubble:LAM | random")
    p.set_defaults(func=cmd_solve)

    p = add_parser("probe", help="multistart uniqueness probe")
    common(p, K=24, seed=True, tol=1e-12, tol_help=newton_tol_help, fmt=("json",))
    rhs(p)
    p.add_argument("--trials", type=int, default=50)
    p.set_defaults(func=cmd_probe)

    p = add_parser("verify", help="invariant suite with per-check margins")
    common(p, K=16, seed=True, fmt=("text", "json"))
    p.add_argument("--trials", type=int, default=8)
    p.set_defaults(func=cmd_verify)

    p = add_parser("sweep", help="sharp constants (and optional minimization) over a grid")
    common(p, m=False, n=False, K=16, seed=True)
    p.add_argument("--m", type=_ints, default="", help="comma-separated orders")
    p.add_argument("--n", type=_ints, default="", help="comma-separated dimensions")
    p.add_argument("--p", type=_floats, default="", help="comma-separated exponents")
    p.add_argument("--starts", type=int, default=0, help="if > 0, also run minimize per point")
    p.set_defaults(func=cmd_sweep)

    return parser


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if args.config:
            # each key = value line becomes a --key=value flag right after the
            # subcommand, so argparse checks it as it checks flags, and an
            # explicit flag, coming later, wins
            values = read_config(args.config)
            options = set(vars(args)) - {"command", "config", "func"}
            for key in values:
                if key not in options:
                    raise UsageError(f"config field {key!r} is not an option of this command")
            at = argv.index(args.command) + 1
            argv[at:at] = [f"--{key.replace('_', '-')}={value}" for key, value in values.items()]
            args = parser.parse_args(argv)
        args.started = time.time()
        return args.func(args)
    except SystemExit as exc:  # argparse usage errors already printed
        return EXIT_OK if exc.code == 0 else EXIT_USAGE
    except (UsageError, DomainError, AliasingError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except InconsistencyError as exc:
        print(f"internal inconsistency: {exc}", file=sys.stderr)
        return EXIT_INCONSISTENT
    except ToolkitError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
