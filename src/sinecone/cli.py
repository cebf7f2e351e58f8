"""Command-line orchestration.

Subcommands: spectrum, stability, rigidity, verify-radial, verify-symbolic,
iterate, scan-products.  Exit codes: 0 success / verification pass; 2
verification failure; 3 unbounded-below regime; 4 invalid input or invariant
violation.  All errors and warnings are also emitted as structured JSON on
stderr, and all output ordering is deterministic (ascending eigenvalues, then
block order).  Each command imports the modules it runs, so only verify-radial
loads numpy, only its line check loads scipy, and no command pays for an
engine it does not call.
"""

from __future__ import annotations

import argparse
import json
import math
import re
import sys
import warnings
from fractions import Fraction

from .errors import ParseError, SineconeError, VerificationFailed
from .exactreal import QuadReal, _json_rational, from_rational, quad_from_json, to_decimal
from .spectra import GeometricSpectrum, Spectrum, geometric_spectrum_to_json


def _parse_cutoff(text: str) -> QuadReal:
    text = text.strip()
    if not text.startswith("{"):
        return from_rational(_json_rational(text, "--cutoff"))
    try:
        obj = json.loads(text)
    except json.JSONDecodeError:
        raise ParseError(f"--cutoff needs p/q or QuadReal JSON, got {text!r}") from None
    return quad_from_json(obj)


def _spectrum_table(spec: Spectrum, title: str) -> str:
    lines = [title, f"  {'value':>24} {'decimal':>16} {'mult':>5}  origins"]
    for line in spec.lines:
        exact, dec = str(line.value), to_decimal(line.value, 6)
        origins = ", ".join(f"{o.block}[{o.i}]+{o.j}(x{o.mult})" for o in line.origins)
        lines.append(f"  {exact:>24} {dec:>16} {line.multiplicity:>5}  {origins}")
    lines.append(f"  (complete up to {spec.cutoff})")
    return "\n".join(lines)


def _add_source_args(p: argparse.ArgumentParser) -> None:
    src = p.add_mutually_exclusive_group(required=True)
    src.add_argument("--input", help="path to a geometric-spectrum JSON file")
    src.add_argument("--sphere", type=int, metavar="N", help="round N-sphere base")
    src.add_argument(
        "--product",
        metavar="N1,N2",
        help="normalized Einstein product with strictly stable factors",
    )
    p.add_argument(
        "--allow-low-spectrum",
        action="store_true",
        help="accept spectra below the usual positive-eigenvalue bounds",
    )


def _resolve_source(args, spec0_need: Fraction) -> GeometricSpectrum:
    from . import catalog
    if args.input is not None:
        return catalog.load_geometric_spectrum(
            args.input, hypothesis_override=args.allow_low_spectrum
        )
    if args.sphere is not None:
        return catalog.sphere_geometric_spectrum(
            args.sphere, from_rational(max(spec0_need, Fraction(0)))
        )
    match = re.fullmatch(r"(-?\d+)[,x](-?\d+)", args.product)
    if match is None:
        raise ParseError(f"--product needs two integers N1,N2 (or N1xN2), got {args.product!r}")
    n1, n2 = (int(x) for x in match.groups())
    return catalog.product_geometric_spectrum(catalog.ProductMarker(n1, n2))


def _emit(args, payload: dict, tables: list[str]) -> None:
    if args.output == "json":
        print(json.dumps(payload, indent=2, sort_keys=True))
    else:
        print("\n\n".join(tables))


def _cmd_spectrum(args) -> int:
    from . import conemaps
    if args.blocks is not None and args.operator != "einstein":
        raise ParseError(
            f"--blocks selects Einstein-operator blocks; --operator {args.operator} has none"
        )
    cutoff = _parse_cutoff(args.cutoff)
    blocks = conemaps.ALL_BLOCKS if args.blocks is None else tuple(args.blocks.split(","))
    # unknown block names are left for map_einstein to reject
    parts = {"laplace": ("functions",), "oneform": ("exact", "coclosed")}.get(
        args.operator, [b for b in blocks if b in conemaps.ALL_BLOCKS]
    )
    need = Fraction(0)
    if args.sphere is not None:
        need = conemaps.source_requirements(args.sphere, dict.fromkeys(parts, cutoff))[0]
    base = _resolve_source(args, need)

    payload = {"n": base.n, "operator": args.operator}
    # (payload key, spectrum, table title, whether the table is printed)
    if args.operator == "laplace":
        out = conemaps.map_functions(base, cutoff)
        shown = [("spectrum", out, f"cone scalar spectrum (base n={base.n})", True)]
    elif args.operator == "oneform":
        out = conemaps.map_one_forms(base, cutoff)
        shown = [
            ("exact_part", out.exact_part, f"cone 1-form spectrum, exact part (base n={base.n})", True),
            ("coclosed_part", out.coclosed_part, "cone 1-form spectrum, coclosed part", True),
        ]
    else:
        out = conemaps.map_einstein(base, cutoff, blocks=blocks)
        payload["scalar_boundary_case"] = out.scalar_boundary_case
        payload["oneform_boundary_case"] = out.oneform_boundary_case
        shown = [
            (f"{block}_block", getattr(out, f"{block}_block"),
             f"Einstein operator, {'TT' if block == 'tt' else block} block", block in blocks)
            for block in conemaps.ALL_BLOCKS
        ]
    payload.update((key, spec.to_json()) for key, spec, _, _ in shown)
    tables = [_spectrum_table(spec, title) for _, spec, title, printed in shown if printed]
    _emit(args, payload, tables)
    return 0


def _verdict_row(name: str, v) -> str:
    if v.holds is None:
        return f"  {name:<12} undecided (insufficient spectral data)"
    flag = "yes" if v.holds else "no"
    strict = "strict" if v.strict else "non-strict"
    witness = "-" if v.witness_value is None else str(v.witness_value)
    return f"  {name:<12} {flag:<4} ({strict:<10})  witness {witness}"


def _report_table(title: str, report) -> str:
    return "\n".join(
        [title] + [_verdict_row(k, getattr(report, k)) for k in ("eh", "linear", "tangential", "physical")]
    )


def _cmd_stability(args) -> int:
    from . import stability
    need = stability.scalar_window(args.sphere) if args.sphere is not None else Fraction(0)
    base = _resolve_source(args, need)
    report = stability.classify(base)
    predicted = stability.predict_cone(base)
    payload = {
        "base": report.to_json(),
        "cone_predicted": predicted.to_json(),
    }
    bounded = {True: "yes", False: "no", None: "undecided"}[report.bounded_below]
    tables = [
        _report_table(f"base classification (n={report.n})", report)
        + f"\n  bounded-below cone: {bounded}",
        _report_table(f"cone prediction (n={predicted.n})", predicted),
    ]
    if args.cross_check:
        result = stability.cross_check(base)
        payload["cross_check"] = result.to_json()
        status = "consistent" if result.consistent else "DISCREPANT"
        tables.append(
            "cross-check: " + status
            + ("".join("\n  " + d for d in result.discrepancies))
        )
    _emit(args, payload, tables)
    return 0


def _cmd_rigidity(args) -> int:
    from . import rigidity
    base = _resolve_source(args, Fraction(0))
    certs = rigidity.find_ieds(base)
    payload = {"n": base.n, "certificates": [c.to_json() for c in certs]}
    rows = [f"deformation certificates (base n={base.n}):"]
    if not certs:
        rows.append("  none: the cone TT block has no zero modes from this data")
    for c in certs:
        kind = "bounded" if c.bounded else "unbounded-profile"
        rows.append(
            f"  source {str(c.kappa):>10}  ladder index {c.j}  {kind}  multiplicity {c.multiplicity}"
        )
    _emit(args, payload, rows)
    return 0


def _cmd_scan_products(args) -> int:
    from . import rigidity
    if not 4 <= args.start <= args.end:
        raise ParseError(f"--from and --to need 4 <= FROM <= TO, got {args.start} and {args.end}")
    rows = rigidity.product_rigidity_scan(args.start, args.end)
    payload = {"rows": [r.to_json() for r in rows]}
    table = ["product sine-cone scan:", f"  {'n':>4} {'tt-line':>10}  status"]
    for r in rows:
        if r.unbounded_below:
            status = "unbounded below"
        elif r.has_ied:
            js = ", ".join(f"j={c.j}" for c in r.certificates)
            status = f"L2 deformation ({js}, unbounded profile)"
        else:
            status = "rigid (no zero modes)"
        table.append(f"  {r.n:>4} {str(r.kappa):>10}  {status}")
    _emit(args, payload, ["\n".join(table)])
    return 0


def _parse_flag(flag: str, parse, text: str, expected: str):
    try:
        return parse(text)
    except (ValueError, ArithmeticError):
        raise ParseError(f"{flag} needs {expected}, got {text!r}") from None


def _support_sizes(text: str) -> list[float]:
    sizes = [float(x) for x in text.split(",")]
    if not all(0 < e < math.pi for e in sizes):  # also rejects nan and inf
        raise ValueError(text)
    return sizes


def _tolerance(text: str) -> float:
    tol = float(text)
    if not 0 < tol < 1:  # also rejects nan and inf
        raise ValueError(text)
    return tol


#: verify-radial's flags with their defaults in the radial line check, and in
#: the Rayleigh demonstrator that a TT coupling below the Hardy bound runs
_RADIAL_FLAGS = ({"modes": 4, "tol": "1e-3", "grid": 4000, "eps": 1e-6},
                 {"epsilons": "0.4,0.2,0.1,0.05", "csv": None})


def _cmd_verify_radial(args) -> int:
    from . import conemaps
    coupling = _parse_flag(
        "--coupling", lambda t: _json_rational(t, "--coupling"), args.coupling, "a rational p/q"
    )
    kappa = _parse_flag("--coupling", lambda t: float(Fraction(t)), args.coupling, "a p/q in float range")
    demo = args.block == "tt" and coupling < conemaps.hardy_bound(args.n)
    for name in _RADIAL_FLAGS[not demo]:
        if getattr(args, name) is not None:
            regime = "the Rayleigh demonstrator" if demo else "the radial line check"
            raise ParseError(f"--{name} does not apply: coupling {coupling} runs {regime}")
    for name, default in {**_RADIAL_FLAGS[0], **_RADIAL_FLAGS[1]}.items():
        if getattr(args, name) is None:
            setattr(args, name, default)
    if args.modes < 1:
        raise ParseError(f"--modes needs a positive integer, got {args.modes}")
    tol = _parse_flag("--tol", _tolerance, args.tol, "a finite tolerance 0 < tol < 1")
    if demo:
        epsilons = _parse_flag(
            "--epsilons", _support_sizes, args.epsilons, "comma-separated support sizes in (0, pi)"
        )
    # the one numerical command: numpy loads here, after its flags parse; scipy only to solve
    from . import radialoracle

    if demo:
        bound = radialoracle.rayleigh_blowdown_bound(args.n)
        if coupling >= bound:
            raise VerificationFailed(
                f"TT coupling {coupling} lies in [{bound}, {conemaps.hardy_bound(args.n)}): the "
                f"demonstrator's profile u^-p (1-u)^(p+1) blows down only below {bound}, so its "
                "quotients cannot show the form unbounded below"
            )
        quotients = radialoracle.rayleigh_unbounded_demo(args.n, kappa, epsilons)
        scaled = [e * e * q for e, q in zip(epsilons, quotients)]  # not finite where q is not
        if not all(map(math.isfinite, scaled)):
            raise ParseError(f"--epsilons needs support sizes with finite quotients, got {args.epsilons!r}")
        if args.csv:
            radialoracle.quotients_to_csv(args.csv, epsilons, quotients)
        payload = {
            "n": args.n,
            "coupling": str(coupling),
            "regime": "below the boundedness threshold",
            "epsilons": epsilons,
            "quotients": quotients,
            "eps2_quotients": scaled,
        }
        _emit(args, payload, [json.dumps(payload, indent=2, sort_keys=True)])
        return 0
    report = radialoracle.verify_line(
        args.n, args.block, coupling, args.modes, tol, args.grid, args.eps
    )
    _emit(args, {"report": report}, [json.dumps(report, indent=2, sort_keys=True)])
    return 0


def _cmd_verify_symbolic(args) -> int:
    from . import symcheck
    if args.n < 2:
        raise ParseError(f"--n needs a base dimension of at least 2, got {args.n}")
    for flag, value in (("--k", args.k), ("--jmax", args.jmax)):
        if value < 0:
            raise ParseError(f"{flag} needs a nonnegative integer, got {value}")
    reports = [symcheck.check_commutators(args.n)]
    for j in range(args.jmax + 1):
        reports.append(symcheck.verify_decomposition(args.n, args.k, j))
        if args.k >= 1:
            reports.append(symcheck.verify_formulas1(args.n, args.k, j))
        if args.k >= 2:
            reports.append(symcheck.verify_formulas2(args.n, args.k, j))
            reports.append(symcheck.verify_formulas3(args.n, args.k, j))
    payload = {"reports": reports, "passed": True}
    _emit(args, payload, [f"all {len(reports)} symbolic reports passed"])
    return 0


def _cmd_iterate(args) -> int:
    from . import conemaps
    if args.count < 0:
        raise ParseError(f"--count needs a nonnegative integer, got {args.count}")
    cutoff = _parse_cutoff(args.cutoff)
    parts = tuple(args.parts.split(","))
    need = Fraction(0)
    if args.sphere is not None:
        need = conemaps.iterate_base_requirements(args.sphere, args.count, cutoff, parts)[0]
    base = _resolve_source(args, need)
    out = conemaps.iterate(base, args.count, cutoff, parts=parts)
    payload = geometric_spectrum_to_json(out)
    titles = [f"iterated {name}" for name in conemaps.SOURCES.values()]
    titles[0] += f" (n={out.n})"
    tables = [_spectrum_table(getattr(out, key), title) for key, title in zip(conemaps.SOURCES, titles)]
    _emit(args, payload, tables)
    return 0


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # a flag error, also in a subcommand: exit 4 with JSON
        raise ParseError(f"{self.prog}: {message}")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="sinecone",
        description="exact sine-cone spectra, stability and rigidity",
    )
    parser.add_argument("--output", choices=("table", "json"), default="table")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_parser(*args, **kwargs):
        p = sub.add_parser(*args, **kwargs)
        # accept --output after the subcommand too; SUPPRESS keeps the
        # top-level value when the flag is not repeated
        p.add_argument("--output", choices=("table", "json"), default=argparse.SUPPRESS)
        return p

    p = add_parser("spectrum", help="transform base spectra to cone spectra")
    _add_source_args(p)
    p.add_argument("--operator", choices=("laplace", "oneform", "einstein"), default="laplace")
    p.add_argument("--cutoff", required=True, help="integer, p/q, or QuadReal JSON")
    p.add_argument("--blocks", help="Einstein blocks, comma-separated (default: all)")
    p.set_defaults(func=_cmd_spectrum)

    p = add_parser("stability", help="classify a base and predict its cone")
    _add_source_args(p)
    p.add_argument("--cross-check", action="store_true")
    p.set_defaults(func=_cmd_stability)

    p = add_parser("rigidity", help="find cone deformation certificates")
    _add_source_args(p)
    p.set_defaults(func=_cmd_rigidity)

    p = add_parser("scan-products", help="classify product sine-cones by dimension")
    p.add_argument("--from", dest="start", type=int, required=True)
    p.add_argument("--to", dest="end", type=int, required=True)
    p.set_defaults(func=_cmd_scan_products)

    p = add_parser("verify-radial", help="numerically verify radial eigenvalue ladders")
    p.add_argument("--n", type=int, required=True)
    # radialoracle.BLOCKS spelled out, so that parsing loads no scipy (a test pins them equal)
    p.add_argument("--block", choices=("function", "tt"), default="function")
    p.add_argument("--coupling", required=True, help="rational coupling (p/q)")
    p.add_argument("--modes", type=int, help="line check: modes to verify")
    p.add_argument("--tol", help="line check: relative tolerance")
    p.add_argument("--grid", type=int, metavar="N", help="line check: intervals")
    p.add_argument("--eps", type=float, help="line check: boundary offset")
    p.add_argument("--epsilons", help="demonstrator: support sizes")
    p.add_argument("--csv", help="demonstrator: dump quotient sequence as CSV")
    p.set_defaults(func=_cmd_verify_radial)

    p = add_parser("verify-symbolic", help="exact symbolic identity suite")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--jmax", type=int, default=4)
    p.set_defaults(func=_cmd_verify_symbolic)

    p = add_parser("iterate", help="iterated sine-cone spectra")
    _add_source_args(p)
    p.add_argument("--count", "-k", type=int, required=True)
    p.add_argument("--cutoff", required=True)
    p.add_argument("--parts", default="functions,coclosed,tt")
    p.set_defaults(func=_cmd_iterate)

    return parser


def run(argv=None) -> int:
    with warnings.catch_warnings(record=True) as caught:  # the filters in force still apply
        try:
            args = build_parser().parse_args(argv)
            if [] in vars(args).values():  # argparse before Python 3.13 reads --flag=-- as no value
                raise ParseError("sinecone: '--' attached to a flag, as in --count=--, is not a value")
            code, error = args.func(args), None
        except (SineconeError, ValueError) as exc:
            # a package error reports its own name and exit code, any other ValueError as such
            ours = isinstance(exc, SineconeError)
            error = {"error": type(exc).__name__ if ours else "ValueError", "message": str(exc)}
            code = exc.exit_code if ours else 4
    for message in dict.fromkeys(str(w.message) for w in caught):
        print(json.dumps({"warning": message}), file=sys.stderr)
    if error:
        print(json.dumps(error, sort_keys=True), file=sys.stderr)
    return code


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
