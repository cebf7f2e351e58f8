"""Negative controls of the oracles.

    python3 perfbench/controls.py        (from the root of a checkout)

Each control takes a real output of the program, checks that its oracle
accepts it, then perturbs it (one multiplicity off, one verdict flipped, one
mode dropped, ...) and checks that the oracle rejects every perturbation.
Exits 1 on the first control that does not hold.
"""

from __future__ import annotations

import contextlib
import copy
import io
import json
import os
import sys
from fractions import Fraction

sys.path.insert(0, os.path.abspath("src"))

import inputs  # noqa: E402
import oracles  # noqa: E402
from oracles import Mismatch  # noqa: E402
from ratmath import hardy  # noqa: E402
from workloads import _plain_cert, plain, plain_value, program_base  # noqa: E402

CONTROLS = []


def control(fn):
    CONTROLS.append(fn)
    return fn


def holds(check, good, *bad) -> None:
    """``check`` accepts ``good`` and rejects each of ``bad``."""
    check(good)
    for i, b in enumerate(bad):
        try:
            check(b)
        except Mismatch:
            continue
        raise SystemExit(f"negative control {i} was accepted by {check}")


def replace_row(spec, k, value=None, mult=None, origins=None):
    rows, cutoff = copy.deepcopy(spec)
    v, m, o = rows[k]
    rows[k] = (v if value is None else value, m if mult is None else mult,
               o if origins is None else origins)
    return rows, cutoff


def cli_text(argv) -> str:
    from sinecone import cli

    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        assert cli.run(argv) == 0
    return buf.getvalue()


@control
def sphere_closure():
    from sinecone import catalog, conemaps, exactreal

    q = exactreal.from_rational
    out = plain(conemaps.map_functions(catalog.sphere_geometric_spectrum(3, q(200)), q(100)))
    rows = out[0]
    k = 3
    v, m, o = rows[k]
    one_off = tuple(o[:-1]) + ((o[-1][0], o[-1][1], o[-1][2], o[-1][3] + 1),)
    holds(lambda s: oracles.check_sphere_cone(3, Fraction(100), s), out,
          replace_row(out, k, mult=m + 1, origins=one_off),  # multiplicity one off
          (rows[:-1], out[1]),  # a line dropped
          replace_row(out, k, value=(v[0] + 1, v[1], v[2])))  # a value moved


@control
def sphere_table_decimals():
    text = cli_text(["spectrum", "--sphere", "3", "--cutoff", "30"])
    check = lambda t: oracles.check_sphere_table(3, Fraction(30), oracles.parse_tables(t)[0])
    holds(check, text,
          text.replace("10.000000", "10.000001"),
          text.replace("   14  fun", "   15  fun"))


@control
def iterated_s4():
    text = cli_text(["iterate", "--sphere", "2", "--count", "2", "--cutoff", "40",
                     "--parts", "functions"])
    check = lambda t: oracles.check_sphere_table(3, Fraction(40), oracles.parse_tables(t)[0])
    holds(check, text, text.replace("   30  fun", "   31  fun"))


@control
def rational_ladders():
    from sinecone import conemaps, exactreal

    rng = inputs.stream(0, "controls")
    for k in range(4):  # every boundary pattern
        b = inputs.rational_base(rng, 40, k)
        out = conemaps.map_einstein(program_base(b), exactreal.from_rational(b.window))
        conf = plain(out.conformal_block)
        rows = conf[0]
        v, m, o = rows[0]
        bumped = ((o[0][0], o[0][1], o[0][2], o[0][3] + 1),) + tuple(o[1:])
        holds(lambda s: oracles.check_rational_block(b, "E-conf", s), conf,
              replace_row(conf, 0, mult=m + 1, origins=bumped),  # conformal rule off by one
              (rows[:-1], conf[1]))  # a rung dropped
        tt = plain(out.tt_block)
        holds(lambda s: oracles.check_rational_block(b, "E-tt", s), tt,
              replace_row(tt, 1, value=(tt[0][1][0][0] + Fraction(1, 7), 0, 1)))
        forms = conemaps.map_one_forms(program_base(b), exactreal.from_rational(b.window))
        exact = plain(forms.exact_part)
        holds(lambda s: oracles.check_rational_block(b, "1f-exact", s), exact,
              replace_row(exact, 2, origins=tuple((x[0], x[1], x[2] + 1, x[3])
                                                  for x in exact[0][2][2])))


def _verdict_result(result) -> dict:
    p = result.predicted
    return {"eh": (p.eh.holds, p.eh.strict), "linear": (p.linear.holds, p.linear.strict),
            "tangential": (p.tangential.holds, p.tangential.strict),
            "physical": (p.physical.holds, p.physical.strict),
            "cone_unbounded": result.cone_unbounded, "consistent": result.consistent}


@control
def verdicts():
    from sinecone import stability

    bases = inputs.cross_inputs(0, pool=60, scans=1).bases
    seen = set()
    for b in bases:
        got = _verdict_result(stability.cross_check(program_base(b)))
        seen.add((got["linear"], got["cone_unbounded"]))
        flips = []
        for key in ("eh", "linear", "tangential", "physical"):
            h, s = got[key]
            flips.append({**got, key: (not h if h is not None else True, s)})
        flips.append({**got, "cone_unbounded": not got["cone_unbounded"]})
        flips.append({**got, "consistent": False})
        holds(lambda r: oracles.check_cross_check(b, r), got, *flips)
    if not any(u for _, u in seen) or len(seen) < 3:
        raise SystemExit(f"verdict controls saw too few verdict kinds: {seen}")


@control
def certificates():
    from sinecone import errors, rigidity

    n = 9
    tt = ((Fraction(-16), 1), (Fraction(-8), 2), (Fraction(0), 1), (Fraction(3), 1))
    b = inputs.Base(n, ((Fraction(0), 1),), (), tt, (Fraction(9), Fraction(-1), Fraction(4)),
                    Fraction(0))
    certs = [_plain_cert(c) for c in rigidity.find_ieds(program_base(b))]
    check = lambda c: oracles.check_certificates(n, tt, c)
    holds(check, certs, certs[1:], [certs[0][:1] + (certs[0][1] + 1,) + certs[0][2:]] + certs[1:],
          None)
    low = tt + ((hardy(n) - 1, 1),)
    b_low = inputs.Base(n, b.spec0, (), low, b.cutoffs, Fraction(0))
    try:
        rigidity.find_ieds(program_base(b_low))
        raise SystemExit("find_ieds accepted a line under the Hardy bound")
    except errors.UnboundedBelow:
        pass
    holds(lambda c: oracles.check_certificates(n, low, c), None, [])


@control
def product_scan():
    from sinecone import rigidity

    rows = [(r.n, plain_value(r.kappa), r.unbounded_below, r.has_ied,
             [_plain_cert(c) for c in r.certificates])
            for r in rigidity.product_rigidity_scan(4, 20)]
    flipped = copy.deepcopy(rows)
    flipped[7] = flipped[7][:3] + (True, [(flipped[7][1], 2, False, 1)])  # n = 11
    shifted = copy.deepcopy(rows)
    shifted[6] = shifted[6][:4] + ([(shifted[6][1], 2, False, 1)],)  # n = 10, j = 3
    holds(lambda r: oracles.check_scan(4, 20, r), rows, flipped, shifted, rows[:-1])
    text = cli_text(["scan-products", "--from", "4", "--to", "20"])
    holds(lambda t: oracles.check_scan_table(4, 20, t), text,
          text.replace("(j=3,", "(j=2,"))
    text = cli_text(["rigidity", "--product", "4,5"])
    holds(lambda t: oracles.check_rigidity_product(9, t), text,
          text.replace("ladder index 4", "ladder index 3"))
    text = cli_text(["stability", "--product", "4,5", "--cross-check"])
    holds(lambda t: oracles.check_stability_product(9, t), text,
          text.replace("physical     yes", "physical     no ", 1))
    text = cli_text(["spectrum", "--product", "4,6", "--operator", "einstein", "--blocks", "tt",
                     "--cutoff", "0"])
    holds(lambda t: oracles.check_product_tt_table(10, oracles.parse_tables(t)[0]), text,
          text.replace("-16.000000     1", "-16.000000     2"))


@control
def radial():
    from sinecone import radialoracle

    report = radialoracle.verify_line(4, "function", Fraction(10), 3)
    short = copy.deepcopy(report)
    short["modes"] = short["modes"][:2]
    off = copy.deepcopy(report)
    off["modes"][1]["computed"] *= 1.01
    holds(lambda r: oracles.check_radial_report(4, Fraction(10), 3, r), report, short, off)
    tt = radialoracle.verify_line(5, "tt", hardy(5), 3)
    holds(lambda r: oracles.check_radial_report(5, hardy(5), 3, r), tt,
          {**tt, "modes": tt["modes"][:2]})


@control
def symbolic():
    from sinecone import symcheck

    n, k, j = 4, 2, 3
    family = dict(symcheck.build_harmonic_family(n, k, j).terms)
    bad = dict(family)
    key = next(iter(bad))
    bad[key] += 1
    holds(lambda t: oracles.check_harmonic_family(n, k, j, t), family, bad, {})
    dec = symcheck.verify_decomposition(n, k, j)
    forms = [symcheck.verify_formulas1(n, k, j), symcheck.verify_formulas2(n, k, j),
             symcheck.verify_formulas3(n, k, j)]
    short = copy.deepcopy(forms)
    short[2]["checked"] = short[2]["checked"][:-1]
    holds(lambda a: oracles.check_symbolic_reports(k, j, *a), (dec, forms),
          ({**dec, "rank": dec["rank"] - 1}, forms), (dec, short), (dec, forms[:2]))
    comm = symcheck.check_commutators(n)
    holds(oracles.check_commutator_report, comm, {**comm, "monomials": comm["monomials"] - 1})
    count = oracles.symbolic_report_count(2, 4)
    text = cli_text(["verify-symbolic", "--n", "3", "--k", "2", "--jmax", "4"])
    holds(lambda t: oracles.expect(t == f"all {count} symbolic reports passed\n", t), text,
          text.replace("21", "20"))


@control
def demonstrator():
    from sinecone import radialoracle

    eps = [0.4, 0.2, 0.1, 0.05]
    q = radialoracle.rayleigh_unbounded_demo(8, -14.0, eps)
    text = json.dumps({"epsilons": eps, "quotients": q})
    csv = "eps,quotient,eps2_quotient\n" + "".join(f"{e},{x},{e * e * x}\n" for e, x in zip(eps, q))
    bounded = radialoracle.rayleigh_unbounded_demo(8, -12.0, eps)
    holds(lambda a: oracles.check_demonstrator(*a), (text, csv),
          (json.dumps({"epsilons": eps, "quotients": bounded}), csv),
          (text, csv.replace(str(q[2]), str(q[2] * 1.5))))


def main() -> int:
    for fn in CONTROLS:
        fn()
        print(f"ok  {fn.__name__}")
    print(f"{len(CONTROLS)} negative controls hold")
    return 0


if __name__ == "__main__":
    sys.exit(main())
