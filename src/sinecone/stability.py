"""Stability classification of a normalized Einstein space from its spectra,
plus the base-to-cone transfer rules, cross-checked against each other.

Four notions, all decided exactly on a :class:`GeometricSpectrum` of
dimension m (Einstein constant m-1):

* variational (EH) stability: TT spectrum >= 0, strict for > 0;
* entropy-linear stability: EH and every positive scalar eigenvalue other
  than m itself at least 2(m-1);
* tangential stability: EH and no positive scalar eigenvalue inside the open
  gap (m, 2(m+1));
* physical stability: TT spectrum >= -(m-1)^2/4 (equivalently, the cone
  Einstein operator is bounded below).

Verdicts are three-valued: ``True``/``False`` when the declared spectrum
completeness reaches the relevant threshold, ``None`` when it does not (the
classification honestly refuses to guess beyond the data).

Two positions need the spelled-out conventions that make the direct and the
predicted classification of a sine-cone agree line for line:

* the scalar eigenvalue equal to the dimension m is excluded from threshold
  tests: its eigenfunctions have pure-trace Hessians (conformal gradient
  fields), so the conformal direction they would contribute to the
  divergence-free complement vanishes identically, and every sine-cone
  carries this eigenvalue;
* an eigenvalue exactly at the tangential threshold 2(m+1) does not break
  strictness: the associated zero mode of the cone-level tangential operator
  is a symmetrized derivative (a reparametrization, not an essential
  perturbation), and every sine-cone carries this eigenvalue as well.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Optional

from .conemaps import ITERATE_PARTS, cone_step, hardy_bound, require_bounded_below, supported_window
from .errors import UnboundedBelow
from .exactreal import QuadReal, compare, from_rational, make_quad, sign
from .spectra import GeometricSpectrum, Record

Verdict = Optional[bool]  # None: undecidable from the declared completeness


class NotionVerdict(Record):
    __slots__ = ("holds", "strict", "witness_value", "witness_origin")

    def to_json(self) -> dict:
        return {
            "verdict": self.holds,
            "strict": self.strict,
            "witness_value": None if self.witness_value is None else self.witness_value.to_json(),
            "witness_origin": self.witness_origin,
        }


_UNDECIDED = NotionVerdict(None, None, None, "insufficient declared completeness")


class StabilityReport(Record):
    __slots__ = ("n", "eh", "linear", "tangential", "physical", "thresholds")

    @property
    def bounded_below(self) -> Verdict:
        """The physical verdict: whether the cone Einstein operator is bounded below."""
        return self.physical.holds

    def to_json(self) -> dict:
        return {
            "n": self.n,
            "eh": self.eh.to_json(),
            "linear": self.linear.to_json(),
            "tangential": self.tangential.to_json(),
            "physical": self.physical.to_json(),
            "bounded_below": self.bounded_below,
            "thresholds": [(name, value.to_json()) for name, value in self.thresholds],
        }


def linear_transfer_threshold(n: int) -> QuadReal:
    """Scalar-spectrum bound a base must clear so its sine-cone stays
    entropy-linearly stable: 5n/2 - sqrt(n^2 + 8n)/2, exactly."""
    return make_quad(Fraction(5 * n, 2), Fraction(-1, 2), n * n + 8 * n)


def scalar_window(m: int) -> Fraction:
    """Scalar completeness that decides every verdict of :func:`classify`
    and :func:`predict_cone` on a dim-m space: the tangential gap's upper end
    2(m+1), above the linear bound 2(m-1) and the transfer threshold."""
    return Fraction(2 * (m + 1))


def _positive_scalars(gs: GeometricSpectrum) -> list[QuadReal]:
    """Positive scalar lines with the dimension eigenvalue removed."""
    dim_value = from_rational(gs.n)
    return [
        line.value
        for line in gs.spec0.lines
        if sign(line.value) > 0 and line.value != dim_value
    ]


def _and3(a: Verdict, b: Verdict) -> Verdict:
    if a is False or b is False:
        return False
    if a is None or b is None:
        return None
    return True


def classify(gs: GeometricSpectrum) -> StabilityReport:
    """Decide the four notions directly on the given spectra; notions whose
    thresholds lie beyond the declared completeness come back undecided."""
    m = gs.n
    zero = from_rational(0)
    hardy = from_rational(hardy_bound(m))
    lin_bound = from_rational(2 * (m - 1))
    gap_hi = from_rational(scalar_window(m))
    dim_value = from_rational(m)

    tt_known = compare(gs.specE_TT.cutoff, zero) >= 0
    tt_min = gs.specE_TT.min_value()
    if not tt_known:
        eh = physical = _UNDECIDED
    else:
        origin = "tt-min" if tt_min is not None else "tt-empty"
        eh_holds = tt_min is None or sign(tt_min) >= 0
        eh_strict = tt_min is None or sign(tt_min) > 0
        eh = NotionVerdict(eh_holds, eh_strict, tt_min, origin)
        phys = tt_min is None or compare(tt_min, hardy) >= 0
        physical = NotionVerdict(phys, phys, tt_min, origin)

    scalars = _positive_scalars(gs)

    def scalar_verdict(threshold, violates, breaks_strictness) -> NotionVerdict:
        # undecided below the threshold's completeness, EH's verdict when EH
        # fails, otherwise the first violating scalar line as witness
        if compare(gs.spec0.cutoff, threshold) < 0:
            return _UNDECIDED
        if eh.holds is False:
            return NotionVerdict(False, False, eh.witness_value, eh.witness_origin)
        breaking = [v for v in scalars if breaks_strictness(v)]
        viol = [v for v in breaking if violates(v)]  # a violation breaks strictness too
        witness = viol[0] if viol else (scalars[0] if scalars else tt_min)
        return NotionVerdict(
            _and3(eh.holds, not viol),
            _and3(eh.strict, not breaking),
            witness,
            "scalar" if scalars else "tt-min",
        )

    linear = scalar_verdict(
        lin_bound,
        lambda v: compare(v, lin_bound) < 0,
        lambda v: compare(v, lin_bound) <= 0,
    )

    def in_gap(v):
        return compare(v, dim_value) > 0 and compare(v, gap_hi) < 0

    tangential = scalar_verdict(gap_hi, in_gap, in_gap)

    return StabilityReport(
        n=m,
        eh=eh,
        linear=linear,
        tangential=tangential,
        physical=physical,
        thresholds=(
            ("eh", zero),
            ("linear", lin_bound),
            ("tangential-gap-low", dim_value),
            ("tangential-gap-high", gap_hi),
            ("physical", hardy),
        ),
    )


def predict_cone(gs: GeometricSpectrum) -> StabilityReport:
    """Stability of the sine-cone predicted from base data alone.

    EH and tangential stability transfer unchanged; linear stability needs
    the extra scalar bound :func:`linear_transfer_threshold`; the cone
    Einstein operator is bounded below iff the base is physically stable, in
    which case the cone is itself physically stable.
    """
    base = classify(gs)
    m = gs.n
    t = linear_transfer_threshold(m)

    scalars = _positive_scalars(gs)
    t_known = compare(gs.spec0.cutoff, t) >= 0
    below = [v for v in scalars if compare(v, t) < 0]
    clears: Verdict = None if not t_known else not below
    clears_strictly: Verdict = (
        None if not t_known else not any(compare(v, t) <= 0 for v in scalars)
    )
    witness = below[0] if below else (scalars[0] if scalars else base.linear.witness_value)
    linear = NotionVerdict(
        _and3(base.linear.holds, clears),
        _and3(base.linear.strict, clears_strictly),
        witness,
        "scalar-transfer",
    )

    # classify already sets strict = holds for the physical notion
    return StabilityReport(
        n=m + 1,
        eh=base.eh,
        linear=linear,
        tangential=base.tangential,
        physical=base.physical,
        thresholds=base.thresholds + (("linear-transfer", t),),
    )


def compute_cone(gs: GeometricSpectrum) -> GeometricSpectrum:
    """One sine-cone step, as far as the base supports, of only the spectra
    :func:`classify` reads: never spec1D, and the TT spectrum only over a base
    of dimension >= 3, which the Einstein transform needs."""
    parts = ("functions", "tt") if gs.n >= 3 else ("functions",)
    windows = dict(zip(parts, supported_window(gs, parts)))
    return cone_step(gs, [from_rational(windows.get(p, -1)) for p in ITERATE_PARTS], parts)


class CrossCheckResult(Record):
    __slots__ = ("consistent", "discrepancies", "predicted", "direct", "cone_unbounded")

    def to_json(self) -> dict:
        return {
            "consistent": self.consistent,
            "discrepancies": list(self.discrepancies),
            "predicted": self.predicted.to_json(),
            "direct": None if self.direct is None else self.direct.to_json(),
            "cone_unbounded": self.cone_unbounded,
        }


def cross_check(gs: GeometricSpectrum) -> CrossCheckResult:
    """Classify the cone's scalar and TT spectra, all :func:`classify` reads,
    and compare every mutually decidable verdict with the base prediction."""
    pred = predict_cone(gs)

    if pred.bounded_below is False:
        # the direct path must refuse with an unbounded-below diagnosis
        try:
            require_bounded_below(gs)
        except UnboundedBelow:
            return CrossCheckResult(True, (), pred, None, True)
        return CrossCheckResult(
            False, ("prediction says unbounded below but the cone transform succeeded",), pred, None, False
        )

    direct = classify(compute_cone(gs))

    problems = []
    for name in ("eh", "linear", "tangential", "physical"):
        p: NotionVerdict = getattr(pred, name)
        d: NotionVerdict = getattr(direct, name)
        for attr in ("holds", "strict"):
            pv, dv = getattr(p, attr), getattr(d, attr)
            if pv is None or dv is None:
                continue
            if pv != dv:
                problems.append(
                    f"{name}.{attr}: predicted {pv} (witness {p.witness_value}) "
                    f"vs direct {dv} (witness {d.witness_value})"
                )
    return CrossCheckResult(not problems, tuple(problems), pred, direct, False)
