"""Multiset model of an operator spectrum with completeness bookkeeping.

A :class:`Spectrum` is a sorted list of distinct eigenvalues with
multiplicities plus an explicit ``cutoff``: the completeness contract is that
*every* eigenvalue of the represented operator up to ``cutoff`` appears with
its full multiplicity.  Coincident values arriving from different generating
families are merged, but the per-family counts stay recoverable through the
``origins`` tags.  :func:`line_spectrum` builds the lines of every
non-empty spectrum, each from its value, multiplicity and origins.
:class:`Record`, the base of every value record, compiles the constructor
of one that only holds its fields from its ``__slots__``.
"""

from __future__ import annotations

import warnings
from operator import itemgetter
from typing import Iterable, NamedTuple, Optional

from . import exactreal
from .errors import CutoffTooSmall, InvariantViolation, ParseError
from .exactreal import QUAD_KEYS, QuadReal, compare, from_rational, json_int, json_keys, quad_from_json

#: Sentinel cutoff for "no information": a spectrum complete up to -1 only.
#: Empty spectra of operators that are nonnegative (or whose window of
#: interest is above -1) carry this when their data is simply not available;
#: any enumeration that needs more raises InsufficientBaseCutoff downstream.
UNKNOWN_CUTOFF = from_rational(-1)


def _frozen(verb: str, name: str):
    from dataclasses import FrozenInstanceError  # loaded only to be raised

    raise FrozenInstanceError(f"cannot {verb} field {name!r}")


#: Fills a field of a record under construction; the record's own
#: ``__setattr__`` refuses every assignment.
_set = object.__setattr__


class Record:
    """An immutable value record whose fields are the ``__slots__`` of its
    classes, from ``Record`` down, collected once per class as ``_fields``.

    A subclass that only holds its fields writes no ``__init__``: it gets one
    compiled from its fields, taking every field, in that order.  A subclass
    writes its own, filling the fields through :data:`_set`, only to
    validate or default a field.  Records compare and hash on their fields,
    only against their own class; they print as ``Name(field=value, ...)``,
    copy and pickle without running ``__init__`` again, and refuse
    assignment and deletion with ``FrozenInstanceError``.
    """

    __slots__ = ()
    _fields: tuple[str, ...] = ()

    def __init_subclass__(cls):
        cls._fields = fields = tuple(
            name for klass in reversed(cls.__mro__) for name in klass.__dict__.get("__slots__", ()))
        if cls.__init__ is object.__init__:  # plain parameters: Python binds the arguments itself
            body = "".join(f"    _set(self, {name!r}, {name})\n" for name in fields) or "    pass\n"
            scope = {"_set": _set, "__name__": cls.__module__}
            exec(f"def __init__(self, {', '.join(fields)}):\n{body}", scope)
            cls.__init__ = scope["__init__"]
            cls.__init__.__qualname__ = f"{cls.__qualname__}.__init__"  # argument errors name the record

    def __getstate__(self) -> tuple:
        """The field values, in field order."""
        return tuple(getattr(self, name) for name in self._fields)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.__getstate__() == other.__getstate__()

    def __hash__(self):
        return hash(self.__getstate__())

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__qualname__}({fields})"

    def __setstate__(self, state):
        for name, value in zip(self._fields, state):
            _set(self, name, value)

    def __setattr__(self, name, value):
        _frozen("assign to", name)

    def __delattr__(self, name):
        _frozen("delete", name)


class Origin(NamedTuple):
    """One generating family's contribution to a spectral line."""

    block: str
    i: int
    j: int
    mult: int


class SpectralLine(Record):
    __slots__ = ("value", "multiplicity", "origins")

    def __init__(self, value: QuadReal, multiplicity: int, origins: tuple[Origin, ...] = ()):
        if multiplicity <= 0:
            raise InvariantViolation("multiplicity must be positive")
        if origins and sum(o.mult for o in origins) != multiplicity:
            raise InvariantViolation("multiplicity must equal the sum over origins")
        _set(self, "value", value)
        _set(self, "multiplicity", multiplicity)
        _set(self, "origins", origins)


class Spectrum(Record):
    """Ascending, distinct-valued eigenvalue lines, complete up to ``cutoff``."""

    __slots__ = ("lines", "cutoff")

    def __init__(self, lines: tuple[SpectralLine, ...], cutoff: QuadReal):
        for prev, cur in zip(lines, lines[1:]):
            if compare(prev.value, cur.value) >= 0:
                raise InvariantViolation("spectrum lines must be strictly ascending")
        # ascending, so the last line is the largest
        if lines and compare(lines[-1].value, cutoff) > 0:
            raise InvariantViolation("spectrum line exceeds its cutoff")
        _set(self, "lines", lines)
        _set(self, "cutoff", cutoff)

    def __iter__(self):
        return iter(self.lines)

    def __len__(self):
        return len(self.lines)

    def values(self) -> list[QuadReal]:
        return [line.value for line in self.lines]

    def min_value(self) -> Optional[QuadReal]:
        return self.lines[0].value if self.lines else None

    def multiplicity_of(self, value: QuadReal) -> int:
        for line in self.lines:
            if line.value == value:
                return line.multiplicity
        return 0

    def to_json(self) -> list:
        return [{"value": l.value.to_json(), "mult": l.multiplicity} for l in self.lines]


# line_spectrum fills each line through its slots, as exactreal._make does: no __init__ re-check
_set_value, _set_mult, _set_origins = (SpectralLine.__dict__[k].__set__ for k in SpectralLine.__slots__)
_mult = itemgetter(3)  # Origin.mult


def empty_spectrum(cutoff: QuadReal = UNKNOWN_CUTOFF) -> Spectrum:
    return Spectrum((), cutoff)


def merge(raw: Iterable[tuple[QuadReal, int, tuple[str, int, int]]], cutoff: QuadReal) -> Spectrum:
    """Combine raw family contributions, each tagged (block, i, j), into a
    Spectrum complete up to ``cutoff``, grouped on their values' integers
    ``(p, q, d, s)`` (equal keys, equal values): each line's origins are
    sorted by tag and summed, so the result does not depend on their order."""
    groups: dict[tuple[int, int, int, int], tuple[QuadReal, list]] = {}
    for value, mult, (block, i, j) in raw:
        if mult <= 0:
            raise InvariantViolation("raw multiplicities must be positive")
        key = (value.p, value.q, value.d, value.s)
        group = groups.get(key)
        if group is None:
            groups[key] = group = (value, [])
        group[1].append(tuple.__new__(Origin, (block, i, j, mult)))
    lines = []
    for value, origins in groups.values():
        origins.sort()
        lines.append((value, sum(map(_mult, origins)), tuple(origins)))
    return line_spectrum(lines, cutoff)


def line_spectrum(lines: Iterable[tuple[QuadReal, int, tuple[Origin, ...]]], cutoff: QuadReal) -> Spectrum:
    """The Spectrum, complete up to ``cutoff``, with one line per
    ``(value, multiplicity, origins)``: distinct values, each with a
    positive multiplicity that its origins, in tag order, sum to.  The
    lines may come in any order; runs of ascending values, as a cone part
    yields them class by class, sort in time linear in the lines.

    The values are sorted on ``(floor(1000 v), v)``; the floor is exact
    integer arithmetic and monotone, so ``compare`` (through
    ``QuadReal.__lt__``) runs only for two values with one floor, in the
    sort and in the check of strict ascent.  Each line is built once; a
    value above the cutoff is refused, not dropped.
    """
    # (floor, value, multiplicity, origins): values are distinct, so nothing after them is compared
    entries = [(exactreal._floor_scaled(v, 3), v, m, origins) for v, m, origins in lines]
    entries.sort()
    if any(f == g and compare(v, w) >= 0 for (f, v, _, _), (g, w, _, _) in zip(entries, entries[1:])):
        raise InvariantViolation("spectrum lines must be strictly ascending")
    built = []
    for _, value, mult, origins in entries:
        line = object.__new__(SpectralLine)
        _set_value(line, value)
        _set_mult(line, mult)
        _set_origins(line, origins)
        built.append(line)
    if built and compare(built[-1].value, cutoff) > 0:
        raise InvariantViolation("spectrum line exceeds its cutoff")
    spectrum = object.__new__(Spectrum)  # both invariants checked above: no __init__ re-check
    _set(spectrum, "lines", tuple(built))
    _set(spectrum, "cutoff", cutoff)
    return spectrum


def positive_min(s: Spectrum) -> Optional[QuadReal]:
    """Smallest strictly positive line value, or None."""
    for line in s.lines:
        if exactreal.sign(line.value) > 0:
            return line.value
    return None


def equal_up_to(s1: Spectrum, s2: Spectrum, bound: QuadReal) -> bool:
    """Exact value-and-multiplicity agreement of all lines <= bound."""
    if compare(bound, s1.cutoff) > 0 or compare(bound, s2.cutoff) > 0:
        raise CutoffTooSmall("comparison bound exceeds a spectrum cutoff")
    a = [(l.value, l.multiplicity) for l in s1.lines if compare(l.value, bound) <= 0]
    b = [(l.value, l.multiplicity) for l in s2.lines if compare(l.value, bound) <= 0]
    return a == b


class GeometricSpectrum(Record):
    """The closed triple of spectra the cone maps consume and produce.

    ``spec0`` is the scalar Laplacian (eigenvalue 0 included), ``spec1D`` the
    connection Laplacian restricted to coclosed 1-forms, ``specE_TT`` the
    Einstein operator restricted to transverse traceless tensors, all for an
    n-dimensional space normalized to Ricci curvature (n-1) times the metric.
    """

    __slots__ = ("n", "spec0", "spec1D", "specE_TT", "hypothesis_override")

    def __init__(self, n: int, spec0: Spectrum, spec1D: Spectrum, specE_TT: Spectrum,
                 hypothesis_override: bool = False):
        _set(self, "n", n)
        _set(self, "spec0", spec0)
        _set(self, "spec1D", spec1D)
        _set(self, "specE_TT", specE_TT)
        _set(self, "hypothesis_override", hypothesis_override)
        validate_geometric_spectrum(self)


def _hypothesis_bound(gs: GeometricSpectrum, msg: str) -> None:
    """Refuse a line below a bound that closed Einstein spaces obey, or
    under ``hypothesis_override`` warn and go on."""
    if not gs.hypothesis_override:
        raise InvariantViolation(msg)
    warnings.warn(msg + "; proceeding outside the usual hypotheses")


def validate_geometric_spectrum(gs: GeometricSpectrum) -> None:
    n = gs.n
    if n < 2:
        raise InvariantViolation(f"dimension n={n} below 2")
    zero_mult = gs.spec0.multiplicity_of(exactreal.ZERO)
    if compare(gs.spec0.cutoff, exactreal.ZERO) >= 0:
        if zero_mult == 0:
            raise InvariantViolation("scalar spectrum must contain 0 (constants)")
        if zero_mult != 1:
            raise InvariantViolation(
                "eigenvalue 0 has multiplicity "
                f"{zero_mult}: multi-component bases are rejected"
            )
    bound_0 = from_rational(n)
    for line in gs.spec0.lines:
        v = line.value
        if exactreal.sign(v) < 0:
            raise InvariantViolation(f"negative scalar eigenvalue {v}")
        if exactreal.sign(v) > 0 and compare(v, bound_0) < 0:
            _hypothesis_bound(gs, (
                f"positive scalar eigenvalue {v} below the dimension bound n={n} "
                "(closed Einstein spaces with this normalization have no "
                "spectrum in (0, n))"
            ))
    bound_1f = from_rational(n - 1)
    for line in gs.spec1D.lines:
        if compare(line.value, bound_1f) < 0:
            _hypothesis_bound(gs, (
                f"coclosed 1-form eigenvalue {line.value} below n-1={n - 1} "
                "(the Killing bound for this normalization)"
            ))


#: The keys of the base JSON schema, of its per-spectrum cutoff object and of
#: a spectrum entry; any other key is refused, never dropped.
SOURCE_KEYS = ("spec0", "spec1D", "specE_TT")
BASE_KEYS = ("n", "normalized", *SOURCE_KEYS, "cutoff")
ENTRY_KEYS = ("value", "mult")


def geometric_spectrum_to_json(gs: GeometricSpectrum) -> dict:
    return {
        "n": gs.n,
        "normalized": True,
        **{key: getattr(gs, key).to_json() for key in SOURCE_KEYS},
        "cutoff": {key: getattr(gs, key).cutoff.to_json() for key in SOURCE_KEYS},
    }


def _spectrum_from_json(obj: dict, key: str, cutoff: QuadReal) -> Spectrum:
    """The spectrum listed under ``key``, each line tagged input0, input1 or
    inputE (the key's fifth letter).  Each value is listed once: a repeat is
    refused, not merged."""
    entries = obj.get(key, [])
    if not isinstance(entries, list):
        raise ParseError(f"{key} must be a list of value/mult entries, got {entries!r}")
    raw = []
    seen = set()
    for k, entry in enumerate(entries):
        if isinstance(entry, dict):
            json_keys(entry, ENTRY_KEYS, f"{key} entry {entry!r}")
        try:
            value = quad_from_json(entry["value"])
            mult = json_int(entry["mult"], "mult")
        except (KeyError, TypeError, ValueError) as exc:
            raise ParseError(f"bad spectrum entry {entry!r}: {exc}") from exc
        if compare(value, cutoff) > 0:
            raise ParseError(f"{key} line {value} lies above its declared cutoff {cutoff}")
        if value in seen:
            raise ParseError(
                f"{key} lists the value {value} twice; list it once with its full multiplicity"
            )
        seen.add(value)
        raw.append((value, mult, ("input" + key[4], k, 0)))
    return merge(raw, cutoff)


def geometric_spectrum_from_json(obj: dict, *, hypothesis_override: bool = False) -> GeometricSpectrum:
    if "n" not in obj:
        raise ParseError("geometric spectrum JSON needs an integer 'n'")
    json_keys(obj, BASE_KEYS, "geometric spectrum JSON")
    n = json_int(obj["n"], "n")
    if obj.get("normalized", True) is not True:
        raise InvariantViolation("spectra must be stated for the Ric = (n-1)g scaling")
    cut_obj = obj.get("cutoff", 0)
    # an object is one QuadReal for all three spectra, or one per spectrum
    if isinstance(cut_obj, dict):
        json_keys(cut_obj, SOURCE_KEYS + QUAD_KEYS, "cutoff")
    if isinstance(cut_obj, dict) and cut_obj.keys() & set(SOURCE_KEYS):
        json_keys(cut_obj, SOURCE_KEYS, "per-spectrum cutoff")
        cuts = {key: quad_from_json(cut_obj.get(key, -1)) for key in SOURCE_KEYS}
    else:
        shared = quad_from_json(cut_obj)
        cuts = dict.fromkeys(SOURCE_KEYS, shared)
    return GeometricSpectrum(
        n=n,
        **{key: _spectrum_from_json(obj, key, cuts[key]) for key in SOURCE_KEYS},
        hypothesis_override=hypothesis_override,
    )
