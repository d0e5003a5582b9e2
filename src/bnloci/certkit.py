"""Non-emptiness certificates for twisted Brill-Noether loci.

Each rule checks the hypotheses of one construction by exact arithmetic and
returns a Certificate tree recording the conclusion, every inequality that
was checked, numeric witnesses and the curve class the argument needs.  A
certificate is "proved" when every hypothesis was checked and every
sub-certificate is itself proved; hypotheses that are existential over
bundles and cannot be discharged arithmetically are recorded as assumed and
leave the certificate "conditional".  Rules never upgrade strength: a stable
conclusion is never derived from a semistable input.  Every condition a rule
can refuse on goes through one helper, `_check`, which records the checked
hypothesis when the condition holds and the diagnostic when it fails, so the
hypotheses come in the order the rule checked them.

Curve assumptions form a lattice general > petri > smooth (a general curve
is Petri, a Petri curve is smooth).  Constructive rules that need a general
or Petri curve simply do not fire on weaker classes.  Facts from the
database match on their genus constraint and record the curve class they
need in the certificate, so a query on a plain smooth curve can still chain
through a general-curve fact; the resulting certificate carries
level_required = "general" and is valid on curves of that class.
"""

from __future__ import annotations

import json
import math
import re
from collections import namedtuple
from fractions import Fraction
from json.encoder import encode_basestring_ascii
from operator import attrgetter
from pathlib import Path
from typing import Optional, Sequence

from .bncalc import (
    _ascii_int,
    _check_genus,
    _locus,
    beta_classical,
    beta_twisted,
    beta_universal,
    chi_tensor,
    line_bn_degree_bound,
    asympt_neg,
    t4_beta_poly,
)
from .exactnum import ALWAYS_NEGATIVE, quad_neg_threshold
from .spanops import (
    _cs,
    dual_span_type,
    elem_transform_type,
    r_fold_type,
)

__all__ = [
    "CurveClass",
    "GenusConstraint",
    "Fact",
    "FactDatabase",
    "BUILTIN_FACTS",
    "Hypothesis",
    "Conclusion",
    "Certificate",
    "dumps_indented",
    "bn_line_nonempty",
    "bn_np1_nonempty",
    "s_nonempty",
    "certify_phi",
    "certify_rfold",
    "certify_elem",
    "certify_t9",
    "certify_t4",
    "cor_t3_d1_range",
    "certify_t10",
    "certify_c8",
    "Rule",
    "RULES",
    "run_rule",
    "revalidate",
]

_LEVEL_RANK = {"smooth": 0, "petri": 1, "general": 2}
_STRENGTH_RANK = {"semistable": 0, "stable": 1}


def _min_strength(*strengths: str) -> str:
    return min(strengths, key=_STRENGTH_RANK.__getitem__)


def _max_level(*levels: str) -> str:
    return max(levels, key=_LEVEL_RANK.__getitem__)


def _check(hypotheses: list[Hypothesis], diagnostics: Optional[list[str]],
           holds: bool, passed: str | None, failed: str | None, *args) -> bool:
    """One rule condition.  When it holds, append the checked hypothesis
    `passed` (unless None); otherwise append the diagnostic `failed`.  Both
    are str.format templates over args, each formatted only on its own
    branch.  Returns holds."""
    if holds:
        if passed is not None:
            hypotheses.append(Hypothesis(passed.format(*args)))
    elif diagnostics is not None:
        diagnostics.append(failed.format(*args))
    return holds


# Value classes are namedtuples whose __new__ checks the fields (_make and
# _replace skip it), except the mutable Certificate.


class CurveClass(namedtuple("CurveClass", "genus level hyperelliptic")):
    """Genus plus assumption level and hyperelliptic flag of the base curve."""

    __slots__ = ()

    def __new__(cls, genus: int, level: str = "smooth",
                hyperelliptic: str = "unknown") -> CurveClass:
        _check_genus(genus)
        if level not in _LEVEL_RANK:
            raise ValueError("unknown curve level %r" % (level,))
        if hyperelliptic not in ("yes", "no", "unknown"):
            raise ValueError("unknown hyperelliptic flag %r" % (hyperelliptic,))
        return tuple.__new__(cls, (genus, level, hyperelliptic))

    def satisfies(self, required: str) -> bool:
        """True when this curve class implies the required one."""
        return _LEVEL_RANK[self.level] >= _LEVEL_RANK[required]

    @classmethod
    def parse(cls, text: str) -> "CurveClass":
        """Parse "level:genus" with an optional ",hyp" / ",nonhyp" suffix."""
        head, _, tail = text.partition(":")
        if not tail:
            raise ValueError(
                "curve must look like level:genus[,hyp|nonhyp], got %r" % (text,)
            )
        genus, comma, flag = tail.partition(",")
        genus = _ascii_int(genus)
        if "," in flag:
            raise ValueError("curve takes at most one flag, got %r" % (text,))
        hyper = {"hyp": "yes", "nonhyp": "no"}.get(flag) if comma else "unknown"
        if hyper is None:
            raise ValueError("unknown curve flag %r" % (flag,))
        return cls(genus=genus, level=head, hyperelliptic=hyper)

    def to_dict(self) -> dict:
        return self._asdict()


class GenusConstraint(namedtuple("GenusConstraint", "equals minimum parity")):
    """Genus predicate of a fact: equality, lower bound and parity combine."""

    __slots__ = ()

    def __new__(cls, equals: int | None = None, minimum: int | None = None,
                parity: str | None = None) -> GenusConstraint:
        if parity not in (None, "odd", "even"):
            raise ValueError("parity must be odd or even, got %r" % (parity,))
        return tuple.__new__(cls, (equals, minimum, parity))

    def matches(self, g: int) -> bool:
        if self.equals is not None and g != self.equals:
            return False
        if self.minimum is not None and g < self.minimum:
            return False
        if self.parity == "odd" and g % 2 == 0:
            return False
        if self.parity == "even" and g % 2 == 1:
            return False
        return True

    def describe(self) -> str:
        pieces = []
        if self.equals is not None:
            pieces.append("g = %d" % self.equals)
        if self.minimum is not None:
            pieces.append("g >= %d" % self.minimum)
        if self.parity is not None:
            pieces.append("g %s" % self.parity)
        return ", ".join(pieces) if pieces else "any g >= 2"

    def to_dict(self) -> dict:
        return {key: value for key, value in zip(("equals", "min", "parity"), self)
                if value is not None}


_ABSENT = object()
_JSON_TYPE_NAMES = {int: "an integer", str: "a string", dict: "a JSON object"}
# ASCII only: int() would also read "g+\u0661_0" as g+10.
_DEGREE_TEXT = re.compile(r"g([+-][0-9]+)?")


def _field(record: dict, name: str, types: tuple, default=_ABSENT, keys=()):
    """Field `name` of a JSON record, from the first of `keys` (default
    `name`) that is set.  Types are exact, so true is no integer and 14.5
    is refused, and text must encode as UTF-8.  A JSON null counts as absent,
    except where absence means a default: there it is refused, not widened."""
    keys = keys or (name,)
    for key in keys:
        value = record.get(key)
        if value is not None:
            break
    else:
        if default is _ABSENT:
            raise ValueError("fact record is missing the field %s"
                             % " or ".join(map(repr, keys)))
        if default is None or key not in record:
            return default
    if type(value) not in types:
        raise ValueError("fact field %s must be %s, got %r"
                         % (name, _JSON_TYPE_NAMES[types[0]], value))
    if type(value) is str and not value.isascii():
        try:
            value.encode("utf-8")
        except UnicodeEncodeError:
            raise ValueError("fact field %s must be UTF-8 text, got %r"
                             % (name, value)) from None
    return value


def _degree_offset(text: str) -> int:
    """N of a genus-relative degree "g", "g+N" or "g-N"; spaces are ignored."""
    match = _DEGREE_TEXT.fullmatch(text.replace(" ", ""))
    try:
        return int(match[1] or 0)
    except (TypeError, ValueError):  # no match, or past int()'s digit limit
        raise ValueError("fact field d must be an integer or g+offset, got %r"
                         % (text,)) from None


class Fact(namedtuple("Fact", "kind n sections degree degree_offset_from_genus "
                              "level genus citation builtin")):
    """A cited non-emptiness fact.

    kind "S" asserts a generated coherent system of type (n, d, sections)
    with stable dual span exists; "B" and "Btilde" assert non-emptiness of
    the stable resp. semistable locus with `sections` sections.  The degree
    is either absolute or an offset from the genus (d = g + offset).
    """

    __slots__ = ()

    def __new__(cls, kind: str, n: int, sections: int, degree: int | None = None,
                degree_offset_from_genus: int | None = None, level: str = "smooth",
                genus: GenusConstraint = GenusConstraint(), citation: str = "",
                builtin: bool = False) -> Fact:
        if kind not in ("S", "B", "Btilde"):
            raise ValueError("fact kind must be S, B or Btilde, got %r" % (kind,))
        if n < 1 or sections < 1:
            raise ValueError("fact rank and section count must be positive")
        if (degree is None) == (degree_offset_from_genus is None):
            raise ValueError("exactly one of degree / genus offset must be set")
        if level not in _LEVEL_RANK:
            raise ValueError("unknown curve level %r" % (level,))
        if not citation:
            raise ValueError("every fact must carry a citation")
        return tuple.__new__(cls, (kind, n, sections, degree, degree_offset_from_genus,
                                   level, genus, citation, builtin))

    def degree_at(self, g: int) -> int:
        if self.degree is not None:
            return self.degree
        return g + self.degree_offset_from_genus

    def key(self) -> tuple:
        """(kind, n, sections, degree, degree_offset_from_genus)"""
        return self[:5]

    def matches(self, genus: int, n: int, d: int, sections: int) -> bool:
        return (
            self.n == n
            and self.sections == sections
            and self.genus.matches(genus)
            and self.degree_at(genus) == d
        )

    def _degree_field(self) -> int | str:
        """The record's "d": the degree, or its text "g+N" / "g-N"."""
        if self.degree is not None:
            return self.degree
        return "g%+d" % self.degree_offset_from_genus

    def describe(self) -> str:
        return "%s(%d,%s,%d)" % (self.kind, self.n, self._degree_field(),
                                 self.sections)

    def to_record(self) -> dict:
        return {"kind": self.kind, "n": self.n, "d": self._degree_field(),
                "v" if self.kind == "S" else "k": self.sections,
                "level": self.level, "genus": self.genus.to_dict(),
                "citation": self.citation}

    @classmethod
    def from_record(cls, record: dict) -> "Fact":
        if type(record) is not dict:
            raise ValueError("a fact record must be a JSON object, got %r" % (record,))
        kind = _field(record, "kind", (str,))
        degree = _field(record, "d", (int, str))
        offset = None
        if type(degree) is str:
            degree, offset = None, _degree_offset(degree)
        genus = _field(record, "genus", (dict,), {})
        return cls(
            kind=kind,
            n=_field(record, "n", (int,)),
            sections=_field(record, "section count", (int,),
                            keys=("v", "k") if kind == "S" else ("k", "v")),
            degree=degree,
            degree_offset_from_genus=offset,
            level=_field(record, "level", (str,), "smooth"),
            genus=GenusConstraint(
                equals=_field(genus, "genus equals", (int,), None, ("equals",)),
                minimum=_field(genus, "genus min", (int,), None, ("min",)),
                parity=_field(genus, "genus parity", (str,), None, ("parity",)),
            ),
            citation=_field(record, "citation", (str,), ""),
        )


BUILTIN_FACTS: tuple[Fact, ...] = (
    Fact(
        kind="S",
        n=2,
        sections=4,
        degree_offset_from_genus=3,
        level="general",
        genus=GenusConstraint(minimum=5, parity="odd"),
        citation=(
            "rank-2 coherent systems of type (2, g+3, 4) with stable dual span "
            "exist on a general curve of odd genus at least 5"
        ),
        builtin=True,
    ),
    Fact(
        kind="S",
        n=2,
        sections=5,
        degree=10,
        level="general",
        genus=GenusConstraint(equals=6),
        citation=(
            "rank-2 coherent systems of type (2, 10, 5) with stable dual span "
            "exist on a general curve of genus 6"
        ),
        builtin=True,
    ),
    Fact(
        kind="B",
        n=2,
        sections=5,
        degree=10,
        level="general",
        genus=GenusConstraint(equals=6),
        citation="non-emptiness of B(2, 10, 5) on a general curve of genus 6",
        builtin=True,
    ),
    Fact(
        kind="B",
        n=6,
        sections=7,
        degree=22,
        level="general",
        genus=GenusConstraint(equals=10),
        citation=(
            "non-emptiness of B(6, 22, 7) on a general curve of genus 10: "
            "the point (22/6, 7/6) lies in the bpn region"
        ),
        builtin=True,
    ),
)
_BUILTIN_KEYS = frozenset(f.key() for f in BUILTIN_FACTS)


class FactDatabase:
    """Built-in facts merged with user facts; built-ins win on conflicts."""

    def __init__(self, user_facts: tuple[Fact, ...] | list[Fact] = ()) -> None:
        self._user = [f for f in user_facts if f.key() not in _BUILTIN_KEYS]

    @classmethod
    def load(cls, path: str | Path | None = None) -> "FactDatabase":
        if path is None:
            return cls()
        path = Path(path)
        if not path.exists():
            # A typo in the path must not silently drop every user fact.
            raise ValueError("facts file %s does not exist" % path)
        records = json.loads(path.read_text(encoding="utf-8"))
        if not isinstance(records, list):
            raise ValueError("facts file must hold a JSON array of fact records")
        facts = [Fact.from_record(r) for r in records]
        seen = set()
        for fact in facts:
            if fact.key() in seen:
                raise ValueError(
                    "facts file %s holds fact %s twice" % (path, fact.describe())
                )
            seen.add(fact.key())
        return cls(facts)

    def save(self, path: str | Path) -> None:
        records = [f.to_record() for f in self._user]
        Path(path).write_text(dumps_indented(records) + "\n", encoding="utf-8")

    def add(self, fact: Fact) -> None:
        if fact.key() in _BUILTIN_KEYS:
            raise ValueError(
                "fact %s conflicts with a built-in fact" % fact.describe()
            )
        if fact.key() in {f.key() for f in self._user}:
            raise ValueError("fact %s is already a user fact" % fact.describe())
        self._user.append(fact)

    def facts(self) -> list[Fact]:
        return list(BUILTIN_FACTS) + self._user

    def _find(self, kind: str, genus: int, n: int, d: int, sections: int):
        for fact in self.facts():
            if fact.kind == kind and fact.matches(genus, n, d, sections):
                return fact
        return None

    def find_s(self, genus: int, n: int, d: int, v: int) -> Fact | None:
        return self._find("S", genus, n, d, v)

    def find_b(self, genus: int, n: int, d: int, k: int) -> Fact | None:
        return self._find("B", genus, n, d, k) or self._find("Btilde", genus, n, d, k)


class Hypothesis(namedtuple("Hypothesis", "description status")):
    """One recorded hypothesis: checked arithmetically, or assumed."""

    __slots__ = ()

    def __new__(cls, description: str, status: str = "checked") -> Hypothesis:
        if status not in ("checked", "assumed"):
            raise ValueError("hypothesis status must be checked or assumed")
        return tuple.__new__(cls, (description, status))


class Conclusion(namedtuple("Conclusion", "kind strength n1 d1 n2 d2 k")):
    """What a certificate asserts: a locus of one of four kinds.

    kind "universal" is the two-sided locus (n1, d1) x (n2, d2) with k
    sections of the tensor product; "bn" is B(n1, d1, k); "s" is the
    coherent-system locus S(n1, d1, k); "twisted" is the one-sided locus of
    (n2, d2)-bundles with k sections after twisting by some bundle of type
    (n1, d1).  Strength "semistable" means the tilde (semistable) variant.
    """

    __slots__ = ()

    def __new__(cls, kind: str, strength: str, n1: int | None = None,
                d1: int | None = None, n2: int | None = None, d2: int | None = None,
                k: int | None = None) -> Conclusion:
        if kind not in ("universal", "bn", "s", "twisted"):
            raise ValueError("unknown conclusion kind %r" % (kind,))
        if strength not in _STRENGTH_RANK:
            raise ValueError("unknown strength %r" % (strength,))
        return tuple.__new__(cls, (kind, strength, n1, d1, n2, d2, k))

    def to_dict(self) -> dict:
        return {"kind": self.kind, "n1": self.n1, "d1": self.d1, "n2": self.n2,
                "d2": self.d2, "k": self.k, "strength": self.strength}


class Certificate:
    """A machine-checkable derivation: rule, hypotheses, witnesses, subtree.

    The one mutable value class: equal by value, hence unhashable."""

    __slots__ = ("rule", "citation", "conclusion", "beta", "hypotheses",
                 "subcertificates", "status", "witnesses", "level_required",
                 "curve", "notes", "inputs")

    def __init__(self, rule: str, citation: str, conclusion: Conclusion,
                 beta: int | None, hypotheses: list[Hypothesis],
                 subcertificates: list[Certificate], status: str, witnesses: dict,
                 level_required: str, curve: CurveClass, notes: list[str],
                 inputs: dict) -> None:
        (self.rule, self.citation, self.conclusion, self.beta, self.hypotheses,
         self.subcertificates, self.status, self.witnesses, self.level_required,
         self.curve, self.notes, self.inputs) = (
            rule, citation, conclusion, beta, hypotheses, subcertificates, status,
            witnesses, level_required, curve, notes, inputs)

    _values = property(attrgetter(*__slots__))

    def __eq__(self, other) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values == other._values

    __hash__ = None  # type: ignore[assignment]

    def __repr__(self) -> str:
        return "Certificate(%s)" % ", ".join(
            "%s=%r" % pair for pair in zip(self.__slots__, self._values))

    def to_dict(self) -> dict:
        return {
            "rule": self.rule,
            "citation": self.citation,
            "conclusion": self.conclusion.to_dict(),
            "beta": self.beta,
            "hypotheses": [{"description": h.description, "status": h.status}
                           for h in self.hypotheses],
            "subcertificates": [s.to_dict() for s in self.subcertificates],
            "status": self.status,
            "witnesses": dict(self.witnesses),
            "level_required": self.level_required,
            "curve": self.curve.to_dict(),
            "notes": list(self.notes),
            "inputs": self.inputs,
        }

    def to_json(self) -> str:
        return dumps_indented(self.to_dict())


# JSON text of each scalar type, looked up by exact type.  The C string
# encoder is the one json.dumps itself uses with ensure_ascii.
_SCALARS = {
    str: encode_basestring_ascii,
    int: int.__repr__,
    bool: {True: "true", False: "false"}.__getitem__,
    type(None): {None: "null"}.__getitem__,
}
_scalar = _SCALARS.get


def _write(value, indent: str, append) -> None:
    # Every piece goes to one list, joined once by dumps_indented.  Containers
    # look their scalar members up inline: a call per leaf is most of what
    # the writer would otherwise spend.
    kind = type(value)
    if kind is dict:
        if not value:
            append("{}")
            return
        inner = indent + "  "
        sep, after = "{\n" + inner, ",\n" + inner
        for key, item in value.items():
            text = _scalar(type(item))
            append(sep)
            sep = after
            # encode_basestring_ascii raises TypeError for a non-str key.
            append(encode_basestring_ascii(key))
            append(": ")
            if text is not None:
                append(text(item))
            else:
                _write(item, inner, append)
        append("\n" + indent + "}")
    elif kind is list or kind is tuple:
        if not value:
            append("[]")
            return
        inner = indent + "  "
        sep, after = "[\n" + inner, ",\n" + inner
        for item in value:
            text = _scalar(type(item))
            append(sep)
            sep = after
            if text is not None:
                append(text(item))
            else:
                _write(item, inner, append)
        append("\n" + indent + "]")
    else:
        text = _scalar(kind)
        if text is None:
            raise TypeError(
                "Object of type %s is not JSON serializable" % kind.__name__)
        append(text(value))


def dumps_indented(value) -> str:
    """The text of json.dumps(value, indent=2), without the pure-Python
    encoder that json falls back to whenever indent is set.

    Takes dicts with str keys, lists, tuples (written as lists), str, int,
    bool and None; anything else, such as a Fraction or a float, raises
    TypeError.
    """
    out: list[str] = []
    _write(value, "", out.append)
    return "".join(out)


def _finish(
    rule: str,
    citation: str,
    conclusion: Conclusion,
    beta: int | None,
    hypotheses: list[Hypothesis],
    witnesses: dict,
    own_level: str,
    curve: CurveClass,
    inputs: dict,
    subcertificates: Sequence[Certificate] = (),
    notes: Sequence[str] = (),
) -> Certificate:
    """The common tail of every rule: the required curve level is the
    strongest over the node and its sub-certificates, and the node is proved
    when every hypothesis is checked and every sub-certificate proved."""
    level, proved = own_level, all(h.status == "checked" for h in hypotheses)
    for sub in subcertificates:
        level = _max_level(level, sub.level_required)
        proved = proved and sub.status == "proved"
    return Certificate(rule, citation, conclusion, beta, hypotheses,
                       list(subcertificates), "proved" if proved else "conditional",
                       witnesses, level, curve, list(notes), inputs)


def _inputs(rule: str, *values) -> dict:
    """The inputs record of a registry rule: its parameters in signature
    order, each triple as a list."""
    return dict(zip(RULES[rule].params, values))


# ---------------------------------------------------------------------------
# Fact-backed certificates


def _fact_certificate(fact: Fact, curve: CurveClass) -> Certificate:
    d = fact.degree_at(curve.genus)
    if fact.kind == "S":
        kind, strength = "s", "stable"
    elif fact.kind == "B":
        kind, strength = "bn", "stable"
    else:
        kind, strength = "bn", "semistable"
    beta = beta_classical(curve.genus, fact.n, d, fact.sections)
    conclusion = Conclusion(
        kind=kind, strength=strength, n1=fact.n, d1=d, k=fact.sections
    )
    hyp = Hypothesis(
        "genus constraint of the cited fact holds at g = %d (%s)"
        % (curve.genus, fact.genus.describe())
    )
    return _finish(
        rule="fact",
        citation=fact.citation,
        conclusion=conclusion,
        beta=beta,
        hypotheses=[hyp],
        witnesses={"beta": beta},
        own_level=fact.level,
        curve=curve,
        inputs={
            "kind": fact.kind,
            "n": fact.n,
            "d": d,
            "sections": fact.sections,
        },
    )


# ---------------------------------------------------------------------------
# Rank-one and n+1-section rules


CITE_CLASSICAL_BN = (
    "classical Brill-Noether theory: linear systems of type (d, v) exist on "
    "a Petri curve exactly when beta(1, d, v) >= 0"
)


def bn_line_nonempty(
    curve: CurveClass, d: int, v: int, *, diagnostics: Optional[list[str]] = None
) -> Certificate | None:
    """Certify B(1, d, v) nonempty from classical theory.

    Applies on Petri and general curves; on a merely smooth curve no rule
    applies and None is returned.
    """
    if v < 1:
        raise ValueError("section count must be at least 1, got %r" % (v,))
    hypotheses: list[Hypothesis] = []
    if not _check(hypotheses, diagnostics, curve.satisfies("petri"), None,
                  "line-bundle rule needs a Petri or general curve"):
        return None
    beta = beta_classical(curve.genus, 1, d, v)
    if not _check(hypotheses, diagnostics, beta >= 0, "beta(1,{0},{1}) = {2} >= 0",
                  "beta(1,{0},{1}) = {2} < 0: no linear system of that type",
                  d, v, beta):
        return None
    conclusion = Conclusion(kind="bn", strength="stable", n1=1, d1=d, k=v)
    return _finish(
        rule="line",
        citation=CITE_CLASSICAL_BN,
        conclusion=conclusion,
        beta=beta,
        hypotheses=hypotheses,
        witnesses={"beta": beta},
        own_level="petri",
        curve=curve,
        inputs=_inputs("line", d, v),
    )


def _petri_f_bound(g: int, n1: int) -> Fraction:
    """n1 + g + (n1^2-n1-2)g / (2(n1-1)^2): the degree bound of Petri case
    "f", which is also the top of c8's Petri window."""
    return n1 + g + Fraction((n1 * n1 - n1 - 2) * g, 2 * (n1 - 1) * (n1 - 1))


def _petri_cases(
    curve: CurveClass, n1: int, d1: int, facts: FactDatabase
) -> tuple[list[str], list[Fact]]:
    """Labels of the known Petri-curve stability cases satisfied by (n1, d1),
    n1 >= 2, and the rank-one S facts that cases "c" and "d" used: those two
    cases quantify over an auxiliary generated linear system."""
    g = curve.genus
    labels: list[str] = []
    used: list[Fact] = []
    if n1 <= 4:
        labels.append("a")
    if g >= 2 * n1 - 4:
        labels.append("b")
    for fact in facts.facts():
        if fact.kind != "S" or fact.n != 1 or fact.sections != n1 + 1:
            continue
        if not fact.genus.matches(g):
            continue
        d0 = fact.degree_at(g)
        if "c" not in labels and d1 > d0 and (d1 - d0) % n1 == 0:
            labels.append("c")
            used.append(fact)
        if (
            "d" not in labels
            and d0 % n1 == 0
            and d0 // n1 >= 1
            and d1 > d0
            and (d1 % n1 in (1, n1 - 1))
        ):
            labels.append("d")
            used.append(fact)
    if d1 <= 2 * n1:
        labels.append("e")
    bound_f = _petri_f_bound(g, n1)
    if d1 < bound_f or (g % 2 == 1 and d1 == bound_f):
        labels.append("f")
    if d1 >= n1 * ((g + 3 + 1) // 2) + 1:
        labels.append("g")
    elif g % 2 == 0:
        catalan_bound = math.factorial(g) // (
            math.factorial(g // 2) * math.factorial(g // 2 + 1)
        )
        if n1 <= catalan_bound and d1 >= n1 * (g + 2) // 2 + 1:
            labels.append("g")
    order = "abcdefg"
    labels.sort(key=order.index)
    return labels, used


CITE_NP1_GENERAL = (
    "dual spans of general linear systems with n1+1 sections are stable on a "
    "general curve (Farkas-Larson for n1 >= 3, classical for n1 = 2), and "
    "the degree bound is also necessary"
)
CITE_NP1_PETRI = (
    "dual spans of general linear systems are stable on Petri curves in all "
    "of the listed cases"
)


def bn_np1_nonempty(
    curve: CurveClass,
    n1: int,
    d1: int,
    facts: FactDatabase | None = None,
    *,
    diagnostics: Optional[list[str]] = None,
) -> Certificate | None:
    """Certify B(n1, d1, n1+1) nonempty via dual spans of linear systems.

    On a general curve the criterion beta(1, d1, n1+1) >= 0 is exact, with
    the single exception g = 2, d1 = 2*n1 where only the semistable locus is
    nonempty.  On a Petri curve the rule fires only in the known stability
    cases.  On a merely smooth curve no rule applies.
    """
    if n1 < 2:
        raise ValueError("requires n1 >= 2, got %r" % (n1,))
    facts = facts if facts is not None else FactDatabase()
    g = curve.genus
    beta = beta_classical(g, 1, d1, n1 + 1)
    general = curve.satisfies("general")
    hypotheses: list[Hypothesis] = []
    if not (
        _check(hypotheses, diagnostics, curve.satisfies("petri"), None,
               "no rule certifies B(n,d,n+1) on a merely smooth curve")
        and _check(hypotheses, diagnostics, beta >= 0, "beta(1,{0},{1}) = {2} >= 0",
                   "beta(1,{0},{1}) = {2} < 0: {3}", d1, n1 + 1, beta,
                   "the locus is empty on a general curve" if general
                   else "empty on any Petri curve")
    ):
        return None
    notes = []
    if general:
        exceptional = g == 2 and d1 == 2 * n1
        strength = "semistable" if exceptional else "stable"
        if exceptional:
            notes.append(
                "at genus 2 with d1 = 2*n1 the dual span is strictly semistable; "
                "only the semistable locus is certified"
            )
        citation, level = CITE_NP1_GENERAL, "general"
        witnesses = {"beta": beta, "exceptional_genus2": exceptional}
    else:
        labels, used = _petri_cases(curve, n1, d1, facts)
        if not _check(hypotheses, diagnostics, bool(labels),
                      "Petri stability case(s) {0} hold",
                      "no known Petri stability case covers this degree",
                      ",".join(labels)):
            return None
        citation, strength = CITE_NP1_PETRI, "stable"
        level = _max_level("petri", *[f.level for f in used])
        witnesses = {"beta": beta, "cases": labels}
    return _finish(
        rule="np1",
        citation=citation,
        conclusion=Conclusion(kind="bn", strength=strength, n1=n1, d1=d1, k=n1 + 1),
        beta=beta,
        hypotheses=hypotheses,
        witnesses=witnesses,
        own_level=level,
        curve=curve,
        inputs=_inputs("np1", n1, d1),
        notes=notes,
    )


# ---------------------------------------------------------------------------
# Coherent systems with stable dual span


CITE_S_GENERAL = (
    "general linear systems on a general curve generate and have stable dual "
    "span whenever beta(1, d, v) >= 0 (Farkas-Larson)"
)
CITE_MISTRETTA = (
    "Mistretta: for a general subspace of codimension 1 <= c <= g of the "
    "sections of a line bundle of degree d >= 2g+2c the dual span is "
    "semistable, and stable unless d = 2g+2c on a hyperelliptic curve"
)


def s_nonempty(
    curve: CurveClass,
    cs: tuple[int, int, int],
    facts: FactDatabase | None = None,
    *,
    diagnostics: Optional[list[str]] = None,
) -> Certificate | None:
    """Certify that S(n, d, v) is nonempty.

    Rule order: rank-one systems on a general curve, then rank-one systems
    on any smooth curve with the codimension bound, then the fact database.
    """
    n, d, v = _cs(cs)
    facts = facts if facts is not None else FactDatabase()
    g = curve.genus
    hypotheses: list[Hypothesis] = []
    if not _check(hypotheses, diagnostics, v > n, None, "S(n,d,v) requires v > n"):
        return None
    if n == 1:
        beta = beta_classical(g, 1, d, v)
        general = curve.satisfies("general") and beta >= 0
        c = (d - g + 1) - v
        if general or (1 <= c <= g and d >= 2 * g + 2 * c):
            notes = []
            if general:
                exceptional = g == 2 and d == 2 * (v - 1)
                strength = "semistable" if exceptional else "stable"
                if exceptional:
                    notes.append(
                        "at genus 2 with d = 2(v-1) the dual span is strictly "
                        "semistable"
                    )
                citation, level = CITE_S_GENERAL, "general"
                hypotheses.append(
                    Hypothesis("beta(1,%d,%d) = %d >= 0" % (d, v, beta)))
                witnesses = {"branch": "rank1-general", "beta": beta}
            else:
                boundary = d == 2 * g + 2 * c
                strength = (
                    "semistable" if boundary and curve.hyperelliptic != "no" else "stable"
                )
                if strength == "semistable":
                    notes.append(
                        "d = 2g+2c is the boundary case; stability needs a "
                        "non-hyperelliptic curve"
                    )
                citation, level = CITE_MISTRETTA, "smooth"
                hypotheses += [
                    Hypothesis("codimension c = (d-g+1) - v = %d lies in [1, %d]"
                               % (c, g)),
                    Hypothesis("d = %d >= 2g+2c = %d" % (d, 2 * g + 2 * c)),
                ]
                witnesses = {"branch": "rank1-mistretta", "c": c}
            return _finish(
                rule="s",
                citation=citation,
                conclusion=Conclusion(kind="s", strength=strength, n1=1, d1=d, k=v),
                beta=beta,
                hypotheses=hypotheses,
                witnesses=witnesses,
                own_level=level,
                curve=curve,
                inputs=_inputs("s", [n, d, v]),
                notes=notes,
            )
    fact = facts.find_s(g, n, d, v)
    if not _check(hypotheses, diagnostics, fact is not None, None,
                  "no rule or fact certifies S({0},{1},{2}) on this curve", n, d, v):
        return None
    return _fact_certificate(fact, curve)


def _certify_b(
    curve: CurveClass,
    n1: int,
    d1: int,
    k1: int,
    facts: FactDatabase | None,
    diagnostics: Optional[list[str]],
) -> Certificate | None:
    """Sub-certificate dispatcher for B(n1, d1, k1).  It resolves the default
    fact database, so the rules that call it pass `facts` on unresolved."""
    facts = facts if facts is not None else FactDatabase()
    if n1 == 1:
        cert = bn_line_nonempty(curve, d1, k1, diagnostics=diagnostics)
        if cert is not None:
            return cert
    elif k1 == n1 + 1:
        cert = bn_np1_nonempty(curve, n1, d1, facts, diagnostics=diagnostics)
        if cert is not None:
            return cert
    fact = facts.find_b(curve.genus, n1, d1, k1)
    if not _check([], diagnostics, fact is not None, None,
                  "no rule or fact certifies B({0},{1},{2}) on this curve", n1, d1, k1):
        return None
    return _fact_certificate(fact, curve)


# ---------------------------------------------------------------------------
# Dual-span product constructions


CITE_PHI = (
    "tensor section count for a stable dual span: h^0(E1 tensor D) >= k1*v "
    "when h^0(E* tensor E1) = 0"
)
CITE_RFOLD = "r-fold direct sums of a semistable dual span are semistable"
CITE_ELEM = (
    "elementary transformations of direct sums of pairwise distinct stable "
    "dual spans are stable"
)


def _dual_span_rule(
    rule: str,
    curve: CurveClass,
    locus1: tuple[int, int, int],
    cs: tuple[int, int, int],
    r: int | None,
    facts: FactDatabase | None,
    diagnostics: Optional[list[str]],
) -> Certificate | None:
    """Shared body of phi, rfold and elem: E1 in B(n1, d1, k1) paired with
    the dual span of a generated system (n, d, v) under the slope condition
    n*d1 < n1*d, which forces h^0(E* tensor E1) = 0.

    elem alone checks (v-n) | d, after v > n (so v - n is never zero) and
    before the slope condition, and needs both sub-certificates stable; it
    stops before S(n, d, v) when E1 is not stable.
    """
    n1, d1, k1 = _locus(locus1)
    n, d, v = _cs(cs)
    if r is not None and r < 1:
        raise ValueError("fold count must be positive, got %r" % (r,))
    elem = rule == "elem"
    hypotheses: list[Hypothesis] = []
    if not (
        _check(hypotheses, diagnostics, v > n,
               None if elem else "generated system has v = {0} > n = {1}",
               "the generated system must have v > n", v, n)
        and (not elem or _check(
            hypotheses, diagnostics, d % (v - n) == 0,
            "degree divisibility (v-n) | d: {1} | {0}",
            "elementary transformation requires (v-n) | d, got d={0}, v-n={1}",
            d, v - n))
        and _check(hypotheses, diagnostics, n * d1 < n1 * d,
                   "slope condition n*d1 = {0} < n1*d = {1}",
                   "slope condition fails: need n*d1 < n1*d, got {0} >= {1}",
                   n * d1, n1 * d)
    ):
        return None
    sub_b = _certify_b(curve, n1, d1, k1, facts, diagnostics)
    if sub_b is None or (elem and not _check(
            hypotheses, diagnostics, sub_b.conclusion.strength == "stable", None,
            "the elementary transformation needs a stable E1")):
        return None
    sub_s = s_nonempty(curve, cs, facts, diagnostics=diagnostics)
    if sub_s is None or (elem and not _check(
            hypotheses, diagnostics, sub_s.conclusion.strength == "stable", None,
            "the elementary transformation needs stable dual spans")):
        return None
    notes = []
    if rule == "phi":
        citation, target = CITE_PHI, dual_span_type(cs)
        strength = _min_strength(sub_b.conclusion.strength, sub_s.conclusion.strength)
    elif rule == "rfold":
        citation, target, strength = CITE_RFOLD, r_fold_type(cs, r), "semistable"
        notes.append(
            "direct sums are strictly semistable; only the semistable locus "
            "is certified"
        )
    else:
        citation, target, strength = CITE_ELEM, elem_transform_type(cs, r), "stable"
        if r >= 2:
            hypotheses.append(
                Hypothesis(
                    "the %d chosen coherent systems have pairwise non-isomorphic "
                    "dual spans" % r,
                    status="assumed",
                )
            )
    n2, d2, k2 = target
    k = k1 * k2
    beta = beta_universal(curve.genus, (n1, d1), (n2, d2), k)
    witnesses = {"k": k, "k2": k2}
    args = [[n1, d1, k1], [n, d, v]]
    if r is not None:
        witnesses["r"] = r
        args.append(r)
    witnesses.update(beta=beta, beta_negative=beta < 0)
    conclusion = Conclusion(
        kind="universal", strength=strength, n1=n1, d1=d1, n2=n2, d2=d2, k=k
    )
    return _finish(
        rule=rule,
        citation=citation,
        conclusion=conclusion,
        beta=beta,
        hypotheses=hypotheses,
        subcertificates=[sub_b, sub_s],
        witnesses=witnesses,
        own_level="smooth",
        curve=curve,
        notes=notes,
        inputs=_inputs(rule, *args),
    )


def certify_phi(
    curve: CurveClass,
    locus1: tuple[int, int, int],
    cs: tuple[int, int, int],
    facts: FactDatabase | None = None,
    *,
    diagnostics: Optional[list[str]] = None,
) -> Certificate | None:
    """Certify the universal locus via the dual-span pairing.

    Requires a certificate for B(n1, d1, k1), one for S(n, d, v), and the
    slope condition n*d1 < n1*d which forces h^0(E* tensor E1) = 0.  The
    conclusion has k = k1*v sections and the minimum of the sub-strengths.
    """
    return _dual_span_rule("phi", curve, locus1, cs, None, facts, diagnostics)


def certify_rfold(
    curve: CurveClass,
    locus1: tuple[int, int, int],
    cs: tuple[int, int, int],
    r: int,
    facts: FactDatabase | None = None,
    *,
    diagnostics: Optional[list[str]] = None,
) -> Certificate | None:
    """Certify the semistable universal locus for the r-fold sum of a dual
    span.  The conclusion is always semistable-only."""
    return _dual_span_rule("rfold", curve, locus1, cs, r, facts, diagnostics)


def certify_elem(
    curve: CurveClass,
    locus1: tuple[int, int, int],
    cs: tuple[int, int, int],
    r: int,
    facts: FactDatabase | None = None,
    *,
    diagnostics: Optional[list[str]] = None,
) -> Certificate | None:
    """Certify the stable universal locus for an elementary transformation of
    an r-fold sum of pairwise distinct stable dual spans.

    Needs (v - n) | d and stable sub-certificates on both sides.  For r >= 2
    the pairwise-distinctness of the r dual spans is recorded as an assumed
    hypothesis, so the certificate is conditional.
    """
    return _dual_span_rule("elem", curve, locus1, cs, r, facts, diagnostics)


CITE_T9 = (
    "generated stable bundles exist in every degree above n*g; a general "
    "section subspace generates, and the slope gap kills h^0(E* tensor E1)"
)


def certify_t9(
    curve: CurveClass,
    locus1: tuple[int, int, int],
    n: int,
    d: int,
    v: int,
    *,
    diagnostics: Optional[list[str]] = None,
) -> Certificate | None:
    """Certify the twisted locus B(v-n, d, v)(F) nonempty for some F of the
    type of locus1, without demanding stability of the dual span.

    Needs a general curve, d > n*g, n < v <= d - n*(g-1) and slope gap
    mu1 < d/(v-n).
    """
    n1, d1, k1 = _locus(locus1)
    if n < 1:
        raise ValueError("rank n must be positive, got %r" % (n,))
    g = curve.genus
    hypotheses: list[Hypothesis] = []
    if not (
        _check(hypotheses, diagnostics, curve.satisfies("general"), None,
               "this construction needs a general curve")
        and _check(hypotheses, diagnostics, d > n * g, "d = {0} > n*g = {1}",
                   "need d > n*g, got d={0}, n*g={1}", d, n * g)
        and _check(hypotheses, diagnostics, n < v, None,
                   "need v > n, got v={0}, n={1}", v, n)
        and _check(hypotheses, diagnostics, v <= d - n * (g - 1),
                   "n = {2} < v = {0} <= d - n*(g-1) = {1}",
                   "need v <= d - n*(g-1), got v={0}, bound={1}",
                   v, d - n * (g - 1), n)
    ):
        return None
    mu1, mu2 = Fraction(d1, n1), Fraction(d, v - n)
    if not _check(hypotheses, diagnostics, mu1 < mu2, "slope gap mu1 = {0} < mu2 = {1}",
                  "need mu1 < mu2, got {0} >= {1}", mu1, mu2):
        return None
    beta = beta_twisted(g, (v - n, d), (n1, d1), v)
    conclusion = Conclusion(
        kind="twisted", strength="stable", n1=n1, d1=d1, n2=v - n, d2=d, k=v
    )
    return _finish(
        rule="t9",
        citation=CITE_T9,
        conclusion=conclusion,
        beta=beta,
        hypotheses=hypotheses,
        witnesses={"k1k2": k1 * v, "beta": beta},
        own_level="general",
        curve=curve,
        notes=[
            "the conclusion holds for some twisting bundle F of rank %d and "
            "degree %d" % (n1, d1),
            "the upper range for v is taken inclusive; the underlying "
            "generation argument uses the strict form",
        ],
        inputs=_inputs("t9", [n1, d1, k1], n, d, v),
    )


# ---------------------------------------------------------------------------
# Kernel-bundle constructions


CITE_T4 = (
    "kernel bundle section count: h^0(E1 tensor D*) >= v*k1 - h^0(E1 tensor E), "
    "with h^1(E1 tensor E) = 0 supplying the count by Riemann-Roch"
)


def certify_t4(
    curve: CurveClass,
    n1: int,
    d1: int,
    k1: int,
    n: int,
    e: int,
    f: int,
    d: int,
    facts: FactDatabase | None = None,
    *,
    diagnostics: Optional[list[str]] = None,
) -> Certificate | None:
    """Certify the universal locus via the kernel construction with the
    excess parameterisation k = d*(k1-n1) - e, v = d - n*(g-1) - f.

    Checks the window  n(g-1)(k1-n1) + n*d1 + f*k1 <= e < d*(k1-n1).  The
    lower end is the section-count bound k <= v*k1 - chi(E1 tensor E), the
    upper end is k >= 1.  Records the eventually-negative flag and the
    explicit degree threshold beyond which the BN number of the family is
    negative.
    """
    if n1 < 2 or k1 <= n1:
        raise ValueError("requires k1 > n1 >= 2, got k1=%r n1=%r" % (k1, n1))
    if n < 1:
        raise ValueError("rank n must be positive, got %r" % (n,))
    g = curve.genus
    lower = n * (g - 1) * (k1 - n1) + n * d1 + f * k1
    upper = d * (k1 - n1)
    n2 = d - n * g - f
    hypotheses: list[Hypothesis] = []
    if not (
        _check(hypotheses, diagnostics, lower <= e,
               "excess window lower bound {0} <= e = {1}",
               "excess window lower bound fails: need {0} <= e, got e={1}", lower, e)
        and _check(hypotheses, diagnostics, e < upper,
                   "excess window upper bound e = {0} < {1} (so k >= 1)",
                   "excess window upper bound fails: need e < {1}, got e={0}", e, upper)
        and _check(hypotheses, diagnostics, n2 >= 1, "kernel rank v - n = {0} >= 1",
                   "kernel rank v - n = {0} is not positive", n2)
    ):
        return None
    v = d - n * (g - 1) - f
    d2 = -d
    k = d * (k1 - n1) - e
    if k < 1:
        raise AssertionError("the excess window guarantees k >= 1")
    sub_b = _certify_b(curve, n1, d1, k1, facts, diagnostics)
    if sub_b is None:
        return None
    sub_s = s_nonempty(curve, (n, d, v), facts, diagnostics=diagnostics)
    if sub_s is None:
        return None
    mu_tensor = Fraction(d1, n1) + Fraction(d, n)
    if mu_tensor > 2 * g - 2:
        hypotheses.append(Hypothesis(
            "slope of E1 tensor E is %s > 2g-2 = %d, forcing h^1 = 0"
            % (mu_tensor, 2 * g - 2)))
    else:
        hypotheses.append(Hypothesis(
            "there exists E1 in B(%d,%d,%d) with h^1(E1 tensor E) = 0"
            % (n1, d1, k1), status="assumed"))
    beta = beta_universal(g, (n1, d1), (n2, d2), k)
    poly = t4_beta_poly(g, n1, d1, k1, n, e, f)
    threshold = quad_neg_threshold(*poly)
    flag = asympt_neg(g, n1, d1, k1)
    strength = _min_strength(sub_b.conclusion.strength, sub_s.conclusion.strength)
    conclusion = Conclusion(
        kind="universal", strength=strength, n1=n1, d1=d1, n2=n2, d2=d2, k=k
    )
    return _finish(
        rule="t4",
        citation=CITE_T4,
        conclusion=conclusion,
        beta=beta,
        hypotheses=hypotheses,
        subcertificates=[sub_b, sub_s],
        witnesses={
            "k": k,
            "v": v,
            "beta": beta,
            "beta_negative": beta < 0,
            "beta_poly_in_d": list(poly),
            "negativity_threshold_d": (
                "always" if threshold is ALWAYS_NEGATIVE else threshold
            ),
            "asympt_neg": flag,
        },
        own_level="smooth",
        curve=curve,
        inputs=_inputs("t4", n1, d1, k1, n, e, f, d),
    )


def cor_t3_d1_range(curve: CurveClass, n1: int) -> range:
    """Admissible degrees d1 for the k1 = n1+1 kernel examples.

    Rank 2 uses [2 + ceil(2g/3), g+1]; ranks 3 and 4 use
    [n1 + ceil(n1*g/(n1+1)), (n1-1)*g + 1]; rank >= 5 on a Petri curve stops
    at n1 + floor(3g/2) unless g >= 2*n1 - 4 or the curve is general, in
    which case the full upper end applies.  May be empty.

    This is the corollary's statement of where the examples exist; no rule
    consults it.  c8's Petri window serves a narrower case: the degrees
    where Petri case "f" itself certifies B(n1, d1, n1+1).  The lower ends
    agree (beta(1, d1, n1+1) >= 0), and so do the upper ends at rank 2.
    """
    if n1 < 2:
        raise ValueError("requires n1 >= 2, got %r" % (n1,))
    if not curve.satisfies("petri"):
        raise ValueError("the degree window applies to Petri or general curves")
    g = curve.genus
    # At rank 2 the general ends are the rank-2 ones: 2 + ceil(2g/3), g+1.
    lo = math.ceil(line_bn_degree_bound(g, n1))
    hi = (n1 - 1) * g + 1
    if n1 >= 5 and not (curve.satisfies("general") or g >= 2 * n1 - 4):
        hi = n1 + (3 * g) // 2
    return range(lo, hi + 1)


def _kernel_line(
    curve: CurveClass,
    n1: int,
    k1: int,
    c: int,
    d: int,
    hypotheses: list[Hypothesis],
    diagnostics: Optional[list[str]],
) -> tuple[str, int] | None:
    """Shared prelude of t10 and c8: the kernel of a general codimension-c
    subspace of sections of a degree-d line bundle (Mistretta).

    Raises unless k1 > n1 >= 2 and 1 <= c <= g.  Returns None when
    d < 2g+2c; otherwise records the codimension and degree hypotheses and
    returns the strength the kernel supports (semistable at the boundary
    d = 2g+2c unless the curve is known non-hyperelliptic) and the kernel
    rank d-g-c, which d >= 2g+2c makes at least g+c >= 3.
    """
    if n1 < 2 or k1 <= n1:
        raise ValueError("requires k1 > n1 >= 2, got k1=%r n1=%r" % (k1, n1))
    g = curve.genus
    if not _check(hypotheses, None, 1 <= c <= g,
                  "codimension c = {0} lies in [1, {1}]", None, c, g):
        raise ValueError("codimension c must lie in [1, g], got %r" % (c,))
    floor = 2 * g + 2 * c
    boundary = d == floor
    if not _check(hypotheses, diagnostics, d >= floor,
                  "d = {0} = 2g+2c (boundary case)" if boundary
                  else "d = {0} > 2g+2c = {1}",
                  "degree condition fails: need d >= 2g+2c = {1}, got d={0}",
                  d, floor):
        return None
    return ("semistable" if boundary and curve.hyperelliptic != "no"
            else "stable"), d - g - c


CITE_T10 = (
    "kernel bundles of general section subspaces of a single line bundle "
    "(Mistretta) paired with the Riemann-Roch section count"
)


def certify_t10(
    curve: CurveClass,
    n1: int,
    d1: int,
    k1: int,
    c: int,
    d: int,
    k: int,
    facts: FactDatabase | None = None,
    *,
    diagnostics: Optional[list[str]] = None,
) -> Certificate | None:
    """Certify the universal locus via the rank-one kernel construction.

    The line bundle has degree d with a general section subspace of
    codimension c, 1 <= c <= g, and either d > 2g+2c, or d = 2g+2c with the
    conclusion capped at semistable unless the curve is known
    non-hyperelliptic.  The section count must satisfy
    k <= (d-g+1)(k1-n1) - c*k1 - d1, and B(n1, d1, k1) must be certified.
    """
    hypotheses: list[Hypothesis] = []
    line = _kernel_line(curve, n1, k1, c, d, hypotheses, diagnostics)
    if line is None:
        return None
    mistretta_strength, n2 = line
    g = curve.genus
    max_k = (d - g + 1) * (k1 - n1) - c * k1 - d1
    if not (
        _check(hypotheses, diagnostics, k <= max_k, "section bound k = {0} <= {1}",
               "section bound fails: need k <= {1}, got k={0}", k, max_k)
        and _check(hypotheses, diagnostics, k >= 1, None,
                   "section count k must be at least 1")
    ):
        return None
    hypotheses.append(Hypothesis("kernel rank d-g-c = %d >= 1" % (n2,)))
    d2 = -d
    sub_b = _certify_b(curve, n1, d1, k1, facts, diagnostics)
    if sub_b is None:
        return None
    strength = _min_strength(sub_b.conclusion.strength, mistretta_strength)
    e = d * (k1 - n1) - k
    e_bound = (g - 1) * (k1 - n1) + c * k1 + d1
    beta = beta_universal(g, (n1, d1), (n2, d2), k)
    notes = []
    if mistretta_strength == "semistable":
        notes.append(
            "d = 2g+2c is the boundary case; the conclusion is semistable "
            "unless the curve is non-hyperelliptic"
        )
    conclusion = Conclusion(
        kind="universal", strength=strength, n1=n1, d1=d1, n2=n2, d2=d2, k=k
    )
    return _finish(
        rule="t10",
        citation=CITE_T10,
        conclusion=conclusion,
        beta=beta,
        hypotheses=hypotheses,
        subcertificates=[sub_b],
        witnesses={
            "k": k,
            "max_k": max_k,
            "e": e,
            "e_lower_bound": e_bound,
            "e_bound_holds": e >= e_bound,
            "h0_tensor": chi_tensor(g, (n1, d1), (1, d)),
            "beta": beta,
            "beta_negative": beta < 0,
            "asympt_neg": asympt_neg(g, n1, d1, k1),
        },
        own_level="smooth",
        curve=curve,
        notes=notes,
        inputs=_inputs("t10", n1, d1, k1, c, d, k),
    )


CITE_C8_I = (
    "kernel bundle count with fixed excess at a degree not divisible by the "
    "rank"
)
CITE_C8_II = (
    "kernel bundle count with k1 = n1+1 on a Petri curve in the admissible "
    "degree window"
)


def certify_c8(
    curve: CurveClass,
    n1: int,
    d1: int,
    k1: int,
    c: int,
    d: int,
    e: int,
    facts: FactDatabase | None = None,
    *,
    diagnostics: Optional[list[str]] = None,
) -> Certificate | None:
    """Certify the universal locus via the fixed-excess rank-one kernel
    construction, k = d*(k1-n1) - e.

    Branch selection: with k1 = n1+1 on a Petri (or general) curve and d1 in
    the admissible window, the first-locus existence is itself certified;
    otherwise the non-divisibility branch applies and the first-locus
    existence is taken from the fact database or recorded as assumed.

    The window, line_bn_degree_bound(g, n1) <= d1 < _petri_f_bound(g, n1),
    serves the case where Petri case "f" certifies B(n1, d1, n1+1) at every
    d1 in it.  It lies inside cor_t3_d1_range except on a Petri curve of
    genus 11 at n1 = 8, where it reaches d1 = 25 and the corollary stops at
    24.
    """
    hypotheses: list[Hypothesis] = []
    line = _kernel_line(curve, n1, k1, c, d, hypotheses, diagnostics)
    if line is None:
        return None
    mistretta_strength, n2 = line
    g = curve.genus
    k = d * (k1 - n1) - e
    if not _check(hypotheses, diagnostics, k >= 1, None,
                  "excess too large: k = d*(k1-n1) - e = {0} < 1", k):
        return None
    d2 = -d
    # Both branches: at the Petri window's k1 = n1+1 this is g-1 + c*(n1+1) + d1.
    e_bound = (g - 1) * (k1 - n1) + c * k1 + d1
    beta = beta_universal(g, (n1, d1), (n2, d2), k)
    witnesses = {
        "k": k,
        "e": e,
        "beta": beta,
        "beta_negative": beta < 0,
        "asympt_neg": asympt_neg(g, n1, d1, k1),
    }

    # Petri-window branch: the first locus is certified outright.
    sub_b = None
    if k1 == n1 + 1 and curve.satisfies("petri"):
        lower = line_bn_degree_bound(g, n1)
        upper = _petri_f_bound(g, n1)
        if lower <= d1 and d1 < upper and e >= e_bound:
            sub_b = bn_np1_nonempty(curve, n1, d1, facts, diagnostics=diagnostics)
    if sub_b is not None:
        branch, citation, own_level = "petri-window", CITE_C8_II, "petri"
        hypotheses += [
            Hypothesis("degree window %s <= d1 = %d < %s" % (lower, d1, upper)),
            Hypothesis("excess bound e = %d >= %d" % (e, e_bound)),
        ]
    else:
        # Non-divisibility branch.
        branch, citation, own_level = "non-divisible", CITE_C8_I, "smooth"
        if not (
            _check(hypotheses, diagnostics, d1 % n1 != 0,
                   "d1 = {0} is not divisible by n1 = {1}",
                   "no branch applies: d1 = {0} is divisible by n1 = {1} and the "
                   "Petri-window branch did not fire", d1, n1)
            and _check(hypotheses, diagnostics, e >= e_bound,
                       "excess bound e = {0} >= {1}",
                       "excess bound fails: need e >= {1}, got e={0}", e, e_bound)
        ):
            return None
        sub_b = _certify_b(curve, n1, d1, k1, facts, None)
        if sub_b is None:
            hypotheses.append(
                Hypothesis("B(%d,%d,%d) is nonempty" % (n1, d1, k1), status="assumed")
            )
    b_strength = "stable" if sub_b is None else sub_b.conclusion.strength
    conclusion = Conclusion(
        kind="universal", strength=_min_strength(b_strength, mistretta_strength),
        n1=n1, d1=d1, n2=n2, d2=d2, k=k,
    )
    witnesses.update({"branch": branch, "e_lower_bound": e_bound})
    return _finish(
        rule="c8",
        citation=citation,
        conclusion=conclusion,
        beta=beta,
        hypotheses=hypotheses,
        subcertificates=[] if sub_b is None else [sub_b],
        witnesses=witnesses,
        own_level=own_level,
        curve=curve,
        inputs=_inputs("c8", n1, d1, k1, c, d, e),
    )


# ---------------------------------------------------------------------------
# Rule registry and revalidation


class Rule(namedtuple("Rule", "name function params triples facts",
                      defaults=((), True))):
    """One certificate rule.

    `function` names the certkit function that runs it; `params` are that
    function's parameters after the curve, in signature order, and also the
    keys of the certificate's inputs record; `triples` are the params that
    hold n,d,k triples; `facts` says whether the function takes the fact
    database after them.
    """

    __slots__ = ()


RULES: dict[str, Rule] = {rule.name: rule for rule in (
    Rule("phi", "certify_phi", ("locus1", "cs"), ("locus1", "cs")),
    Rule("rfold", "certify_rfold", ("locus1", "cs", "r"), ("locus1", "cs")),
    Rule("elem", "certify_elem", ("locus1", "cs", "r"), ("locus1", "cs")),
    Rule("t9", "certify_t9", ("locus1", "n", "d", "v"), ("locus1",), facts=False),
    Rule("t4", "certify_t4", ("n1", "d1", "k1", "n", "e", "f", "d")),
    Rule("t10", "certify_t10", ("n1", "d1", "k1", "c", "d", "k")),
    Rule("c8", "certify_c8", ("n1", "d1", "k1", "c", "d", "e")),
    Rule("np1", "bn_np1_nonempty", ("n1", "d1")),
    Rule("s", "s_nonempty", ("cs",), ("cs",)),
    Rule("line", "bn_line_nonempty", ("d", "v"), facts=False),
)}


def run_rule(
    name: str,
    curve: CurveClass,
    inputs: dict,
    facts: FactDatabase | None = None,
    *,
    diagnostics: Optional[list[str]] = None,
) -> Certificate | None:
    """Run a registry rule on an inputs record (one value per param, triples
    as lists or tuples).  The function is looked up on this module at call
    time, so a wrapper installed there sees the call."""
    rule = RULES[name]
    args = [tuple(inputs[p]) if p in rule.triples else inputs[p] for p in rule.params]
    if rule.facts:
        args.append(facts)
    return globals()[rule.function](curve, *args, diagnostics=diagnostics)


def revalidate(cert: Certificate, facts: FactDatabase | None = None) -> bool:
    """Re-run the producing rule from the certificate's stored inputs and
    compare the fresh certificate with the given one by value, field by field
    and through every sub-certificate.  True only on exact agreement; False
    also when the rule cannot run on the inputs record."""
    facts = facts if facts is not None else FactDatabase()
    inputs = cert.inputs
    rule = RULES.get(cert.rule)
    keys = ("kind", "n", "d", "sections") if cert.rule == "fact" else (
        rule and rule.params)
    if not keys or inputs.keys() != set(keys):
        return False
    try:
        if rule is None:
            fact = facts._find(inputs["kind"], cert.curve.genus, inputs["n"],
                               inputs["d"], inputs["sections"])
            fresh = None if fact is None else _fact_certificate(fact, cert.curve)
        else:
            fresh = run_rule(cert.rule, cert.curve, inputs, facts)
    except (TypeError, ValueError):
        return False
    return fresh == cert
