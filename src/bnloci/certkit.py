"""Non-emptiness certificates for twisted Brill-Noether loci.

Each rule checks the hypotheses of one construction by exact arithmetic and
returns a Certificate tree recording the conclusion, every inequality that
was checked, numeric witnesses and the curve class the argument needs.  A
certificate is "proved" when every hypothesis was checked and every
sub-certificate is itself proved; hypotheses that are existential over
bundles and cannot be discharged arithmetically are recorded as assumed and
leave the certificate "conditional".  Rules never upgrade strength: a stable
conclusion is never derived from a semistable input.

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
from dataclasses import dataclass, field
from fractions import Fraction
from json.encoder import encode_basestring_ascii
from pathlib import Path
from typing import Optional, Sequence

from .bncalc import (
    LocusSpec,
    _locus,
    beta_classical,
    beta_twisted,
    beta_universal,
    chi_tensor,
    line_bn_degree_bound,
    asympt_neg,
    t4_beta_poly,
)
from .exactnum import ALWAYS_NEGATIVE, ceil_ratio, quad_neg_threshold
from .spanops import (
    CoherentSystemType,
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


def _diag(diagnostics: Optional[list[str]], message: str) -> None:
    if diagnostics is not None:
        diagnostics.append(message)


@dataclass(frozen=True)
class CurveClass:
    """Genus plus assumption level and hyperelliptic flag of the base curve."""

    genus: int
    level: str = "smooth"
    hyperelliptic: str = "unknown"

    def __post_init__(self) -> None:
        if self.genus < 2:
            raise ValueError("genus must be at least 2, got %r" % (self.genus,))
        if self.level not in _LEVEL_RANK:
            raise ValueError("unknown curve level %r" % (self.level,))
        if self.hyperelliptic not in ("yes", "no", "unknown"):
            raise ValueError("unknown hyperelliptic flag %r" % (self.hyperelliptic,))

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
        parts = tail.split(",")
        genus = int(parts[0])
        hyper = "unknown"
        for flag in parts[1:]:
            if flag == "hyp":
                hyper = "yes"
            elif flag == "nonhyp":
                hyper = "no"
            else:
                raise ValueError("unknown curve flag %r" % (flag,))
        return cls(genus=genus, level=head, hyperelliptic=hyper)

    def to_dict(self) -> dict:
        return {
            "genus": self.genus,
            "level": self.level,
            "hyperelliptic": self.hyperelliptic,
        }


@dataclass(frozen=True)
class GenusConstraint:
    """Genus predicate of a fact: equality, lower bound and parity combine."""

    equals: int | None = None
    minimum: int | None = None
    parity: str | None = None

    def __post_init__(self) -> None:
        if self.parity not in (None, "odd", "even"):
            raise ValueError("parity must be odd or even, got %r" % (self.parity,))

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
        out: dict = {}
        if self.equals is not None:
            out["equals"] = self.equals
        if self.minimum is not None:
            out["min"] = self.minimum
        if self.parity is not None:
            out["parity"] = self.parity
        return out

    @classmethod
    def from_dict(cls, data: dict) -> "GenusConstraint":
        for name in ("equals", "min"):
            # Exact: truncating a bound such as 4.5 would widen the fact.
            if data.get(name) is not None and type(data[name]) is not int:
                raise ValueError(
                    "fact genus %s must be an integer, got %r" % (name, data[name])
                )
        return cls(
            equals=data.get("equals"),
            minimum=data.get("min"),
            parity=data.get("parity"),
        )


def _record_int(value, name: str) -> int:
    # Exact: int() would truncate 14.5 and accept "4" or true.
    if type(value) is not int:
        raise ValueError("fact field %s must be an integer, got %r" % (name, value))
    return value


@dataclass(frozen=True)
class Fact:
    """A cited non-emptiness fact.

    kind "S" asserts a generated coherent system of type (n, d, sections)
    with stable dual span exists; "B" and "Btilde" assert non-emptiness of
    the stable resp. semistable locus with `sections` sections.  The degree
    is either absolute or an offset from the genus (d = g + offset).
    """

    kind: str
    n: int
    sections: int
    degree: int | None = None
    degree_offset_from_genus: int | None = None
    level: str = "smooth"
    genus: GenusConstraint = field(default_factory=GenusConstraint)
    citation: str = ""
    builtin: bool = False

    def __post_init__(self) -> None:
        if self.kind not in ("S", "B", "Btilde"):
            raise ValueError("fact kind must be S, B or Btilde, got %r" % (self.kind,))
        if self.n < 1 or self.sections < 1:
            raise ValueError("fact rank and section count must be positive")
        if (self.degree is None) == (self.degree_offset_from_genus is None):
            raise ValueError("exactly one of degree / genus offset must be set")
        if not isinstance(self.level, str) or self.level not in _LEVEL_RANK:
            raise ValueError("unknown curve level %r" % (self.level,))
        if not isinstance(self.citation, str):
            raise ValueError(
                "fact citation must be a string, got %r" % (self.citation,)
            )
        if not self.citation:
            raise ValueError("every fact must carry a citation")

    def degree_at(self, g: int) -> int:
        if self.degree is not None:
            return self.degree
        return g + self.degree_offset_from_genus

    def key(self) -> tuple:
        return (
            self.kind,
            self.n,
            self.sections,
            self.degree,
            self.degree_offset_from_genus,
        )

    def matches(self, genus: int, n: int, d: int, sections: int) -> bool:
        return (
            self.n == n
            and self.sections == sections
            and self.genus.matches(genus)
            and self.degree_at(genus) == d
        )

    def describe(self) -> str:
        if self.degree is not None:
            deg = str(self.degree)
        elif self.degree_offset_from_genus >= 0:
            deg = "g+%d" % self.degree_offset_from_genus
        else:
            deg = "g-%d" % (-self.degree_offset_from_genus)
        return "%s(%d,%s,%d)" % (self.kind, self.n, deg, self.sections)

    def to_record(self) -> dict:
        record: dict = {"kind": self.kind, "n": self.n}
        if self.degree is not None:
            record["d"] = self.degree
        else:
            off = self.degree_offset_from_genus
            record["d"] = "g+%d" % off if off >= 0 else "g-%d" % (-off)
        record["v" if self.kind == "S" else "k"] = self.sections
        record["level"] = self.level
        record["genus"] = self.genus.to_dict()
        record["citation"] = self.citation
        return record

    @classmethod
    def from_record(cls, record: dict) -> "Fact":
        if not isinstance(record, dict):
            raise ValueError("a fact record must be a JSON object, got %r" % (record,))
        if "n" not in record:
            raise ValueError("fact record is missing the rank field 'n'")
        genus = record.get("genus", {})
        if not isinstance(genus, dict):
            raise ValueError("fact field genus must be a JSON object, got %r" % (genus,))
        kind = record.get("kind")
        raw_d = record.get("d")
        degree = None
        offset = None
        if isinstance(raw_d, str):
            text = raw_d.replace(" ", "")
            try:
                if not text.startswith("g"):
                    raise ValueError
                offset = int(text[1:] or 0)
            except ValueError:
                raise ValueError(
                    "fact field d must be an integer or g+offset, got %r" % (raw_d,)
                ) from None
        elif raw_d is None:
            raise ValueError("fact record is missing the degree field 'd'")
        else:
            degree = _record_int(raw_d, "d")
        sections = record.get("v" if kind == "S" else "k")
        if sections is None:
            sections = record.get("k") if kind == "S" else record.get("v")
        if sections is None:
            raise ValueError("fact record is missing the section count")
        return cls(
            kind=kind,
            n=_record_int(record["n"], "n"),
            sections=_record_int(sections, "section count"),
            degree=degree,
            degree_offset_from_genus=offset,
            level=record.get("level", "smooth"),
            genus=GenusConstraint.from_dict(genus),
            citation=record.get("citation", ""),
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


class FactDatabase:
    """Built-in facts merged with user facts; built-ins win on conflicts."""

    def __init__(self, user_facts: tuple[Fact, ...] | list[Fact] = ()) -> None:
        self._builtin = list(BUILTIN_FACTS)
        builtin_keys = {f.key() for f in self._builtin}
        self._user = [f for f in user_facts if f.key() not in builtin_keys]

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
        builtin_keys = {f.key() for f in self._builtin}
        if fact.key() in builtin_keys:
            raise ValueError(
                "fact %s conflicts with a built-in fact" % fact.describe()
            )
        if fact.key() in {f.key() for f in self._user}:
            raise ValueError("fact %s is already a user fact" % fact.describe())
        self._user.append(fact)

    def facts(self) -> list[Fact]:
        return list(self._builtin) + list(self._user)

    def _find(self, kinds: tuple[str, ...], genus: int, n: int, d: int, sections: int):
        for fact in self.facts():
            if fact.kind in kinds and fact.matches(genus, n, d, sections):
                return fact
        return None

    def find_s(self, genus: int, n: int, d: int, v: int) -> Fact | None:
        return self._find(("S",), genus, n, d, v)

    def find_b(self, genus: int, n: int, d: int, k: int) -> Fact | None:
        found = self._find(("B",), genus, n, d, k)
        if found is not None:
            return found
        return self._find(("Btilde",), genus, n, d, k)


@dataclass(frozen=True)
class Hypothesis:
    """One recorded hypothesis: checked arithmetically, or assumed."""

    description: str
    status: str = "checked"

    def __post_init__(self) -> None:
        if self.status not in ("checked", "assumed"):
            raise ValueError("hypothesis status must be checked or assumed")


@dataclass(frozen=True)
class Conclusion:
    """What a certificate asserts: a locus of one of four kinds.

    kind "universal" is the two-sided locus (n1, d1) x (n2, d2) with k
    sections of the tensor product; "bn" is B(n1, d1, k); "s" is the
    coherent-system locus S(n1, d1, k); "twisted" is the one-sided locus of
    (n2, d2)-bundles with k sections after twisting by some bundle of type
    (n1, d1).  Strength "semistable" means the tilde (semistable) variant.
    """

    kind: str
    strength: str
    n1: int | None = None
    d1: int | None = None
    n2: int | None = None
    d2: int | None = None
    k: int | None = None

    def __post_init__(self) -> None:
        if self.kind not in ("universal", "bn", "s", "twisted"):
            raise ValueError("unknown conclusion kind %r" % (self.kind,))
        if self.strength not in _STRENGTH_RANK:
            raise ValueError("unknown strength %r" % (self.strength,))

    def to_dict(self) -> dict:
        return {
            "kind": self.kind,
            "n1": self.n1,
            "d1": self.d1,
            "n2": self.n2,
            "d2": self.d2,
            "k": self.k,
            "strength": self.strength,
        }


@dataclass
class Certificate:
    """A machine-checkable derivation: rule, hypotheses, witnesses, subtree."""

    rule: str
    citation: str
    conclusion: Conclusion
    beta: int | None
    hypotheses: list[Hypothesis]
    subcertificates: list["Certificate"]
    status: str
    witnesses: dict
    level_required: str
    curve: CurveClass
    notes: list[str]
    inputs: dict

    def to_dict(self) -> dict:
        return {
            "rule": self.rule,
            "citation": self.citation,
            "conclusion": self.conclusion.to_dict(),
            "beta": self.beta,
            "hypotheses": [
                {"description": h.description, "status": h.status}
                for h in self.hypotheses
            ],
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


def _write(value, indent: str) -> str:
    # Containers look their scalar members up inline: a call per leaf is
    # most of what the writer would otherwise spend.
    kind = type(value)
    inner = indent + "  "
    if kind is dict:
        if not value:
            return "{}"
        items = []
        for key, item in value.items():
            text = _scalar(type(item))
            # encode_basestring_ascii raises TypeError for a non-str key.
            items.append(
                encode_basestring_ascii(key) + ": "
                + (text(item) if text is not None else _write(item, inner))
            )
        return "{\n" + inner + (",\n" + inner).join(items) + "\n" + indent + "}"
    if kind is list or kind is tuple:
        if not value:
            return "[]"
        items = []
        for item in value:
            text = _scalar(type(item))
            items.append(text(item) if text is not None else _write(item, inner))
        return "[\n" + inner + (",\n" + inner).join(items) + "\n" + indent + "]"
    text = _scalar(kind)
    if text is None:
        raise TypeError("Object of type %s is not JSON serializable" % kind.__name__)
    return text(value)


def dumps_indented(value) -> str:
    """The text of json.dumps(value, indent=2), without the pure-Python
    encoder that json falls back to whenever indent is set.

    Takes dicts with str keys, lists, tuples (written as lists), str, int,
    bool and None; anything else, such as a Fraction or a float, raises
    TypeError.
    """
    return _write(value, "")


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
    level = _max_level(own_level, *[s.level_required for s in subcertificates])
    proved = all(h.status == "checked" for h in hypotheses) and all(
        s.status == "proved" for s in subcertificates
    )
    return Certificate(
        rule=rule,
        citation=citation,
        conclusion=conclusion,
        beta=beta,
        hypotheses=hypotheses,
        subcertificates=list(subcertificates),
        status="proved" if proved else "conditional",
        witnesses=witnesses,
        level_required=level,
        curve=curve,
        notes=list(notes),
        inputs=inputs,
    )


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
    if not curve.satisfies("petri"):
        _diag(diagnostics, "line-bundle rule needs a Petri or general curve")
        return None
    beta = beta_classical(curve.genus, 1, d, v)
    if beta < 0:
        _diag(
            diagnostics,
            "beta(1,%d,%d) = %d < 0: no linear system of that type" % (d, v, beta),
        )
        return None
    conclusion = Conclusion(kind="bn", strength="stable", n1=1, d1=d, k=v)
    return _finish(
        rule="line",
        citation=CITE_CLASSICAL_BN,
        conclusion=conclusion,
        beta=beta,
        hypotheses=[Hypothesis("beta(1,%d,%d) = %d >= 0" % (d, v, beta))],
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
    if not curve.satisfies("petri"):
        _diag(diagnostics, "no rule certifies B(n,d,n+1) on a merely smooth curve")
        return None
    general = curve.satisfies("general")
    if beta < 0:
        _diag(
            diagnostics,
            "beta(1,%d,%d) = %d < 0: %s" % (
                d1, n1 + 1, beta,
                "the locus is empty on a general curve" if general
                else "empty on any Petri curve",
            ),
        )
        return None
    hypotheses = [Hypothesis("beta(1,%d,%d) = %d >= 0" % (d1, n1 + 1, beta))]
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
        if not labels:
            _diag(diagnostics, "no known Petri stability case covers this degree")
            return None
        hypotheses.append(
            Hypothesis("Petri stability case(s) %s hold" % ",".join(labels))
        )
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
    cs: CoherentSystemType | tuple[int, int, int],
    facts: FactDatabase | None = None,
    *,
    diagnostics: Optional[list[str]] = None,
) -> Certificate | None:
    """Certify that S(n, d, v) is nonempty.

    Rule order: rank-one systems on a general curve, then rank-one systems
    on any smooth curve with the codimension bound, then the fact database.
    """
    cs = _cs(cs)
    facts = facts if facts is not None else FactDatabase()
    g = curve.genus
    if cs.v <= cs.n:
        _diag(diagnostics, "S(n,d,v) requires v > n")
        return None
    if cs.n == 1:
        beta = beta_classical(g, 1, cs.d, cs.v)
        general = curve.satisfies("general") and beta >= 0
        c = (cs.d - g + 1) - cs.v
        if general or (1 <= c <= g and cs.d >= 2 * g + 2 * c):
            notes = []
            if general:
                exceptional = g == 2 and cs.d == 2 * (cs.v - 1)
                strength = "semistable" if exceptional else "stable"
                if exceptional:
                    notes.append(
                        "at genus 2 with d = 2(v-1) the dual span is strictly "
                        "semistable"
                    )
                citation, level = CITE_S_GENERAL, "general"
                hypotheses = [
                    Hypothesis("beta(1,%d,%d) = %d >= 0" % (cs.d, cs.v, beta))
                ]
                witnesses = {"branch": "rank1-general", "beta": beta}
            else:
                boundary = cs.d == 2 * g + 2 * c
                strength = (
                    "semistable" if boundary and curve.hyperelliptic != "no" else "stable"
                )
                if strength == "semistable":
                    notes.append(
                        "d = 2g+2c is the boundary case; stability needs a "
                        "non-hyperelliptic curve"
                    )
                citation, level = CITE_MISTRETTA, "smooth"
                hypotheses = [
                    Hypothesis(
                        "codimension c = (d-g+1) - v = %d lies in [1, %d]" % (c, g)
                    ),
                    Hypothesis("d = %d >= 2g+2c = %d" % (cs.d, 2 * g + 2 * c)),
                ]
                witnesses = {"branch": "rank1-mistretta", "c": c}
            return _finish(
                rule="s",
                citation=citation,
                conclusion=Conclusion(kind="s", strength=strength, n1=1, d1=cs.d, k=cs.v),
                beta=beta,
                hypotheses=hypotheses,
                witnesses=witnesses,
                own_level=level,
                curve=curve,
                inputs=_inputs("s", [cs.n, cs.d, cs.v]),
                notes=notes,
            )
    fact = facts.find_s(g, cs.n, cs.d, cs.v)
    if fact is not None:
        return _fact_certificate(fact, curve)
    _diag(
        diagnostics,
        "no rule or fact certifies S(%d,%d,%d) on this curve" % (cs.n, cs.d, cs.v),
    )
    return None


def _certify_b(
    curve: CurveClass,
    n1: int,
    d1: int,
    k1: int,
    facts: FactDatabase,
    diagnostics: Optional[list[str]],
) -> Certificate | None:
    """Sub-certificate dispatcher for B(n1, d1, k1)."""
    if n1 == 1:
        cert = bn_line_nonempty(curve, d1, k1, diagnostics=diagnostics)
        if cert is not None:
            return cert
    elif k1 == n1 + 1:
        cert = bn_np1_nonempty(curve, n1, d1, facts, diagnostics=diagnostics)
        if cert is not None:
            return cert
    fact = facts.find_b(curve.genus, n1, d1, k1)
    if fact is not None:
        return _fact_certificate(fact, curve)
    _diag(
        diagnostics,
        "no rule or fact certifies B(%d,%d,%d) on this curve" % (n1, d1, k1),
    )
    return None


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
    locus1: LocusSpec | tuple[int, int, int],
    cs: CoherentSystemType | tuple[int, int, int],
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
    locus1 = _locus(locus1)
    cs = _cs(cs)
    facts = facts if facts is not None else FactDatabase()
    if r is not None and r < 1:
        raise ValueError("fold count must be positive, got %r" % (r,))
    elem = rule == "elem"
    n1, d1, k1 = locus1.bundle.n, locus1.bundle.d, locus1.k
    if cs.v <= cs.n:
        _diag(diagnostics, "the generated system must have v > n")
        return None
    if elem and cs.d % (cs.v - cs.n) != 0:
        _diag(
            diagnostics,
            "elementary transformation requires (v-n) | d, got d=%d, v-n=%d"
            % (cs.d, cs.v - cs.n),
        )
        return None
    if not cs.n * d1 < n1 * cs.d:
        _diag(
            diagnostics,
            "slope condition fails: need n*d1 < n1*d, got %d >= %d"
            % (cs.n * d1, n1 * cs.d),
        )
        return None
    sub_b = _certify_b(curve, n1, d1, k1, facts, diagnostics)
    if sub_b is None:
        return None
    if elem and sub_b.conclusion.strength != "stable":
        _diag(diagnostics, "the elementary transformation needs a stable E1")
        return None
    sub_s = s_nonempty(curve, cs, facts, diagnostics=diagnostics)
    if sub_s is None:
        return None
    if elem and sub_s.conclusion.strength != "stable":
        _diag(diagnostics, "the elementary transformation needs stable dual spans")
        return None
    hypotheses = [
        Hypothesis("degree divisibility (v-n) | d: %d | %d" % (cs.v - cs.n, cs.d))
        if elem
        else Hypothesis("generated system has v = %d > n = %d" % (cs.v, cs.n)),
        Hypothesis("slope condition n*d1 = %d < n1*d = %d" % (cs.n * d1, n1 * cs.d)),
    ]
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
    n2, d2, k2 = target.bundle.n, target.bundle.d, target.k
    k = k1 * k2
    beta = beta_universal(curve.genus, (n1, d1), (n2, d2), k)
    witnesses = {"k": k, "k2": k2}
    args = [[n1, d1, k1], [cs.n, cs.d, cs.v]]
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
    locus1: LocusSpec | tuple[int, int, int],
    cs: CoherentSystemType | tuple[int, int, int],
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
    locus1: LocusSpec | tuple[int, int, int],
    cs: CoherentSystemType | tuple[int, int, int],
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
    locus1: LocusSpec | tuple[int, int, int],
    cs: CoherentSystemType | tuple[int, int, int],
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
    locus1: LocusSpec | tuple[int, int, int],
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
    locus1 = _locus(locus1)
    if not curve.satisfies("general"):
        _diag(diagnostics, "this construction needs a general curve")
        return None
    g = curve.genus
    n1, d1 = locus1.bundle.n, locus1.bundle.d
    if not d > n * g:
        _diag(diagnostics, "need d > n*g, got d=%d, n*g=%d" % (d, n * g))
        return None
    if not n < v:
        _diag(diagnostics, "need v > n, got v=%d, n=%d" % (v, n))
        return None
    if not v <= d - n * (g - 1):
        _diag(
            diagnostics,
            "need v <= d - n*(g-1), got v=%d, bound=%d" % (v, d - n * (g - 1)),
        )
        return None
    mu1 = locus1.bundle.mu
    mu2 = Fraction(d, v - n)
    if not mu1 < mu2:
        _diag(diagnostics, "need mu1 < mu2, got %s >= %s" % (mu1, mu2))
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
        hypotheses=[
            Hypothesis("d = %d > n*g = %d" % (d, n * g)),
            Hypothesis("n = %d < v = %d <= d - n*(g-1) = %d" % (n, v, d - n * (g - 1))),
            Hypothesis("slope gap mu1 = %s < mu2 = %s" % (mu1, mu2)),
        ],
        witnesses={"k1k2": locus1.k * v, "beta": beta},
        own_level="general",
        curve=curve,
        notes=[
            "the conclusion holds for some twisting bundle F of rank %d and "
            "degree %d" % (n1, d1),
            "the upper range for v is taken inclusive; the underlying "
            "generation argument uses the strict form",
        ],
        inputs=_inputs("t9", [n1, d1, locus1.k], n, d, v),
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
    facts = facts if facts is not None else FactDatabase()
    if n1 < 2 or k1 <= n1:
        raise ValueError("requires k1 > n1 >= 2, got k1=%r n1=%r" % (k1, n1))
    if n < 1:
        raise ValueError("rank n must be positive, got %r" % (n,))
    g = curve.genus
    lower = n * (g - 1) * (k1 - n1) + n * d1 + f * k1
    upper = d * (k1 - n1)
    if not lower <= e:
        _diag(
            diagnostics,
            "excess window lower bound fails: need %d <= e, got e=%d" % (lower, e),
        )
        return None
    if not e < upper:
        _diag(
            diagnostics,
            "excess window upper bound fails: need e < %d, got e=%d" % (upper, e),
        )
        return None
    v = d - n * (g - 1) - f
    n2 = d - n * g - f
    d2 = -d
    k = d * (k1 - n1) - e
    if n2 < 1:
        _diag(diagnostics, "kernel rank v - n = %d is not positive" % (n2,))
        return None
    if k < 1:
        raise AssertionError("the excess window guarantees k >= 1")
    sub_b = _certify_b(curve, n1, d1, k1, facts, diagnostics)
    if sub_b is None:
        return None
    sub_s = s_nonempty(curve, (n, d, v), facts, diagnostics=diagnostics)
    if sub_s is None:
        return None
    mu_tensor = Fraction(d1, n1) + Fraction(d, n)
    h1_auto = mu_tensor > 2 * g - 2
    if h1_auto:
        h1_hyp = Hypothesis(
            "slope of E1 tensor E is %s > 2g-2 = %d, forcing h^1 = 0"
            % (mu_tensor, 2 * g - 2)
        )
    else:
        h1_hyp = Hypothesis(
            "there exists E1 in B(%d,%d,%d) with h^1(E1 tensor E) = 0"
            % (n1, d1, k1),
            status="assumed",
        )
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
        hypotheses=[
            Hypothesis("excess window lower bound %d <= e = %d" % (lower, e)),
            Hypothesis("excess window upper bound e = %d < %d (so k >= 1)" % (e, upper)),
            Hypothesis("kernel rank v - n = %d >= 1" % (n2,)),
            h1_hyp,
        ],
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
    lo = n1 + ceil_ratio(n1 * g, n1 + 1)
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
    diagnostics: Optional[list[str]],
) -> tuple[str, list[Hypothesis], int] | None:
    """Shared prelude of t10 and c8: the kernel of a general codimension-c
    subspace of sections of a degree-d line bundle (Mistretta).

    Raises unless k1 > n1 >= 2 and 1 <= c <= g.  Returns None when
    d < 2g+2c; otherwise the strength the kernel supports (semistable at the
    boundary d = 2g+2c unless the curve is known non-hyperelliptic), the
    codimension and degree hypotheses, and the kernel rank d-g-c, which
    d >= 2g+2c makes at least g+c >= 3.
    """
    if n1 < 2 or k1 <= n1:
        raise ValueError("requires k1 > n1 >= 2, got k1=%r n1=%r" % (k1, n1))
    g = curve.genus
    if not 1 <= c <= g:
        raise ValueError("codimension c must lie in [1, g], got %r" % (c,))
    degree_floor = 2 * g + 2 * c
    if d < degree_floor:
        _diag(
            diagnostics,
            "degree condition fails: need d >= 2g+2c = %d, got d=%d"
            % (degree_floor, d),
        )
        return None
    boundary = d == degree_floor
    mistretta_strength = (
        "semistable" if boundary and curve.hyperelliptic != "no" else "stable"
    )
    degree_hyp = (
        "d = %d > 2g+2c = %d" % (d, degree_floor)
        if not boundary
        else "d = %d = 2g+2c (boundary case)" % (d,)
    )
    hypotheses = [
        Hypothesis("codimension c = %d lies in [1, %d]" % (c, g)),
        Hypothesis(degree_hyp),
    ]
    return mistretta_strength, hypotheses, d - g - c


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
    facts = facts if facts is not None else FactDatabase()
    line = _kernel_line(curve, n1, k1, c, d, diagnostics)
    if line is None:
        return None
    mistretta_strength, hypotheses, n2 = line
    g = curve.genus
    max_k = (d - g + 1) * (k1 - n1) - c * k1 - d1
    if not k <= max_k:
        _diag(
            diagnostics,
            "section bound fails: need k <= %d, got k=%d" % (max_k, k),
        )
        return None
    if k < 1:
        _diag(diagnostics, "section count k must be at least 1")
        return None
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
        hypotheses=hypotheses + [
            Hypothesis("section bound k = %d <= %d" % (k, max_k)),
            Hypothesis("kernel rank d-g-c = %d >= 1" % (n2,)),
        ],
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
    facts = facts if facts is not None else FactDatabase()
    line = _kernel_line(curve, n1, k1, c, d, diagnostics)
    if line is None:
        return None
    mistretta_strength, hypotheses, n2 = line
    g = curve.genus
    k = d * (k1 - n1) - e
    if k < 1:
        _diag(diagnostics, "excess too large: k = d*(k1-n1) - e = %d < 1" % (k,))
        return None
    d2 = -d
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
        e_bound = g - 1 + c * (n1 + 1) + d1
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
        e_bound = (g - 1) * (k1 - n1) + c * k1 + d1
        if d1 % n1 == 0:
            _diag(
                diagnostics,
                "no branch applies: d1 = %d is divisible by n1 = %d and the "
                "Petri-window branch did not fire" % (d1, n1),
            )
            return None
        if e < e_bound:
            _diag(
                diagnostics,
                "excess bound fails: need e >= %d, got e=%d" % (e_bound, e),
            )
            return None
        hypotheses += [
            Hypothesis("d1 = %d is not divisible by n1 = %d" % (d1, n1)),
            Hypothesis("excess bound e = %d >= %d" % (e, e_bound)),
        ]
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


@dataclass(frozen=True)
class Rule:
    """One certificate rule.

    `function` names the certkit function that runs it; `params` are that
    function's parameters after the curve, in signature order, and also the
    keys of the certificate's inputs record; `triples` are the params that
    hold n,d,k triples; `facts` says whether the function takes the fact
    database after them.
    """

    name: str
    function: str
    params: tuple[str, ...]
    triples: tuple[str, ...] = ()
    facts: bool = True


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
    compare the full serialized trees.  True only on exact agreement."""
    facts = facts if facts is not None else FactDatabase()
    inputs = cert.inputs
    if cert.rule == "fact":
        fact = facts._find(
            (inputs["kind"],), cert.curve.genus, inputs["n"], inputs["d"],
            inputs["sections"],
        )
        fresh = None if fact is None else _fact_certificate(fact, cert.curve)
    elif cert.rule in RULES:
        fresh = run_rule(cert.rule, cert.curve, inputs, facts)
    else:
        return False
    return fresh is not None and fresh.to_dict() == cert.to_dict()
