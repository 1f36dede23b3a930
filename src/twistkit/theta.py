"""Experiments tying the braid, symplectic, and SL2 engines together.

The groups under study are generated by 2k+1 alternating products of
Dehn twists acting on a closed surface of genus n*k.  Which abstract
group appears depends only on where (n, k) sits in a partition of the
positive quadrant:

    n >= 3           braid group on 2k+2 strands modulo its center
    (1,1), (2,1)     SL2(Z)
    (1,2)            the full genus-2 mapping class group
    (1,k), k >= 3    the symmetric (hyperelliptic) mapping class group
    (2,k), k >= 2    open; only candidate relators are reported

Each experiment returns a Report: named checks with status pass, fail,
or inconclusive, plus a witness string that can be re-checked by hand
(an identity matrix label or a canonical form).
"""

from __future__ import annotations

import dataclasses
import enum
import itertools

from . import sl2
from . import symplectic
from .braid import (
    BraidWord,
    equals,
    equals_mod_center,
    half_twist_word,
    left_normal_form,
    mod_center_key,
)

ARTIFACT_VERSION = 1

_STATUSES = ("pass", "fail", "inconclusive")
_STATUS_RANK = {"pass": 0, "inconclusive": 1, "fail": 2}


class GroupTag(enum.Enum):
    """Which known group an (n, k) pair yields, if any."""

    SL2Z = "sl2z"
    BRAID_MOD_CENTER = "braid_mod_center"
    MOD_GENUS_TWO = "mod_genus_two"
    SYMMETRIC_MCG = "symmetric_mcg"
    UNKNOWN = "unknown"


def lattice_tag(n: int, k: int) -> GroupTag:
    """Classification tag at lattice point (n, k); both must be positive."""
    if n < 1 or k < 1:
        raise ValueError("lattice coordinates must be positive")
    if n >= 3:
        return GroupTag.BRAID_MOD_CENTER
    if k == 1:
        return GroupTag.SL2Z
    if n == 2:
        return GroupTag.UNKNOWN
    if k == 2:
        return GroupTag.MOD_GENUS_TWO
    return GroupTag.SYMMETRIC_MCG


@dataclasses.dataclass(frozen=True)
class Relator:
    """One defining equation left = right, as words in the generators."""

    name: str
    left: BraidWord
    right: BraidWord


@dataclasses.dataclass(frozen=True)
class Presentation:
    blocks: int
    handles: int
    tag: GroupTag
    generators: int
    relators: tuple[Relator, ...]


def _w(strands: int, *letters: int) -> BraidWord:
    return BraidWord(strands, letters)


def presentation_for(n: int, k: int) -> Presentation:
    """Presentation (or candidate relator list) at lattice point (n, k).

    Generator i stands for the i-th twist product f_i; words are carried
    on generators+1 strands so both engines can consume them unchanged.
    For the two-generator groups a = f_1 and b = f_2 (f_3 coincides with
    f_1 at genus <= 2, so it is dropped).  For the unresolved (2, k>=2)
    points the relators returned are ones that provably hold; no
    isomorphism claim is attached to them.
    """
    tag = lattice_tag(n, k)
    if tag is GroupTag.SL2Z:
        braid = Relator("braid", _w(3, 1, 2, 1), _w(3, 2, 1, 2))
        center = Relator("center", _w(3, 1, 2) ** 6, _w(3))
        return Presentation(n, k, tag, 2, (braid, center))

    gens = 2 * k + 1
    s = gens + 1
    relators = [
        Relator(f"braid-{i}", _w(s, i, i + 1, i), _w(s, i + 1, i, i + 1))
        for i in range(1, gens)
    ]
    relators.extend(
        Relator(f"commute-{i}-{j}", _w(s, i, j), _w(s, j, i))
        for i, j in itertools.combinations(range(1, gens + 1), 2)
        if j - i >= 2
    )
    chain = _w(s, *range(1, gens + 1))
    relators.append(Relator("center", chain ** (2 * k + 2), _w(s)))
    if tag in (GroupTag.MOD_GENUS_TWO, GroupTag.SYMMETRIC_MCG):
        # hyperelliptic relations: the palindromic twist product is a
        # central involution
        iota = _w(s, *range(gens, 0, -1)) * chain
        f1 = _w(s, 1)
        relators.append(Relator("involution-squared", iota * iota, _w(s)))
        relators.append(Relator("involution-central", iota * f1, f1 * iota))
    elif tag is GroupTag.UNKNOWN:
        long = _w(s, *range(1, 2 * k + 1)) ** (4 * k + 2)
        relators.append(Relator("long-chain-power", long, _w(s)))
    return Presentation(n, k, tag, gens, tuple(relators))


# ------------------------------------------------------------------ reports

@dataclasses.dataclass(frozen=True)
class Check:
    """Single verified claim inside a report."""

    name: str
    status: str
    witness: str

    def __post_init__(self):
        if self.status not in _STATUSES:
            raise ValueError(f"status must be one of {_STATUSES}")


@dataclasses.dataclass(frozen=True)
class Report:
    experiment: str
    params: dict
    checks: tuple[Check, ...]
    engine: str
    artifact_version: int = ARTIFACT_VERSION

    @property
    def status(self) -> str:
        """Worst status across the checks; pass when there are none."""
        worst = "pass"
        for check in self.checks:
            if _STATUS_RANK[check.status] > _STATUS_RANK[worst]:
                worst = check.status
        return worst

    def as_dict(self) -> dict:
        return {
            "experiment": self.experiment,
            "params": dict(self.params),
            "engine": self.engine,
            "artifact_version": self.artifact_version,
            "checks": [
                {"name": c.name, "status": c.status, "witness": c.witness}
                for c in self.checks
            ],
        }


def _status(ok: bool) -> str:
    return "pass" if ok else "fail"


def _matrix_witness(model: symplectic.SurfaceModel, m) -> str:
    if symplectic.mats_equal(m, symplectic.identity_matrix(model)):
        return f"Id_{model.dim}"
    if symplectic.is_hyperelliptic_image(model, m):
        return f"-Id_{model.dim}"
    return str(m)


# ----------------------------------------------------------- relation checks

def check_relations(engine: str, n: int, k: int) -> Report:
    """Evaluate every relator of the (n, k) presentation in one engine.

    The symplectic engine accepts any lattice point and checks images on
    homology exactly.  The braid engine decides words in B_{2k+2} modulo
    its center, which is conclusive only for the braid-quotient tag, so
    other tags are rejected rather than given a misleading verdict.
    """
    pres = presentation_for(n, k)
    checks = []
    if engine == "symplectic":
        model = symplectic.surface_model(n, k)
        for rel in pres.relators:
            image = symplectic.evaluate_word(model, rel.left * rel.right.inv())
            ok = symplectic.mats_equal(image, symplectic.identity_matrix(model))
            checks.append(Check(rel.name, _status(ok), _matrix_witness(model, image)))
    elif engine == "braid":
        if pres.tag is not GroupTag.BRAID_MOD_CENTER:
            raise ValueError(
                f"braid engine decides only the braid-quotient groups; "
                f"({n}, {k}) is tagged {pres.tag.value}"
            )
        for rel in pres.relators:
            form = left_normal_form(rel.left * rel.right.inv())
            checks.append(Check(rel.name, _status(form.is_central()), str(form)))
    else:
        raise ValueError(f"unknown engine {engine!r}; expected symplectic or braid")
    params = {"n": n, "k": k, "tag": pres.tag.value}
    return Report("relations", params, tuple(checks), engine)


# ------------------------------------------------------------- hyperelliptic

def hyperelliptic_experiment(n: int) -> Report:
    """Involution identities for the three-twist chain at genus n.

    On homology the square of the chain product acts as -Id.  For n >= 3
    the group is a braid quotient, where the same element lifts to a
    square root of the half twist: (cab)^2 equals the half twist on the
    nose, (abc)^2 is its conjugate by c, and the fourth power is central.
    """
    if n < 1:
        raise ValueError("genus multiplier must be positive")
    model = symplectic.surface_model(n, 1)
    image = symplectic.evaluate_word(model, _w(4, 1, 2, 3) ** 2)
    checks = [
        Check(
            "involution-image",
            _status(symplectic.is_hyperelliptic_image(model, image)),
            _matrix_witness(model, image),
        )
    ]
    if n >= 3:
        a, b, c = _w(4, 1), _w(4, 2), _w(4, 3)
        delta = half_twist_word(4)
        half = (c * a * b) ** 2
        checks.append(
            Check("half-twist-square", _status(equals(half, delta)),
                  str(left_normal_form(half)))
        )
        square = (a * b * c) ** 2
        conjugate_ok = equals(square, c.inv() * delta * c) and not equals(square, delta)
        checks.append(
            Check("conjugated-square", _status(conjugate_ok),
                  str(left_normal_form(square)))
        )
        full = (a * b * c) ** 4
        checks.append(
            Check("full-twist-central", _status(equals_mod_center(full, _w(4))),
                  str(left_normal_form(full)))
        )
    engine = "symplectic" if n < 3 else "symplectic+braid"
    return Report("hyperelliptic", {"n": n}, tuple(checks), engine)


# ------------------------------------------------------------- square roots

def square_root_family(m_max: int) -> Report:
    """Conjugates h_m = b^m (cab) b^-m, all square roots of the half twist.

    Distinct values of m give distinct classes modulo the center, so the
    half twist has infinitely many square roots in the quotient; the
    report covers |m| <= m_max together with the inverse family.
    """
    if m_max < 0:
        raise ValueError("m_max must be nonnegative")
    b = _w(4, 2)
    cab = _w(4, 3, 1, 2)
    delta = half_twist_word(4)
    members = {m: b ** m * cab * b ** (-m) for m in range(-m_max, m_max + 1)}
    inverses = {m: h.inv() for m, h in members.items()}

    checks = []
    for label, family, target in [
        ("square", members, delta),
        ("inverse-square", inverses, delta.inv()),
    ]:
        target_form = left_normal_form(target)
        for m, h in family.items():
            form = left_normal_form(h * h)
            checks.append(
                Check(f"{label}[{m}]", _status(form == target_form),
                      f"conjugator b^{m}; square has normal form {form}")
            )
    for name, family in [
        ("pairwise-distinct", list(members.values())),
        ("inverse-pairwise-distinct", list(inverses.values())),
    ]:
        distinct = len({mod_center_key(w) for w in family}) == len(family)
        witness = (
            f"{len(family)} distinct classes mod center"
            if distinct else "collision between family members"
        )
        checks.append(Check(name, _status(distinct), witness))
    return Report("square-roots", {"m_max": m_max}, tuple(checks), "braid")


# -------------------------------------------------------------- root census

_CANONICALS_BY_POWER = {
    2: (sl2.QUARTER_TURN, sl2.QUARTER_TURN.inv()),
    3: (sl2.SIXTH_TURN, sl2.SIXTH_TURN.inv(), sl2.MINUS_IDENTITY),
}


@dataclasses.dataclass(frozen=True)
class RootCensus:
    """Solutions of M^power = -Id within an entry bound, sorted by class.

    buckets maps each canonical representative to the certificates of
    the solutions reducing to it; residue collects any solution that
    failed to land in a known class (always empty in practice).
    """

    power: int
    bound: int
    buckets: dict
    residue: tuple

    def counts(self) -> dict:
        return {canonical: len(certs) for canonical, certs in self.buckets.items()}

    def total(self) -> int:
        return sum(len(certs) for certs in self.buckets.values()) + len(self.residue)


def root_census(power: int, bound: int) -> RootCensus:
    if power not in _CANONICALS_BY_POWER:
        raise ValueError("power must be 2 or 3")
    if bound < 1:
        raise ValueError("bound must be at least 1")
    buckets = {canonical: [] for canonical in _CANONICALS_BY_POWER[power]}
    residue = []
    for m in sl2.roots_of_minus_identity(power, bound):
        cert = sl2.reduce_elliptic(m)
        if cert.canonical in buckets:
            buckets[cert.canonical].append(cert)
        else:
            residue.append(m)
    buckets = {c: tuple(certs) for c, certs in buckets.items() if certs}
    return RootCensus(power, bound, buckets, tuple(residue))


def sl2_root_experiment(bound: int) -> tuple[RootCensus, RootCensus]:
    """Censuses of square and cubic roots of -Id up to an entry bound."""
    return root_census(2, bound), root_census(3, bound)


def root_experiment_report(bound: int) -> Report:
    squares, cubes = sl2_root_experiment(bound)
    anchor_square = sl2.GEN_A * sl2.GEN_B * sl2.GEN_A
    anchor_cube = sl2.GEN_A * sl2.GEN_B
    checks = [
        Check("anchor-square", _status(anchor_square == sl2.QUARTER_TURN),
              str(anchor_square)),
        Check("anchor-cube", _status(anchor_cube == sl2.SIXTH_TURN),
              str(anchor_cube)),
    ]
    for name, census in [("square-census", squares), ("cubic-census", cubes)]:
        tail = "residue empty" if not census.residue else f"{len(census.residue)} unclassified"
        witness = f"{census.total()} matrices in {len(census.buckets)} classes; {tail}"
        checks.append(Check(name, _status(not census.residue), witness))
    return Report("sl2-roots", {"bound": bound}, tuple(checks), "sl2")


# --------------------------------------------------------------- separation

def separation_evidence(k: int) -> Report:
    """Why the (2, k) groups sit outside the known boxes for k >= 2.

    Three facts: the long chain power collapses in the two-block model;
    the same word survives in the braid quotient, so that relation is
    not a consequence of the braid presentation mod center; and the
    chain-square comparison at homology, reported as inconclusive
    whenever the two images agree (they do for every k tested).
    """
    if k < 1:
        raise ValueError("k must be positive")
    strands = 2 * k + 2
    model = symplectic.surface_model(2, k)

    long = _w(strands, *range(1, 2 * k + 1)) ** (4 * k + 2)
    image = symplectic.evaluate_word(model, long)
    collapses = symplectic.mats_equal(image, symplectic.identity_matrix(model))
    checks = [
        Check("long-chain-power-collapses", _status(collapses),
              _matrix_witness(model, image))
    ]
    form = left_normal_form(long)
    checks.append(
        Check("long-chain-power-nontrivial-in-braid",
              _status(not form.is_central()), str(form))
    )
    short = symplectic.evaluate_word(model, _w(strands, *range(1, 2 * k)) ** (2 * k))
    cap = symplectic.evaluate_word(model, _w(strands, 2 * k + 1) ** 2)
    if symplectic.mats_equal(short, cap):
        checks.append(
            Check("chain-square-comparison", "inconclusive",
                  "images agree at homology; the symmetric relation is not excluded here")
        )
    else:
        checks.append(
            Check("chain-square-comparison", "pass", "images differ at homology")
        )
    return Report("separation", {"k": k}, tuple(checks), "symplectic+braid")
