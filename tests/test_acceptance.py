"""Acceptance gate: the headline identities, one printed line per criterion.

Every check is exact integer arithmetic, so the tolerances are
bit-exact equality; the per-criterion wall-clock limits are generous.
"""

import json
import random
import time

from test_sl2 import brute_roots, orbit_canonicals
from twistkit import cli, sl2, theta
from twistkit import symplectic as sp
from twistkit.artin import artin_action
from twistkit.braid import (
    BraidWord,
    CanonicalForm,
    equals,
    equals_mod_center,
    half_twist_word,
    left_normal_form,
)
from wordgen import equal_variant, random_word


def _report(num, name, ok, elapsed, limit):
    status = "PASS" if ok and elapsed < limit else "FAIL"
    print(f"[criterion {num}] {name}: {status} ({elapsed:.2f}s, limit {limit:.0f}s)")
    assert ok, f"criterion {num} checks failed"
    assert elapsed < limit, f"criterion {num} exceeded {limit}s"


def _negated(rows):
    return [[-x for x in row] for row in rows]


def test_criterion_1_half_twist_identities():
    start = time.perf_counter()
    a, b, c = (BraidWord(4, (i,)) for i in (1, 2, 3))
    delta = half_twist_word(4)
    ok = left_normal_form((c * a * b) ** 2) == CanonicalForm(4, 1, ())
    ok &= left_normal_form((a * b * c) ** 4) == CanonicalForm(4, 2, ())
    ok &= not equals((a * b * c) ** 2, delta)
    ok &= equals((a * b * c) ** 2, c.inv() * delta * c)
    ok &= equals_mod_center((a * b * c) ** 4, BraidWord(4))
    _report(1, "half-twist identities in B4", ok, time.perf_counter() - start, 1.0)


def test_criterion_2_genus_two_calibration():
    start = time.perf_counter()
    model = sp.surface_model(2, 1)
    f1 = sp.generator_image(model, 1)
    f2 = sp.generator_image(model, 2)
    expected_f1 = [[1, -1, 0, 0], [0, 1, 0, 0], [0, 0, 1, 1], [0, 0, 0, 1]]
    expected_f2 = [[1, 0, 0, 0], [1, 1, 0, 0], [0, 0, 1, 0], [0, 0, -1, 1]]
    ok = sp.mats_equal(f1, expected_f1) and sp.mats_equal(f2, expected_f2)

    def image(*letters):
        return sp.evaluate_word(model, BraidWord(4, letters))

    ok &= sp.mats_equal(image(1, 2, 1), image(2, 1, 2))
    ok &= sp.mats_equal(
        sp.evaluate_word(model, BraidWord(4, (1, 2)) ** 6),
        sp.identity_matrix(model))
    ok &= sp.mats_equal(
        sp.evaluate_word(model, BraidWord(4, (1, 2, 1)) ** 2),
        _negated(sp.identity_matrix(model)))
    _report(2, "genus-2 calibration", ok, time.perf_counter() - start, 1.0)


def test_criterion_3_hyperelliptic_law():
    start = time.perf_counter()
    ok = True
    word = BraidWord(4, (1, 2, 3)) ** 2
    for n in range(1, 7):
        model = sp.surface_model(n, 1)
        image = sp.evaluate_word(model, word)
        ok &= sp.is_hyperelliptic_image(model, image)
        ok &= sp.mats_equal(image, _negated(sp.identity_matrix(model)))
    _report(3, "hyperelliptic law genus 1..6", ok, time.perf_counter() - start, 1.0)


def test_criterion_4_root_census():
    start = time.perf_counter()
    squares, cubes = theta.sl2_root_experiment(50)
    ok = squares.residue == () and cubes.residue == ()
    ok &= set(squares.buckets) == {sl2.QUARTER_TURN, sl2.QUARTER_TURN.inv()}
    ok &= set(cubes.buckets) == {
        sl2.SIXTH_TURN, sl2.SIXTH_TURN.inv(), sl2.MINUS_IDENTITY}
    # the translated family of square roots, certified one by one
    for m in range(1, 21):
        member = sl2.conjugate_family(sl2.QUARTER_TURN, m)
        ok &= member == sl2.Mat2(-m, m * m + 1, -1, m)
        cert = sl2.reduce_elliptic(member)
        ok &= cert.canonical == sl2.QUARTER_TURN
        ok &= cert.conjugator * member * cert.conjugator.inv() == sl2.QUARTER_TURN
    # enumeration completeness and class assignment vs independent oracles
    for power in (2, 3):
        for bound in (1, 2, 3):
            enumerated = {m.entries() for m in sl2.roots_of_minus_identity(power, bound)}
            ok &= enumerated == brute_roots(power, bound)
        for m in sl2.roots_of_minus_identity(power, 3):
            ok &= orbit_canonicals(m) == {sl2.reduce_elliptic(m).canonical}
    _report(4, "root census bound 50", ok, time.perf_counter() - start, 60.0)


def test_criterion_5_square_root_family():
    start = time.perf_counter()
    b = BraidWord(4, (2,))
    cab = BraidWord(4, (3, 1, 2))
    delta = half_twist_word(4)
    members = [b ** m * cab * b ** (-m) for m in range(-10, 11)]
    inverses = [h.inv() for h in members]
    ok = len(members) == 21
    for h in members:
        ok &= equals(h * h, delta)
    for h in inverses:
        ok &= equals(h * h, delta.inv())
    for family in (members, inverses):
        for i, u in enumerate(family):
            for v in family[i + 1:]:
                ok &= not equals_mod_center(u, v)
    _report(5, "21 distinct square roots of the half twist", ok,
            time.perf_counter() - start, 5.0)


def test_criterion_6_relation_suites():
    start = time.perf_counter()
    ok = True
    for n in range(1, 5):
        for k in range(1, 4):
            model = sp.surface_model(n, k)
            ident = sp.identity_matrix(model)
            s = 2 * k + 2
            gens = 2 * k + 1

            def holds(left, right=None):
                right = right if right is not None else BraidWord(s)
                image = sp.evaluate_word(model, left * right.inv())
                return sp.mats_equal(image, ident)

            for i in range(1, gens):
                ok &= holds(BraidWord(s, (i, i + 1, i)), BraidWord(s, (i + 1, i, i + 1)))
            for i in range(1, gens + 1):
                for j in range(i + 2, gens + 1):
                    ok &= holds(BraidWord(s, (i, j)), BraidWord(s, (j, i)))
            if n >= 2:
                chain = BraidWord(s, tuple(range(1, gens + 1)))
                ok &= holds(chain ** (2 * k + 2))
    _report(6, "relation suites n<=4 k<=3", ok, time.perf_counter() - start, 30.0)


def test_criterion_7_separation():
    start = time.perf_counter()
    ok = True
    for k, strands in ((1, 4), (2, 6)):
        model = sp.surface_model(2, k)
        word = BraidWord(strands, tuple(range(1, 2 * k + 1))) ** (4 * k + 2)
        ok &= sp.mats_equal(sp.evaluate_word(model, word), sp.identity_matrix(model))
        ok &= not equals_mod_center(word, BraidWord(strands))
    _report(7, "separation of the open (2,k) groups", ok,
            time.perf_counter() - start, 10.0)


def test_criterion_8_oracle_soundness():
    start = time.perf_counter()
    rng = random.Random(20260814)
    pairs = 0
    agreements = 0
    for _ in range(1000):
        n = rng.randint(2, 5)
        u = random_word(rng, n, 12)
        v = random_word(rng, n, 12)
        pairs += 1
        if equals(u, v) == (artin_action(u) == artin_action(v)):
            agreements += 1
    # salt in pairs that are equal by construction, still within the bounds
    for _ in range(250):
        n = rng.randint(2, 5)
        u = random_word(rng, n, 8)
        v = equal_variant(rng, u, moves=2)
        if len(v) <= 12:
            pairs += 1
            if equals(u, v) and artin_action(u) == artin_action(v):
                agreements += 1
    ok = pairs >= 1000 and agreements == pairs
    _report(8, f"normal form vs free-group oracle on {pairs} pairs", ok,
            time.perf_counter() - start, 30.0)


def test_criterion_9_headless_battery(tmp_path):
    start = time.perf_counter()
    out = tmp_path / "battery.json"
    code = cli.main([
        "report", "--bound", "12", "--m-max", "5",
        "--format", "json", "--out", str(out),
    ])
    doc = json.loads(out.read_text())
    ok = code == 0 and doc["exit_status"] == 0 and len(doc["reports"]) == 26
    _report(9, "single-command battery exits 0", ok,
            time.perf_counter() - start, 60.0)
