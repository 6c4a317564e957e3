"""Acceptance suite: one test per criterion, exact checks throughout.

Every criterion prints a single PASS line with the check count (visible
under `pytest -s tests/test_acceptance.py`); a failure is an ordinary
assertion failure.  All tolerances are exact equality.
"""

import random

import pytest

from tanglekit import boolmat as bm
from tanglekit import words
from tanglekit.invariants import forest_value, word_value
from tanglekit.lomonoid import axiom_failures, count_monoid, prime_monoid
from tanglekit.operators import add_value, cap, cup, encircle_state, mirror
from tanglekit.oracle import (
    canonical,
    completeness_report,
    dyck_corpus,
    enumerate_forests,
    trace_diagram,
)
from tanglekit.rewriting import encircle, normalize, to_forest
from tanglekit.states import is_valid, random_state

from conftest import STATE_WIDTHS
from operator_spec import masked_transfer, unit_entry


def report(criterion, detail):
    print(f"ACCEPTANCE {criterion}: PASS ({detail})")


# -- 1. relation suite --------------------------------------------------

def test_c01_relation_suite(monoids, state_pools):
    checks = 0
    for spec in monoids:
        pools = {w: state_pools[(spec.name, w)] for w in STATE_WIDTHS}
        # undo relations: cup after an adjacent cap is the identity
        for n in (1, 3, 5, 7):
            for k in range(2, n + 2):
                for st in pools[n]:
                    up = cap(st, k)
                    if k <= n:
                        assert cup(up, k + 1) == st, ("R1+", n, k)
                        checks += 1
                    if k >= 3:
                        assert cup(up, k - 1) == st, ("R1-", n, k)
                        checks += 1
        # two caps commute (with reindexing)
        for n in (1, 3, 5, 7):
            for k in range(2, n + 2):
                for l in range(k + 2, n + 4):
                    for st in pools[n]:
                        assert cap(cap(st, k), l) == cap(cap(st, l - 2), k), ("R2", n, k, l)
                        checks += 1
        # cup slides past a distant cap, both ways
        for n in (3, 5, 7):
            for k in range(2, n):
                for l in range(k + 2, n + 2):
                    for st in pools[n]:
                        assert cup(cap(st, l), k) == cap(cup(st, k), l - 2), ("R3a", n, k, l)
                        assert cup(cap(st, k), l) == cap(cup(st, l - 2), k), ("R3b", n, k, l)
                        checks += 2
        # two cups commute (with reindexing)
        for m in (5, 7, 9):
            for k in range(2, m - 2):
                for l in range(k + 2, m):
                    for st in pools[m]:
                        assert cup(cup(st, l), k) == cup(cup(st, k), l - 2), ("R4", m, k, l)
                        checks += 1
    report("01 relation-suite", f"{checks} exact equalities")


# -- 2. well-definedness -------------------------------------------------

def test_c02_well_definedness(monoids):
    rng = random.Random("well-definedness")
    checks = 0
    for i in range(10_000):
        spec = monoids[i % 2]
        n = rng.choice(STATE_WIDTHS)
        st = random_state(n, rng, spec)
        if n >= 3 and rng.randrange(2):
            out = cup(st, rng.randrange(2, n))
        else:
            out = cap(st, rng.randrange(2, n + 2))
        assert is_valid(out.region, out.values, spec)  # E1-E3, T1-T3, EC, VC
        checks += 1
    report("02 well-definedness", f"{checks} validated applications")


# -- 3. boolean identity suite --------------------------------------------

def test_c03_boolean_identities():
    rng = random.Random("identities")
    checks = 0
    for n in range(1, 13):
        ident_n = bm.identity(n)
        ident_big = bm.identity(n + 2)
        for k in range(2, n + 2):
            b = bm.insert_map(n, k)
            bt = b.transpose()
            d_big = bm.single_diag(n + 2, k)
            assert bt @ b == ident_n
            assert bt @ d_big == bm.zero(n, n + 2)
            assert d_big @ b == bm.zero(n + 2, n)
            assert b @ bt >= ident_big - d_big
            assert b @ bt <= ident_big + b @ bm.single_diag(n, k - 1) @ bt
            checks += 5
            # any same-region matrix is crushed to a diagonal cell
            if (n + 2) % 2 == 1:
                r = random_state(n + 2, rng, count_monoid()).region
                d_small = bm.single_diag(n, k - 1)
                assert d_small @ bt @ r @ b @ d_small <= d_small
                checks += 1
            if k <= n:
                b_next = bm.insert_map(n, k + 1)
                assert b_next.transpose() @ b == ident_n
                assert b_next.transpose() @ b_next == ident_n
                checks += 2
            if k + 2 <= n + 1:
                assert bt @ bm.insert_map(n, k + 2) == (ident_n - bm.single_diag(n, k)) + unit_entry(n, k - 1, k + 1)
                checks += 1
            assert masked_transfer(n, k) @ bm.insert_map(n + 2, k).transpose() @ bm.insert_map(n + 2, k + 2) == bt
            checks += 1
            for l in range(k + 2, n + 4):
                assert bm.insert_map(n + 2, l) @ bm.insert_map(n, k) == bm.insert_map(n + 2, k) @ bm.insert_map(n, l - 2)
                checks += 1
                if k <= n + 1:
                    assert bm.insert_map(n + 2, l) @ bm.single_diag(n + 2, k) @ bm.insert_map(n + 2, l).transpose() == bm.single_diag(n + 4, k)
                    checks += 1
                assert bm.insert_map(n + 2, k) @ bm.single_diag(n + 2, l - 2) @ bm.insert_map(n + 2, k).transpose() == bm.single_diag(n + 4, l)
                checks += 1
            for l in range(k + 3, n + 3):
                assert bt @ bm.single_diag(n + 2, l) @ b == bm.single_diag(n, l - 2)
                checks += 1
            for l in range(k + 3, n + 2):
                if n >= 3 and k <= n - 1:
                    assert bt @ bm.insert_map(n, l) == bm.insert_map(n - 2, l - 2) @ bm.insert_map(n - 2, k).transpose()
                    checks += 1
        # reversal conjugation
        s_in, s_out = bm.reversal(n), bm.reversal(n + 2)
        for k in range(2, n + 2):
            assert s_out @ bm.insert_map(n, k) @ s_in == bm.insert_map(n, n + 3 - k)
            checks += 1
        for k in range(1, n + 3):
            assert s_out @ bm.single_diag(n + 2, k) @ s_out == bm.single_diag(n + 2, n + 3 - k)
            checks += 1
        # embedding and corner identities
        e = bm.inner_embed(n)
        f = bm.outer_corners(n + 2)
        assert e.transpose() @ e == ident_n
        assert e.transpose() @ f == bm.zero(n, n + 2)
        assert f @ e == bm.zero(n + 2, n)
        checks += 3
        for k in range(2, n + 2):
            assert bm.insert_map(n + 2, k + 1) @ e == bm.inner_embed(n + 2) @ bm.insert_map(n, k)
            checks += 1
            if n >= 3 and k <= n - 1:
                assert bm.insert_map(n, k + 1).transpose() @ e == bm.inner_embed(n - 2) @ bm.insert_map(n - 2, k).transpose()
                checks += 1
    # chessboard composition: equality except through a single column
    for l in range(1, 13):
        for m in range(1, 13):
            for n in range(1, 13):
                prod = bm.checkerboard(l, m) @ bm.checkerboard(m, n)
                assert prod <= bm.checkerboard(l, n)
                if m > 1:
                    assert prod == bm.checkerboard(l, n)
                checks += 1
    report("03 boolean-identities", f"{checks} identities, n <= 12")


# -- 4. monoid axiom suite -------------------------------------------------

def test_c04_monoid_axioms(monoids):
    from test_lomonoid import diamond

    checks = 0
    for spec in monoids:
        rng = random.Random(f"axioms/{spec.name}")
        triples = [tuple(spec.sample(rng) for _ in range(3)) for _ in range(10_000)]
        assert axiom_failures(spec, triples) == []
        checks += len(triples)
    d = diamond()
    triples = [(a, b, c) for a in d.elements for b in d.elements for c in d.elements]
    assert axiom_failures(d, triples) == []
    checks += len(triples)
    report("04 monoid-axioms", f"{checks} sampled triples x 13 laws")


# -- 5. codec ---------------------------------------------------------------

def test_c05_codec_roundtrip(word_corpus):
    exhaustive, randoms = word_corpus
    checks = 0
    for sym in exhaustive:
        if sym:
            assert words.encode(words.decode(sym)) == sym
            checks += 1
    for sym in randoms:
        assert len(sym) <= 30
        assert words.encode(words.decode(sym)) == sym
        checks += 1
    report("05 codec-roundtrip", f"{checks} words ({len(exhaustive)} exhaustive)")


# -- 6 + 7. normalization and method agreement ------------------------------

@pytest.fixture(scope="module")
def normalized_corpus(word_corpus, monoids):
    """Per word: normal form, forests, and the invariant three ways."""
    exhaustive, randoms = word_corpus
    rows = []
    for sym in exhaustive + randoms:
        normal, _ = normalize(sym)
        forest = to_forest(normal)
        geo = canonical(trace_diagram(words.decode(sym))) if sym else ""
        values = {}
        for spec in monoids:
            values[spec.name] = (
                word_value(sym, spec),
                word_value(normal, spec),
                forest_value(forest, spec),
            )
        rows.append((sym, normal, forest, geo, values))
    return rows


def test_c06_normalization(normalized_corpus, monoids):
    checks = 0
    for sym, normal, forest, geo, values in normalized_corpus:
        assert all(d == 0 for _, d in normal)
        for spec in monoids:
            before, after, _ = values[spec.name]
            assert before == after, words.format_sym(sym)
        assert canonical(forest) == geo
        checks += 1
    report("06 normalization", f"{checks} words: only-zero symbols, invariants, forests")


def test_c07_method_agreement(normalized_corpus, monoids):
    checks = 0
    for sym, normal, forest, geo, values in normalized_corpus:
        for spec in monoids:
            direct, _, recursive = values[spec.name]
            assert direct == recursive, words.format_sym(sym)
            checks += 1
    report("07 method-agreement", f"{checks} word/monoid pairs")


# -- 8. completeness at desk scale -------------------------------------------

def test_c08_completeness():
    prime = prime_monoid()
    rep = completeness_report(7)
    assert len(rep.rows) == 200
    assert rep.ok, rep.collisions
    assert len(enumerate_forests(7)) == 115
    # invariant equality coincides with canonical-forest equality
    table = []
    count = 0
    for sym in dyck_corpus(7):
        forest = to_forest(sym)
        table.append((canonical(forest), forest_value(forest, prime)))
        count += 1
    assert count == 626  # sum of Catalan numbers 0..7, 429 at size 7
    for canon_a, value_a in table:
        for canon_b, value_b in table:
            assert (canon_a == canon_b) == (value_a == value_b)
    report("08 completeness", f"200 forests injective; {count}^2 word pairs consistent")


# -- 9. homomorphism laws -----------------------------------------------------

def test_c09_homomorphism(monoids):
    rng = random.Random("homomorphism")
    checks = 0
    for _ in range(1000):
        a = words.random_word(rng, 8)
        b = words.random_word(rng, 8)
        for spec in monoids:
            va, vb = word_value(a, spec), word_value(b, spec)
            joint = word_value(a + b, spec)
            assert joint == spec.oplus(va, vb)
            assert joint == word_value(b + a, spec)
            assert word_value(encircle(a), spec) == spec.phi(va)
            checks += 3
        # composition is commutative at the forest level too
        ab = canonical(to_forest(normalize(a + b)[0]))
        ba = canonical(to_forest(normalize(b + a)[0]))
        assert ab == ba
        checks += 1
    report("09 homomorphism", f"{checks} equalities on random closed pairs")


# -- 10. pinned values ---------------------------------------------------------

def test_c10_pinned_values():
    count, prime = count_monoid(), prime_monoid()
    circle = ((-2, 0), (2, 0))
    nested = ((-2, 0), (-2, 0), (2, 0), (2, 0))
    side = ((-2, 0), (2, 0), (-2, 0), (2, 0))
    assert word_value(circle, count) == 1
    assert word_value(circle, prime) == 2
    assert word_value(nested, prime) == 3
    assert word_value(side, prime) == 4
    chain = ()
    seen = []
    for _ in range(7):
        chain = encircle(chain)
        seen.append(word_value(chain, prime))
    assert seen == [2, 3, 5, 11, 31, 127, 709]
    report("10 pinned-values", "circle/nest/side and the 709 nesting chain")


# -- 11. intertwining ----------------------------------------------------------

def test_c11_intertwining(monoids, state_pools):
    checks = 0
    for spec in monoids:
        rng = random.Random(f"intertwine/{spec.name}")
        for n in (1, 3, 5, 7):
            for st in state_pools[(spec.name, n)]:
                m = spec.sample(rng)
                k = rng.randrange(2, n + 2)
                assert cap(add_value(st, m), k) == add_value(cap(st, k), m)
                assert cap(encircle_state(st), k + 1) == encircle_state(cap(st, k))
                assert mirror(cap(st, k)) == cap(mirror(st), n + 3 - k)
                assert mirror(mirror(st)) == st
                checks += 4
                if n >= 3:
                    j = rng.randrange(2, n)
                    assert cup(add_value(st, m), j) == add_value(cup(st, j), m)
                    assert cup(encircle_state(st), j + 1) == encircle_state(cup(st, j))
                    assert mirror(cup(st, j)) == cup(mirror(st), n + 1 - j)
                    checks += 3
    report("11 intertwining", f"{checks} commuting squares")


# -- 12. CLI golden files --------------------------------------------------------

def test_c12_cli_golden():
    import test_cli

    for name, argv in sorted(test_cli.CASES.items()):
        code, out, err = test_cli.run(argv)
        blob = f"argv: {' '.join(argv)}\nexit: {code}\n--- stdout ---\n{out}--- stderr ---\n{err}"
        assert blob == (test_cli.GOLDEN / f"{name}.txt").read_text(), name
    first = test_cli.run(["selftest", "--seed", "3", "--trials", "20"])
    assert first == test_cli.run(["selftest", "--seed", "3", "--trials", "20"])
    report("12 cli-golden", f"{len(test_cli.CASES)} byte-exact commands + reproducible selftest")
