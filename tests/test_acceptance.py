"""Acceptance suite: one test per numbered criterion, exact equality everywhere.

Each test prints a single pass/fail line; run with
``pytest tests/test_acceptance.py -v -s`` to see the lines inline.
"""

import random
import time

from natbdd.bdd import ev, plain_bdd, plain_inverse_bdd, reduced_bdd
from natbdd.bdd import reduce as reduce_bdd
from natbdd.cli import render_sexpr
from natbdd.oracle import truth_table_of
from natbdd.pairing import SCHEMES, cantor_pair, cantor_unpair, pepis_pair
from natbdd.pairing import bitmerge_pair, bitmerge_unpair
from natbdd.ranking import bdd2nat, bsum, enumerate_bdds, nat2bdd, nat2plain_bdd
from natbdd.ranking import plain_bdd2nat, to_bsum
from natbdd.truthtab import shannon_fuse, shannon_split, var_tt

PLAIN_42_TEXT = (
    "(bdd 3 (ite 2 (ite 1 (ite 0 (c 0) (c 0)) (ite 0 (c 0) (c 0))) "
    "(ite 1 (ite 0 (c 1) (c 1)) (ite 0 (c 1) (c 0)))))"
)
REDUCED_42_TEXT = "(bdd 3 (ite 2 (c 0) (ite 1 (c 1) (ite 0 (c 1) (c 0)))))"
UNRANKED_PLAIN_42_TEXT = (
    "(bdd 4 (ite 3 (ite 2 (ite 1 (ite 0 (c 0) (c 0)) (ite 0 (c 1) (c 0))) "
    "(ite 1 (ite 0 (c 1) (c 0)) (ite 0 (c 0) (c 0)))) "
    "(ite 2 (ite 1 (ite 0 (c 0) (c 0)) (ite 0 (c 0) (c 0))) "
    "(ite 1 (ite 0 (c 0) (c 0)) (ite 0 (c 0) (c 0))))))"
)
UNRANKED_REDUCED_42_TEXT = (
    "(bdd 4 (ite 3 (ite 2 (ite 1 (c 0) (ite 0 (c 1) (c 0))) "
    "(ite 1 (ite 0 (c 1) (c 0)) (c 0))) (c 0)))"
)
REDUCED_STREAM_PREFIX = [
    "(bdd 1 (c 0))",
    "(bdd 1 (ite 0 (c 1) (c 0)))",
    "(bdd 2 (c 0))",
    "(bdd 2 (ite 1 (ite 0 (c 1) (c 0)) (c 0)))",
    "(bdd 2 (ite 1 (c 0) (ite 0 (c 1) (c 0))))",
    "(bdd 2 (ite 0 (c 1) (c 0)))",
]
BITMERGE_TABLE = {
    0: (0, 0), 1: (1, 0), 2: (0, 1), 3: (1, 1),
    4: (2, 0), 5: (3, 0), 6: (2, 1), 7: (3, 1),
    8: (0, 2), 9: (1, 2), 10: (0, 3), 11: (1, 3),
    12: (2, 2), 13: (3, 2), 14: (2, 3), 15: (3, 3),
}


def _report(num, label, failures):
    status = "PASS" if not failures else f"FAIL ({len(failures)} deviations)"
    print(f"[acceptance] criterion {num}: {status} -- {label}")
    assert not failures, (
        f"criterion {num}: {len(failures)} deviations, first: {failures[0]}"
    )


def test_criterion_1_worked_examples():
    started = time.perf_counter()
    failures = []

    def check(label, got, want):
        if got != want:
            failures.append(f"{label}: got {got!r}, want {want!r}")

    check("pepis_pair(1,10)", pepis_pair(1, 10), 41)
    check("bitmerge_unpair(2008)", bitmerge_unpair(2008), (60, 26))
    check("bitmerge_pair(60,26)", bitmerge_pair(60, 26), 2008)
    for z, want in BITMERGE_TABLE.items():
        check(f"bitmerge_unpair({z})", bitmerge_unpair(z), want)
    check("shannon_split(2,7)", shannon_split(2, 7), (1, 3))
    check("shannon_fuse(2,1,3)", shannon_fuse(2, 1, 3), 7)
    check("shannon_split(3,42)", shannon_split(3, 42), (2, 10))
    check("var_tt(2,0)", var_tt(2, 0), 3)
    check("var_tt(2,1)", var_tt(2, 1), 5)
    check("plain_bdd(3,42)", render_sexpr(plain_bdd(3, 42)), PLAIN_42_TEXT)
    check("reduced_bdd(3,42)", render_sexpr(reduced_bdd(3, 42)), REDUCED_42_TEXT)
    check("nat2plain_bdd(42)", render_sexpr(nat2plain_bdd(42)), UNRANKED_PLAIN_42_TEXT)
    check("nat2bdd(42)", render_sexpr(nat2bdd(42)), UNRANKED_REDUCED_42_TEXT)
    check("ev(plain_bdd(3,42))", ev(plain_bdd(3, 42)), 42)
    check("ev(reduced_bdd(3,42))", ev(reduced_bdd(3, 42)), 42)
    check("plain_inverse_bdd(plain_bdd(3,42))", plain_inverse_bdd(plain_bdd(3, 42)), 42)
    check("plain rank of unrank(42)", plain_bdd2nat(nat2plain_bdd(42)), 42)
    check("reduced rank of unrank(42)", bdd2nat(nat2bdd(42)), 42)

    elapsed = time.perf_counter() - started
    if elapsed >= 1.0:
        failures.append(f"runtime {elapsed:.2f}s, budget is <1s")
    _report(1, f"pinned worked examples, exact equality ({elapsed * 1000:.0f} ms)", failures)


def test_criterion_2_eval_and_fold_invert_construction():
    started = time.perf_counter()
    failures = []
    cases = 0
    for nv in range(5):
        for tt in range(1 << (1 << nv)):
            b = plain_bdd(nv, tt)
            if ev(b) != tt:
                failures.append(f"ev(plain_bdd({nv},{tt}))")
            if plain_inverse_bdd(b) != tt:
                failures.append(f"plain_inverse_bdd(plain_bdd({nv},{tt}))")
            reduced = reduce_bdd(b)
            if ev(reduced) != tt:
                failures.append(f"ev(reduce(plain_bdd({nv},{tt})))")
            if reduced_bdd(nv, tt) != reduced:
                failures.append(f"reduced_bdd({nv},{tt}) != reduce(plain_bdd({nv},{tt}))")
            cases += 1
    if cases != 65814:  # 2 + 4 + 16 + 256 + 65536
        failures.append(f"expected 65814 tables, visited {cases}")
    elapsed = time.perf_counter() - started
    if elapsed >= 60.0:
        failures.append(f"runtime {elapsed:.1f}s, budget is <60s")
    _report(
        2,
        f"evaluation and structural fold invert construction, top-down "
        f"reduced_bdd equals reduce(plain_bdd), nv<=4 "
        f"({cases} tables, {elapsed:.1f}s)",
        failures,
    )


def test_criterion_3_pairing_bijectivity():
    failures = []
    for name, (pair, unpair) in SCHEMES.items():
        for x in range(256):
            for y in range(256):
                if unpair(pair(x, y)) != (x, y):
                    failures.append(f"{name}: unpair(pair({x},{y}))")
        for z in range(1 << 16):
            if pair(*unpair(z)) != z:
                failures.append(f"{name}: pair(unpair({z}))")
    big = 1 << 200
    if cantor_pair(*cantor_unpair(big)) != big:
        failures.append("cantor roundtrip at 2**200")
    _report(3, "pair/unpair identities on [0,255]^2 and [0,65535], exact at 2**200", failures)


def test_criterion_4_pointwise_oracle_agreement():
    failures = []
    for nv in range(4):
        for tt in range(1 << (1 << nv)):
            b = plain_bdd(nv, tt)
            pointwise = truth_table_of(b)
            if pointwise != tt:
                failures.append(f"truth_table_of(plain_bdd({nv},{tt})) = {pointwise}")
            if ev(b) != pointwise:
                failures.append(f"ev disagrees with oracle at ({nv},{tt})")
            if truth_table_of(reduce_bdd(b)) != pointwise:
                failures.append(f"reduce changes pointwise semantics at ({nv},{tt})")
    _report(4, "pointwise oracle equals bitvector evaluation, nv<=3; reduction preserves it", failures)


def test_criterion_5_ranking_bijection():
    failures = []
    for n in range(10**4 + 1):
        if plain_bdd2nat(nat2plain_bdd(n)) != n:
            failures.append(f"plain roundtrip at {n}")
        if bdd2nat(nat2bdd(n)) != n:
            failures.append(f"reduced roundtrip at {n}")
    if bsum(4) != 278 or bsum(4) != 2 + 4 + 16 + 256:
        failures.append(f"bsum(4) = {bsum(4)}")
    if to_bsum(42) != (4, 20):
        failures.append(f"to_bsum(42) = {to_bsum(42)}")
    stream = [render_sexpr(b) for b in enumerate_bdds("reduced", 0, 6)]
    if stream != REDUCED_STREAM_PREFIX:
        failures.append(f"reduced stream prefix {stream}")
    _report(5, "rank/unrank identities on [0,10^4], block sums, stream prefix", failures)


def test_criterion_6_cli_pipe_roundtrips(cli):
    failures = []
    seed = 0xBDD42
    rng = random.Random(seed)
    table_cases = []
    for _ in range(100):
        nv = rng.randrange(0, 5)
        tt = rng.randrange(0, 1 << (1 << nv))
        variant = rng.choice(["--plain", "--reduced"])
        table_cases.append((nv, tt, variant))
    rank_cases = [
        (rng.randrange(0, bsum(4)), rng.choice(["--plain", "--reduced"]))
        for _ in range(100)
    ]
    print(f"[acceptance] criterion 6 seed: {seed:#x}")
    print(f"[acceptance] criterion 6 tt2bdd cases: {table_cases}")
    print(f"[acceptance] criterion 6 unrank cases: {rank_cases}")

    for nv, tt, variant in table_cases:
        argv = ["tt2bdd", "--vars", str(nv), "--tt", str(tt), variant]
        first = cli(argv)
        if first != cli(argv):
            failures.append(f"tt2bdd not byte-deterministic for {argv}")
        code, text, err = first
        if code != 0:
            failures.append(f"tt2bdd failed for {argv}: {err.strip()}")
            continue
        back = cli(["bdd2tt"], stdin_text=text)
        if back != (0, f"{tt}\n", ""):
            failures.append(f"tt2bdd|bdd2tt broke at nv={nv} tt={tt} {variant}: {back}")

    for n, variant in rank_cases:
        argv = ["unrank", str(n), variant]
        first = cli(argv)
        if first != cli(argv):
            failures.append(f"unrank not byte-deterministic for {argv}")
        code, text, err = first
        if code != 0:
            failures.append(f"unrank failed for {argv}: {err.strip()}")
            continue
        back = cli(["rank", variant], stdin_text=text)
        if back != (0, f"{n}\n", ""):
            failures.append(f"unrank|rank broke at n={n} {variant}: {back}")

    _report(6, "CLI pipe identities on 100+100 logged random cases, deterministic output", failures)
