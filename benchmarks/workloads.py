"""Seeded inputs, timed operations and exact checks for the four workloads.

Every workload is a closed loop with one operation in flight.  Its inputs
come in rounds: a round is a fixed list of size classes whose contents are
drawn from a ``random.Random`` seeded with the run seed, the workload name
and the round number, so one seed always yields byte-identical inputs and
the share of each size class is exact in every round.  The library only
ever receives the generated ints or text.

Each workload provides

* ``make_round(seed, r)`` -- the cases of round ``r``;
* ``ops(nb, ctx, cases)`` -- yields ``(case, op)`` pairs, where ``op()``
  is the timed call into the library (``nb`` is the imported package);
* ``check(case, result)`` -- exact equality of ``op()``'s result against
  what the case expects, run outside the timed region.

Expected values are built here from the inputs' definitions, never by
asking the library.
"""

from __future__ import annotations

import contextlib
import functools
import random
import subprocess
import sys
from dataclasses import dataclass
from typing import Any, Callable, Iterator

# ------------------------------------------------------------------ helpers


def round_rng(seed: int, workload: str, r: int) -> random.Random:
    # string seeds hash through SHA-512, so the stream is independent of
    # PYTHONHASHSEED and of the interpreter build
    return random.Random(f"natbdd-bench:{seed}:{workload}:{r}")


@contextlib.contextmanager
def unlimited_int_digits() -> Iterator[None]:
    """Lift Python's int<->str digit cap for the benchmark's own conversions.

    The cap is restored afterwards, so library code run in this process
    (the traced CLI run) sees the interpreter's default, as a user would.
    """
    old = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        yield
    finally:
        sys.set_int_max_str_digits(old)


def block_start(k: int) -> int:
    """First rank of the enumeration block for ``k`` variables (k >= 1)."""
    # blocks hold 2, 2**2, 2**4, ..., 2**(2**(k-2)) trees before block k
    return sum(1 << (1 << (m - 1)) for m in range(1, k))


# -------------------------------------------- independent sparse functions
#
# Row p of a table on nv variables assigns variable k the complement of bit
# nv-1-k of p (the convention of the library's variable columns).  The
# tables and reduced trees below are built from that definition alone.


def column_table(nv: int, k: int) -> int:
    """Table of variable ``k``: runs of 2**j ones and zeros, j = nv-1-k."""
    j = nv - 1 - k
    pattern = (1 << (1 << j)) - 1
    width = 1 << (j + 1)
    while width < (1 << nv):
        pattern |= pattern << width
        width <<= 1
    return pattern


def leaf(bit: int) -> tuple:
    return ("c", bit)


def ite(var: int, high: tuple, low: tuple) -> tuple:
    return ("ite", var, high, low)


def sparse_function(kind: str, nv: int, variables: list[int], value: int = 0) -> tuple[int, tuple]:
    """Truth table and expected reduced tree of one structured function.

    ``variables`` must be distinct; the tree tests them top-down from the
    highest index, and every variable outside the set is skipped.
    """
    order = sorted(variables, reverse=True)
    full = (1 << (1 << nv)) - 1
    columns = [column_table(nv, k) for k in order]
    if kind == "const":
        return (full if value else 0), leaf(value)
    if kind == "column":
        (k,) = order
        return columns[0], ite(k, leaf(1), leaf(0))
    if kind == "and":
        table = full
        for c in columns:
            table &= c
        tree = leaf(1)
        for k in reversed(order):
            tree = ite(k, tree, leaf(0))
        return table, tree
    if kind == "or":
        table = 0
        for c in columns:
            table |= c
        tree = leaf(0)
        for k in reversed(order):
            tree = ite(k, leaf(1), tree)
        return table, tree
    if kind == "parity":
        table = 0
        for c in columns:
            table ^= c
        even, odd = leaf(0), leaf(1)  # parity of the variables below so far
        for k in reversed(order):
            even, odd = ite(k, odd, even), ite(k, even, odd)
        return table, even
    raise ValueError(f"unknown function kind {kind!r}")


def _shape(node: Any) -> tuple:
    if hasattr(node, "bit"):
        return leaf(node.bit)
    return ite(node.var, _shape(node.high), _shape(node.low))


def tree_shape(b: Any) -> tuple[int, tuple]:
    """A library ``Bdd`` as (nv, nested tuples), for comparison with the above."""
    # a module-level walk, as a recursive closure would leave a reference
    # cycle per call for the collector to free during a later, timed op
    return b.nv, _shape(b.root)


# ------------------------------------------------------------------ cases


@dataclass(frozen=True)
class Case:
    cls: str        # size class, e.g. "nv=14"
    inputs: tuple
    expected: Any
    label: str = ""


@dataclass
class Context:
    """What an operation needs besides the library: how to start the CLI."""

    python: str
    env: dict
    timeout_s: float = 30.0  # per process; a hung op fails instead of stalling the run


Op = Callable[[], Any]


class PipeFailed(RuntimeError):
    """A CLI process in a pipe exited with a nonzero status."""


# ---------------------------------------------------------- dense_tables

# Each round holds thirty-six nv=12, twelve nv=14 and one nv=16 random
# tables: nv=12 is most of the ops, so the median is one of them.  A run
# holds two to ten rounds whatever its length (``run.MAX_ROUNDS``), so it
# has fewer than eleven nv=16 ops but over ten nv=14 ones, and the tail is
# an nv=14 op.  The single nv=16 op keeps the widest tables in the mix
# without letting their allocation-heavy, noisy cost dominate the run's time.

DENSE_MIX = ((12, 36), (14, 12), (16, 1))  # (nv, ops per round)


def dense_round(seed: int, r: int) -> list[Case]:
    rng = round_rng(seed, "dense_tables", r)
    cases = []
    for nv, count in DENSE_MIX:
        for _ in range(count):
            tt = rng.getrandbits(1 << nv)
            x = rng.randrange(1 << 16)
            cases.append(Case(f"nv={nv}", (nv, tt, x), None))
    return cases


def dense_op(nb: Any, nv: int, tt: int, x: int) -> tuple:
    plain = nb.plain_bdd(nv, tt)
    folded = nb.plain_inverse_bdd(plain)
    evaluated = nb.ev(nb.reduce(plain))
    del plain
    hi, lo = nb.shannon_split(nv, tt)
    bitmerge = nb.bitmerge_unpair(nb.bitmerge_pair(hi, lo))
    cantor = nb.cantor_unpair(nb.cantor_pair(hi, lo))
    fused = nb.shannon_fuse(nv, hi, lo)
    pepis = nb.pepis_unpair(nb.pepis_pair(x, tt))
    return folded, evaluated, (hi, lo), bitmerge, cantor, fused, pepis


def dense_check(case: Case, result: tuple) -> bool:
    nv, tt, x = case.inputs
    folded, evaluated, halves, bitmerge, cantor, fused, pepis = result
    return (
        folded == tt
        and evaluated == tt
        and bitmerge == halves
        and cantor == halves
        and fused == tt
        and pepis == (x, tt)
    )


def dense_ops(nb: Any, ctx: Context, cases: list[Case]) -> Iterator[tuple[Case, Op]]:
    for case in cases:
        yield case, functools.partial(dense_op, nb, *case.inputs)


# ------------------------------------------------------ sparse_functions
#
# Each round holds thirty nv=14 and six nv=15 functions and one large one,
# nv=16, 17 and 18 in turn.  nv=14 is most of the ops, so the median is one
# of them.  A run holds two to ten rounds whatever its length
# (``run.MAX_ROUNDS``), so it has fewer than eleven large ops but over ten
# nv=15 ones, and the tail is an nv=15 op.  One large op per round keeps
# their allocation-heavy, noisy cost from dominating the run's time; throughput is taken per size class, so the
# large sizes left over when a run stops mid-turn move it by a few percent.
# Kinds rotate in a fixed order within each size class; the seed picks
# variables and arities.

SPARSE_MIX = ((14, 30), (15, 6))  # (nv, ops per round)
SPARSE_LARGE = (16, 17, 18)
SPARSE_KINDS = ("column", "and", "or", "parity", "const")


def sparse_round(seed: int, r: int) -> list[Case]:
    rng = round_rng(seed, "sparse_functions", r)
    # (nv, position of the op within its size class across all rounds)
    plan = [(nv, r * count + j) for nv, count in SPARSE_MIX for j in range(count)]
    plan.append((SPARSE_LARGE[r % len(SPARSE_LARGE)], r // len(SPARSE_LARGE)))
    cases = []
    for nv, index in plan:
        kind = SPARSE_KINDS[index % len(SPARSE_KINDS)]
        arity = {"column": 1, "and": rng.randint(2, 6), "or": rng.randint(2, 6),
                 "parity": rng.randint(2, 5), "const": 0}[kind]
        variables = rng.sample(range(nv), arity)
        value = rng.randrange(2)
        table, tree = sparse_function(kind, nv, variables, value)
        cases.append(Case(f"nv={nv}", (nv, table), (nv, tree), kind))
    return cases


def sparse_op(nb: Any, nv: int, tt: int) -> tuple:
    tree = nb.reduced_bdd(nv, tt)
    return tree, nb.ev(tree)


def sparse_check(case: Case, result: tuple) -> bool:
    tree, table = result
    return table == case.inputs[1] and tree_shape(tree) == case.expected


def sparse_ops(nb: Any, ctx: Context, cases: list[Case]) -> Iterator[tuple[Case, Op]]:
    for case in cases:
        yield case, functools.partial(sparse_op, nb, *case.inputs)


# ----------------------------------------------------------- rank_stream
#
# One op enumerates RANK_RUN consecutive ranks from a seeded start, as
# reduced and as plain trees, and ranks each tree back as it is yielded,
# alternating the two kinds: 4 * RANK_RUN tiny library calls.  An op
# is a whole run and not a single tree because a single tree takes about
# 0.3 ms, so the slowest of them were those that a collector pause or an
# interrupt happened to hit, and that tail spread by 18-29% over seeds.
# A round is twenty runs: one starting in each block k=1..5, two in k=6
# and thirteen in k=7, so the median and the tail both fall among k=7 runs.
# Ten rounds take a few seconds, so a run usually ends at
# ``run.MAX_ROUNDS``, before ``--seconds``.

RANK_BLOCKS = (1, 2, 3, 4, 5, 6, 6) + (7,) * 13
RANK_RUN = 32


def rank_round(seed: int, r: int) -> list[Case]:
    rng = round_rng(seed, "rank_stream", r)
    cases = []
    for k in RANK_BLOCKS:
        start = block_start(k) + rng.randrange(block_start(k + 1) - block_start(k))
        expected = [rank for rank in range(start, start + RANK_RUN) for _ in range(2)]
        cases.append(Case(f"k={k}", (start, RANK_RUN), expected))
    return cases


def rank_op(nb: Any, start: int, count: int) -> list[int]:
    ranks = []
    reduced, plain = nb.enumerate_bdds("reduced", start, count), nb.enumerate_bdds("plain", start, count)
    for r_tree, p_tree in zip(reduced, plain):
        ranks.append(nb.bdd2nat(r_tree))
        ranks.append(nb.plain_bdd2nat(p_tree))
    return ranks


def rank_ops(nb: Any, ctx: Context, cases: list[Case]) -> Iterator[tuple[Case, Op]]:
    for case in cases:
        yield case, functools.partial(rank_op, nb, *case.inputs)


def rank_check(case: Case, result: list[int]) -> bool:
    return result == case.expected


# ------------------------------------------------------------- cli_pipes
#
# A round is 26 CLI operations, each two `python -m natbdd` processes:
#   15 small pipes: 10 `tt2bdd | bdd2tt` at nv=4..10, 4 `unrank | rank`
#      and 1 `enum | rank`;
#    2 `pair` then `unpair` round trips (the pair's output becomes argv);
#    7 `tt2bdd | bdd2tt` of reduced s-expressions at nv=14 in hex;
#    2 `tt2bdd | bdd2tt` at nv=14 in decimal.
# Small pipes are most of the successful ops, so the median is one of them,
# and a run of two or more rounds has over ten hex nv=14 pipes, so the tail
# is one of those.  The decimal nv=14 tables run past Python's 4300-digit
# int/str cap, so at the seed they exit 1: the known decimal-I/O defect,
# kept in the mix at a fixed share (2 of 26) so that fixing it shows.  Any
# other failure, in this class or another, makes the run incorrect.

SMALL_TT, SMALL_RANK, PAIRS, LARGE_HEX, LARGE_DECIMAL = 10, 5, 2, 7, 2
PAIR_SCHEMES = ("cantor", "bitmerge", "pepis")


def _fmt(n: int, hexadecimal: bool) -> str:
    return hex(n) if hexadecimal else str(n)


def _tt_case(cls: str, nv: int, tt: int, plain: bool, fmt: str, hex_in: bool, hex_out: bool) -> Case:
    with unlimited_int_digits():
        tt_text, out_text = _fmt(tt, hex_in), _fmt(tt, hex_out)
    first = ["tt2bdd", "--vars", str(nv), "--tt", tt_text, "--format", fmt]
    first += ["--plain"] if plain else []
    second = ["bdd2tt"] + (["--hex"] if hex_out else [])
    label = f"tt nv={nv} {'plain' if plain else 'reduced'} {fmt} {'hex' if hex_in else 'dec'}>{'hex' if hex_out else 'dec'}"
    return Case(cls, ("pipe", first, second), out_text + "\n", label)


def cli_round(seed: int, r: int) -> list[Case]:
    rng = round_rng(seed, "cli_pipes", r)
    cases = []
    # the small pipes are the same kinds and sizes in every round, as the
    # median falls among them and their cost differs by kind and size
    for i in range(SMALL_TT):
        # flag bits: plain, json, hex input (output in the other base)
        flags, nv = i % 8, 4 + i % 7
        cases.append(_tt_case("small", nv, rng.getrandbits(1 << nv), bool(flags & 1),
                              "json" if flags & 2 else "sexpr", bool(flags & 4), not (flags & 4)))
    for i in range(SMALL_RANK):
        k = 5 + i % 5
        n = block_start(k) + rng.randrange(block_start(k + 1) - block_start(k))
        plain, fmt, hex_out = bool(i & 1), "json" if i & 2 else "sexpr", i in (1, 2)
        # one of them streams the tree out of `enum` instead of `unrank`
        first = ["enum", "--from", str(n), "--count", "1"] if i == 0 else ["unrank", str(n)]
        first += ["--format", fmt] + (["--plain"] if plain else [])
        second = ["rank"] + (["--plain"] if plain else []) + (["--hex"] if hex_out else [])
        cases.append(Case("small", ("pipe", first, second), _fmt(n, hex_out) + "\n",
                          f"{first[0]} k={k} {'plain' if plain else 'reduced'} {fmt}"))
    for i in range(PAIRS):
        scheme = PAIR_SCHEMES[(PAIRS * r + i) % len(PAIR_SCHEMES)]
        x = rng.randrange(1 << 12) if scheme == "pepis" else rng.getrandbits(4096)
        y = rng.getrandbits(4096)
        hex_mid = bool(i)
        first = ["pair", "--scheme", scheme, str(x), str(y)] + (["--hex"] if hex_mid else [])
        second = ["unpair", "--scheme", scheme] + (["--hex"] if hex_mid else [])
        cases.append(Case("pair", ("args", first, second), f"{_fmt(x, hex_mid)} {_fmt(y, hex_mid)}\n",
                          f"pair {scheme}"))
    for _ in range(LARGE_HEX):
        # all alike (the default reduced s-expression), so the tail op's
        # cost does not depend on which variants land next to it
        cases.append(_tt_case("nv=14", 14, rng.getrandbits(1 << 14), False, "sexpr", True, True))
    for i in range(LARGE_DECIMAL):
        cases.append(_tt_case("nv=14 decimal", 14, rng.getrandbits(1 << 14), bool(i),
                              "sexpr", False, False))
    return cases


def run_cli(ctx: Context, kind: str, first: list[str], second: list[str]) -> str:
    """Run two CLI processes, piped (``pipe``) or with the first's output as
    the second's trailing arguments (``args``); return the second's stdout."""
    cmd = [ctx.python, "-m", "natbdd"]
    spawn = functools.partial(subprocess.Popen, stdout=subprocess.PIPE,
                              stderr=subprocess.PIPE, env=ctx.env)
    procs: list[subprocess.Popen] = []
    try:
        p1 = spawn(cmd + first, stdin=subprocess.DEVNULL)
        procs.append(p1)
        if kind == "pipe":
            p2 = spawn(cmd + second, stdin=p1.stdout)
            procs.append(p2)
            p1.stdout.close()  # the second process now holds the only read end
            out, err2 = p2.communicate(timeout=ctx.timeout_s)
            p1.wait(timeout=ctx.timeout_s)
            err1 = p1.stderr.read()
        else:
            mid, err1 = p1.communicate(timeout=ctx.timeout_s)
            p2 = spawn(cmd + second + mid.decode().split(), stdin=subprocess.DEVNULL)
            procs.append(p2)
            out, err2 = p2.communicate(timeout=ctx.timeout_s)
    finally:
        for p in procs:
            if p.poll() is None:
                p.kill()
            p.wait()
            for stream in (p.stdout, p.stderr):
                if stream is not None:
                    stream.close()
    for p, err in ((p1, err1), (p2, err2)):
        if p.returncode != 0:
            lines = err.decode(errors="replace").strip().splitlines()
            raise PipeFailed(f"exit {p.returncode}: {lines[-1] if lines else ''}")
    return out.decode()


def cli_ops(nb: Any, ctx: Context, cases: list[Case]) -> Iterator[tuple[Case, Op]]:
    for case in cases:
        yield case, functools.partial(run_cli, ctx, *case.inputs)


def cli_check(case: Case, result: str) -> bool:
    return result == case.expected


# -------------------------------------------------------------- registry


@dataclass(frozen=True)
class Workload:
    name: str
    make_round: Callable[[int, int], list[Case]]
    ops: Callable[[Any, Context, list[Case]], Iterator[tuple[Case, Op]]]
    check: Callable[[Case, Any], bool]
    warmup_ops: int  # ops of round 0 run, unmeasured, during set-up
    # (size class, error text) of the failures that are a known defect of
    # the library, which the report counts but does not call incorrect
    known_defect: tuple[str, str] | None = None
    in_process: bool = True  # False: ops run in child processes (see run.reference_for)


WORKLOADS = {
    w.name: w
    for w in (
        Workload("dense_tables", dense_round, dense_ops, dense_check, 2),
        Workload("sparse_functions", sparse_round, sparse_ops, sparse_check, 1),
        Workload("rank_stream", rank_round, rank_ops, rank_check, 2),
        Workload("cli_pipes", cli_round, cli_ops, cli_check, 1,
                 known_defect=("nv=14 decimal", "Exceeds the limit"), in_process=False),
    )
}


def warm_up(workload: Workload, nb: Any, ctx: Context, seed: int) -> None:
    """Generate round 0 and run its first ``warmup_ops`` ops, unchecked."""
    for i, (case, op) in enumerate(workload.ops(nb, ctx, workload.make_round(seed, 0))):
        if i == workload.warmup_ops:
            break
        op()


# ------------------------------------------------------ oracle cross-check


def oracle_sample(seed: int, workload: str, count: int = 12) -> list[tuple[int, int]]:
    """Seeded (nv, table) pairs with nv <= 10 for the pointwise cross-check."""
    rng = round_rng(seed, workload + ":oracle", 0)
    return [(1 + i % 10, rng.getrandbits(1 << (1 + i % 10))) for i in range(count)]


def oracle_crosscheck(nb: Any, sample: list[tuple[int, int]]) -> int:
    """Count trees whose ``ev`` differs from the pointwise oracle or the table."""
    mismatches = 0
    for nv, tt in sample:
        for tree in (nb.plain_bdd(nv, tt), nb.reduced_bdd(nv, tt)):
            if not nb.ev(tree) == nb.truth_table_of(tree) == tt:
                mismatches += 1
    return mismatches
