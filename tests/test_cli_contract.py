"""The CLI's process contract: one table of real pipes and their exact output.

Each row is (stages, stdin, expected stdout, expected exit status).  A stage
is an argv list; one that begins with ``natbdd`` runs under a command prefix
in its place, and any other stage runs as is.  The row's stdin feeds the
first stage and each stage's stdout the next one's stdin.  Every stage but
the last must exit 0, and the last with the row's status; their stderr
together must be empty for status 0 and exactly one ``natbdd: error:`` line
for status 1.

Pytest runs the table with the prefix ``[sys.executable, "-m", "natbdd"]``.
Against an installed package, with only the standard library, run

    python tests/test_cli_contract.py natbdd

or give any other prefix, such as ``python -m natbdd``.  Every failing row is
reported; exit status 0 when every row holds, 1 otherwise.

No row asks natbdd for its inputs: ranks are literals or sums of the rank
blocks' sizes, and columns come from ``var_tt``'s closed form.
"""

from __future__ import annotations

import re
import subprocess
import sys
import tempfile
from concurrent.futures import ThreadPoolExecutor

TIMEOUT = 60  # seconds per row
WORKERS = 2  # rows run at once


class Prefix(str):
    """Expected stdout that need only begin the real one."""


def pipe(*stages: str) -> list[list[str]]:
    return [stage.split() for stage in stages]


def column(nv: int, k: int) -> int:
    """The table of variable k on nv variables: ``var_tt``'s closed form."""
    return (2 ** 2 ** nv - 1) // (2 ** 2 ** (nv - k - 1) + 1)


def ranks_below(nv: int) -> int:
    """The count of trees on fewer than nv variables: a block of 2**2**k per k."""
    return sum(2 ** 2 ** k for k in range(nv))


COMMAND_PATHS = ("natbdd", "natbdd pair", "natbdd unpair", "natbdd tt2bdd", "natbdd bdd2tt", "natbdd reduce",
                 "natbdd rank", "natbdd unrank", "natbdd enum", "natbdd shannon", "natbdd shannon split",
                 "natbdd shannon fuse", "natbdd varbits")
FIRST_THREE = "(bdd 1 (c 0))\n(bdd 1 (ite 0 (c 1) (c 0)))\n(bdd 2 (c 0))\n"
R7 = "17485029725623006542"  # a random 7-variable reduced tree
COL17, COL18 = f"{column(17, 0):#x}", f"{column(18, 5):#x}"
START16, START17 = ranks_below(15) + 5, ranks_below(16) + 5

ROWS = [
    # every command path's help exits 0 with its own usage line
    *((pipe(f"{path} --help"), "", Prefix(f"usage: {path} "), 0) for path in COMMAND_PATHS),
    # number printers
    (pipe("natbdd pair --scheme cantor 1 2"), "", "8\n", 0),
    (pipe("natbdd pair --scheme bitmerge 60 26"), "", "2008\n", 0),
    (pipe("natbdd unpair --scheme bitmerge --hex 0x7d8"), "", "0x3c 0x1a\n", 0),
    (pipe("natbdd shannon split --vars 3 --hex 42"), "", "0x2 0xa\n", 0),
    (pipe("natbdd shannon fuse --vars 3 2 10"), "", "42\n", 0),
    (pipe("natbdd varbits --vars 3 --index 0 --hex"), "", f"{column(3, 0):#x}\n", 0),
    (pipe("natbdd varbits --vars 17 --index 0 --hex"), "", f"{COL17}\n", 0),
    (pipe("natbdd varbits --vars 18 --index 5 --hex"), "", f"{COL18}\n", 0),
    # README and stream pipes
    (pipe("natbdd tt2bdd --vars 3 --tt 42", "natbdd bdd2tt"), "", "42\n", 0),
    (pipe("natbdd tt2bdd --vars 3 --tt 42 --plain", "natbdd bdd2tt"), "", "42\n", 0),
    (pipe("natbdd unrank 42", "natbdd rank"), "", "42\n", 0),
    (pipe("natbdd unrank 4242", "natbdd rank"), "", "4242\n", 0),
    (pipe("natbdd enum --count 3"), "", FIRST_THREE, 0),
    (pipe("natbdd enum --from 1000 --count 1 --plain", "natbdd rank --plain"), "", "1000\n", 0),
    (pipe("natbdd unrank 1000 --format json", "natbdd rank"), "", "1000\n", 0),
    # rank --plain ranks complete trees only
    (pipe("natbdd unrank 5", "natbdd rank --plain"), "", "", 1),
    (pipe("natbdd unrank 5 --plain", "natbdd rank --plain"), "", "5\n", 0),
    # 6 variables: both processes walk nodes on variable 4, which take their children on 3 in frame
    (pipe("natbdd tt2bdd --vars 6 --tt 0x0123456789abcdef --plain", "natbdd reduce", "natbdd bdd2tt --hex"), "",
     "0x123456789abcdef\n", 0),
    (pipe("natbdd tt2bdd --vars 6 --tt 0x89abcdef --plain", "natbdd rank --plain --hex"), "", "0x89accf05\n", 0),
    (pipe("natbdd tt2bdd --vars 6 --tt 0x89abcdef --plain --format json", "natbdd reduce", "natbdd rank --hex"), "",
     "0x89accf05\n", 0),
    # R7's six nodes on variable 3 over two on 2 sit under nodes on 4, so each rank process walks
    # them with ev's reduced check, each in its own call
    (pipe(f"natbdd unrank {R7}", "natbdd rank"), "", f"{R7}\n", 0),
    (pipe(f"natbdd enum --from {R7} --count 1 --format json", "natbdd rank --hex"), "", "0xf2a74de552e7b54e\n", 0),
    (pipe(f"natbdd unrank {R7} --plain", "natbdd reduce", "natbdd rank"), "", f"{R7}\n", 0),
    # 200 consecutive 7-variable trees from ranks_below(6) + 12345, each run crossing 50 checks of
    # its memo's per-level cap
    (pipe("natbdd enum --from 4295045455 --count 200", "tail -n 1", "natbdd rank"), "", "4295045654\n", 0),
    (pipe("natbdd enum --from 4295045455 --count 200 --plain", "tail -n 1", "natbdd rank --plain"), "",
     "4295045654\n", 0),
    # from the last two trees on 5 variables, ranks_below(5) - 2, to the first two on 6: the run
    # makes each root from its children, on 4 and then on 5 variables
    (pipe("natbdd enum --from 65812 --count 4", "tail -n 1", "natbdd rank"), "", "65815\n", 0),
    (pipe("natbdd enum --from 65812 --count 4 --plain", "tail -n 1", "natbdd rank --plain"), "", "65815\n", 0),
    # 64 trees inside block 5 from ranks_below(4) + 12345, each run crossing 16 checks of its memo's
    # per-level cap, whose levels exist once filled: only memo[4] here
    (pipe("natbdd enum --from 12623 --count 64", "tail -n 1", "natbdd rank"), "", "12686\n", 0),
    (pipe("natbdd enum --from 12623 --count 64 --plain", "tail -n 1", "natbdd rank --plain"), "", "12686\n", 0),
    # 16 variables, the widest at which the reduced run makes its roots: a 4 KiB argv
    (pipe(f"natbdd enum --from {START16:#x} --count 3", "tail -n 1", "natbdd rank --hex"), "",
     f"{START16 + 2:#x}\n", 0),
    (pipe(f"natbdd enum --from {START16:#x} --count 3 --plain", "tail -n 1", "natbdd rank --plain --hex"), "",
     f"{START16 + 2:#x}\n", 0),
    # 17 variables, one past the 16 up to which the reduced build keeps its masks: a 32 KiB argv,
    # variable 0's column, of which nothing is stripped: unpaired once at the top, then reversed
    # and split at 16 down to the bottom
    (pipe(f"natbdd tt2bdd --vars 17 --tt {COL17}"), "", "(bdd 17 (ite 0 (c 1) (c 0)))\n", 0),
    (pipe(f"natbdd tt2bdd --vars 17 --tt {COL17}", "natbdd bdd2tt --hex"), "", f"{COL17}\n", 0),
    # 18 variables, a 64 KiB argv: variables 0-4, which the column ignores, are stripped, and the
    # 13-variable column of variable 0 is reversed once, split, and lifted by 5
    (pipe(f"natbdd tt2bdd --vars 18 --tt {COL18}"), "", "(bdd 18 (ite 5 (c 1) (c 0)))\n", 0),
    (pipe(f"natbdd tt2bdd --vars 18 --tt {COL18}", "natbdd bdd2tt --hex"), "", f"{COL18}\n", 0),
    # streams on 17 variables, from 5 tables into the block, an 8 KiB argv: the reduced run
    # splits natural-order tables there, and the plain run keeps its own carries
    (pipe(f"natbdd enum --from {START17:#x} --count 3", "tail -n 1", "natbdd rank --hex"), "",
     f"{START17 + 2:#x}\n", 0),
    (pipe(f"natbdd enum --from {START17:#x} --count 3 --plain", "tail -n 1", "natbdd rank --plain --hex"), "",
     f"{START17 + 2:#x}\n", 0),
]


def _shown(stages: list[list[str]]) -> str:
    return " | ".join(" ".join(a if len(a) <= 40 else f"{a[:20]}...({len(a)} chars)" for a in s) for s in stages)


def run_row(row: tuple, prefix: list[str]) -> str | None:
    """None when the row holds, else what went wrong."""
    stages, stdin, want_out, want_status = row
    procs: list[subprocess.Popen] = []
    with tempfile.TemporaryFile() as source, tempfile.TemporaryFile() as errors:
        source.write(stdin.encode())
        source.seek(0)
        try:
            for stage in stages:
                argv = [*prefix, *stage[1:]] if stage[0] == "natbdd" else stage
                procs.append(subprocess.Popen(argv, stdin=source, stdout=subprocess.PIPE, stderr=errors))
                if len(procs) > 1:
                    source.close()  # the stage just started holds its own copy
                source = procs[-1].stdout
            out = procs[-1].communicate(timeout=TIMEOUT)[0].decode()
            for proc in procs:
                proc.wait(timeout=TIMEOUT)
        except (OSError, subprocess.TimeoutExpired) as exc:
            return f"{_shown(stages)}: {exc}"
        finally:
            for proc in procs:
                proc.kill()  # none is left running but on an error above
                proc.wait()
                proc.stdout.close()
        errors.seek(0)
        err = errors.read().decode()
    statuses = [proc.returncode for proc in procs]
    problems = []
    if statuses != [0] * (len(stages) - 1) + [want_status]:
        problems.append(f"exit statuses {statuses}, want {want_status} from the last stage and 0 from the rest")
    if not (out.startswith(want_out) if isinstance(want_out, Prefix) else out == want_out):
        problems.append(f"stdout {out[:80]!r}, want {'a prefix ' if isinstance(want_out, Prefix) else ''}"
                        f"{want_out[:80]!r}")
    if not (err == "" if want_status == 0 else re.fullmatch(r"natbdd: error: .*\n", err)):
        problems.append(f"stderr {err[:400]!r}, want {'none' if want_status == 0 else 'one natbdd: error: line'}")
    return f"{_shown(stages)}: {'; '.join(problems)}" if problems else None


def failures(prefix: list[str]) -> list[str]:
    """What went wrong in each failing row, run under ``prefix``."""
    with ThreadPoolExecutor(WORKERS) as pool:
        return [f for f in pool.map(lambda row: run_row(row, prefix), ROWS) if f]


def test_every_row_of_the_cli_contract_holds():
    found = failures([sys.executable, "-m", "natbdd"])
    assert not found, "\n".join(found)


if __name__ == "__main__":
    if len(sys.argv) < 2:
        sys.exit(f"usage: {sys.argv[0]} COMMAND [ARG...]  (the prefix that runs natbdd, such as: natbdd)")
    found = failures(sys.argv[1:])
    for line in found:
        print(line)
    print(f"{len(ROWS) - len(found)} of {len(ROWS)} rows hold")
    sys.exit(1 if found else 0)
