"""Hostile input to the CLI, run as real processes under resource limits.

Each case runs ``python -m natbdd`` with its address space and CPU time
limited in the child only, and a wall timeout.  Whatever the input, the
process must exit 0 or 1, and its stderr must be empty or one line that
starts ``natbdd: error:``: no traceback.  Where the outcome is known, as
running out of memory or a numeral too long, a case pins the exit status
and the line.
"""

import os
import resource
import subprocess
import sys

import pytest

# 128 MiB of address space: about 19 MiB start the interpreter and import
# natbdd, and each flood below needs several times the rest to reach the
# MemoryError path
ADDRESS_SPACE = 128 << 20
CPU_SECONDS = 10
WALL_SECONDS = 30


def limit_child():
    resource.setrlimit(resource.RLIMIT_AS, (ADDRESS_SPACE, ADDRESS_SPACE))
    resource.setrlimit(resource.RLIMIT_CPU, (CPU_SECONDS, CPU_SECONDS))


def run_limited(argv, data=b"", stdin=None, env=None):
    """Exit status and stderr of ``natbdd argv`` fed ``data``, or the file ``stdin``."""
    proc = subprocess.run([sys.executable, "-m", "natbdd", *argv], input=None if stdin else data, stdin=stdin,
                          capture_output=True, env={**os.environ, **(env or {})},
                          preexec_fn=limit_child, timeout=WALL_SECONDS)
    return proc.returncode, proc.stderr.decode("utf-8", "replace")


def assert_one_error_line_at_most(code, err):
    assert code in (0, 1), (code, err[-300:])
    assert "Traceback" not in err, err[-300:]
    assert err == "" or (err.startswith("natbdd: error:") and err.count("\n") == 1), err[-300:]


OUT_OF_MEMORY = "natbdd: error: out of memory\n"


@pytest.mark.parametrize("argv, stdin", [
    pytest.param([cmd, *(["--in", "/dev/zero"] if how == "in" else [])], os.devnull if how == "in" else "/dev/zero",
                 id=how if cmd == "rank" else f"{cmd}-{how}")
    for cmd in ("rank", "bdd2tt", "reduce") for how in ("in", "stdin")])
def test_an_endless_input_is_one_error_line(argv, stdin):
    # /dev/zero is read whole before any guard can see it, until memory runs
    # out, by each subcommand that reads BDD text, from --in and from stdin
    with open(stdin, "rb") as handle:
        assert run_limited(argv, stdin=handle) == (1, OUT_OF_MEMORY)


HOSTILE_STDIN = {
    # 8 Mi open forms need an empty list each, about 0.5 GiB: 2 MiB already
    # run out of memory under the limit
    "paren_flood": b"(" * (8 << 20),
    "nul_bytes": b"(bdd 1 \0(c 0))",
    "only_nul_bytes": b"\0" * 4096,
    "invalid_utf8": b"(bdd 1 (c \xff\xfe0))",
    "json_nested_10e6_deep": b'{"root": ' * 10**6,
    "bdd_of_2M_leaf_forms": b"(bdd 1" + b" (c 0)" * 2_000_000,
}


@pytest.mark.parametrize("name", HOSTILE_STDIN)
def test_hostile_stdin_is_one_error_line(name):
    assert_one_error_line_at_most(*run_limited(["rank"], HOSTILE_STDIN[name]))


@pytest.mark.parametrize("cmd", ["bdd2tt", "reduce"])
def test_a_paren_flood_is_out_of_memory_for_every_tree_reader(cmd):
    # the flood that rank runs out of memory on, read by the other two
    # subcommands that read BDD text
    assert run_limited([cmd], HOSTILE_STDIN["paren_flood"]) == (1, OUT_OF_MEMORY)


def test_100_mib_of_spaces_before_a_tree_is_out_of_memory(tmp_path):
    # the text is read whole before it is parsed; written to a file in 1 MiB
    # pieces, so that this process never holds it
    path = tmp_path / "spaces.txt"
    with open(path, "wb") as out:
        for _ in range(100):
            out.write(b" " * (1 << 20))
        out.write(b"(bdd 1 (c 0))")
    try:
        with open(path, "rb") as handle:
            assert run_limited(["rank"], stdin=handle) == (1, OUT_OF_MEMORY)
    finally:
        path.unlink()


@pytest.mark.parametrize("text", [b"(bdd 1 (c " + b"1" * 10**5 + b"))",
                                  b'{"vars":1,"root":{"leaf":' + b"1" * 10**5 + b"}}"], ids=["sexpr", "json"])
def test_a_numeral_of_10e5_digits_in_bdd_text_is_named_by_its_length(text):
    assert run_limited(["bdd2tt"], text) == (
        1, "natbdd: error: numeral of 100000 digits in BDD text: too long for a variable or a bit\n")


@pytest.mark.parametrize("argv", [["unrank", "9" * 10**5], ["pair", "--scheme", "cantor", "9" * 10**5, "1" * 10**5]],
                         ids=["unrank", "pair-cantor"])
def test_a_number_of_10e5_digits_as_an_argument_succeeds(argv):
    # within the decimal budget of --max-vars 20 (about 315 653 digits)
    assert run_limited(argv) == (0, "")


def test_invalid_utf8_under_strict_decoding_is_one_error_line():
    # strict decoding raises UnicodeDecodeError as stdin is read, where the
    # locale's may have escaped the bytes instead
    code, err = run_limited(["rank"], b"(bdd 1 (c \xff\xfe0))", env={"PYTHONIOENCODING": "utf-8:strict"})
    assert code == 1 and "can't decode byte 0xff" in err
    assert_one_error_line_at_most(code, err)


def test_a_directory_as_input_is_one_error_line(tmp_path):
    assert_one_error_line_at_most(*run_limited(["rank", "--in", str(tmp_path)]))


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
def test_a_full_output_device_is_one_error_line():
    code, err = run_limited(["unrank", "42", "--out", "/dev/full"])
    assert code == 1
    assert_one_error_line_at_most(code, err)
