import doctest
import io
import re
import shlex
from pathlib import Path

from natbdd.cli import run

README = Path(__file__).resolve().parent.parent / "README.md"


def test_readme_library_examples_run():
    text = README.read_text(encoding="utf-8")
    block = re.search(r"^## Library\n+```python\n(.*?)^```", text, re.S | re.M)
    assert block, "README.md has no python block under '## Library'"
    test = doctest.DocTestParser().get_doctest(block.group(1), {}, "README Library", str(README), 0)
    assert test.examples, "the Library block holds no >>> examples"
    runner = doctest.DocTestRunner(optionflags=doctest.ELLIPSIS)
    runner.run(test)
    assert runner.summarize(verbose=False).failed == 0


def _run_pipe(line):
    """Stdout of a ``natbdd ... | natbdd ...`` line, each stage run in process
    on the stdout of the one before."""
    out = ""
    for stage in line.split(" | "):
        prog, *argv = shlex.split(stage)
        assert prog == "natbdd", stage
        stdout = io.StringIO()
        assert run(argv, stdin=io.StringIO(out), stdout=stdout) == 0, stage
        out = stdout.getvalue()
    return out


def test_readme_cli_tour_runs():
    text = README.read_text(encoding="utf-8")
    block = re.search(r"^## CLI tour\n.*?^```sh\n(.*?)^```", text, re.S | re.M)
    assert block, "README.md has no sh block under '## CLI tour'"
    # each "$ " line is a command; the lines up to the next one are its output
    tour = re.findall(r"^\$ (.*)\n((?:(?!\$ ).*\n)*)", block.group(1), re.M)
    assert len(tour) >= 8, "the CLI tour holds fewer commands than expected"
    for command, shown in tour:
        assert _run_pipe(command) == shown, command
