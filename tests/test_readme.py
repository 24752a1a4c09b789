import doctest
import re
from pathlib import Path

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
