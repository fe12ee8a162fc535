"""The top-level package surface and the README's library example."""

import re
from contextlib import redirect_stdout
from io import StringIO
from pathlib import Path

import sealedbid

README = Path(__file__).resolve().parent.parent / "README.md"


def test_exports_resolve_sorted_and_at_most_40():
    names = sealedbid.__all__
    assert [name for name in names if not hasattr(sealedbid, name)] == []
    assert names == sorted(names)
    assert len(names) <= 40


def test_readme_library_example_runs():
    library = README.read_text(encoding="utf-8").split("\n## Library\n", 1)[1]
    example = re.search(r"```python\n(.*?)```", library, re.DOTALL).group(1)
    with redirect_stdout(StringIO()):
        exec(compile(example, str(README), "exec"), {})
