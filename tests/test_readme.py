"""The README's Python examples run as written."""

import pathlib
import re

README = pathlib.Path(__file__).resolve().parent.parent / "README.md"


def test_readme_python_blocks_run():
    blocks = re.findall(r"^```python\n(.*?)^```", README.read_text(encoding="utf-8"), re.S | re.M)
    assert len(blocks) >= 3
    namespace: dict = {}
    for block in blocks:  # later blocks reuse names from earlier ones
        exec(compile(block, str(README), "exec"), namespace)
    assert namespace["wit"].verdict == "witness_found"
    assert namespace["prof"].verdict == "parabolic"
