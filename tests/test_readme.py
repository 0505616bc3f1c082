"""The README's Python examples run as written against the package."""

import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def test_readme_python_blocks_run_in_order(capsys):
    # One namespace: the evolve snippet reuses u0, params and spec from
    # the library example, as a reader following the README would.
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(), flags=re.DOTALL)
    assert len(blocks) >= 2
    namespace: dict = {}
    for i, block in enumerate(blocks):
        exec(compile(block, f"README.md python block {i}", "exec"), namespace)
    assert "action_set_membership" in capsys.readouterr().out
    assert namespace["trace"].events[-1][0] == "Completed"
    assert namespace["trace"].final_state.grid is namespace["grid"]
