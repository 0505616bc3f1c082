"""The README's Python examples run as written against the package."""

import re
from pathlib import Path

from inls_lab.cli import _KEYS, build_run_config, parse_config_text

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


def _block_after(label: str) -> str:
    """The first fenced block after `label` in the README."""
    return re.search(label + r"\s*```\n(.*?)```", README.read_text(), flags=re.DOTALL).group(1)


def test_readme_lists_exactly_the_config_keys():
    listed = [k for line in _block_after("Keys:").splitlines() for k in line.split("#")[0].split()]
    assert sorted(listed) == sorted(_KEYS)
    example = build_run_config(parse_config_text(_block_after("Example:")))
    assert example.sweep_key == "initial.alpha"
    assert example.sweep_values == ("0.5", "0.9", "1.5")
