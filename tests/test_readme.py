"""Documentation tests: the README's code examples must execute.

Extracts every ```python fenced block from README.md and runs it; a
stale quickstart is a bug.
"""

import re
import warnings
from pathlib import Path

import pytest

README = Path(__file__).resolve().parent.parent / "README.md"


def _python_blocks():
    text = README.read_text(encoding="utf-8")
    return re.findall(r"```python\n(.*?)```", text, flags=re.S)


def test_readme_exists_and_has_examples():
    blocks = _python_blocks()
    assert len(blocks) >= 1


@pytest.mark.parametrize("index", range(len(_python_blocks())))
def test_readme_block_executes(index):
    block = _python_blocks()[index]
    # A quickstart must not teach a deprecated call.
    with warnings.catch_warnings():
        warnings.simplefilter("error", DeprecationWarning)
        exec(compile(block, f"README.md[block {index}]", "exec"), {})


def test_readme_mentions_all_figures():
    text = README.read_text(encoding="utf-8")
    for token in ("Figures 4–8", "EXPERIMENTS.md", "DESIGN.md"):
        assert token in text


def test_readme_documents_every_catalog_scenario():
    from repro.scenarios import scenario_names

    text = README.read_text(encoding="utf-8")
    for name in scenario_names():
        assert f"`{name}`" in text, f"scenario {name!r} missing from README"
    assert "bench_ablation_matrix.py" in text
    assert "BENCH_ablation_matrix.json" in text


def test_readme_documents_every_cli_subcommand():
    from repro.cli import build_parser

    text = README.read_text(encoding="utf-8")
    parser = build_parser()
    actions = [
        a for a in parser._actions if hasattr(a, "choices") and a.choices
    ]
    subcommands = list(actions[0].choices)
    assert len(subcommands) >= 7
    for name in subcommands:
        assert f"`{name}" in text, f"subcommand {name!r} missing from README"


def test_readme_documents_every_stream_operation():
    text = README.read_text(encoding="utf-8")
    for op in (
        "submit",
        "batch",
        "retract",
        "insert",
        "delete",
        "flush",
        "flush_drain",
    ):
        assert op in text, f"stream op {op!r} missing from README"
