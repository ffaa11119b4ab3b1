import ast
import importlib
import os
import pkgutil
import re
import subprocess
import sys
from pathlib import Path

import ppric

ROOT = Path(__file__).resolve().parents[1]
README = ROOT / "README.md"


def _limits() -> dict[str, tuple[str, int]]:
    """Every module-level ``*_CAP`` and ``*_BUDGET`` constant of ppric:
    name -> (defining module, value)."""
    found = {}
    for info in pkgutil.iter_modules(ppric.__path__):
        module = importlib.import_module(f"ppric.{info.name}")
        tree = ast.parse(Path(module.__file__).read_text())
        for node in tree.body:
            if isinstance(node, ast.Assign):
                for target in node.targets:
                    name = getattr(target, "id", "")
                    if re.fullmatch(r"[A-Z_]+_(CAP|BUDGET)", name):
                        found[name] = (info.name, getattr(module, name))
    return found


def _value(text: str) -> int:
    """A table value: ``2^24`` or a decimal with thousands commas."""
    base, _, power = text.partition("^")
    return int(base) ** int(power) if power else int(text.replace(",", ""))


def _capacity_table() -> dict[str, tuple[str, int]]:
    section = README.read_text().split("\n## Capacity\n", 1)[1]
    section = section.split("\n## ", 1)[0]
    rows = {}
    for line in section.splitlines():
        cells = [c.strip() for c in line.strip().strip("|").split("|")]
        if len(cells) == 5 and re.fullmatch(r"`\w+`", cells[1]):
            module = re.search(r"\(`(\w+)`\)", cells[0]).group(1)
            rows[cells[1].strip("`")] = (module, _value(cells[3]))
    return rows


def test_capacity_table_names_every_limit_with_its_value():
    limits = _limits()
    assert "BUILD_CAP" in limits and "DEFAULT_NODE_BUDGET" in limits
    assert _capacity_table() == limits


def test_python_blocks_run_in_order():
    # later blocks use names the earlier ones import, so they run as one
    # script, as a reader pasting them into one session would
    blocks = re.findall(r"^```python\n(.*?)^```$", README.read_text(),
                        flags=re.M | re.S)
    assert len(blocks) >= 2
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    done = subprocess.run([sys.executable, "-c", "\n".join(blocks)],
                          env=env, cwd=ROOT, capture_output=True, text=True,
                          timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stderr == ""
