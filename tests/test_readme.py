"""The README's Defaults table quotes ``weylkit.defaults`` and its S-node
block table quotes ``_snode_block``; a value edited in one place only must
fail here."""

import ast
import os
import re

from weylkit import defaults
from weylkit.structured import _snode_block

README = os.path.join(os.path.dirname(__file__), os.pardir, "README.md")


def _readme():
    with open(README, encoding="utf-8") as fh:
        return fh.read()


def test_defaults_table_matches_module():
    section = _readme().split("\n## Defaults\n", 1)[1].split("\n## ", 1)[0]
    rows = re.findall(r"^\| `(\w+)` \| `([^`]+)` \|", section, re.M)
    assert rows, "no rows found in the README's Defaults table"
    for name, shown in rows:
        # a literal, or a quotient a/b as defaults.py writes 1.0 / 256.0
        num, slash, den = shown.partition("/")
        value = ast.literal_eval(num) / ast.literal_eval(den) if slash \
            else ast.literal_eval(shown)
        assert getattr(defaults, name) == value, f"README shows {name} = {shown}"


def test_snode_block_table_matches_rule():
    # the table under "Block size of the pass": one row per p, one column per M
    text = _readme().split("**Block size of the pass.**", 1)[1]
    header = re.search(r"^ *\| b \| M = (.+) \|$", text, re.M)
    assert header, "no b table found under the README's block-size note"
    ms = [int(cell) for cell in header.group(1).split(" | ")]
    table = text[header.end():].split("\n\n", 1)[0]
    rows = re.findall(r"^ *\| p = (\d+) \| (.+) \|$", table, re.M)
    assert rows, "no rows found in the README's b table"
    for p, cells in rows:
        shown = [int(cell) for cell in cells.split(" | ")]
        assert shown == [_snode_block(int(p), m) for m in ms], f"README shows b = {shown} at p = {p}"
