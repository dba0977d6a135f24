"""The README's Defaults table quotes ``weylkit.defaults``; a default edited
in one place only must fail here."""

import ast
import os
import re

from weylkit import defaults

README = os.path.join(os.path.dirname(__file__), os.pardir, "README.md")


def test_defaults_table_matches_module():
    with open(README, encoding="utf-8") as fh:
        section = fh.read().split("\n## Defaults\n", 1)[1].split("\n## ", 1)[0]
    rows = re.findall(r"^\| `(\w+)` \| `([^`]+)` \|", section, re.M)
    assert rows, "no rows found in the README's Defaults table"
    for name, shown in rows:
        # a literal, or a quotient a/b as defaults.py writes 1.0 / 256.0
        num, slash, den = shown.partition("/")
        value = ast.literal_eval(num) / ast.literal_eval(den) if slash \
            else ast.literal_eval(shown)
        assert getattr(defaults, name) == value, f"README shows {name} = {shown}"
