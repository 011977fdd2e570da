"""README facts that the code also states, checked against the code."""

import re
from dataclasses import MISSING, fields
from pathlib import Path

from cascadet import cli
from cascadet import pipeline as P
from cascadet.classifier import BackboneSpec
from cascadet.detector import CascadeConfig

README = (Path(__file__).resolve().parents[1] / "README.md").read_text()


def readme_config_table() -> dict[str, str]:
    """key -> default cell of README's run-configuration table; a row such
    as `threshold_pnet/rnet/onet` | 0.6 / 0.7 / 0.7 names one key per part,
    each sharing the first part's prefix up to its last underscore."""
    section = README.split("### Run configuration", 1)[1].split("\n## ", 1)[0]
    table = {}
    for keys, default in re.findall(r"^\| `([^`]+)` \| ([^|]+?) \|", section,
                                    re.MULTILINE):
        first, *rest = keys.split("/")
        prefix = first[:first.rindex("_") + 1] if rest else ""
        names = [first] + [prefix + part for part in rest]
        defaults = default.split(" / ")
        assert len(defaults) == len(names), keys
        table.update(zip(names, defaults))
    return table


def declared_default(key: str) -> str:
    section, name, _ = P.CONFIG_KEYS[key]
    if section == "run":
        default = {f.name: f.default for f in fields(P.RunConfig)}[name]
        if default is MISSING:
            return "required"
    else:
        default = getattr({"cascade": CascadeConfig(),
                           "backbone": BackboneSpec()}[section], name)
    return str(default).lower()


def test_config_table_lists_every_key_with_its_default():
    assert readme_config_table() == {key: declared_default(key)
                                     for key in P.CONFIG_KEYS}


def test_exit_codes_match_cli():
    line = (f"Exit codes: {cli.EXIT_OK} success, {cli.EXIT_USAGE} usage "
            f"error, {cli.EXIT_DATA} data error, {cli.EXIT_INTERNAL} internal "
            "error.")
    assert line in README
    assert line in cli.__doc__
