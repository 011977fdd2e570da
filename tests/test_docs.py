"""README facts that the code also states, checked against the code."""

import re
import shlex
from dataclasses import MISSING, fields
from pathlib import Path

from cascadet import cli
from cascadet import pipeline as P
from cascadet.classifier import BackboneSpec
from cascadet.detector import CascadeConfig

ROOT = Path(__file__).resolve().parents[1]
README = (ROOT / "README.md").read_text()


def readme_section(heading: str) -> str:
    """The README text under ``heading`` up to the next heading."""
    return README.split(heading + "\n", 1)[1].split("\n#", 1)[0]


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


def test_quickstart_runs_as_written(tmp_path, monkeypatch):
    """The quickstart's Python block, then its ``cascadet detect`` line, run
    in a fresh directory: exit 0 and one annotated frame per listed frame."""
    block = readme_section("### Quickstart with fixture weights")
    block = block.split("```bash\n", 1)[1].split("\n```", 1)[0]
    script, command = re.fullmatch(
        r"python3 - <<'EOF'\n(.*)\nEOF\n(cascadet .*)", block,
        re.DOTALL).groups()
    monkeypatch.chdir(tmp_path)
    exec(compile(script, "README quickstart", "exec"), {})
    assert cli.main(shlex.split(command)[1:]) == cli.EXIT_OK
    out = tmp_path / "demo" / "out"
    assert sorted(path.name for path in out.glob("*.ppm")) == [
        "frame000.ppm", "frame001.ppm", "frame002.ppm"]
    assert (out / "detections.jsonl").is_file()


def test_stated_numpy_release_is_the_one_ci_installs():
    workflow = (ROOT / ".github" / "workflows" / "tier1.yml").read_text()
    version = re.search(r"\bnumpy==(\S+)", workflow)[1]
    section = " ".join(readme_section("## Install and test").split())
    assert f"hold for numpy {version} with one BLAS thread" in section
