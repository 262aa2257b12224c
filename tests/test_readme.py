"""The README's examples run as written and print what their comments say."""

import json
import re
from pathlib import Path

import pytest

from diracmean.cli import EXIT_OK, main

README = (Path(__file__).resolve().parents[1] / "README.md").read_text()
PYTHON_BLOCKS = re.findall(r"```python\n(.*?)```", README, re.S)


def _claimed(line):
    """The value a ``print(...)   # ~value`` line's comment claims."""
    return complex(line.split("# ~", 1)[1].replace(" ", ""))


def test_every_python_block_runs_and_prints_its_claimed_values():
    assert len(PYTHON_BLOCKS) >= 3
    printed = []
    namespace = {"print": lambda *args: printed.append(args)}
    for block in PYTHON_BLOCKS:
        exec(compile(block, "README.md", "exec"), namespace)
    claims = [_claimed(line) for block in PYTHON_BLOCKS for line in block.splitlines()
              if line.startswith("print(") and "# ~" in line]
    assert len(printed) == len(claims) >= 3
    for (value,), claim in zip(printed, claims):
        assert abs(value - claim) <= 1e-3, (value, claim)


def test_density_cli_example(tmp_path, capsys):
    sh = next(b for b in re.findall(r"```sh\n(.*?)```", README, re.S) if "density.json" in b)
    config = json.loads(re.search(r"<<'EOF'\n(.*?)\nEOF\n", sh, re.S).group(1))
    path = tmp_path / "density.json"
    path.write_text(json.dumps(config))
    out = tmp_path / "out"
    assert main(["estimate", "--config", str(path), "--out", str(out)]) == EXIT_OK
    assert capsys.readouterr().err == ""
    estimate = json.loads((out / "summary.json").read_text())["result"]["final_estimate"]
    assert estimate["re"] == pytest.approx(5.0 / 9.0, abs=1e-3) and estimate["im"] == 0.0
    # The comment on `head -3 out/trace.csv` names the trace's columns.
    columns = re.search(r"head -3 out/trace\.csv +# (.*)", sh).group(1).split(", ")
    assert (out / "trace.csv").read_text().splitlines()[0].split(",") == columns
