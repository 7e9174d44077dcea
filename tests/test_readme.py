"""Every Python code block of README.md runs as written, and every
`hmmaccel` line of its shell blocks parses, and runs where it is quick."""

import importlib.resources
import re
import shlex
from pathlib import Path

import pytest

from hmmaccel import cli

README = Path(__file__).resolve().parent.parent / "README.md"
TEXT = README.read_text()
BLOCKS = re.findall(r"^```python\n(.*?)^```$", TEXT, re.MULTILINE | re.DOTALL)
# the command lines of the shell blocks, which open with a bare fence, in README order
COMMAND_LINES = [
    shlex.split(line, comments=True)
    for block in re.findall(r"^```\n(.*?)^```$", TEXT, re.MULTILINE | re.DOTALL)
    for line in block.splitlines()
    if line.startswith("hmmaccel ")
]
# `bench` trains at three sizes and runs for seconds, so it is only parsed
RUN = ("gen", "cluster", "train", "eval", "decode", "dist")


def test_readme_has_python_blocks():
    assert BLOCKS


@pytest.mark.parametrize("code", BLOCKS, ids=[f"block{i + 1}" for i in range(len(BLOCKS))])
def test_readme_block_runs(code, tmp_path, monkeypatch, capsys):
    # each block runs alone, in its own empty directory
    monkeypatch.chdir(tmp_path)
    exec(compile(code, str(README), "exec"), {"__name__": "__readme__"})


@pytest.mark.parametrize("argv", COMMAND_LINES,
                         ids=[f"{i + 1}-{argv[1]}" for i, argv in enumerate(COMMAND_LINES)])
def test_readme_command_line_parses(argv):
    args = cli.build_parser().parse_args(argv[1:])
    assert args.command == argv[1]


def test_readme_command_lines_run_in_order(tmp_path, monkeypatch, capsys):
    # every command but `bench` has a line, and they run in README order in
    # one directory: the bundled model as model.json, and two small files
    # for `dist`
    assert {argv[1] for argv in COMMAND_LINES} == {*RUN, "bench"}
    monkeypatch.chdir(tmp_path)
    bundled = importlib.resources.files("hmmaccel").joinpath("data/bench_model.json")
    Path("model.json").write_bytes(bundled.read_bytes())
    Path("a.txt").write_text("1 2 3\n4 5\n")
    Path("b.txt").write_text("1 2\n3 3 4\n")
    for argv in COMMAND_LINES:
        if argv[1] in RUN:
            code = cli.main(argv[1:])
            assert code == 0, f"{shlex.join(argv)}: {capsys.readouterr().err}"
    assert capsys.readouterr().err == ""
    for name in ("corpus.txt", "clusters.json", "model_classical.json", "model_weighted.json"):
        assert Path(name).stat().st_size
