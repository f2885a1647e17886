"""The README's library example and command-line block run as written."""
import re
import shlex
from pathlib import Path

from morseshell.cli import run

README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_library_example_runs():
    text = README.read_text()
    section = text.split("## Library example", 1)[1].split("\n## ", 1)[0]
    blocks = re.findall(r"```python\n(.*?)```", section, re.S)
    assert blocks, "the library example has no python block"
    for block in blocks:
        exec(compile(block, str(README), "exec"), {})


def test_readme_command_line_block_runs(tmp_path, monkeypatch):
    """Write the block's here-document, then run each ``morseshell`` line
    through ``cli.run`` in the same directory; every command exits 0."""
    section = README.read_text().split("## Command line", 1)[1].split("\n## ", 1)[0]
    block = re.search(r"```sh\n(.*?)```", section, re.S).group(1)
    heredoc = re.search(r"cat > (\S+) <<'EOF'\n(.*?)\nEOF\n", block, re.S)
    assert heredoc, "the command-line block writes no input file"
    monkeypatch.chdir(tmp_path)
    Path(heredoc.group(1)).write_text(heredoc.group(2) + "\n")
    commands = [
        shlex.split(line, comments=True) for line in block.splitlines() if line.startswith("morseshell ")
    ]
    assert any("shell-sd2" in argv for argv in commands)
    for argv in commands:
        assert run(argv[1:]) == 0, " ".join(argv)
