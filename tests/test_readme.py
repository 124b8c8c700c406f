"""README's worked examples run as written."""

import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def test_python_blocks_print_their_comments(capsys):
    # each print line ends in "# <expected output>"
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(encoding="utf-8"), re.S)
    assert blocks
    for block in blocks:
        exec(compile(block, str(README), "exec"), {})
        expected = [line.split("#", 1)[1].strip()
                    for line in block.splitlines() if line.startswith("print(")]
        assert capsys.readouterr().out.splitlines() == expected, block
