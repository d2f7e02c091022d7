"""The README's Quick start block runs and prints what its comments say."""

from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def test_quick_start_prints_its_comments(capsys):
    # each print line's comment is the line it prints, or "same value, ..."
    # for the value printed just before, so a stale number fails here
    text = README.read_text(encoding="utf-8")
    block = text.split("## Quick start", 1)[1].split("```python\n", 1)[1].split("```", 1)[0]
    exec(compile(block, str(README), "exec"), {})
    printed = capsys.readouterr().out.splitlines()
    said = [line.split("#", 1)[1].strip() for line in block.splitlines()
            if line.startswith("print(")]
    assert len(printed) == len(said) == 4
    for i, (out, want) in enumerate(zip(printed, said)):
        assert out == (printed[i - 1] if want.startswith("same value") else want), want
