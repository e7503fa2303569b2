"""The README's quick start runs: a public name that it uses cannot be
removed or renamed without this test failing."""

import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def test_quick_start_runs(capsys):
    (block,) = re.findall(r"^```python\n(.*?)^```$", README.read_text(), re.M | re.S)
    exec(compile(block, str(README), "exec"), {})
    out = capsys.readouterr().out.splitlines()
    # the verdicts its comments show
    assert out[2:4] == ["Status.SEPARABLE ['ppt', 'concurrence', 'decomposition[wootters]']",
                        "Status.ENTANGLED ['ppt']"]
