"""The README's library quick start runs as written."""

import contextlib
import io
import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def test_library_quick_start_runs():
    text = README.read_text(encoding="utf-8")
    section = text.split("## Library quick start", 1)[1].split("\n## ", 1)[0]
    blocks = re.findall(r"```python\n(.*?)```", section, flags=re.DOTALL)
    assert len(blocks) == 2
    namespace: dict = {}
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout):
        for block in blocks:  # the second block uses names the first defines
            exec(compile(block, str(README), "exec"), namespace)
    # the printed ClassicalityMetrics and TimeScales hold Python floats
    assert "TimeScales(t_deco=" in stdout.getvalue()
    assert "np.float64(" not in stdout.getvalue()
