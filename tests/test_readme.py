"""The README's library sketch runs as written, against the public API."""

import re

from conftest import ROOT


def test_readme_library_sketch_runs(monkeypatch):
    text = (ROOT / "README.md").read_text()
    section = text.split("## Library sketch", 1)[1]
    code = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    monkeypatch.chdir(ROOT)  # the sketch names corpus files relative to the repo
    ns = {}
    exec(compile(code, "README.md", "exec"), ns)
    # the sketch's comment: the direct solve of v's strategy gives v's values
    assert ns["exact"].values.tobytes() == ns["v"].values.tobytes()
    assert ns["values"][0].tobytes() == ns["v"].values.tobytes()
    assert ns["report"].passed
