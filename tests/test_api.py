import re
from pathlib import Path

import isospec

README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_example_runs(capsys):
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(), flags=re.S)
    assert len(blocks) == 1
    exec(compile(blocks[0], str(README), "exec"), {})
    assert capsys.readouterr().out.strip()


def test_top_level_exports_the_readme_names():
    assert sorted(isospec.__all__) == sorted(
        [
            "__version__",
            "make_torus",
            "field_from_expression",
            "assemble_base",
            "conformal_operators",
            "solve",
            "compute_corrections",
            "ConformalPerturbation",
            "PerturbationSide",
        ]
    )
    for name in isospec.__all__:
        assert hasattr(isospec, name)
