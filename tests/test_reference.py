"""The CLI's reference outputs: every file that ``tools/reference_outputs.py``
writes is the same, byte for byte, as the one in ``tests/reference``."""

import importlib.util
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
REFERENCE = ROOT / "tests" / "reference"
_spec = importlib.util.spec_from_file_location("reference_outputs",
                                               ROOT / "tools" / "reference_outputs.py")
reference_outputs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(reference_outputs)


def test_outputs_match_the_reference(tmp_path):
    # the tool reads the tree from its working directory
    run = subprocess.run([sys.executable, "tools/reference_outputs.py", str(tmp_path)],
                         cwd=ROOT, capture_output=True, text=True)
    assert run.returncode == 0, run.stderr
    made_with, here = ((d / "versions.txt").read_text().split("\n")[:2]
                       for d in (REFERENCE, tmp_path))
    assert here == made_with, (
        f"tests/reference was written with {' and '.join(made_with)}; this run has "
        f"{' and '.join(here)}, whose rounding may differ")
    differences = reference_outputs.against(tmp_path, REFERENCE)
    assert not differences, "outputs differ from tests/reference:\n" + "\n".join(differences)
