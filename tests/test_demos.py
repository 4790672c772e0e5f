"""The package's public surface, and the demos that use it, run end to end."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import virconv

ROOT = Path(__file__).resolve().parent.parent

# 05_noise_classifier.py trains two classifiers in ~3-4 s; the other four
# take ~2 s together.
DEMOS = ["01_voxelize_and_lookup.py", "02_input_discard.py",
         "03_convolution_vs_reference.py", "04_backbone_forward.py",
         "05_noise_classifier.py"]


def test_every_exported_name_resolves():
    missing = [name for name in virconv.__all__ if not hasattr(virconv, name)]
    assert missing == []
    assert len(set(virconv.__all__)) == len(virconv.__all__)


@pytest.mark.parametrize("demo", DEMOS)
def test_demo_runs(demo):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run([sys.executable, str(ROOT / "demos" / demo)], cwd=ROOT,
                          env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
