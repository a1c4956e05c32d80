"""``python -m anisolab`` is the ``anisolab`` command line."""

import json
import os
import subprocess
import sys
from pathlib import Path

from anisolab.cli import main
from anisolab.config import shipped_config_dir

ROOT = Path(__file__).resolve().parents[1]


def test_module_run_matches_main(tmp_path):
    config = str(shipped_config_dir() / "dq_identity.cfg")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    run = subprocess.run([sys.executable, "-m", "anisolab", "run", "--config", config,
                          "--out", str(tmp_path / "module")],
                         capture_output=True, text=True, env=env, timeout=120)
    code = main(["run", "--config", config, "--out", str(tmp_path / "main")])
    assert run.returncode == code == 0, run.stderr
    module, direct = (json.loads((tmp_path / name / "summary.json").read_text())
                      for name in ("module", "main"))
    assert module == direct
