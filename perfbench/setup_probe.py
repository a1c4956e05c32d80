"""A fresh interpreter of one workload: import anisolab, load and build its configs.

Usage: python3 setup_probe.py [--round OUTDIR] CONFIG...

Prints ``ready`` when set-up is done; run.py times the process up to that
line.  With ``--round``, it then runs each config once through
``run_config``, reports under OUTDIR/<config stem>, and prints the peak
resident set in MB.
"""

import resource
import sys
from pathlib import Path

from anisolab import cli
from anisolab.config import build_problem_objects, load_config, make_space

args = sys.argv[1:]
outdir = None
if args[:1] == ["--round"]:
    outdir, args = Path(args[1]), args[2:]
configs = []
for path in args:
    cfg = load_config(path)
    make_space(cfg, build_problem_objects(cfg)[0])
    configs.append((Path(path).stem, cfg))
print("ready", flush=True)
if outdir is not None:
    for name, cfg in configs:
        cli.run_config(cfg, outdir / name)
    print(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, flush=True)
