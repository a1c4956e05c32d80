"""Compare the reports of the shipped configs under two source trees.

Run from anywhere, with the two ``src`` directories to compare:

    python3 tools/compare_reports.py OLD_SRC NEW_SRC

Every shipped config (``anisolab/configs/*.cfg`` of either tree) runs as
``anisolab run --config <cfg> --out <dir>`` in a fresh interpreter under
each tree, with that tree's own copy of the config.  Then every config in
``tools/configs/`` next to this script runs under both trees from that one
copy; these reach paths that no shipped config does (a time-dependent
parabolic source, a nonsymmetric sine system, damped Picard solves of the
arctan reaction, a rate study with a linear reaction, and the grid
contraction of a coupling that does not split into x1 and x2 factors).
Last, every config of both sets runs again with ``--basis q1``, which
reaches the q1 kernels (the q1 grid contraction, the nonsymmetric LU
route) that no config reaches as written; these runs are labelled
``<config> --basis q1``.  Then every config of both sets runs as
``anisolab constants --config <cfg> --out <dir>``, whose standard output
prints every ledger entry with its formula; these runs are labelled
``<config> constants``.  For every report file one line is printed:

* ``identical``;
* ``numeric-only``, with the largest change ``|new - old| / max(1, |old|)``
  over the numbers of the file;
* ``text differs``, when a byte outside the numbers differs or the files
  hold different counts of numbers.

The exit status is 1 when a report is missing on one side or its text
differs, a number moves by more than ``TOLERANCE * max(1, |old|)``, or the
exit codes, standard output or standard error of a run differ; otherwise 0.
It is 2, before any run, when either directory holds no
``anisolab/__init__.py``.
The closing line counts the runs that agree: shipped, shared, q1 and
constants apart.
Standard library only.
"""

from __future__ import annotations

import math
import os
import re
import subprocess
import sys
import tempfile
from pathlib import Path

TOLERANCE = 1e-12
NUMBER = re.compile(rb"[-+]?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?"
                    rb"|(?<![A-Za-z_])(?:nan|NaN|inf|Infinity)(?![A-Za-z_])")
RUN = "import sys; from anisolab.cli import main; sys.exit(main())"
SHARED_CONFIGS = Path(__file__).resolve().parent / "configs"


def split_numbers(data: bytes):
    """``(text, numbers)``: the bytes with every number cut out, and the numbers."""
    return NUMBER.sub(b"#", data), NUMBER.findall(data)


def change(old: float, new: float) -> float:
    """``|new - old| / max(1, |old|)``; infinite when only one side is nan."""
    if math.isnan(old) or math.isnan(new):
        return 0.0 if math.isnan(old) and math.isnan(new) else math.inf
    return abs(new - old) / max(1.0, abs(old)) if new != old else 0.0


def classify(old: bytes, new: bytes):
    """``("identical" | "numeric-only" | "text differs", largest change)``.

    A number written differently with the same value (``1.0`` and ``1.00``)
    is a text difference.
    """
    if old == new:
        return "identical", 0.0
    old_text, old_nums = split_numbers(old)
    new_text, new_nums = split_numbers(new)
    if old_text != new_text or len(old_nums) != len(new_nums):
        return "text differs", math.nan
    changes = [change(float(a), float(b))
               for a, b in zip(old_nums, new_nums) if a != b]
    if 0.0 in changes:
        return "text differs", math.nan
    return "numeric-only", max(changes)


def run(src: Path, config: Path, out: Path, options=(), command="run"):
    """Exit code, stdout and stderr of one CLI ``command`` in a fresh
    interpreter."""
    env = dict(os.environ, PYTHONPATH=str(src))
    proc = subprocess.run([sys.executable, "-c", RUN, command, "--config",
                           str(config), "--out", str(out), *options],
                          env=env, capture_output=True)
    return proc.returncode, proc.stdout, proc.stderr


def compare_config(name: str, old_config: Path, new_config: Path,
                   old_src: Path, new_src: Path, work: Path, options=(),
                   command="run") -> bool:
    """Run one config under both trees as the CLI ``command`` with its
    ``options``, print the per-file lines under ``name``; True if they agree."""
    ok = True
    runs = []
    for side, config, src in (("old", old_config, old_src), ("new", new_config, new_src)):
        if not config.is_file():
            print(f"{name}: missing in {side} tree")
            return False
        out = work / side / name
        runs.append((out, run(src, config, out, options, command)))
    (old_out, old_run), (new_out, new_run) = runs
    for label, a, b in zip(("exit code", "stdout", "stderr"), old_run, new_run):
        if a != b:
            print(f"{name}: {label} differs: {a!r} -> {b!r}")
            ok = False
    files = sorted({p.name for p in old_out.glob("*")} | {p.name for p in new_out.glob("*")})
    for fname in files:
        old_file, new_file = old_out / fname, new_out / fname
        if not (old_file.is_file() and new_file.is_file()):
            print(f"{name}/{fname}: only in {'old' if old_file.is_file() else 'new'} run")
            ok = False
            continue
        verdict, change = classify(old_file.read_bytes(), new_file.read_bytes())
        if verdict == "numeric-only":
            print(f"{name}/{fname}: numeric-only, largest change {change:.1e}")
            ok = ok and change <= TOLERANCE
        else:
            print(f"{name}/{fname}: {verdict}")
            ok = ok and verdict == "identical"
    return ok


def main(argv=None) -> int:
    args = sys.argv[1:] if argv is None else argv
    if len(args) != 2:
        print(__doc__.strip().splitlines()[0], file=sys.stderr)
        print("usage: compare_reports.py OLD_SRC NEW_SRC", file=sys.stderr)
        return 2
    old_src, new_src = (Path(a).resolve() for a in args)
    missing = [str(src) for src in (old_src, new_src)
               if not (src / "anisolab" / "__init__.py").is_file()]
    if missing:
        print(f"error: no anisolab/__init__.py under {', '.join(missing)}",
              file=sys.stderr)
        return 2
    names = sorted({p.name for src in (old_src, new_src)
                    for p in (src / "anisolab" / "configs").glob("*.cfg")})
    if not names:
        print("no shipped configs found", file=sys.stderr)
        return 2
    configs = ([(n, old_src / "anisolab" / "configs" / n,
                 new_src / "anisolab" / "configs" / n) for n in names]
               + [(f"tools/configs/{c.name}", c, c)
                  for c in sorted(SHARED_CONFIGS.glob("*.cfg"))])
    with tempfile.TemporaryDirectory() as tmp:
        agree = [compare_config(name, old, new, old_src, new_src, Path(tmp))
                 for name, old, new in configs]
        q1 = [compare_config(f"{name} --basis q1", old, new, old_src, new_src,
                             Path(tmp), ("--basis", "q1"))
              for name, old, new in configs]
        constants = [compare_config(f"{name} constants", old, new, old_src,
                                    new_src, Path(tmp), command="constants")
                     for name, old, new in configs]
    shipped, extra = agree[:len(names)], agree[len(names):]
    print(f"{sum(shipped)} of {len(shipped)} shipped configs, "
          f"{sum(extra)} of {len(extra)} tools/configs, "
          f"{sum(q1)} of {len(q1)} --basis q1 and "
          f"{sum(constants)} of {len(constants)} constants runs agree")
    return 0 if all(agree + q1 + constants) else 1


if __name__ == "__main__":
    sys.exit(main())
