"""Compare pbna's reports between two source trees, run for run.

Usage: python tests/compare_reports.py PARENT_SRC CHANGE_SRC

PARENT_SRC and CHANGE_SRC are the ``src`` directories of two checkouts, for
instance a ``git archive`` of the parent commit unpacked beside this one.
The corpus is written once to a temporary directory: the shipped
``networks/*.json``, ``tests/violating.json``, fixed-seed ``gen.py`` draws
and a network that joins no pair.  Every command runs on every network, in
both formats, at two (--q, --seed) settings.  Each side runs the whole
corpus in one subprocess of its own, with PYTHONPATH set to its source
tree, calling ``pbna.cli.main`` in-process and capturing exit code, stdout
and stderr.  Every run where the two sides differ in any of the three is
printed; the exit status is 1 if any run differs, else 0.  pytest does not
collect this file.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import subprocess
import sys
import tempfile
import traceback
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
COMMANDS = ("validate", "igraph", "dstar", "precode", "obstruct", "simulate", "pipeline")
FORMATS = ("text", "json")
SETTINGS = ((), ("--q", "7", "--seed", "3"))


def write_corpus(directory: Path) -> list[Path]:
    """The networks every command runs on, as files in ``directory``."""
    import numpy as np

    sys.path.insert(0, str(REPO / "tests"))
    sys.path.insert(0, str(REPO / "src"))
    import gen
    from pbna.network import Network

    nets = {
        "edgeless": Network(("S1", "S2", "D1", "D2"), (), ("S1", "S2"), ("D1", "D2"), ([0], [1])),
        "fourbyfour-constant-ratio": gen.fourbyfour_constant_ratio_net(),
        "sixcycle": gen.sixcycle_net(),
        "adversarial": gen.adversarial_net(),
        "forest-k16": gen.forest_instance(np.random.default_rng(16), size=16)[0],
        "cyclic-k12": gen.cyclic_instance(np.random.default_rng(12), 12)[0],
        "hub-relay": gen.hub_relay_net(np.random.default_rng(5)),
    }
    for seed in range(3):
        nets[f"forest-seed{seed}"] = gen.forest_instance(np.random.default_rng(seed))[0]
        nets[f"multiterminal-seed{seed}"] = gen.random_multiterminal_dag(np.random.default_rng(seed))
    paths = sorted((REPO / "networks").glob("*.json")) + [REPO / "tests" / "violating.json"]
    for name, net in nets.items():
        path = directory / f"{name}.json"
        path.write_text(gen.net_to_json(net))
        paths.append(path)
    return paths


def runs(paths: list[Path]) -> list[list[str]]:
    return [[command, "--network", str(path), "--format", fmt, *setting]
            for path in paths for command in COMMANDS for fmt in FORMATS for setting in SETTINGS]


def run_side(argvs: list[list[str]], src: str) -> list[list]:
    """[exit code, stdout, stderr] of every run, from one subprocess that imports pbna from ``src``."""
    proc = subprocess.run([sys.executable, __file__, "--side", src], input=json.dumps(argvs),
                          capture_output=True, text=True, env={**os.environ, "PYTHONPATH": src}, check=False)
    if proc.returncode != 0:
        sys.exit(f"the run under {src} failed:\n{proc.stderr}")
    return json.loads(proc.stdout)


def side(src: str) -> None:
    """Run every argv read from stdin through ``pbna.cli.main``; write the results to stdout as JSON."""
    from pbna import cli

    if not Path(cli.__file__).resolve().is_relative_to(Path(src).resolve()):
        sys.exit(f"imported pbna from {cli.__file__}, not from {src}")
    results = []
    for argv in json.loads(sys.stdin.read()):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = cli.main(argv)
            except SystemExit as exc:
                code = exc.code
            except Exception:  # an uncaught error is exit 1 with a traceback, as from the command line
                traceback.print_exc()
                code = 1
        results.append([code, out.getvalue(), err.getvalue()])
    json.dump(results, sys.stdout)


def excerpt(value, other) -> str:
    """``value`` from shortly before its first difference from ``other``, at most 160 characters."""
    if not isinstance(value, str) or not isinstance(other, str):
        return repr(value)
    at = next((t for t, (a, b) in enumerate(zip(value, other)) if a != b), min(len(value), len(other)))
    return ("..." if at > 40 else "") + repr(value[max(at - 40, 0):at + 120])


def main(argv: list[str]) -> int:
    if len(argv) == 3 and argv[1] == "--side":
        side(argv[2])
        return 0
    if len(argv) != 3:
        print(__doc__.split("\n\n")[1], file=sys.stderr)
        return 2
    parent_src, change_src = (str(Path(a).resolve()) for a in argv[1:])
    with tempfile.TemporaryDirectory() as tmp:
        argvs = runs(write_corpus(Path(tmp)))
        parent, change = run_side(argvs, parent_src), run_side(argvs, change_src)
    differ = 0
    for args, before, after in zip(argvs, parent, change):
        fields = [name for name, x, y in zip(("exit code", "stdout", "stderr"), before, after) if x != y]
        if fields:
            differ += 1
            print(f"pbna {' '.join(args)}: {', '.join(fields)} differ")
            for name, x, y in zip(("exit code", "stdout", "stderr"), before, after):
                if x != y:
                    print(f"  parent {name}: {excerpt(x, y)}\n  change {name}: {excerpt(y, x)}")
    print(f"{len(argvs)} runs, {differ} differ")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
