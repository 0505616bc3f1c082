"""List the statements under src/ that neither tier-1 nor `inls-lab verify` runs.

Usage, from the root of the repository:

    python tools/never_run.py

It runs the tier-1 suite and `python -m inls_lab.cli verify`, both with the
interpreter and warning flags of the CI `test` job, with a sitecustomize
module first on PYTHONPATH.  That module installs sys.settrace (and
threading.settrace) in every Python process the two start, subprocesses
included, and each process writes the lines of src/ it ran to a file of its
own at exit.  The script then takes the line table (co_lines) of every code
object of each module under src/, and prints each statement none of whose
lines ran.  A statement whose text is a key of ALLOWED is printed with its
reason; any other makes the exit status 1.  A failing tier-1 test or verify
check does too, since its line counts would not describe a green tree.

Pool workers of `inls-lab sweep --jobs 2` leave through os._exit, which runs
no atexit handler, so they record nothing; the serial sweep path runs the
same code in the parent process, and a tier-1 test calls the pool's
initializer in process.  Under the tracer tier-1 takes about 17 s
against 11 s plain (2-core Intel Xeon).
"""

from __future__ import annotations

import ast
import os
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
FLAGS = ["-X", "dev", "-W", "error::DeprecationWarning", "-W", "error::RuntimeWarning",
         "-W", "error::UserWarning"]

# Statement text (stripped, whitespace-joined) -> why no test can run it.
ALLOWED = {
    'raise GridError("cell measures do not telescope to the ball volume")':
        "construction check: with the ball volume finite (check_grid_settings) the "
        "telescoping sum of the cell measures rounds to within a few ulps of it, far "
        "below 1e-12",
}

SITECUSTOMIZE = '''
import atexit, os, sys, threading

_src = os.environ["NEVER_RUN_SRC"]
_out = os.environ["NEVER_RUN_OUT"]
_hits = set()
_keep = {}


def _local(frame, event, arg):
    if event == "line":
        _hits.add((frame.f_code.co_filename, frame.f_lineno))
    return _local


def _global(frame, event, arg):
    name = frame.f_code.co_filename
    keep = _keep.get(name)
    if keep is None:
        keep = _keep[name] = os.path.realpath(name).startswith(_src)
    return _local if keep else None


def _dump():
    sys.settrace(None)
    path = os.path.join(_out, f"{os.getpid()}.txt")
    with open(path, "a") as fh:
        fh.writelines(f"{os.path.realpath(f)}\\t{line}\\n" for f, line in _hits)


atexit.register(_dump)
threading.settrace(_global)
sys.settrace(_global)
'''


def statements(path: Path) -> list[tuple[int, set[int], str]]:
    """Every statement of the module at path: its first line, the lines of
    bytecode it owns and its text, whitespace-joined.  A compound statement
    owns its header, not its body, and its text is its header."""
    source = path.read_text()
    code_lines: set[int] = set()
    todo = [compile(source, str(path), "exec")]
    while todo:
        code = todo.pop()
        code_lines.update(line for *_, line in code.co_lines() if line is not None)
        todo.extend(c for c in code.co_consts if hasattr(c, "co_lines"))
    found = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, ast.stmt):
            continue
        end = node.end_lineno
        body = getattr(node, "body", None)
        if isinstance(body, list) and body:
            end = body[0].lineno - 1
        first = min([node.lineno, *(d.lineno for d in getattr(node, "decorator_list", []))])
        owned = code_lines & set(range(first, end + 1))
        if owned:
            text = ast.get_source_segment(source, node) if end == node.end_lineno else "\n".join(
                source.splitlines()[node.lineno - 1:end])
            found.append((node.lineno, owned, " ".join(text.split())))
    return found


def main() -> int:
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp, "hits")
        out.mkdir()
        Path(tmp, "sitecustomize.py").write_text(SITECUSTOMIZE)
        paths = [tmp, str(SRC), *filter(None, [os.environ.get("PYTHONPATH")])]
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(paths),
               "NEVER_RUN_SRC": str(SRC.resolve()), "NEVER_RUN_OUT": str(out)}
        runs = [
            [sys.executable, *FLAGS, "-m", "pytest", "-q", "--continue-on-collection-errors"],
            [sys.executable, *FLAGS, "-m", "inls_lab.cli", "verify"],
        ]
        failed = [run for run in runs if subprocess.run(run, cwd=ROOT, env=env).returncode]
        hits = set()
        for f in out.iterdir():
            for row in f.read_text().splitlines():
                name, line = row.split("\t")
                hits.add((name, int(line)))

    unexpected = 0
    for path in sorted(SRC.rglob("*.py")):
        name = str(path.resolve())
        for lineno, owned, text in statements(path):
            if any((name, line) in hits for line in owned):
                continue
            reason = ALLOWED.get(text)
            print(f"{path.relative_to(ROOT)}:{lineno}: {text[:100]}")
            if reason is None:
                unexpected += 1
            else:
                print(f"    allowed: {reason}")
    for run in failed:
        print(f"failed: {' '.join(run[len(FLAGS) + 1:])}")
    print(f"{unexpected} never-run statements outside the allowlist")
    return 1 if unexpected or failed else 0


if __name__ == "__main__":
    sys.exit(main())
