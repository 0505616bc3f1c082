"""List the code under src/ that neither tier-1 nor the lab's own runs reach.

Usage, from the root of the repository:

    python tools/never_run.py

It runs the tier-1 suite, `python -m inls_lab.cli verify`, and each config
command (check-potential, groundstate, classify, evolve, sweep --jobs 2) on
three configs: the README's example, a gaussian datum and a from_file datum
(the README example's ground-state profile).  All run with the interpreter
and warning flags of the CI `test` job, with a sitecustomize module first on
PYTHONPATH.  That module installs sys.settrace (and threading.settrace) in
every Python process they start, subprocesses and pool workers included;
each process writes the lines of src/ it ran and the functions of src/ it
entered to a file of its own at exit, or at os._exit, through which pool
workers leave.

Two reports follow.  The first takes the line table (co_lines) of every
code object of each module under src/, and prints each statement none of
whose lines any run ran.  The second prints each function of src/ that
neither verify nor a config command enters, so that only tier-1 does: code
that the lab itself never runs.  An entry that is a key of ALLOWED (a
statement's text) or ALLOWED_FUNCTIONS (a function's module-qualified name)
is printed with its reason; any other makes the exit status 1.  A failing
tier-1 test, verify check or command does too, since its counts would not
describe a green tree.  Under the tracer the runs take 35 to 40 s against
25 s plain (2-core Intel Xeon).
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
        "construction check: build_grid refuses a ball volume beyond the floats first, "
        "and below it the telescoping sum of the cell measures rounds to within a few "
        "ulps of it, far below 1e-12",
}

# Module-qualified function name -> why neither verify nor a config command
# enters it.
ALLOWED_FUNCTIONS = {
    "cli._error": "config-error path: every lab run reads a valid config",
    "cli._section_error": "config-error path: every lab run reads a valid config",
    "groundstate.derive_thresholds":
        "kept only for the benchmark's stationary thresholds op; it goes with the "
        "benchmark change that drops that op",
}

# The README's example config, and the two other initial.kind values on its
# parameters; {profile} is the ground-state profile the first one writes.  The
# gaussian one sweeps the mesh, so each of its pool workers gets its own grid.
CONFIGS = {
    "readme": "params.n = 3\nparams.b = -0.5\nparams.c = -0.5\nparams.p = 2\n"
              "grid.N = 4096\ninitial.kind = ground_state_multiple\n"
              "sweep.key = initial.alpha\nsweep.values = 0.5, 0.9, 1.5\n",
    "gaussian": "params.n = 3\nparams.b = -0.5\nparams.c = -0.5\nparams.p = 2\n"
                "initial.kind = gaussian\ninitial.amplitude = 0.5\n"
                "sweep.key = grid.N\nsweep.values = 2048, 4096\n",
    "from_file": "params.n = 3\nparams.b = -0.5\nparams.c = -0.5\nparams.p = 2\n"
                 "initial.kind = from_file\ninitial.path = {profile}\n"
                 "sweep.key = evolve.t_end\nsweep.values = 0.25, 0.5\n",
}
COMMANDS = [["check-potential"], ["groundstate"], ["classify"], ["evolve"],
            ["sweep", "--jobs", "2"]]

SITECUSTOMIZE = '''
import atexit, os, sys, threading

_src = os.environ["NEVER_RUN_SRC"]
_out = os.environ["NEVER_RUN_OUT"]
_hits = set()
_calls = set()
_keep = {}


def _local(frame, event, arg):
    if event == "line":
        _hits.add((frame.f_code.co_filename, frame.f_lineno))
    return _local


def _global(frame, event, arg):
    code = frame.f_code
    name = code.co_filename
    keep = _keep.get(name)
    if keep is None:
        keep = _keep[name] = os.path.realpath(name).startswith(_src)
    if not keep:
        return None
    _calls.add((name, code.co_firstlineno))
    return _local


def _dump():
    sys.settrace(None)
    path = os.path.join(_out, f"{os.getpid()}.txt")
    with open(path, "a") as fh:
        fh.writelines(f"line\\t{os.path.realpath(f)}\\t{n}\\n" for f, n in _hits)
        fh.writelines(f"call\\t{os.path.realpath(f)}\\t{n}\\n" for f, n in _calls)


def _exit(code, _os_exit=os._exit):
    _dump()
    _os_exit(code)


atexit.register(_dump)
os._exit = _exit
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


def functions(path: Path) -> list[tuple[int, str]]:
    """Every function of the module at path: the first line of its code
    object (its first decorator's, if any) and its name, qualified by the
    module's and by those of the classes and functions it is defined in."""
    found = []

    def visit(node: ast.AST, prefix: str) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                name = f"{prefix}.{child.name}"
                if not isinstance(child, ast.ClassDef):
                    lines = [child.lineno, *(d.lineno for d in child.decorator_list)]
                    found.append((min(lines), name))
                visit(child, name)
            else:
                visit(child, prefix)

    visit(ast.parse(path.read_text()), path.stem)
    return found


def trace(runs: list[list[str]], out: Path, env: dict) -> list[list[str]]:
    """Run each command under the tracer, its records written into out;
    returns the commands that failed."""
    out.mkdir()
    env = {**env, "NEVER_RUN_OUT": str(out)}
    return [run for run in runs if subprocess.run(run, cwd=ROOT, env=env).returncode]


def records(out: Path) -> tuple[set, set]:
    """The (file, line) pairs the traced runs ran, and the (file, first
    line) pairs of the code objects they entered."""
    found = {"line": set(), "call": set()}
    for f in out.iterdir():
        for row in f.read_text().splitlines():
            kind, name, line = row.split("\t")
            found[kind].add((name, int(line)))
    return found["line"], found["call"]


def report(entries, allowed: dict, what: str) -> int:
    """Print each (path, line, text) entry, with its reason where allowed
    has one, then the count of the others; returns that count."""
    unexpected = 0
    for path, lineno, text in entries:
        print(f"{path.relative_to(ROOT)}:{lineno}: {text[:100]}")
        reason = allowed.get(text)
        if reason is None:
            unexpected += 1
        else:
            print(f"    allowed: {reason}")
    print(f"{unexpected} {what} outside the allowlist")
    return unexpected


def main() -> int:
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        (tmp / "sitecustomize.py").write_text(SITECUSTOMIZE)
        paths = [str(tmp), str(SRC), *filter(None, [os.environ.get("PYTHONPATH")])]
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(paths),
               "NEVER_RUN_SRC": str(SRC.resolve())}
        cli = [sys.executable, *FLAGS, "-m", "inls_lab.cli"]
        lab = [[*cli, "verify"]]
        for name, text in CONFIGS.items():
            config = tmp / f"{name}.cfg"
            config.write_text(text.format(profile=tmp / "readme" / "groundstate" / "profile.csv"))
            lab += [[*cli, command[0], "--config", str(config),
                     "--out", str(tmp / name / command[0]), *command[1:]]
                    for command in COMMANDS]
        failed = trace(
            [[sys.executable, *FLAGS, "-m", "pytest", "-q", "--continue-on-collection-errors"]],
            tmp / "tier1", env,
        ) + trace(lab, tmp / "lab", env)
        hits, _ = records(tmp / "tier1")
        lab_hits, lab_calls = records(tmp / "lab")
        hits |= lab_hits

    never_run, lab_never_entered = [], []
    for path in sorted(SRC.rglob("*.py")):
        name = str(path.resolve())
        never_run += [(path, lineno, text) for lineno, owned, text in statements(path)
                      if not any((name, line) in hits for line in owned)]
        lab_never_entered += [(path, first, qualname) for first, qualname in functions(path)
                              if (name, first) not in lab_calls]
    print("Statements of src/ that neither tier-1 nor the lab's runs run:")
    unexpected = report(never_run, ALLOWED, "never-run statements")
    print("Functions of src/ that neither verify nor a config command enters:")
    unexpected += report(lab_never_entered, ALLOWED_FUNCTIONS, "tier-1-only functions")
    for run in failed:
        print(f"failed: {' '.join(run[len(FLAGS) + 1:])}")
    return 1 if unexpected or failed else 0


if __name__ == "__main__":
    sys.exit(main())
