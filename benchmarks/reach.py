"""Reach map: the outermost functions in ``src/`` no product command enters.

Twenty-five CLI runs (1:200,000; ``artefacts`` at 1:20,000), each in a child
whose ``sitecustomize`` installs a profile hook at start-up; every process,
pool workers included, appends each code object it first enters to a
per-pid file as it goes (workers leave via ``os._exit``).  ``make reach``.
"""

import ast, os, subprocess, sys, tempfile
from pathlib import Path

SRC, S = Path(__file__).resolve().parent.parent / "src", ["--scale", "200000", "--seed", "23"]
HOOK = """import os, sys, threading
_dir, _src, _seen, _out = {out!r}, {src!r}, set(), [None, None]
def _hook(frame, event, arg):
    code = frame.f_code
    if event == "call" and code not in _seen and code.co_filename.startswith(_src):
        _seen.add(code)
        if _out[0] != os.getpid():
            _out[:] = [os.getpid(), open(os.path.join(_dir, str(os.getpid())), "a", buffering=1)]
        _out[1].write("%s\\t%d\\n" % (code.co_filename, code.co_firstlineno))
sys.setprofile(_hook)
threading.setprofile(_hook)
"""


def runs(tmp: str):
    db = ["--db", f"{tmp}/wh.sqlite"]
    series = ["longitudinal", "--weeks", "16-18", *S, *db, "--cache-dir", f"{tmp}/c"]
    matrix = ["matrix", "--grid", "2x2", *S]
    return [
        ["world", *S], ["scan", *S], ["scan", *S, "--workers", "2"], ["experiment", "T1", *S],
        ["scan", *S, "--output", f"{tmp}/records"],
        ["report", *S, "--trace", f"{tmp}/trace.jsonl"], ["interop"],
        ["artefacts", "--scale", "20000", "--seed", "23"], ["load", *S, *db],
        ["chaos", "--profile", "flaky-edge", *S, "--retries", "2"],
        ["conform", "--seed", "9000", "--iterations", "200", "--fleet",
         "--metrics-out", f"{tmp}/conform.json"],
        ["bench", "--smoke", "--workers", "2"], ["bench", "--profile", "--scale", "200000", "--top", "5"],
        [*matrix, *db, "--fleet-jobs", "2"], [*matrix, "--db", f"{tmp}/m.sqlite", "--fleet-jobs", "1"],
        ["matrix", "--profiles", "baseline,lossy-edge", *S, "--db", f"{tmp}/p.sqlite"],
        series, [*series, "--resume"],  # the first is killed mid-week 17
        ["longitudinal", "--weeks", "16-18", *S, "--db", f"{tmp}/w.sqlite",
         "--cache-dir", f"{tmp}/w", "--watchdog", "600"],
        ["longitudinal", "--weeks", "18", *S, "--db", f"{tmp}/s.sqlite",
         "--metrics-out", f"{tmp}/series.json"],  # no week 17: nothing to kill
    ] + [["query", name, *db] for name in ("table1", "matrix", "weeks")] + [
        ["query", "table1", *db, "--format", form] for form in ("csv", "json")]


def unreached(path: Path, entered: set):
    """``(name, first line, lines)`` of the outermost functions never entered."""
    found, name = [], str(path)
    def visit(node):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                first = min([d.lineno for d in child.decorator_list] + [child.lineno])
                if not {(name, first), (name, child.lineno)} & entered:
                    found.append((child.name, first, child.end_lineno - first + 1))
                    continue
            visit(child)
    visit(ast.parse(path.read_text(encoding="utf-8")))
    return found


def main() -> None:
    with tempfile.TemporaryDirectory() as tmp:
        hook, out = Path(tmp, "hook"), Path(tmp, "calls")
        hook.mkdir(), out.mkdir()
        (hook / "sitecustomize.py").write_text(HOOK.format(out=str(out), src=str(SRC)))
        for args in runs(tmp):
            env = dict(os.environ, PYTHONPATH=f"{hook}{os.pathsep}{SRC}")
            if args[0] == "longitudinal" and "--resume" not in args:
                env["REPRO_SERVICE_FAULT"] = "kill@mid-week:17"
            code = subprocess.run([sys.executable, "-m", "repro", *args], cwd=tmp, env=env,
                                  stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL).returncode
            print(f"exit {code:>3}  repro {' '.join(args)}".replace(tmp, "$TMP"), file=sys.stderr)
        entered = {(name, int(line)) for pid in out.iterdir()
                   for name, line in (row.split("\t") for row in pid.read_text().splitlines())}
    total = []
    for path in sorted(SRC.rglob("*.py")):
        if found := unreached(path, entered):
            total += found
            print(f"{path.relative_to(SRC)}: {len(found)} functions, {sum(f[2] for f in found)} lines"
                  "\n    " + ", ".join(f"{name}:{first} ({n})" for name, first, n in found))
    print(f"total: {len(total)} outermost functions never entered, {sum(f[2] for f in total)} lines")


if __name__ == "__main__":
    main()
