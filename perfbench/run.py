#!/usr/bin/env python3
"""Build and run the PEXESO benchmark (see perfbench/README.md).

Run from the root of a checkout:

    python3 perfbench/run.py --workload open-verify --seed 1 --seconds 10 --trace 0

The first run compiles the repository and the benchmark with sbt (offline,
from the local dependency cache) and caches the resulting classpath under
.bench_build/perfbench, keyed by a digest of every source and build file;
later runs start the JVM directly. The last line of standard output is the
result JSON printed by pexbench.Main.
"""
import hashlib
import os
import pathlib
import shutil
import signal
import subprocess
import sys

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".bench_build" / "perfbench"

BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170

# Spark 4 on JDK 17 reflects into these JDK internals (as spark-submit does).
ADD_OPENS = [
    "java.base/java.lang", "java.base/java.lang.invoke", "java.base/java.lang.reflect",
    "java.base/java.io", "java.base/java.net", "java.base/java.nio",
    "java.base/java.util", "java.base/java.util.concurrent",
    "java.base/java.util.concurrent.atomic",
    "java.base/sun.nio.ch", "java.base/sun.nio.cs",
    "java.base/sun.security.action", "java.base/sun.util.calendar",
]


def fail(msg, code=2):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(code)


def run_child(cmd, timeout, **kw):
    """Run `cmd` in its own process group and return (exit code, stdout).

    On a timeout, SIGTERM or SIGINT the whole group is killed and waited
    for, so no build or benchmark process outlives this script.
    """
    proc = subprocess.Popen(cmd, start_new_session=True, **kw)

    def kill_group():
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        proc.wait()

    def on_signal(signum, _frame):
        kill_group()
        sys.exit(128 + signum)

    old = {s: signal.signal(s, on_signal) for s in (signal.SIGTERM, signal.SIGINT)}
    try:
        out, _ = proc.communicate(timeout=timeout)
        return proc.returncode, out
    except subprocess.TimeoutExpired:
        kill_group()
        raise
    finally:
        for s, h in old.items():
            signal.signal(s, h)


def build_inputs():
    """Every file whose change must trigger a rebuild."""
    files = [ROOT / "build.sbt", HERE / "build.sbt"]
    for d in (ROOT / "project", HERE / "project"):
        files += [p for p in d.glob("*") if p.is_file()]
    for d in (ROOT / "src" / "main", HERE / "src" / "main"):
        files += [p for p in d.rglob("*") if p.is_file()]
    return sorted(f for f in files if f.exists())


def digest(files):
    h = hashlib.sha256()
    for f in files:
        h.update(str(f.relative_to(ROOT)).encode())
        h.update(f.read_bytes())
    return h.hexdigest()[:16]


def build(cp_file):
    sbt = shutil.which("sbt")
    if sbt is None:
        fail("sbt is not on PATH")
    print("perfbench: building with sbt ...", file=sys.stderr, flush=True)
    cmd = [sbt, "--batch", "-Dsbt.log.noformat=true", "-Dsbt.server.forcestart=false",
           "export Runtime/fullClasspath"]
    try:
        code, out = run_child(cmd, BUILD_TIMEOUT_S, cwd=HERE, stdout=subprocess.PIPE,
                              stderr=sys.stderr, stdin=subprocess.DEVNULL, text=True)
    except subprocess.TimeoutExpired:
        fail("build timed out")
    lines = [l for l in out.splitlines() if l.strip()]
    sys.stderr.write("\n".join(l for l in lines if l.startswith("[")) + "\n")
    if code != 0 or not lines or lines[-1].startswith("["):
        fail(f"build failed (sbt exit {code})")
    cp_file.parent.mkdir(parents=True, exist_ok=True)
    for old in cp_file.parent.glob("classpath-*.txt"):
        old.unlink()
    cp_file.write_text(lines[-1])


def main():
    if not (ROOT / "build.sbt").is_file() or not (ROOT / "src" / "main" / "scala").is_dir():
        fail(f"no repository sources next to {HERE.name}/; run from a full checkout")
    os.chdir(ROOT)
    cp_file = WORK / f"classpath-{digest(build_inputs())}.txt"
    if not cp_file.is_file():
        build(cp_file)
    tmp = WORK / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    java_home = os.environ.get("JAVA_HOME")
    java = str(pathlib.Path(java_home) / "bin" / "java") if java_home else "java"
    cmd = [java, "-Xms2g", "-Xmx2g", "-XX:+UseParallelGC", "-XX:+UseTransparentHugePages",
           "-XX:+AlwaysPreTouch",
           f"-Djava.io.tmpdir={tmp}", "-Dspark.driver.host=127.0.0.1",
           "-Dspark.ui.enabled=false"]
    cmd += [f"--add-opens={p}=ALL-UNNAMED" for p in ADD_OPENS]
    cmd += ["-cp", cp_file.read_text().strip(), "pexbench.Main"] + sys.argv[1:]
    try:
        code, _ = run_child(cmd, RUN_TIMEOUT_S, stdin=subprocess.DEVNULL)
    except subprocess.TimeoutExpired:
        fail("run timed out", 3)
    sys.exit(code)


if __name__ == "__main__":
    main()
