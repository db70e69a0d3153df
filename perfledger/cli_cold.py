"""cli-cold: fresh ``python -m repro`` spawns.

Why this workload: it is the only one where import cost is the work.
Importing ``repro.cli`` is most of a client verb's start, and every
``submit``/``jobs``/``stats`` call pays it, so the ``cli`` layer would go
unmeasured without it.

One op is one spawn, from the checkout root, of ``--version``, of
``submit`` (a lint request, validated by the client, into a spool that no
daemon serves) or of ``jobs``, in rotation.  The work unit is a spawn.
The spawner itself never imports ``repro``.  In the traced run, traced
spawns add ``-X importtime`` and are followed by a bare ``python -c
pass`` that times the interpreter alone.
"""

from __future__ import annotations

import json
import os
import re
import subprocess
import sys
import threading
import time
from pathlib import Path

import numpy as np

from harness import CheckFailed, Op, pinned_environment
from service_mix import new_request

VERBS = ("version", "submit", "jobs")
ROOT = Path(__file__).resolve().parent.parent


def spawn(argv, *, env, cwd, stderr_path: Path, timeout: float = 60.0):
    """Run ``argv`` to exit: ``(seconds, exit code, stdout, stderr, peak
    RSS in MB)``.  ``os.wait4`` reaps the child, so its own peak RSS is
    read rather than the maximum over every child so far."""
    with open(stderr_path, "w+") as stderr:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, env=env, cwd=cwd, text=True,
                                stdout=subprocess.PIPE, stderr=stderr)
        watchdog = threading.Timer(timeout, proc.kill)
        watchdog.start()
        try:
            out = proc.stdout.read()
            _, status, usage = os.wait4(proc.pid, 0)
            seconds = time.perf_counter() - start
        finally:
            watchdog.cancel()
            proc.stdout.close()
        proc.returncode = os.waitstatus_to_exitcode(status)
        stderr.seek(0)
        err = stderr.read()
    return seconds, proc.returncode, out, err, usage.ru_maxrss / 1024.0


def import_times(stderr: str) -> tuple[float, float]:
    """``(numpy, repro)`` cumulative import seconds from ``-X
    importtime`` output.  ``repro`` sums the top-level ``repro*`` imports
    (numpy is nested inside them)."""
    numpy_us = repro_us = 0
    for line in stderr.splitlines():
        if not line.startswith("import time:") or "|" not in line:
            continue
        _, cumulative, name = line.split("|", 2)
        if not cumulative.strip().isdigit():
            continue  # the header line
        package = name.strip()
        top_level = name[1:2] != " "
        if package == "numpy":
            numpy_us = int(cumulative)
        if top_level and package.split(".")[0] == "repro":
            repro_us += int(cumulative)
    return numpy_us * 1e-6, repro_us * 1e-6


def source_version(root: Path) -> str:
    """``repro.__version__`` as ``src/repro/__init__.py`` defines it
    (read, not imported: the spawner stays free of ``repro``)."""
    text = (root / "src" / "repro" / "__init__.py").read_text()
    match = re.search(r'^__version__ = "([^"]+)"', text, re.MULTILINE)
    if match is None:
        raise CheckFailed("no __version__ in src/repro/__init__.py")
    return match.group(1)


class CliCold:
    name = "cli-cold"
    kernel = "spawn"
    unit = "spawns"
    has_tail = True
    setups = 5
    cycle = 3
    min_segments = 1

    def setup(self, seed: int, workdir, statcheck) -> None:
        self.env = pinned_environment(ROOT)
        self.workdir = workdir
        self.spool = workdir / "spool"
        workdir.mkdir(parents=True, exist_ok=True)
        self.rng = np.random.default_rng([seed])
        self.version = source_version(ROOT)
        self.problems: list[str] = []
        self.submitted = 0
        self.peak_rss: list[float] = []
        self._run("version", traced=False)

    def _argv(self, verb: str) -> list[str]:
        if verb == "version":
            return ["--version"]
        if verb == "jobs":
            return ["jobs", str(self.spool)]
        request = self.workdir / "request.json"
        request.write_text(json.dumps(new_request("lint", self.rng)))
        return ["submit", str(self.spool), str(request)]

    def _run(self, verb: str, traced: bool):
        argv = [sys.executable, *(["-X", "importtime"] if traced else []),
                "-m", "repro", *self._argv(verb)]
        result = spawn(argv, env=self.env, cwd=ROOT,
                       stderr_path=self.workdir / "stderr.txt")
        self._check(verb, *result[1:4])
        if not traced:
            self.peak_rss.append(result[4])
        return result

    def _check(self, verb: str, code: int, out: str, err: str) -> None:
        """Every spawn exits 0 and prints what its verb promises."""
        if code != 0:
            self.problems.append(f"{verb}: exit {code}: {err.strip()[-200:]}")
        elif verb == "version" and out.split()[-1:] != [self.version]:
            self.problems.append(f"--version printed {out.strip()!r}, "
                                 f"expected version {self.version}")
        elif verb == "submit":
            if not re.fullmatch(r"submitted job-[0-9a-f]+\s*", out):
                self.problems.append(f"submit printed {out.strip()!r}")
            self.submitted += 1
        elif verb == "jobs":
            listed = [line for line in out.splitlines() if "lint" in line]
            if len(listed) != self.submitted:
                self.problems.append(f"jobs listed {len(listed)} lint "
                                     f"jobs, {self.submitted} submitted")

    def segment(self, index: int, traced: bool) -> list[Op]:
        verb = VERBS[index % len(VERBS)]
        seconds, code, _, err, _ = self._run(verb, traced)
        op = Op(seconds, units=1, kind=verb, failed=code != 0,
                error=f"exit {code}" if code else "")
        if traced and code == 0:
            numpy_s, repro_s = import_times(err)
            interpreter = spawn([sys.executable, "-c", "pass"],
                                env=self.env, cwd=ROOT,
                                stderr_path=self.workdir / "stderr.txt")[0]
            op.layers = {"cli.interpreter_s": interpreter,
                         "cli.repro_import_s": repro_s}
            op.times = {"cli.numpy_import_s": numpy_s}
        return [op]

    def finish(self, traced: bool, ops) -> dict:
        if self.problems:
            raise CheckFailed("; ".join(self.problems[:3]))
        layers = {}
        for verb in VERBS:
            spawns = [op.norm for op in ops
                      if op.kind == verb and not op.traced and not op.failed]
            if traced and spawns:
                layers[f"cli.{verb}_s"] = float(np.median(spawns))
        return {"layers": layers, "notes": {"version": self.version,
                                            "submitted": self.submitted}}

    def peak_rss_mb(self) -> float:
        """The peak RSS of the spawned ``repro`` processes."""
        return max(self.peak_rss)

    def close(self) -> None:
        pass
