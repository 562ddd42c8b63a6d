"""The benchmark's workloads: inputs from the seed, one operation, checks.

Each operation is a short list of in-process `shrinker_index.cli.main`
calls (sub-operations).  A sub-operation fails when its call returns a
non-zero exit code or a check on its outputs fails.  Checks run after the
operation's clock has stopped.
"""

import contextlib
import csv
import dataclasses
import io
import json
import os
import random

#: Entropy of the Angenent torus (Berchenko-Kogan, Experimental Math.).
ENTROPY = 1.85122

#: Largest eigenpair residual accepted wherever eigenpairs are reported.
RESIDUAL_MAX = 1e-10


@dataclasses.dataclass
class Call:
    """One CLI sub-operation with what it wrote and how to check it."""

    label: str
    argv: list
    outputs: list
    check: object
    eigenpairs: bool = False
    read_back: bool = False
    rc: int = None
    stdout: str = ""
    stderr: str = ""
    residuals: list = dataclasses.field(default_factory=list)
    curve: object = None
    values: dict = dataclasses.field(default_factory=dict)

    def files(self):
        """Every file the call wrote, as sorted paths."""
        found = []
        for path in self.outputs:
            if os.path.isdir(path):
                for root, _, names in os.walk(path):
                    found.extend(os.path.join(root, n) for n in names)
            elif os.path.exists(path):
                found.append(path)
        return sorted(found)


class ResidualProbe:
    """Collects the residuals of every pair spectral.spectrum returns.

    Installed around each operation; `sink` is the list of the call that
    is running.
    """

    def __init__(self, spectral):
        self.spectral = spectral
        self.sink = None
        self._original = None

    def __enter__(self):
        original = self._original = self.spectral.spectrum

        def spectrum(*args, **kwargs):
            modes = original(*args, **kwargs)
            self.sink.extend(m.residual for m in modes)
            return modes
        self.spectral.spectrum = spectrum
        return self

    def __exit__(self, *exc):
        self.spectral.spectrum = self._original
        return False


def run_call(cli, call, probe):
    """Run one CLI call in-process, capturing its stdout and stderr."""
    out, err = io.StringIO(), io.StringIO()
    if probe is not None:
        probe.sink = call.residuals
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        call.rc = cli.main([str(a) for a in call.argv])
    call.stdout = out.getvalue()
    call.stderr = err.getvalue()


def check_call(call):
    """Problems with a call's outputs; empty when it failed to produce any."""
    if call.rc != 0:
        return []
    try:
        problems = list(call.check(call))
    except (OSError, ValueError, KeyError, IndexError) as exc:
        problems = ["outputs unreadable: %r" % exc]
    if call.eigenpairs:
        if not call.residuals:
            problems.append("no eigenpair residuals were reported")
        elif max(call.residuals) > RESIDUAL_MAX:
            problems.append("eigenpair residual %.3e > %.0e"
                            % (max(call.residuals), RESIDUAL_MAX))
    return problems


def _read_csv(path):
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.DictReader(fh))


def _read_text(path):
    with open(path, encoding="utf-8") as fh:
        return fh.read()


def _check_index(call):
    report = json.loads(_read_text(call.outputs[0]))
    excluded = sum(e["multiplicity"] for e in report["excluded"])
    got = (report["index"], report["total"], excluded)
    if got != (5, 9, 4):
        yield "index %d (%d negative, %d excluded), expected 5 (9, 4)" % got


def _check_study(call):
    study = call.outputs[0]
    slopes = json.loads(_read_text(os.path.join(study, "slopes.json")))
    eig = {k: v for k, v in slopes.items() if k.startswith("lambda_")}
    if len(eig) != 16:
        yield "%d eigenvalue slopes, expected 16" % len(eig)
    for name, slope in sorted(eig.items()):
        if abs(slope + 2.0) > 0.1:
            yield "slope %s = %.4f, expected -2 +- 0.1" % (name, slope)
    rows = [r for r in _read_csv(os.path.join(study, "study.csv"))
            if r["quantity"] == "entropy" and r["M"] == "2048"]
    if len(rows) != 1 or abs(float(rows[0]["estimate"]) - ENTROPY) > 1e-5:
        yield "entropy at M = 2048 not within 1e-5 of %.5f" % ENTROPY
    exact = [r for r in _read_csv(os.path.join(study, "table.csv"))
             if r["true_known"] == "exact"]
    if len(exact) != 5:
        yield "%d exactly known modes in table.csv, expected 5" % len(exact)
    if exact:
        call.values["known_mode_err"] = max(abs(float(r["error"]))
                                            for r in exact)


def _check_asymptotics(call):
    fields = call.stdout.split()
    exponent = float(fields[fields.index("drift_exponent") + 1])
    call.values["drift_exponent"] = exponent
    if not 3.5 <= exponent <= 4.5:
        yield "drift exponent %.4f outside [3.5, 4.5]" % exponent
    rows = [r for r in _read_csv(os.path.join(call.outputs[0],
                                              "groundstate.csv"))
            if r["k"] == "20"]
    if len(rows) != 1:
        yield "groundstate.csv has no k = 20 row"
        return
    rel = abs(float(rows[0]["deviation"]) / float(rows[0]["lambda0"]))
    call.values["groundstate_rel_dev_k20"] = rel
    if rel >= 1e-3:
        yield "k = 20 ground-state deviation %.3e >= 1e-3" % rel


class Workload:
    """Seeded inputs plus one operation made of CLI calls."""

    name = None

    def __init__(self, seed, package):
        self.rng = random.Random(seed)
        self.api = package
        self.inputs = None

    def setup(self, workdir):
        """Generate the inputs in `workdir`; returns the files written."""
        return []

    def calls(self, slot):
        raise NotImplementedError

    def operation(self, slot, probe):
        """Run the calls; a curve a call wrote is read back if asked."""
        calls = self.calls(slot)
        for call in calls:
            run_call(self.api.cli, call, probe)
            if call.read_back and call.rc == 0:
                call.curve = self.api.curve.read_curve(call.outputs[0])
        return calls

    def m_values(self):
        raise NotImplementedError

    def describe(self):
        """The inputs the seed chose."""
        return {}

    def _solve_input(self, workdir, m):
        """Solve the M-point curve with the CLI and keep its path."""
        path = os.path.join(workdir, "curve%d.csv" % m)
        call = Call("set-up solve", ["solve", "--points", m, "--out", path],
                    [path], check=None)
        run_call(self.api.cli, call, None)
        if call.rc != 0:
            raise RuntimeError("set-up solve failed: %s" % call.stderr.strip())
        self.inputs = path
        return [path]


class Reproduce(Workload):
    """The paper's headline numbers: index, then the refinement study."""

    name = "reproduce"
    M_LIST = (128, 256, 512, 1024, 2048)

    def m_values(self):
        return {"index": [2048], "convergence": list(self.M_LIST)}

    def calls(self, slot):
        index = os.path.join(slot, "index.json")
        study = os.path.join(slot, "study")
        return [
            Call("index", ["index", "--points", 2048, "--out", index],
                 [index], _check_index, eigenpairs=True),
            Call("convergence",
                 ["convergence", "--points-list",
                  ",".join(str(m) for m in self.M_LIST), "--k-max", 3,
                  "--out", study],
                 [study], _check_study),
        ]


class AsymptoticsKScan(Workload):
    """201 modes with vectors for the drift, then 19 ground states.

    The seed orders K over {0, 1, 2}.  The first two operations (the
    warm-up and the next) share the first K, so their outputs can be
    compared; later ones rotate through the order.  K = 0 returns -L_0
    without a copy and peaks about 30 MB lower, so rotating keeps peak RSS
    comparable between seeds.
    """

    name = "asymptotics-kscan"
    M = 2048

    def __init__(self, seed, package):
        super().__init__(seed, package)
        self.order = self.rng.sample((0, 1, 2), 3)
        self.count = 0

    def m_values(self):
        return {"asymptotics": [self.M]}

    def describe(self):
        return {"k_order": self.order, "j_max": 100, "k_scan": 20}

    def setup(self, workdir):
        return self._solve_input(workdir, self.M)

    def calls(self, slot):
        k = self.order[max(self.count - 1, 0) % 3]
        self.count += 1
        out = os.path.join(slot, "asy")
        return [Call("asymptotics k=%d" % k,
                     ["asymptotics", "--curve", self.inputs, "--k", k,
                      "--j-max", 100, "--k-scan", 20, "--out", out],
                     [out], _check_asymptotics, eigenpairs=True)]


class SolveLadder(Workload):
    """Solves from the default circle seed at five sizes, with read-back.

    M = 4096 and 8192 stall from that seed: those failures are the
    baseline this workload measures.
    """

    name = "solve-ladder"
    M_LIST = (512, 1024, 2048, 4096, 8192)

    def m_values(self):
        return {"solve": list(self.M_LIST)}

    def calls(self, slot):
        calls = []
        for m in self.M_LIST:
            path = os.path.join(slot, "curve%d.csv" % m)
            calls.append(Call("solve M=%d" % m,
                              ["solve", "--points", m, "--out", path],
                              [path], self._check_solve, read_back=True))
        return calls

    def _check_solve(self, call):
        fields = call.stdout.split()
        entropy = float(fields[1])
        m = int(call.argv[2])
        if fields[0] != "entropy" or int(fields[3]) != m:
            yield "unexpected solve output %r" % call.stdout
        if call.curve.M != m:
            yield "read back %d points, expected %d" % (call.curve.M, m)
        if self.api.curve.discrete_length(call.curve) != entropy:
            yield "entropy of the read-back curve differs from the solve's"
        if abs(entropy - ENTROPY) > 1e-4:
            yield "entropy %.8f not within 1e-4 of %.5f" % (entropy, ENTROPY)
        again = call.outputs[0] + ".again"
        self.api.curve.write_curve(call.curve, again)
        if _read_text(again) != _read_text(call.outputs[0]):
            yield "CSV round trip is not bitwise exact"
        os.remove(again)


class Render(Workload):
    """SVG and OBJ output of one displaced eigenmode at ntheta = 96."""

    name = "render"
    M = 2048
    NTHETA = 96

    def __init__(self, seed, package):
        super().__init__(seed, package)
        self.k = self.rng.choice((1, 2, 3))
        self.j = self.rng.choice((0, 1))
        self.phase = self.rng.choice(("cos", "sin"))

    def m_values(self):
        return {"render": [self.M]}

    def describe(self):
        return {"k": self.k, "j": self.j, "phase": self.phase,
                "ntheta": self.NTHETA}

    def setup(self, workdir):
        return self._solve_input(workdir, self.M)

    def calls(self, slot):
        prefix = os.path.join(slot, "torus")
        return [Call("render k=%d j=%d %s" % (self.k, self.j, self.phase),
                     ["render", "--curve", self.inputs, "--k", self.k,
                      "--j", self.j, "--ntheta", self.NTHETA,
                      "--" + self.phase, "--out", prefix],
                     [prefix + ".svg", prefix + ".obj"], self._check_render,
                     eigenpairs=True)]

    def _check_render(self, call):
        counts = {"v": 0, "f": 0}
        with open(call.outputs[1], encoding="utf-8") as fh:
            for line in fh:
                key = line[:1]
                if key in counts:
                    counts[key] += 1
        want = {"v": self.M * self.NTHETA, "f": 2 * self.M * self.NTHETA}
        if counts != want:
            yield "OBJ has %d vertices and %d faces, expected %d and %d" % (
                counts["v"], counts["f"], want["v"], want["f"])
        if not _read_text(call.outputs[0]).startswith("<svg"):
            yield "SVG output does not start with <svg"


WORKLOADS = {w.name: w for w in (Reproduce, AsymptoticsKScan, SolveLadder,
                                 Render)}
