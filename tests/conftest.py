"""Session-wide fixtures.

Solves, operators and spectra are deterministic, so every test module
shares one memoized pipeline instead of re-solving per test.  The hook at
the bottom prints one PASS/FAIL line per acceptance test after the run.
"""

import numpy as np
import pytest

import oracles
import shrinker_index
from shrinker_index import assemble_Lk, run_study, solve_geodesic

FD_SURVEY_SEED = 20240817
FD_SURVEY_COUNT = 1000


class Pipeline:
    """Per-M memo of shrinker_index.Pipeline, and of its modes per count.

    The solves share one dict of polished ladder levels, so a test run
    polishes each level once (M = 8192, say, climbs from the 1024 and 128
    that other tests solve); each curve is still bitwise solve_geodesic(m).
    """

    def __init__(self):
        self._pipes = {}
        self._modes = {}
        self._solved = {}

    def _pipe(self, m):
        if m not in self._pipes:
            self._pipes[m] = shrinker_index.Pipeline(
                solve_geodesic(m, self._solved))
        return self._pipes[m]

    def curve(self, m):
        return self._pipe(m).curve

    def evaluation(self, m):
        return self._pipe(m).evaluation

    def normals(self, m):
        return self._pipe(m).evaluation.normals

    def L0(self, m):
        return self._pipe(m).evaluation.L0

    def Lk(self, m, k):
        return assemble_Lk(self._pipe(m).evaluation, k)

    def modes(self, m, k, count):
        # a pair can depend on count, so a scan serves only its own count
        key = (m, k, count)
        if key not in self._modes:
            self._modes[key] = self._pipe(m).scan([k], count)
        return self._modes[key]

    def eigenvalues(self, m, k, count):
        return np.array([md.eigenvalue for md in self.modes(m, k, count)])


@pytest.fixture(scope="session")
def pipe():
    return Pipeline()


@pytest.fixture
def polished(monkeypatch):
    """(m, points) of every solver._polish call the test makes, in order."""
    calls = []
    original = shrinker_index.solver._polish

    def recorded(points, m):
        out = original(points, m)
        calls.append((m, out))
        return out
    monkeypatch.setattr(shrinker_index.solver, "_polish", recorded)
    return calls


@pytest.fixture(scope="session")
def study16():
    """The 16 eigenvalue studies (k, j < 4) over M = 128..2048."""
    return [st for st in run_study(3, m_values=(128, 256, 512, 1024, 2048))
            if st.quantity != "entropy"]


@pytest.fixture(scope="session")
def fd_survey():
    """Closed forms vs mpmath finite differences over 1000 random segments."""
    max_grad = 0.0
    max_hess = 0.0
    for a, b in oracles.random_segments(FD_SURVEY_COUNT, FD_SURVEY_SEED):
        rel_g, rel_h = oracles.fd_compare(a, b)
        max_grad = max(max_grad, rel_g)
        max_hess = max(max_hess, rel_h)
    return {"count": FD_SURVEY_COUNT, "max_rel_grad": max_grad,
            "max_rel_hess": max_hess}


_notes = {}


@pytest.fixture
def note(request):
    """Record a measurement string shown in the acceptance summary."""
    name = request.node.nodeid.split("::")[-1]

    def _note(text):
        _notes[name] = text
    return _note


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    status = {}
    for key, ok in (("passed", True), ("failed", False), ("error", False)):
        for rep in terminalreporter.stats.get(key, []):
            nodeid = getattr(rep, "nodeid", "")
            if "test_acceptance.py" not in nodeid:
                continue
            if ok and getattr(rep, "when", "call") != "call":
                continue
            name = nodeid.split("::")[-1]
            status[name] = status.get(name, True) and ok
    if not status:
        return
    terminalreporter.section("acceptance")
    for name in sorted(status):
        verdict = "PASS" if status[name] else "FAIL"
        detail = _notes.get(name)
        terminalreporter.write_line(
            "%s %s%s" % (verdict, name, "  [%s]" % detail if detail else ""))
