"""The three workloads, each runnable untraced (timed rounds) or traced.

A round attempts the same operations every time. Outputs of the first
round go through the independent checks; later rounds must repeat them
byte for byte. Traced passes drive the layers through their public
functions, each call inside a span, so per-layer time is measured from
outside the program.
"""

from __future__ import annotations

import json
import os
import resource
import signal
import statistics
import subprocess
import sys
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

from orderdim.campaigns import recheck_certificate, run_campaign
from orderdim.digraphs import scc_decompose
from orderdim.errors import LimitExceeded, OrderdimError
from orderdim.generate import enumerate_posets
from orderdim.reduction import check_cover, cover_to_extensions, pair_digraph
from orderdim.relations import quotient
from orderdim.serialize import (
    cover_from_payload,
    digraph_from_payload,
    dumps,
    family_payload,
    order_from_payload,
    parse_json,
)
from orderdim.solvers import DEFAULT_SEARCH_BUDGET, dichromatic_number, order_dimension

import checks
import corpus
from hostspeed import calibration_s, scaled

CHILD_TIMEOUT_S = 60
PROBE_REPEATS = 5
# Cold processes are scaled by a child that imports numpy, timed between
# every CLI_CAL_EVERY requests (and around set-up): start-up swings with the host far more
# than in-process work does, and only loading numpy's shared libraries
# tracked it (a bare interpreter and stdlib imports did not). The child
# does not touch orderdim, so a faster import shows in full.
CLI_CAL_CODE = "try:\n    import numpy\nexcept ImportError:\n    pass"
CLI_CAL_NOMINAL_S = 0.15
CLI_CAL_EVERY = 3
# Certificates take well under a millisecond each; the calibration task
# runs between chunks of this much work instead of around each one.
CAL_EVERY_S = 0.05
IMPORT_SNIPPET = (
    "import time; t = time.perf_counter(); import orderdim; "
    "print(time.perf_counter() - t)"
)


class Spans:
    """Spans kept in memory: name, parent name, start and end times."""

    def __init__(self):
        self.records: list[tuple[str, str | None, float, float]] = []
        self._stack: list[str] = []

    @contextmanager
    def __call__(self, name: str):
        parent = self._stack[-1] if self._stack else None
        self._stack.append(name)
        start = perf_counter()
        try:
            yield
        finally:
            self.records.append((name, parent, start, perf_counter()))
            self._stack.pop()

    def durations_ms(self, name: str) -> list[float]:
        return [1e3 * (e - s) for n, _, s, e in self.records if n == name]

    def total_ms(self, name: str) -> float:
        return sum(self.durations_ms(name))

    def summary(self) -> dict:
        out: dict[str, list] = {}
        for name, parent, s, e in self.records:
            entry = out.setdefault(name, [parent, 0, 0.0])
            entry[1] += 1
            entry[2] += 1e3 * (e - s)
        return {k: {"parent": p, "count": c, "ms": round(ms, 3)} for k, (p, c, ms) in out.items()}


@dataclass
class Round:
    seconds: float
    times: list[float]  # scaled seconds, one per operation, failed ones included
    outputs: list  # one per operation; None when the operation failed
    raw_s: float  # unscaled time spent in the operations themselves


def clean_env(root: Path) -> dict:
    """The environment of every child: no DICHRO_BUDGET, only our sources."""
    return {
        "PATH": os.environ.get("PATH", os.defpath),
        "PYTHONPATH": str(root / "src"),
        "LC_ALL": "C.UTF-8",
    }


def cold_calibration_s(env: dict) -> float:
    """Wall time of a fresh interpreter that imports numpy."""
    t = perf_counter()
    subprocess.run([sys.executable, "-c", CLI_CAL_CODE], env=env,
                   capture_output=True, timeout=CHILD_TIMEOUT_S, check=True)
    return perf_counter() - t


def _rss_mb(who) -> float:
    return resource.getrusage(who).ru_maxrss / 1024.0


# -------------------------------------------------------------- dim-search


class DimSearch:
    """In-process order_dimension over a seeded corpus plus the wall slice."""

    def __init__(self, root, seed, smoke, workdir):
        self.seed, self.smoke = seed, smoke
        self.cases = corpus.dim_corpus(seed, smoke)
        self.labels = [c.label for c in self.cases]

    def round(self) -> Round:
        times, outputs, raw_s = [], [], 0.0
        start = perf_counter()
        cal = calibration_s()
        for case in self.cases:
            t = perf_counter()
            try:
                if case.budget is None:
                    res = order_dimension(case.order)
                else:
                    res = order_dimension(case.order, budget=case.budget)
            except OrderdimError:
                res = None
            dt = perf_counter() - t
            raw_s += dt
            after = calibration_s()
            times.extend(scaled([dt], cal, after))
            cal = after
            outputs.append(
                None if res is None
                else dumps({"d": res.d, "family": family_payload(res.witness)})
            )
        return Round(perf_counter() - start, times, outputs, raw_s)

    def check(self, i: int, output) -> bool:
        case = self.cases[i]
        return checks.check_dim_output(case.payload, json.loads(output), case.known)

    def peak_rss_mb(self) -> float:
        return _rss_mb(resource.RUSAGE_SELF)

    def traced(self, spans: Spans, counts: dict) -> float:
        """Stage order_dimension through its public parts, in its order."""
        corpus.dim_corpus(self.seed, self.smoke, span=spans)
        untraced = 0.0
        start = perf_counter()
        for case in self.cases:
            q = case.order
            budget = case.budget or DEFAULT_SEARCH_BUDGET
            with spans("relations.quotient"):
                qt = quotient(q)
            if qt.size > 1:
                with spans("reduction.pair_digraph"):
                    ap, _ = pair_digraph(q)
                counts["reduction.pair_vertices"] += ap.n
                counts["reduction.pair_edges"] += ap.edge_count()
                with spans("digraphs.scc"):
                    comps = scc_decompose(ap)
                largest = max(len(c) for c in comps)
                counts["digraphs.largest_scc"] = max(counts["digraphs.largest_scc"], largest)
                t = perf_counter()
                try:
                    with spans("solvers.dicr"):
                        res = dichromatic_number(ap, budget)
                except LimitExceeded:
                    res = None
                    if "solvers.us_per_node" not in counts:
                        counts["solvers.us_per_node"] = 1e6 * (perf_counter() - t) / budget
                if res is not None:
                    with spans("reduction.check_cover"):
                        check_cover(ap, res.witness)
                    with spans("reduction.cover_to_extensions"):
                        cover_to_extensions(q, res.witness)
            t = perf_counter()
            try:
                order_dimension(q, budget=budget)
            except LimitExceeded:
                pass
            untraced += perf_counter() - t
        staged = sum(
            spans.total_ms(name)
            for name in (
                "relations.quotient",
                "reduction.pair_digraph",
                "solvers.dicr",
                "reduction.cover_to_extensions",
            )
        )
        counts["trace.unattributed_ms"] = 1e3 * untraced - staged
        return perf_counter() - start


# ---------------------------------------------------------------- cli-cold


class CliCold:
    """One closed-loop client: a fresh orderdim process per request."""

    def __init__(self, root, seed, smoke, workdir):
        self.root = root
        self.env = clean_env(root)
        self.reqs = corpus.cli_requests(seed, smoke)
        self.labels = [r.label for r in self.reqs]
        self.dirs = []
        for req in self.reqs:
            d = workdir / req.label
            d.mkdir(parents=True)
            for name, doc in req.files.items():
                (d / name).write_text(json.dumps(doc), encoding="utf-8")
            self.dirs.append(d)
        self.notes: list[str] = []
        self.peak_rss = 0.0

    def _child(self, argv, cwd=None) -> subprocess.CompletedProcess:
        return subprocess.run(
            [sys.executable, *argv],
            cwd=cwd or self.root,
            env=self.env,
            capture_output=True,
            timeout=CHILD_TIMEOUT_S,
        )

    def _request(self, i: int):
        """(seconds, stdout text or None) of one cold call.

        The child is reaped with wait4 so that its own peak memory is known;
        an alarm kills it if it outlives CHILD_TIMEOUT_S.
        """
        d = self.dirs[i]
        with open(d / "stdout", "wb") as out, open(d / "stderr", "wb") as err:
            t = perf_counter()
            proc = subprocess.Popen(
                [sys.executable, "-m", "orderdim.cli", *self.reqs[i].argv],
                cwd=d, env=self.env, stdout=out, stderr=err,
            )
            signal.signal(signal.SIGALRM, lambda *_: proc.kill())
            signal.alarm(CHILD_TIMEOUT_S)
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                signal.alarm(0)
            dt = perf_counter() - t
        proc.returncode = os.waitstatus_to_exitcode(status)
        self.peak_rss = max(self.peak_rss, usage.ru_maxrss / 1024.0)
        if proc.returncode != 0:
            lines = (d / "stderr").read_text(errors="replace").strip().splitlines() or [""]
            self.notes.append(f"{self.labels[i]}: exit {proc.returncode}: {lines[-1]}")
            return dt, None
        return dt, (d / "stdout").read_text()

    def round(self) -> Round:
        times, outputs, raw, raw_s = [], [], [], 0.0
        start = perf_counter()
        before = cold_calibration_s(self.env)
        for i in range(len(self.reqs)):
            dt, out = self._request(i)
            raw.append(dt)
            raw_s += dt
            outputs.append(out)
            if len(raw) == CLI_CAL_EVERY or i == len(self.reqs) - 1:
                after = cold_calibration_s(self.env)
                times.extend(scaled(raw, before, after, CLI_CAL_NOMINAL_S))
                raw, before = [], after
        return Round(perf_counter() - start, times, outputs, raw_s)

    def check(self, i: int, output) -> bool:
        req = self.reqs[i]
        out = json.loads(output)
        order = req.files.get("order.json")
        if req.argv[0] == "dim":
            return checks.check_dim_output(order, out, req.known)
        if req.argv[0] == "dicr":
            return checks.check_dicr_output(req.files["graph.json"], out)
        if req.argv[0] == "reduce":
            return checks.check_reduce_ap(order, out)
        return checks.check_cover_to_ext(order, req.cover, out)

    def peak_rss_mb(self) -> float:
        return self.peak_rss

    def probes(self, spans: Spans, counts: dict, repeats: int) -> None:
        """Interpreter floor, cold import, and where numpy enters."""
        for _ in range(repeats):
            with spans("cli.interpreter"):
                self._child(["-c", "pass"])
        imports, gen = [], []
        for _ in range(repeats):
            imports.append(1e3 * float(self._child(["-c", IMPORT_SNIPPET]).stdout))
            err = self._child(["-X", "importtime", "-c", "import orderdim"]).stderr
            for line in err.decode().splitlines():
                fields = line.split("|")
                if len(fields) == 3 and fields[2].strip() == "orderdim.generate":
                    gen.append(int(fields[1]) / 1e3)
        counts["cli.interpreter_ms"] = statistics.median(spans.durations_ms("cli.interpreter"))
        counts["cli.import_ms"] = statistics.median(imports)
        # 0 when importing orderdim no longer loads orderdim.generate.
        counts["cli.import_generate_ms"] = statistics.median(gen) if gen else 0.0

    def traced(self, spans: Spans, counts: dict) -> float:
        loaders = {
            "order.json": order_from_payload,
            "graph.json": digraph_from_payload,
            "cover.json": cover_from_payload,
        }
        start = perf_counter()
        for i, req in enumerate(self.reqs):
            for name, doc in req.files.items():
                text = json.dumps(doc)
                with spans("serialize.parse"):
                    loaders[name](parse_json(text))
            with spans("cli.request"):
                _, out = self._request(i)
            if out is not None:
                counts["serialize.out_bytes"] += len(out.encode())
                doc = json.loads(out)
                with spans("serialize.dumps"):
                    dumps(doc)
        return perf_counter() - start


# -------------------------------------------------------------- verify-all


class VerifyAll:
    """Every campaign at its default size: produce, serialize, re-check."""

    def __init__(self, root, seed, smoke, workdir):
        self.seed, self.smoke = seed, smoke
        names = corpus.CAMPAIGN_NAMES
        self.names = [names[2], names[3], names[8]] if smoke else names
        self.labels: list[str] = []

    def _certificates(self, name: str, span=None):
        """Yield (line, rechecked) per certificate; None once on failure."""
        span = span or _no_span
        try:
            it = iter(run_campaign(name, seed=self.seed))
            while True:
                with span(f"campaigns.{name}"):
                    cert = next(it, None)
                if cert is None:
                    return
                with span("serialize.dumps"):
                    line = dumps(cert.to_payload())
                with span("serialize.parse"):
                    doc = parse_json(line)
                with span("campaigns.recheck"):
                    ok = recheck_certificate(doc)
                yield line, ok
        except OrderdimError:
            yield None

    def round(self) -> Round:
        times, outputs, labels, raw_s = [], [], [], 0.0
        start = t0 = perf_counter()
        raw: list[float] = []
        before = calibration_s()
        for name in self.names:
            t = perf_counter()
            for out in self._certificates(name):
                now = perf_counter()
                raw.append(now - t)
                outputs.append(out)
                labels.append(name)
                if now - t0 >= CAL_EVERY_S:
                    raw_s += sum(raw)
                    after = calibration_s()
                    times.extend(scaled(raw, before, after))
                    raw, before = [], after
                    t0 = perf_counter()
                t = perf_counter()
        raw_s += sum(raw)
        times.extend(scaled(raw, before, calibration_s()))
        self.labels = labels
        return Round(perf_counter() - start, times, outputs, raw_s)

    def check(self, i: int, output) -> bool:
        line, ok = output
        return checks.check_certificate(json.loads(line), ok)

    def check_round(self, outputs) -> None:
        for name, want in checks.THEORY_COUNTS.items():
            got = sum(1 for n, o in zip(self.labels, outputs) if n == name and o)
            if name in self.names and got != want:
                raise checks.Refuted(f"{name} gave {got} certificates, theory says {want}")

    def peak_rss_mb(self) -> float:
        return _rss_mb(resource.RUSAGE_SELF)

    def traced(self, spans: Spans, counts: dict) -> float:
        with spans("generate.enumerate"):
            for size in range(5):
                for _ in enumerate_posets(size):
                    pass
        start = perf_counter()
        for name in self.names:
            for out in self._certificates(name, spans):
                if out is not None:
                    counts["campaigns.certs"] += 1
                    counts["serialize.out_bytes"] += len(out[0].encode())
        return perf_counter() - start


_NULL = nullcontext()


def _no_span(name):
    return _NULL


WORKLOADS = {"dim-search": DimSearch, "cli-cold": CliCold, "verify-all": VerifyAll}
