"""Seeded inputs, item definitions and reference checks for the workloads.

A workload is a pool of items built from the seed; item ``i`` of a run is
pool entry ``order[i % len(pool)]``, so every run walks the same stratified
mix and only the order depends on the seed. An item is a short list of CLI
invocations (argv plus the files each one writes). Every reference an item
is checked against is computed in ``__init__``, before any timed phase, from
the brute-force oracle (``steercrit.oracle.oracle_moments``) and from numpy's
LAPACK eigensolver, never from the engine under test.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0
SWEEP_STEPS = 1000
SWEEP_CSV = "sweep.csv"
BUNDLE = "bundle.json"
MARGIN_TOL = 1e-10
ORACLE_DIFF_TOL = 1e-10
MIN_EIG_TOL = 1e-9
P_STAR_TOL = 1e-6
# closed-form srur thresholds of the two built-in families (README.md)
CLOSED_FORM_WINDOWS = {2: (0.555, 0.570), 3: (0.8995, 0.9015)}
ENGINE_MODES = ("linear-g", "conditional-mean")
CRITERIA = ("srur", "hur")
# (criterion, mode) cycled by item index; pool sizes are multiples of 4, so
# each pool entry always meets the same combination
CRIT_MODE = [(c, m) for m in ENGINE_MODES for c in CRITERIA]
# clearly non-positive states get a minimum eigenvalue in this range
NEGATIVE_EIG = (-1.5e-3, -0.5e-3)


@dataclass(frozen=True)
class Command:
    argv: tuple[str, ...]
    outputs: tuple[str, ...] = ()


@dataclass
class Outcome:
    """What one command returned: exit code, stdout and its output files."""

    code: int
    stdout: str
    files: dict = field(default_factory=dict)


@dataclass(frozen=True)
class Item:
    key: str
    commands: tuple[Command, ...]
    # check(outcomes, observations) -> list of failure reasons
    check: Callable[[list, dict], list]


def oracle_margin(moments: dict, mode: str, criterion: str) -> float:
    """Margin of the README formulas, from a dict of inferred moments."""
    if mode == "linear-g":
        lhs = moments["var_inf_b1"] * moments["var_inf_b2"]
    else:
        lhs = moments["var_min_b1"] * moments["var_min_b2"]
    rhs = 0.25 * moments["abs_mean_inf_commutator"] ** 2
    if criterion == "srur":
        cov = 0.5 * moments["mean_inf_anticommutator"] - moments["product_of_means_inf"]
        rhs += cov * cov
    return lhs - rhs


def _matrix_json(m: np.ndarray) -> list:
    return [[[float(z.real), float(z.imag)] for z in row] for row in m]


def _hermitian(rng: np.random.Generator, n: int) -> np.ndarray:
    """Random Hermitian matrix scaled to spectral radius about 1."""
    x = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    return (x + x.conj().T) / (2.0 * math.sqrt(2.0 * n))


def _pure_state(rng: np.random.Generator, n: int) -> np.ndarray:
    psi = rng.normal(size=n) + 1j * rng.normal(size=n)
    psi /= np.linalg.norm(psi)
    return np.outer(psi, psi.conj())


def _mixed_state(rng: np.random.Generator, n: int) -> np.ndarray:
    g = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    rho = g @ g.conj().T
    rho = 0.5 * (rho + rho.conj().T)
    rho /= np.trace(rho).real
    # a little white noise keeps the spectrum away from zero
    return 0.98 * rho + 0.02 * np.eye(n) / n


def _non_positive_state(rng: np.random.Generator, n: int) -> np.ndarray:
    """Unit-trace Hermitian matrix whose minimum eigenvalue is about -1e-3."""
    rho = _mixed_state(rng, n)
    vals, vecs = np.linalg.eigh(rho)
    shift = vals[0] - rng.uniform(*NEGATIVE_EIG)
    lo, hi = vecs[:, :1], vecs[:, -1:]
    m = rho - shift * (lo @ lo.conj().T) + shift * (hi @ hi.conj().T)
    m = 0.5 * (m + m.conj().T)
    return m / np.trace(m).real


def _loads(text: str):
    try:
        return json.loads(text)
    except json.JSONDecodeError:
        return None


def _close(value, reference: float, tol: float) -> bool:
    return isinstance(value, (int, float)) and abs(value - reference) <= tol


@dataclass
class FileEntry:
    """One generated state with its observables and expected behaviour."""

    name: str
    d: int
    kind: str  # "pure", "mixed" or "nonpsd"
    pairing: str  # "transpose" or "file"
    min_eig: float
    margins: dict = field(default_factory=dict)  # (criterion, mode) -> margin

    @property
    def valid(self) -> bool:
        return self.kind != "nonpsd"

    def evaluate_argv(self, criterion: str, mode: str) -> list[str]:
        argv = ["evaluate", "--family", "file", "--state", f"{self.name}.state.json",
                "--observables", f"{self.name}.obs.json",
                "--criterion", criterion, "--mode", mode]
        if self.pairing == "file":
            argv += ["--pairing", "file", "--pairing-file", f"{self.name}.alice.json"]
        return argv


def make_file_entries(prefix: str, mix: dict) -> list:
    """Stratified state pool: mix maps d -> {kind: count}.

    Pairings alternate inside each (d, kind) run, so each d gets an equal
    share of transpose and file pairings.
    """
    entries = []
    for d, per_kind in mix.items():
        j = 0
        for kind, count in per_kind.items():
            for _ in range(count):
                entries.append(FileEntry(
                    name=f"{prefix}{len(entries):03d}", d=d, kind=kind,
                    pairing="file" if j % 2 else "transpose", min_eig=0.0,
                ))
                j += 1
    return entries


def write_file_entries(rng: np.random.Generator, entries: list, workdir: Path) -> None:
    """Draw every entry's matrices and write its files."""
    makers = {"pure": _pure_state, "mixed": _mixed_state, "nonpsd": _non_positive_state}
    for e in entries:
        n = e.d * e.d
        rho = makers[e.kind](rng, n)
        bob = [_hermitian(rng, e.d), _hermitian(rng, e.d)]
        alice = [_hermitian(rng, e.d), _hermitian(rng, e.d)]
        e.min_eig = float(np.linalg.eigvalsh(rho)[0])
        state = {"dims": [e.d, e.d], "matrix": _matrix_json(rho)}
        (workdir / f"{e.name}.state.json").write_text(json.dumps(state))
        obs = [{"label": f"B{k + 1}", "matrix": _matrix_json(m)} for k, m in enumerate(bob)]
        (workdir / f"{e.name}.obs.json").write_text(json.dumps(obs))
        if e.pairing == "file":
            obs = [{"label": f"A{k + 1}", "matrix": _matrix_json(m)}
                   for k, m in enumerate(alice)]
            (workdir / f"{e.name}.alice.json").write_text(json.dumps(obs))


def file_reference_margins(entry: FileEntry, workdir: Path) -> dict:
    """Oracle margin for every (criterion, mode), from the files as written."""
    # steercrit is imported here, not at the top: run.py first puts the
    # checkout's src/ on sys.path
    from steercrit.observables import default_pairing, explicit_pairing, observable_from_json
    from steercrit.oracle import oracle_moments
    from steercrit.states import state_from_json

    rho = state_from_json(json.loads((workdir / f"{entry.name}.state.json").read_text()))
    b1, b2 = (observable_from_json(o) for o in
              json.loads((workdir / f"{entry.name}.obs.json").read_text()))
    rule = default_pairing
    if entry.pairing == "file":
        a1, a2 = (observable_from_json(o) for o in
                  json.loads((workdir / f"{entry.name}.alice.json").read_text()))
        rule = explicit_pairing({b1.label: a1, b2.label: a2})
    moments = oracle_moments(rho, b1, b2, rule)
    return {cm: oracle_margin(moments, cm[1], cm[0]) for cm in CRIT_MODE}


def family_reference_margin(d: int, p: float, mode: str, criterion: str) -> float:
    from steercrit.families import family_for_dimension, family_observables, family_state
    from steercrit.oracle import oracle_moments

    family = family_for_dimension(d)
    b1, b2 = family_observables(family)
    return oracle_margin(oracle_moments(family_state(family, p), b1, b2), mode, criterion)


def _check_report(out: Outcome, margin: float, criterion: str, mode: str, fails: list):
    report = _loads(out.stdout)
    if not isinstance(report, dict):
        fails.append("evaluate printed no JSON report")
        return None
    if report.get("criterion") != criterion or report.get("mode") != mode:
        fails.append(f"report is for {report.get('criterion')}/{report.get('mode')}")
    if not _close(report.get("margin"), margin, MARGIN_TOL):
        fails.append(f"margin {report.get('margin')!r} is not the oracle's {margin!r}")
    return report


class FamilySweep:
    """Visibility studies on the built-in families: sweep plus two searches."""

    name = "family-sweep"
    warmup_items = 2
    trace_items = 16
    rows_checked = 3

    def __init__(self, seed: int, workdir: Path):
        rng = np.random.default_rng([seed, 1])
        configs = [(d, m, c) for d in (2, 3) for m in ENGINE_MODES for c in CRITERIA]
        # d alternates, so any run holds as many d=2 as d=3 items, give or
        # take one; d=3 items cost about 15% more
        per_d = [[configs[k] for k in rng.permutation(4) + 4 * j] for j in (0, 1)]
        first = int(rng.integers(2))
        self.order = [per_d[(k + first) % 2][k // 2] for k in range(len(configs))]
        grid = np.linspace(0.0, 1.0, SWEEP_STEPS)
        self.refs = {}
        for d, mode, crit in configs:
            rows = sorted(int(r) for r in rng.choice(SWEEP_STEPS, self.rows_checked,
                                                     replace=False))
            self.refs[(d, mode, crit)] = [
                (r, float(grid[r]), family_reference_margin(d, float(grid[r]), mode, crit))
                for r in rows
            ]

    def __len__(self) -> int:
        return len(self.order)

    def item(self, i: int) -> Item:
        d, mode, crit = self.order[i % len(self.order)]
        ds = str(d)
        commands = (
            Command(("sweep", "--d", ds, "--steps", str(SWEEP_STEPS), "--mode", mode,
                     "--criterion", crit, "--out", SWEEP_CSV), (SWEEP_CSV,)),
            Command(("threshold", "--d", ds, "--mode", mode, "--criterion", crit)),
            Command(("threshold", "--d", ds, "--mode", "paper-closed-form",
                     "--criterion", "srur")),
        )
        refs = self.refs[(d, mode, crit)]
        window = CLOSED_FORM_WINDOWS[d]

        def check(outs: list, obs: dict) -> list:
            fails = [f"{c.argv[0]} exited {o.code}" for c, o in zip(commands, outs) if o.code]
            if fails:
                return fails
            text = outs[0].files.get(SWEEP_CSV)
            lines = text.decode().splitlines() if text is not None else []
            if len(lines) != SWEEP_STEPS + 1 or lines[0] != "p,lhs,rhs,margin,violated":
                fails.append(f"sweep CSV has {len(lines)} lines")
            else:
                for row, p, margin in refs:
                    cells = lines[row + 1].split(",")
                    if abs(float(cells[0]) - p) > 1e-12 or abs(float(cells[3]) - margin) > MARGIN_TOL:
                        fails.append(f"sweep row {row}: {lines[row + 1]} vs oracle {margin!r}")
            engine, closed = _loads(outs[1].stdout), _loads(outs[2].stdout)
            for res in (engine, closed):
                if isinstance(res, dict) and isinstance(res.get("evaluations"), int):
                    obs.setdefault("evaluations", []).append(res["evaluations"])
            if not (isinstance(engine, dict) and _close(engine.get("p_star"), GOLDEN, P_STAR_TOL)):
                fails.append(f"engine p* {engine!r} is not (sqrt(5)-1)/2")
            p_cf = closed.get("p_star") if isinstance(closed, dict) else None
            if not (isinstance(p_cf, float) and window[0] <= p_cf <= window[1]):
                fails.append(f"closed-form p* {p_cf!r} outside {window}")
            return fails

        return Item(f"d{d}-{mode}-{crit}", commands, check)


class FileStates:
    """validate-state then evaluate on seeded random bipartite state files."""

    name = "file-states"
    warmup_items = 12
    trace_items = 144
    # 24 states per d; 12 of 72 pure (1 in 6) and 9 clearly non-positive
    # (1 in 8). Pure states, and non-positive ones up to d=3, are cheaper
    # than mixed ones of their d, so most go to d=2 and to d=4's
    # non-positive share: the median item is then well inside the d=3 mixed
    # states, not at their edge, where it moves with host noise about twice
    # as much as throughput does.
    mix = {2: {"pure": 8, "nonpsd": 3, "mixed": 13},
           3: {"pure": 2, "nonpsd": 2, "mixed": 20},
           4: {"pure": 2, "nonpsd": 4, "mixed": 18}}

    def __init__(self, seed: int, workdir: Path):
        rng = np.random.default_rng([seed, 2])
        self.entries = make_file_entries("s", self.mix)
        write_file_entries(rng, self.entries, workdir)
        for e in self.entries:
            if e.valid:
                e.margins = file_reference_margins(e, workdir)
        self.order = [self.entries[k] for k in rng.permutation(len(self.entries))]

    def __len__(self) -> int:
        return len(self.order)

    def item(self, i: int) -> Item:
        e = self.order[i % len(self.order)]
        crit, mode = CRIT_MODE[i % len(CRIT_MODE)]
        commands = (
            Command(("validate-state", "--state", f"{e.name}.state.json")),
            Command(tuple(e.evaluate_argv(crit, mode))),
        )

        def check(outs: list, obs: dict) -> list:
            fails = []
            want = (0, 0) if e.valid else (1, 3)
            got = (outs[0].code, outs[1].code)
            if got != want:
                fails.append(f"exit codes {got}, expected {want}")
            if outs[0].code == 0 and outs[1].code != 0:
                fails.append("state accepted by validate-state did not evaluate")
            diag = _loads(outs[0].stdout)
            if not isinstance(diag, dict) or diag.get("valid") is not e.valid:
                fails.append(f"validate-state verdict {diag!r}")
            elif not _close(diag.get("min_eigenvalue"), e.min_eig, MIN_EIG_TOL):
                fails.append(f"min eigenvalue {diag.get('min_eigenvalue')!r} vs {e.min_eig!r}")
            if e.valid and outs[1].code == 0:
                _check_report(outs[1], e.margins[(crit, mode)], crit, mode, fails)
            return fails

        return Item(f"{e.name}-d{e.d}-{e.kind}-{e.pairing}", commands, check)


@dataclass
class FamilyEntry:
    d: int
    p: str
    margins: dict = field(default_factory=dict)


class Audit:
    """evaluate --audit: 9 in 10 file states, 1 in 10 built-in family points."""

    name = "audit"
    warmup_items = 8
    trace_items = 80
    mix = {d: {"pure": 2, "mixed": 10} for d in (2, 3, 4)}
    # family points and d=2 states are the cheap items; at 1 family item in
    # 4 they would make exactly half the pool and the median would sit in
    # the gap before the d=3 states, moving with host noise. At 1 in 10 the
    # median item is a d=3 state.
    family_points = 2  # per built-in family

    def __init__(self, seed: int, workdir: Path):
        rng = np.random.default_rng([seed, 3])
        files = make_file_entries("a", self.mix)
        write_file_entries(rng, files, workdir)
        for e in files:
            e.margins = file_reference_margins(e, workdir)
        family = []
        for d in (2, 3):
            for _ in range(self.family_points):
                entry = FamilyEntry(d, f"{rng.uniform(0.0, 1.0):.6f}")
                entry.margins = {
                    (c, m): family_reference_margin(d, float(entry.p), m, c)
                    for c, m in CRIT_MODE
                }
                family.append(entry)
        pool = files + family
        self.order = [pool[k] for k in rng.permutation(len(pool))]

    def __len__(self) -> int:
        return len(self.order)

    def item(self, i: int) -> Item:
        e = self.order[i % len(self.order)]
        crit, mode = CRIT_MODE[i % len(CRIT_MODE)]
        is_family = isinstance(e, FamilyEntry)
        if is_family:
            argv = ["evaluate", "--d", str(e.d), "--p", e.p,
                    "--criterion", crit, "--mode", mode]
            outputs = (BUNDLE, BUNDLE + ".diff.csv")
            key = f"family-d{e.d}-p{e.p}"
        else:
            argv = e.evaluate_argv(crit, mode)
            outputs = (BUNDLE,)
            key = f"{e.name}-d{e.d}-{e.kind}-{e.pairing}"
        commands = (Command(tuple(argv + ["--audit", "--out", BUNDLE]), outputs),)
        margin = e.margins[(crit, mode)]

        def check(outs: list, obs: dict) -> list:
            out = outs[0]
            if out.code != 0:
                return [f"evaluate --audit exited {out.code}"]
            fails = []
            report = _check_report(out, margin, crit, mode, fails)
            raw = out.files.get(BUNDLE)
            bundle = _loads(raw.decode()) if raw is not None else None
            if not isinstance(bundle, dict):
                return fails + ["no audit bundle"]
            diff = bundle.get("engine_oracle_max_abs_diff")
            if not (isinstance(diff, float) and diff < ORACLE_DIFF_TOL):
                fails.append(f"engine_oracle_max_abs_diff {diff!r}")
            else:
                obs["engine_max_abs_diff"] = max(obs.get("engine_max_abs_diff", 0.0), diff)
            if bundle.get("report") != report:
                fails.append("bundle report differs from stdout")
            rows = bundle.get("closed_form_diff")
            if is_family:
                csv = out.files.get(BUNDLE + ".diff.csv")
                if not isinstance(rows, list) or len(rows) != 7:
                    fails.append("closed_form_diff does not hold 7 slots")
                if csv is None or len(csv.decode().splitlines()) != 8:
                    fails.append("diff CSV does not hold 7 slots")
            elif rows is not None:
                fails.append("closed_form_diff on a file state")
            return fails

        return Item(key, commands, check)


WORKLOADS = {w.name: w for w in (FamilySweep, FileStates, Audit)}
