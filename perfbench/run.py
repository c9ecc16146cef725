#!/usr/bin/env python3
"""sdofkit benchmark: construct-then-verify draws, Monte-Carlo trials and
cold ``sdof`` commands.

Run from the repository root::

    python3 perfbench/run.py --workload construct_verify --seed 1 --seconds 30 --trace 0

Each workload is a closed loop with one caller: the next operation starts
when the previous one has returned.  Everything runs in this process,
except that ``cli_cold`` starts one fresh ``sdof`` process per command, one
after another.  BLAS is pinned to one thread here and in every child,
before NumPy loads, and no worker pool is used.

A run repeats passes until ``--seconds`` have gone by.  Every pass runs
the same operations on fresh random inputs: one Gaussian draw per (config,
target) for ``construct_verify``, five Monte-Carlo sweeps for
``montecarlo_los``, the four subcommands for ``cli_cold``.  Times are
reported at a nominal machine speed, measured by a probe that runs between
chunks of the workload (see ``speed.py``); the report line gives the
measured speed.

``--trace 0`` prints the end-to-end metrics, measured with tracing off.
``--trace 1`` alternates untraced and traced passes (their ratio is
``trace.overhead_frac``) and prints the per-layer metrics, taken from the
traced passes by wrapping the public functions of the package from
outside (see ``tracing.py``).  Every traced run ends with a traced round
of in-process ``cli.main`` calls, which gives ``serialize.self_ms_per_op``
and times any function that the workload itself never calls, and times
``import sdofkit.cli`` under ``python -X importtime``.

The last line of standard output is the result.  The line before it is a
JSON report: environment, failures by class, sample counts and the
figures behind each metric.
"""

from __future__ import annotations

import os

BLAS_THREAD_VARS = (
    "OPENBLAS_NUM_THREADS",
    "OMP_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)
for _var in BLAS_THREAD_VARS:  # before anything can load NumPy
    os.environ[_var] = "1"
# children load cached bytecode of the package, as an installed copy does
os.environ.pop("PYTHONDONTWRITEBYTECODE", None)

import argparse  # noqa: E402
import io  # noqa: E402
import itertools  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from collections import Counter  # noqa: E402
from contextlib import redirect_stdout  # noqa: E402
from importlib import metadata  # noqa: E402
from pathlib import Path  # noqa: E402
from time import perf_counter  # noqa: E402

import numpy as np  # noqa: E402

from speed import SpeedProbe  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
os.environ["PYTHONPATH"] = os.pathsep.join(
    [str(SRC)] + ([os.environ["PYTHONPATH"]] if os.environ.get("PYTHONPATH") else [])
)
sys.path.insert(0, str(SRC))

WORKLOADS = ("construct_verify", "montecarlo_los", "cli_cold")

# Set-up is repeated in fresh processes and reported as the median, at the
# machine speed measured over all repeats.
SETUP_REPEATS = 5
IMPORT_REPEATS = 3

# construct_verify: the acceptance criterion-4 traffic.
CV_POWER = 10.0
CV_WARMUP_DRAWS = 20
CV_CHUNK = 50  # draws between speed-probe samples
CV_MAX_FLAG_FRAC = 0.001  # criterion 4: at least 99.9 % of draws exact

# montecarlo_los: the acceptance criterion-6 scenario.
MC_ANTENNAS = (4, 2, 4, 2, 4)
MC_TARGET = (1, 1)
MC_DISTANCES = (350.0, 300.0, 250.0, 200.0, 150.0, 100.0, 50.0, 20.0, 10.0)
MC_TRIALS = 20  # per distance and sweep
MC_SWEEPS = 5  # per pass
MC_REFERENCE = HERE / "reference_montecarlo.json"

# cli_cold: the four subcommands, one fresh process each.
CLI_ANTENNAS = "6,6,5,4,5"
CLI_TARGET = (2, 4)
CLI_STRICT_BOUNDARY = [[3, 3], [2, 4]]  # acceptance criterion 1
CLI_SIM_DISTANCES = (100.0, 20.0)
CLI_SIM_TRIALS = 10
CLI_ENTRY = "import sys; from sdofkit.cli import main; sys.exit(main())"
CLI_TRACE_ROUNDS = 2  # in-process rounds that end every traced run

END_TO_END_UNITS = {
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "ok_frac": "frac",
    "ops_per_s": "1/s",
    "op_p50_ms": "ms",
}

PER_LAYER_UNITS = {
    "matcore.calls_per_op": "calls/op",
    "matcore.self_us_per_op": "us/op",
    "matcore.gsvd.p50_us": "us",
    "matcore.rank_tol.p50_us": "us",
    "lapack.calls_per_op": "calls/op",
    "lapack.svd.p50_us": "us",
    "lapack.cossin.p50_us": "us",
    "region.calls_per_op": "calls/op",
    "region.self_us_per_op": "us/op",
    "precoder.construct.p50_us": "us",
    "precoder.self_us_per_op": "us/op",
    "precoder.full_rank.p50_us": "us",
    "verifier.sdof_of.p50_us": "us",
    "verifier.rates.p50_us": "us",
    "chansim.draw_trial.p50_us": "us",
    "chansim.self_us_per_op": "us/op",
    "serialize.self_ms_per_op": "ms/op",
    "import.sdofkit_ms": "ms",
    "import.scipy_ms": "ms",
    "import.jsonschema_ms": "ms",
    "trace.overhead_frac": "frac",
}

# per-layer p50 metric -> traced function
P50_KEYS = {
    "matcore.gsvd.p50_us": "matcore.gsvd",
    "matcore.rank_tol.p50_us": "matcore.rank_tol",
    "lapack.svd.p50_us": "lapack.svd",
    "lapack.cossin.p50_us": "lapack.cossin",
    "precoder.construct.p50_us": "precoder.construct",
    "precoder.full_rank.p50_us": "precoder.ChannelSet.full_rank",
    "verifier.sdof_of.p50_us": "verifier.sdof_of",
    "verifier.rates.p50_us": "verifier.rates",
    "chansim.draw_trial.p50_us": "chansim.draw_trial",
}


class Tally:
    """Operations attempted, failures by class, and failed output checks."""

    def __init__(self):
        self.attempted = 0
        self.failures: Counter = Counter()
        self.problems: Counter = Counter()

    def fail(self, cls: str, count: int = 1, *, problem: bool = True) -> None:
        self.failures[cls] += count
        if problem:
            self.problems[cls] += count

    @property
    def failed(self) -> int:
        return sum(self.failures.values())


def _import_sdofkit():
    import sdofkit

    # an installed copy must not stand in for the source under test
    if Path(sdofkit.__file__).resolve().parent != SRC / "sdofkit":
        raise ImportError(f"sdofkit imported from {sdofkit.__file__}, not from {SRC}")
    return sdofkit


def _seed(*parts: int) -> int:
    """A 32-bit seed derived from the benchmark seed and a position."""
    return int(np.random.SeedSequence(list(parts)).generate_state(1)[0])


# ---------------------------------------------------------------------------
# construct_verify


def cv_traffic():
    """Every antenna config in {1..4}^5 with every strict-boundary point,
    config-major as in acceptance criterion 4."""
    from sdofkit import region
    from sdofkit.region import AntennaConfig

    traffic = []
    for tup in itertools.product(range(1, 5), repeat=5):
        cfg = AntennaConfig(*tup)
        traffic.extend((cfg, target) for target in region.boundary(cfg).strict)
    return traffic


def _probe_after(times: list[float], n: int, probe: SpeedProbe | None) -> None:
    """Sample the machine's speed after the last ``n`` operations."""
    if probe is not None and n:
        probe.after(sum(times[-n:]))


def cv_pass(traffic, rng, tally: Tally, probe: SpeedProbe | None = None) -> list[float]:
    """One Gaussian draw per (config, target): construct, then check that
    the achieved pair is the target.  Returns each draw's seconds."""
    from sdofkit import chansim, precoder, verifier
    from sdofkit.errors import SdofError

    times = []
    for cfg, target in traffic:
        tally.attempted += 1
        t0 = perf_counter()
        try:
            ch = chansim.gaussian_channels(cfg, rng)
            pair = precoder.construct(ch, target, power=CV_POWER)
            achieved = verifier.sdof_of(ch, pair)
        except (SdofError, ValueError) as exc:
            # a degenerate draw; criterion 4 allows a small share of them
            tally.fail(type(exc).__name__, problem=False)
            achieved = None
        times.append(perf_counter() - t0)
        if achieved is not None and tuple(achieved) != tuple(target):
            tally.fail("WrongSdof")
        if len(times) % CV_CHUNK == 0:
            _probe_after(times, CV_CHUNK, probe)
    _probe_after(times, len(times) % CV_CHUNK, probe)
    return times


def cv_flag_check(tally: Tally) -> None:
    flagged = sum(n for cls, n in tally.failures.items() if cls not in tally.problems)
    if flagged > CV_MAX_FLAG_FRAC * tally.attempted:
        tally.problems["TooManyFlaggedDraws"] += 1


# ---------------------------------------------------------------------------
# montecarlo_los


def mc_scenario(seed: int, trials: int):
    from sdofkit.chansim import Geometry, Scenario, Sweep
    from sdofkit.region import AntennaConfig

    return Scenario(
        config=AntennaConfig(*MC_ANTENNAS),
        geometry=Geometry(s1=(MC_DISTANCES[0], 0.0), s2=(0.0, 0.0), ring_radius=10.0),
        noise_power_dbm=-60.0,
        power_dbm=0.0,
        trials=trials,
        seed=seed,
        sweep=Sweep("s1_s2_distance", MC_DISTANCES),
    )


def _spearman(x, y) -> float:
    rx = np.argsort(np.argsort(x))
    ry = np.argsort(np.argsort(y))
    return float(np.corrcoef(rx, ry)[0, 1])


def mc_trend_check(records, tally: Tally) -> None:
    """Criterion 6's signs: the confidential rate rises and the public
    rate falls as the sources approach."""
    xs = [rec.x for rec in records]
    rho1 = _spearman(xs, [rec.stats.mean_rs1 for rec in records])
    rho2 = _spearman(xs, [rec.stats.mean_rs2 for rec in records])
    if not rho1 < 0 < rho2:
        tally.problems["SpearmanSign"] += 1


def mc_pass(seed: int, index: int, tally: Tally, probe: SpeedProbe | None = None) -> list[float]:
    """MC_SWEEPS ``monte_carlo`` calls; trials are the operations.  Returns
    each sweep's seconds."""
    from sdofkit import chansim
    from sdofkit.errors import SdofError

    times = []
    for sweep in range(MC_SWEEPS):
        scenario = mc_scenario(_seed(seed, index, sweep), MC_TRIALS)
        trials = MC_TRIALS * len(MC_DISTANCES)
        tally.attempted += trials
        t0 = perf_counter()
        try:
            records = chansim.monte_carlo(scenario, MC_TARGET)
        except (SdofError, ValueError) as exc:
            records = None
            tally.fail(type(exc).__name__, trials)
        times.append(perf_counter() - t0)
        _probe_after(times, 1, probe)
        if records is None:
            continue
        # run_point drops DegenerateDraw and ConstructionDeficit trials from
        # its averages and counts them together
        lost = sum(rec.stats.failures for rec in records)
        if lost:
            tally.fail("DegenerateDraw|ConstructionDeficit", lost, problem=False)
        mc_trend_check(records, tally)
    return times


def mc_reference_records(target=MC_TARGET):
    from sdofkit import chansim

    ref = json.loads(MC_REFERENCE.read_text())
    return chansim.monte_carlo(mc_scenario(ref["seed"], ref["trials"]), target)


def mc_reference_check(records) -> str | None:
    """Compare curve records with the committed reference; returns the
    first mismatch, or None."""
    ref = json.loads(MC_REFERENCE.read_text())
    tol = ref["tolerance_bits"]
    if len(records) != len(ref["points"]):
        return f"{len(records)} points, reference has {len(ref['points'])}"
    for rec, point in zip(records, ref["points"]):
        st = rec.stats
        if rec.x != point["x"] or st.failures != point["failures"] or st.trials != point["trials"]:
            return f"point x={rec.x}: failures or trials differ from the reference"
        for field in ("mean_rs1", "se_rs1", "mean_rs2", "se_rs2"):
            if not abs(getattr(st, field) - point[field]) <= tol:
                return f"point x={rec.x}: {field} {getattr(st, field)!r} vs {point[field]!r}"
    return None


# ---------------------------------------------------------------------------
# cli_cold


def cli_commands(work: Path, seed: int) -> list[tuple[str, list[str]]]:
    """The four subcommands, writing the scenario file they need."""
    bundle, scenario = work / "bundle.json", work / "scenario.json"
    scenario.write_text(json.dumps({
        "antennas": dict(zip(("ns1", "ns2", "nd1", "nd2", "ne"), MC_ANTENNAS)),
        "target": list(MC_TARGET),
        "geometry": {"s1": [CLI_SIM_DISTANCES[0], 0.0], "s2": [0.0, 0.0], "ring_radius": 10.0},
        "noise_power_dbm": -60.0,
        "power_dbm": 0.0,
        "trials": CLI_SIM_TRIALS,
        "seed": seed,
        "sweep": {"variable": "s1_s2_distance", "values": list(CLI_SIM_DISTANCES)},
    }))
    return [
        ("region", ["region", "--antennas", CLI_ANTENNAS]),
        ("construct", ["construct", "--antennas", CLI_ANTENNAS,
                       "--target", ",".join(map(str, CLI_TARGET)),
                       "--seed", str(seed), "--out", str(bundle)]),
        ("verify", ["verify", "--channels", str(bundle), "--precoder", str(bundle)]),
        ("simulate", ["simulate", "--scenario", str(scenario), "--out", str(work / "curve.csv")]),
    ]


def cli_check(kind: str, returncode: int, stdout: str, target=CLI_TARGET) -> str | None:
    """Failure class of one command's result, or None when it is right."""
    if returncode != 0:
        return f"Exit{returncode}"
    try:
        doc = json.loads(stdout)
    except json.JSONDecodeError:
        return "BadJson"
    if doc.get("status") != "ok":
        return "StatusNotOk"
    if kind == "region" and doc["strict_boundary"] != CLI_STRICT_BOUNDARY:
        return "WrongRegion"
    if kind in ("construct", "verify") and doc["sdof"] != list(target):
        return "WrongSdof"
    if kind == "simulate" and (
        [rec["x"] for rec in doc["records"]] != list(CLI_SIM_DISTANCES)
        or any(rec["failures"] for rec in doc["records"])
    ):
        return "WrongCurve"
    return None


def cli_cold_command(argv: list[str], work: Path) -> tuple[int, str, float, float]:
    """Run one fresh ``sdof`` process; returns (exit code, stdout, wall
    seconds, peak RSS in MB)."""
    out_path = work / "stdout.txt"
    with open(out_path, "w") as out, open(work / "stderr.txt", "w") as err:
        t0 = perf_counter()
        proc = subprocess.Popen([sys.executable, "-c", CLI_ENTRY, *argv],
                                stdout=out, stderr=err, cwd=ROOT)
        _, status, usage = os.wait4(proc.pid, 0)
        wall = perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, out_path.read_text(), wall, usage.ru_maxrss / 1024.0


def cli_cold_pass(work: Path, seed: int, tally: Tally, rss_mb: list[float],
                  probe: SpeedProbe | None = None) -> list[float]:
    """One fresh process per subcommand; returns each command's seconds."""
    times = []
    for kind, argv in cli_commands(work, seed):
        tally.attempted += 1
        rc, out, wall, rss = cli_cold_command(argv, work)
        times.append(wall)
        _probe_after(times, 1, probe)
        rss_mb.append(rss)
        cls = cli_check(kind, rc, out)
        if cls is not None:
            tally.fail(cls)
    return times


def cli_in_process_pass(work: Path, seed: int, tally: Tally,
                        probe: SpeedProbe | None = None) -> list[float]:
    """The same subcommands through ``cli.main`` in this process."""
    from sdofkit import cli

    times = []
    for kind, argv in cli_commands(work, seed):
        tally.attempted += 1
        buf = io.StringIO()
        t0 = perf_counter()
        with redirect_stdout(buf):
            rc = cli.main(argv)
        times.append(perf_counter() - t0)
        _probe_after(times, 1, probe)
        cls = cli_check(kind, rc, buf.getvalue())
        if cls is not None:
            tally.fail(cls)
    return times


# ---------------------------------------------------------------------------
# set-up


def work_dir() -> Path:
    work = ROOT / ".bench_work" / str(os.getpid())
    work.mkdir(parents=True, exist_ok=True)
    return work


def remove_work_dir(work: Path) -> None:
    shutil.rmtree(work, ignore_errors=True)
    try:
        work.parent.rmdir()
    except OSError:  # another run's directory is still there
        pass


def setup(workload: str, seed: int, work: Path):
    """Everything a run needs before its first timed operation."""
    if workload == "cli_cold":
        # one untimed command compiles and caches the package's bytecode
        kind, argv = cli_commands(work, seed)[0]
        rc, out, _, _ = cli_cold_command(argv, work)
        if cli_check(kind, rc, out) is not None:
            raise RuntimeError(f"sdof {kind} failed during set-up: {out!r}")
        return None
    _import_sdofkit()
    if workload == "construct_verify":
        traffic = cv_traffic()
        cv_pass(traffic[:CV_WARMUP_DRAWS], np.random.default_rng(_seed(seed, 2**31)), Tally())
        return traffic
    json.loads(MC_REFERENCE.read_text())  # fail before timing if it is missing
    return None


def _child(argv: list[str], probe: SpeedProbe) -> tuple[subprocess.CompletedProcess, float]:
    """Run a child Python process, then sample the machine's speed; returns
    the process and its wall seconds."""
    t0 = perf_counter()
    proc = subprocess.run([sys.executable, *argv], capture_output=True, text=True, cwd=ROOT)
    wall = perf_counter() - t0
    probe.after(wall)
    return proc, wall


def measure_setup(workload: str, seed: int, probe: SpeedProbe) -> list[float]:
    """Seconds of each set-up in a fresh process."""
    times = []
    for _ in range(SETUP_REPEATS):
        proc, wall = _child([str(Path(__file__).resolve()), "--setup-only",
                             "--workload", workload, "--seed", str(seed)], probe)
        if proc.returncode != 0:
            raise RuntimeError(f"set-up failed (exit {proc.returncode}):\n{proc.stderr}")
        times.append(wall)
    return times


def _pass_runner(workload: str, seed: int, work: Path, prepared, tally: Tally,
                 probe: SpeedProbe, rss_mb: list | None):
    """(pass function of the pass index, operations per returned time).
    The pass function returns its times at the nominal machine speed.
    With ``rss_mb`` None, ``cli_cold`` runs its commands in process."""
    def run_pass(i: int) -> list[float]:
        if workload == "construct_verify":
            return cv_pass(prepared, np.random.default_rng(_seed(seed, i)), tally, probe)
        if workload == "montecarlo_los":
            return mc_pass(seed, i, tally, probe)
        if rss_mb is None:
            return cli_in_process_pass(work, _seed(seed, i), tally, probe)
        return cli_cold_pass(work, _seed(seed, i), tally, rss_mb, probe)

    def at_nominal_speed(i: int) -> list[float]:
        mark = probe.mark()
        times = run_pass(i)
        speed = probe.speed(mark)
        return [t * speed for t in times]

    ops_per_time = MC_TRIALS * len(MC_DISTANCES) if workload == "montecarlo_los" else 1
    return at_nominal_speed, ops_per_time


# ---------------------------------------------------------------------------
# untraced runs: end-to-end metrics


def run_end_to_end(workload: str, seed: int, seconds: float, work: Path, report: dict):
    setup_probe = SpeedProbe()
    setup_times = measure_setup(workload, seed, setup_probe)
    prepared = setup(workload, seed, work)
    tally = Tally()
    if workload == "montecarlo_los":
        mismatch = mc_reference_check(mc_reference_records())
        if mismatch is not None:
            tally.problems["ReferenceMismatch"] += 1
            report["reference_mismatch"] = mismatch
    probe = SpeedProbe()
    rss_mb: list[float] = []
    one_pass, ops_per_time = _pass_runner(workload, seed, work, prepared, tally, probe, rss_mb)

    times = []
    t_start = perf_counter()
    for index in itertools.count():
        times.extend(one_pass(index))
        if perf_counter() - t_start >= seconds:
            break
    if workload == "construct_verify":
        cv_flag_check(tally)
    times = np.asarray(times)

    # raw figures are the reported ones times (rates) or over (times) speed
    report.update({
        "passes": index + 1,
        "timed_samples": len(times),
        "speed": probe.speed(),
        "setup_speed": setup_probe.speed(),
        "setup_samples_s": setup_times,
    })
    if workload == "construct_verify":
        report["draw_p99_ms"] = float(np.percentile(times, 99)) * 1e3
    if workload == "cli_cold":
        report["cold_p50_ms"] = {
            kind: float(np.median(times[i::4])) * 1e3
            for i, kind in enumerate(("region", "construct", "verify", "simulate"))
        }
    metrics = {
        "setup_s": statistics.median(setup_times) * setup_probe.speed(),
        "peak_rss_mb": (max(rss_mb) if rss_mb
                        else resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0),
        "ok_frac": (tally.attempted - tally.failed) / tally.attempted,
        "ops_per_s": len(times) * ops_per_time / float(times.sum()),
        "op_p50_ms": float(np.median(times)) / ops_per_time * 1e3,
    }
    return tally, metrics, END_TO_END_UNITS


# ---------------------------------------------------------------------------
# traced runs: per-layer metrics


def import_breakdown() -> dict[str, float]:
    """Import time of the package and its two heaviest dependencies, in
    fresh processes, at the nominal machine speed."""
    from tracing import import_cumulative_ms

    probe = SpeedProbe()
    samples: dict[str, list[float]] = {"sdofkit": [], "scipy": [], "jsonschema": []}
    for _ in range(IMPORT_REPEATS):
        proc, _ = _child(["-X", "importtime", "-c", "import sdofkit.cli"], probe)
        if proc.returncode != 0:
            raise RuntimeError(f"import sdofkit.cli failed:\n{proc.stderr}")
        for package, values in samples.items():
            values.append(import_cumulative_ms(proc.stderr, package))
    speed = probe.speed()
    return {f"import.{package}_ms": statistics.median(v) * speed for package, v in samples.items()}


def run_traced(workload: str, seed: int, seconds: float, work: Path, report: dict):
    from tracing import Tracer, installed

    prepared = setup(workload, seed, work)
    _import_sdofkit()
    tally = Tally()
    traced = Tracer()
    probes = {False: SpeedProbe(), True: SpeedProbe()}
    runners = {flag: _pass_runner(workload, seed, work, prepared, tally, probes[flag], None)[0]
               for flag in (False, True)}
    busy = {False: 0.0, True: 0.0}  # nominal-speed seconds per kind of pass
    ops = 0
    lapack_per_pass = set()

    # untraced and traced passes alternate, so drift hits both alike
    t_start = perf_counter()
    for index in itertools.count():
        before = tally.attempted
        busy[False] += sum(runners[False](index))
        lapack_before = traced.calls["lapack"]
        with installed(traced):
            busy[True] += sum(runners[True](index))
        lapack_per_pass.add(traced.calls["lapack"] - lapack_before)
        ops += (tally.attempted - before) // 2
        if perf_counter() - t_start >= seconds:
            break
    if workload == "construct_verify":
        cv_flag_check(tally)
    if tally.failed == 0 and len(lapack_per_pass) != 1:
        tally.problems["LapackCountVaries"] += 1
    report["lapack_calls_per_pass"] = sorted(lapack_per_pass)

    # traced times are scaled to the nominal machine speed
    speed = probes[True].speed()
    if workload == "cli_cold":
        cli_traced, cli_ops, cli_speed = traced, ops, speed
    else:
        cli_traced, cli_tally, cli_probe = Tracer(), Tally(), SpeedProbe()
        with installed(cli_traced):
            for index in range(CLI_TRACE_ROUNDS):
                cli_in_process_pass(work, _seed(seed, index), cli_tally, cli_probe)
        cli_ops, cli_speed = cli_tally.attempted, cli_probe.speed()
        for cls, n in cli_tally.failures.items():
            tally.fail(f"cli_round:{cls}", n)

    metrics = {}
    for layer in ("matcore", "lapack", "region"):
        metrics[f"{layer}.calls_per_op"] = traced.calls[layer] / ops
    for layer in ("matcore", "region", "precoder", "chansim"):
        metrics[f"{layer}.self_us_per_op"] = traced.self_s[layer] / ops * 1e6 * speed
    timed_on_cli_round = []
    for name, key in P50_KEYS.items():
        if traced.p50_us(key) is not None:
            metrics[name] = traced.p50_us(key) * speed
        elif cli_traced.p50_us(key) is not None:
            metrics[name] = cli_traced.p50_us(key) * cli_speed
            timed_on_cli_round.append(name)
        else:
            raise RuntimeError(f"no traced call of {key}")
    metrics["serialize.self_ms_per_op"] = (
        cli_traced.self_s["serialize"] / cli_ops * 1e3 * cli_speed
    )
    metrics.update(import_breakdown())
    metrics["trace.overhead_frac"] = busy[True] / busy[False] - 1.0

    report["traced_ops"] = ops
    report["speed"] = {"untraced": probes[False].speed(), "traced": speed}
    report["timed_on_cli_round"] = timed_on_cli_round
    report["exceptions_in_layers"] = dict(traced.raised)
    report["calls_per_op_by_layer"] = {k: v / ops for k, v in sorted(traced.calls.items())}
    return tally, {name: metrics[name] for name in PER_LAYER_UNITS}, PER_LAYER_UNITS


# ---------------------------------------------------------------------------


def environment() -> dict:
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as fh:
            models = [ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")]
        cpu = models[0] if models else cpu
    except OSError:
        pass
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": metadata.version("scipy"),
        "jsonschema": metadata.version("jsonschema"),
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_thread_vars": {var: os.environ[var] for var in BLAS_THREAD_VARS},
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="sdofkit benchmark")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be non-negative and --seconds positive")

    work = work_dir()
    try:
        if args.setup_only:
            setup(args.workload, args.seed, work)
            return 0
        report = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
                  "loadavg_start": os.getloadavg()}
        run = run_traced if args.trace else run_end_to_end
        tally, metrics, units = run(args.workload, args.seed, args.seconds, work, report)
        report["loadavg_end"] = os.getloadavg()
        report["environment"] = environment()
        report["failures_by_class"] = dict(tally.failures)
        report["failed_checks"] = dict(tally.problems)
    finally:
        remove_work_dir(work)

    print(json.dumps({"report": report}))
    print(json.dumps({
        "correct": not tally.problems,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
