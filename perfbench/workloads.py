"""The four workloads: inputs made from the seed, the steps of one op, checks.

An op of a CLI workload is a list of ``holonoise`` argument vectors run in
one fresh directory.  The timed run starts each step as a
``python -m holonoise.cli`` subprocess; the traced run calls
``holonoise.cli.main`` in-process.  A step's standard output is kept in
``step<i>.out`` of the op directory.  An op of ``mc-ensemble`` is one null
replica followed by one signal replica, through the public API.

Inputs depend only on the workload seed and the op index, and the program
sees nothing but the generated configs and the files it writes itself.
Each check returns ``None`` when the outputs are right and a one-line reason
otherwise.
"""

from __future__ import annotations

import hashlib
import json
import math
from pathlib import Path

WORKLOADS = ("simulate-default", "mc-ensemble", "file-roundtrip", "model-cli")

#: Seeds above this would overflow the 20 bits left for the op index.
SEED_LIMIT = 2**40

#: The README's default configuration; workloads change only n_samples and seed.
DEFAULT_CONFIG = {
    "arm_length": 40.0,
    "shot_asd": 2e-18,
    "sample_rate": 5e7,
    "n_samples": 2**22,
    "seed": 0,
    "holo_scale": 1.0,
    "segment_length": 8192,
    "overlap": 0.5,
}

ROUNDTRIP_N = 2**20
ROUNDTRIP_BAND = "0:3.7e6"

MODEL_CLI_STEPS = [
    ["constants"],
    ["info", "--length", "1.3e26"],
    ["predict", "--arm-length", "40"],
    ["slits", "--screen-distance", "1", "--sweep"],
    ["slits", "--screen-distance", "1", "--blurred"],
]

MC_N = 2**15
MC_SEGMENT = 1024
MC_SHOT_ASD = 2e-20


def op_seed(seed: int, k: int) -> int:
    """Config seed of op ``k`` in a run with workload seed ``seed``."""
    return seed << 20 | k


def sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def read_csv(path: Path) -> tuple[dict[str, str], list[list[str]]]:
    """Header ``key = value`` comments and the data rows as string fields."""
    meta, rows = {}, []
    for line in path.read_text().splitlines():
        if line.startswith("#"):
            key, sep, value = line[1:].partition("=")
            if sep:
                meta[key.strip()] = value.strip()
        else:
            rows.append(line.split(","))
    return meta, rows


def column(rows: list[list[str]], j: int) -> list[float]:
    return [float(row[j]) for row in rows]


def _write_config(op_dir: Path, n_samples: int, seed: int) -> None:
    config = dict(DEFAULT_CONFIG, n_samples=n_samples, seed=seed)
    (op_dir / "config.json").write_text(json.dumps(config))


# --- simulate-default --------------------------------------------------------

def simulate_default_steps(op_dir: Path, seed: int, k: int) -> list[list[str]]:
    # Two configs alternate, so from the third op on every op repeats a seed
    # and the determinism check has digests to compare.
    _write_config(op_dir, DEFAULT_CONFIG["n_samples"], op_seed(seed, k % 2))
    return [["simulate", "--config", "config.json", "--output-dir", "out"]]


def simulate_default_check(op_dir: Path, k: int, state: dict) -> str | None:
    import numpy as np

    out = op_dir / "out"
    digests = json.loads((out / "manifest.json").read_text())["outputs"]
    if sorted(digests) != ["report.json", "spectra.csv"]:
        return f"manifest lists {sorted(digests)}"
    for name, digest in digests.items():
        if sha256(out / name) != digest:
            return f"{name} does not match its manifest digest"
    meta, rows = read_csv(out / "spectra.csv")
    if meta.get("n_avg") != "1023":
        return f"spectra.csv n_avg is {meta.get('n_avg')}, expected 1023"
    if len(rows) != 4097:
        return f"spectra.csv has {len(rows)} rows, expected 4097"
    freqs = np.fft.rfftfreq(8192, 1.0 / DEFAULT_CONFIG["sample_rate"]).tolist()
    if column(rows, 0) != freqs:
        return "spectra.csv frequency column is not rfftfreq(8192, 1/fs)"
    if state.setdefault(k % 2, digests) != digests:
        return "a repeated seed gave different output digests"
    return None


# --- file-roundtrip ----------------------------------------------------------

def file_roundtrip_steps(op_dir: Path, seed: int, k: int) -> list[list[str]]:
    _write_config(op_dir, ROUNDTRIP_N, op_seed(seed, k))
    return [
        ["simulate", "--config", "config.json", "--dump-timeseries",
         "--band", ROUNDTRIP_BAND, "--output-dir", "out"],
        ["analyze", "--timeseries", "out/timeseries.csv", "--output", "analyzed.csv"],
        ["detect", "--estimate", "analyzed.csv", "--band", ROUNDTRIP_BAND,
         "--output", "detect.json"],
    ]


def file_roundtrip_check(op_dir: Path, k: int, state: dict) -> str | None:
    if (op_dir / "analyzed.csv").read_bytes() != (op_dir / "out" / "spectra.csv").read_bytes():
        return "analyze spectra differ from simulate's spectra.csv"
    report = json.loads((op_dir / "out" / "report.json").read_text())
    detect = json.loads((op_dir / "detect.json").read_text())
    for key in ("sigma_level", "n_avg"):
        if detect.get(key) != report.get(key):
            return f"detect {key} {detect.get(key)!r} != report.json {report.get(key)!r}"
    return None


# --- model-cli ---------------------------------------------------------------

def model_cli_steps(op_dir: Path, seed: int, k: int) -> list[list[str]]:
    return MODEL_CLI_STEPS


def model_cli_expected() -> dict:
    """What each model-cli step must print, recomputed through the public API."""
    import numpy as np

    import holonoise as hn

    model = hn.HolographicModel.from_baseline(40.0)
    lags = np.linspace(0.0, 2.0 * model.tau_c, 256)
    freqs = np.linspace(0.0, 10.0 / model.tau_c, 512)
    lam = hn.CONSTANTS.l_P
    setup = hn.SlitSetup(separation=0.0, slit_width=lam, screen_distance=1.0, wavelength=lam)
    seps, metrics = hn.separation_sweep(setup)
    return {
        "constants": hn.CONSTANTS.as_dict(),
        "ratio": hn.info_budget(1.3e26).ratio,
        "acf": [["acf", x, y] for x, y in zip(lags.tolist(), hn.autocorrelation(model, lags).tolist())],
        "psd": [["psd", x, y] for x, y in zip(freqs.tolist(), hn.psd_model(model, freqs).tolist())],
        "sweep": [seps.tolist(), metrics.tolist(), hn.transverse_uncertainty(1.0)],
        "blurred": [setup.angles().tolist(), hn.information_blurred_pattern(setup).tolist()],
    }


def model_cli_check(op_dir: Path, k: int, state: dict) -> str | None:
    want = state["expected"]
    out = [op_dir / f"step{i}.out" for i in range(len(MODEL_CLI_STEPS))]
    if json.loads(out[0].read_text()) != want["constants"]:
        return "constants differ from CONSTANTS.as_dict()"
    ratio = json.loads(out[1].read_text())["ratio"]
    if ratio != want["ratio"] or not math.isclose(ratio, 1.3e26 / want["constants"]["l_P"], rel_tol=1e-12):
        return f"info ratio {ratio!r} is not L / l_P"
    _, rows = read_csv(out[2])
    curves = [[row[0], float(row[1]), float(row[2])] for row in rows]
    if curves != want["acf"] + want["psd"]:
        return "predict rows differ from autocorrelation/psd_model (256 + 512 expected)"
    _, rows = read_csv(out[3])
    seps, metrics, bound = want["sweep"]
    if [column(rows, 0), column(rows, 1)] != [seps, metrics] or set(column(rows, 2)) != {bound}:
        return f"slits sweep differs from separation_sweep ({len(rows)} rows, 41 expected)"
    _, rows = read_csv(out[4])
    if [column(rows, 0), column(rows, 1)] != want["blurred"]:
        return "blurred slit pattern differs from information_blurred_pattern"
    return None


def initial_state(name: str) -> dict:
    """What a run's checks carry from op to op, prepared before the first op."""
    return {"expected": model_cli_expected()} if name == "model-cli" else {}


CLI_WORKLOADS = {
    "simulate-default": (simulate_default_steps, simulate_default_check),
    "file-roundtrip": (file_roundtrip_steps, file_roundtrip_check),
    "model-cli": (model_cli_steps, model_cli_check),
}


# --- mc-ensemble -------------------------------------------------------------

def mc_band() -> tuple[float, float]:
    import holonoise as hn

    return (0.0, 1.0 / hn.HolographicModel.from_baseline(DEFAULT_CONFIG["arm_length"]).tau_c)


def mc_replica(seed: int, holo_scale: float) -> float:
    """z-score of one replica: synthesize_pair -> welch_csd -> null_significance."""
    import holonoise as hn

    config = hn.ExperimentConfig(
        shot_asd=MC_SHOT_ASD, n_samples=MC_N, seed=seed,
        holo_scale=holo_scale, segment_length=MC_SEGMENT,
    )
    pair = hn.synthesize_pair(config)
    estimate = hn.welch_csd(pair, config.segment_length, config.overlap)
    return hn.null_significance(estimate, mc_band()).sigma_level


def mc_op(seed: int, k: int) -> tuple[float, float]:
    """One op: a null replica (holo_scale 0), then a signal replica."""
    return mc_replica(op_seed(seed, 2 * k), 0.0), mc_replica(op_seed(seed, 2 * k + 1), 1.0)


def mc_predicted_snr() -> float:
    import holonoise as hn

    config = hn.ExperimentConfig(
        shot_asd=MC_SHOT_ASD, n_samples=MC_N, segment_length=MC_SEGMENT,
    )
    n_avg = (MC_N - MC_SEGMENT) // (MC_SEGMENT // 2) + 1
    return hn.predicted_snr(
        config.model(), MC_SHOT_ASD, config.sample_rate, MC_SEGMENT, n_avg, mc_band(),
    )


def mc_op_check(z_null: float, z_signal: float) -> str | None:
    if not (math.isfinite(z_null) and math.isfinite(z_signal)):
        return f"non-finite z-score ({z_null!r}, {z_signal!r})"
    if z_signal <= 0.0:
        return f"signal replica z = {z_signal!r} is not positive"
    return None


def mc_ensemble_check(z_null: list[float], z_signal: list[float], predicted: float) -> str | None:
    """Null z-scores standard normal at 4 sigma; signal mean within 25% of prediction."""
    n = len(z_null)
    if n < 2 or len(z_signal) < 1:
        return "too few replicas for the ensemble check"
    mean = sum(z_null) / n
    var = sum((z - mean) ** 2 for z in z_null) / (n - 1)
    if abs(mean) > 4.0 / math.sqrt(n):
        return f"null mean z {mean:.4f} beyond 4/sqrt({n})"
    if abs(var - 1.0) > 4.0 * math.sqrt(2.0 / n):
        return f"null z variance {var:.4f} beyond 1 +- 4 sqrt(2/{n})"
    signal = sum(z_signal) / len(z_signal)
    if abs(signal - predicted) > 0.25 * predicted:
        return f"mean signal z {signal:.4f} not within 25% of predicted {predicted:.4f}"
    return None
