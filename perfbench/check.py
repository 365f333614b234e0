"""Output check of one benchmark run; a run that fails it counts as failed.

Three layers, each returning a list of problems (empty means the run passed):

* invariants at any seed: the expected files and row counts, ``trials`` equal
  to the configured count (no silent exclusions), every number finite, and
  the structural facts of each CSV;
* a statistical sanity band on the MSE sweep at any seed, so a wrong
  estimator fails whatever seed the benchmark is given;
* at the seed and config the reference was captured at, a comparison with
  ``reference/<workload>/`` under the tolerances in ``TOLERANCES``.
"""

from __future__ import annotations

import csv
import json
import math
from pathlib import Path

REFERENCE_DIR = Path(__file__).resolve().parent / "reference"

OUTPUTS = {
    "mse-sweep": ["mse_sweep.csv"],
    "wideband": ["wideband_spectra.csv", "wideband_fits.csv", "wideband_ks.csv"],
    "crlb-map": ["crlb_map.csv"],
}

# Reference tolerances per (file, column): ("exact",), ("rel", r) or
# ("abs", a), or ("absrel", a, r) meaning |x - ref| <= a + r * |ref|.
# Closed-form columns are held to a relative 1e-6, which admits another
# floating-point path (thread count, eigvalsh in place of an SVD) but no
# change of formula. Monte-Carlo columns admit an EM stopping point
# anywhere within delta_ml: running EM to delta_ml=1e-9 instead of 1e-6
# moved mse_db by up to 1.12 dB at -40 dB (seed 1), so 2 dB is allowed;
# the ref-one GMM sits 2.9-4.6 dB above EM at -80 dB and 20 dB above it at
# -60 and -40 dB, so a GMM in EM's place fails. Noise-level PCA eigenvalues
# scale with the estimator's error power (GMM in EM's place: about 2.3x), so
# they may move by half their value.
TOLERANCES = {
    ("mse_sweep.csv", "mse_db"): ("abs", 2.0),
    ("mse_sweep.csv", "crlb_db"): ("rel", 1e-6),
    ("mse_sweep.csv", "crlb_reduced_db"): ("rel", 1e-6),
    ("crlb_map.csv", "crlb_db"): ("rel", 1e-6),
    ("crlb_map.csv", "fim_condition"): ("rel", 1e-6),
    ("wideband_spectra.csv", "eigenvalue_normalized"): ("absrel", 1e-12, 0.5),
    ("wideband_fits.csv", "offset_re"): ("abs", 5e-4),
    ("wideband_fits.csv", "offset_im"): ("abs", 5e-4),
    ("wideband_fits.csv", "mag_slope"): ("abs", 1e-5),
    ("wideband_fits.csv", "phase_slope"): ("abs", 1e-5),
    ("wideband_ks.csv", "statistic"): ("abs", 0.02),
    ("wideband_ks.csv", "critical"): ("rel", 1e-9),
    # a verdict may flip only where the reference statistic lies within the
    # statistic tolerance of the critical value
    ("wideband_ks.csv", "passed"): ("ks-verdict",),
}

# EM's MSE minus the bound, in dB, over seeds 1-24 at 100 trials: -1.13 to
# +2.87 (the top end at -40 dB, where EM is biased). The band is wide enough
# that no seed trips it by chance, and EM must never be worse than the
# ref-one GMM at the same point.
EM_BAND_DB = (-3.0, 4.5)
EM_BAND_MIN_TRIALS = 100


def read_csv(path: Path) -> tuple[list[str], list[list[str]]]:
    with path.open(newline="") as fh:
        rows = list(csv.reader(fh))
    return rows[0], rows[1:]


def _columns(header, rows) -> dict[str, list[str]]:
    return {name: [r[i] for r in rows] for i, name in enumerate(header)}


def _is_number(text: str) -> bool:
    try:
        float(text)
    except ValueError:
        return False
    return True


def _finite(fname: str, header, rows) -> list[str]:
    bad = [
        f"{fname}: non-finite {header[j]} in row {i + 1}"
        for i, row in enumerate(rows)
        for j, cell in enumerate(row)
        if _is_number(cell) and not math.isfinite(float(cell))
    ]
    return bad[:5]


def _n_antennas(config: dict) -> int:
    array = config.get("array", {})
    return array.get("rows", 4) * array.get("cols", 25)


def _ref_antenna(config: dict) -> int:
    return config.get("array", {}).get("ref", 38)


def _check_mse(config, tables) -> list[str]:
    header, rows = tables["mse_sweep.csv"]
    grid = config["mse_sweep"]["n0_grid_db"]
    antennas = config["mse_sweep"]["antennas"]
    expected = [(float(n0), a, m) for n0 in grid for a in antennas for m in ("gmm", "em")]
    cols = _columns(header, rows)
    got = list(zip(map(float, cols["n0_db"]), map(int, cols["antenna"]), cols["method"]))
    problems = []
    if got != expected:
        problems.append(f"mse_sweep.csv: rows {got[:4]}... differ from the configured grid")
    if any(int(t) != config["trials"] for t in cols["trials"]):
        problems.append(f"mse_sweep.csv: trials column {sorted(set(cols['trials']))} != {config['trials']}")
    if problems or config["trials"] < EM_BAND_MIN_TRIALS:
        return problems
    mse = {key: float(v) for key, v in zip(got, cols["mse_db"])}
    bound = {key: float(v) for key, v in zip(got, cols["crlb_db"])}
    lo, hi = EM_BAND_DB
    for n0, a, method in expected:
        if method != "em":
            continue
        gap = mse[(n0, a, "em")] - bound[(n0, a, "em")]
        if not lo <= gap <= hi:
            problems.append(f"mse_sweep.csv: EM at {n0} dB antenna {a} is {gap:+.2f} dB from the bound")
        if mse[(n0, a, "em")] > mse[(n0, a, "gmm")]:
            problems.append(f"mse_sweep.csv: EM worse than GMM at {n0} dB antenna {a}")
    return problems


def _check_crlb(config, tables) -> list[str]:
    header, rows = tables["crlb_map.csv"]
    grid = config["crlb_map"]["n0_grid_db"]
    ref = _ref_antenna(config)
    antennas = [m for m in range(1, _n_antennas(config) + 1) if m != ref]
    cols = _columns(header, rows)
    got = list(zip(map(float, cols["n0_db"]), map(int, cols["antenna"])))
    if got != [(float(n0), m) for n0 in grid for m in antennas]:
        return [f"crlb_map.csv: {len(rows)} rows do not enumerate grid x non-reference antennas"]
    problems = []
    if any(float(c) < 1.0 for c in cols["fim_condition"]):
        problems.append("crlb_map.csv: fim_condition below 1")
    # more noise never lowers a bound
    bound = dict(zip(got, map(float, cols["crlb_db"])))
    order = sorted(float(n0) for n0 in grid)
    for m in antennas:
        values = [bound[(n0, m)] for n0 in order]
        if any(b < a for a, b in zip(values, values[1:])):
            problems.append(f"crlb_map.csv: bound of antenna {m} falls as noise rises")
            break
    return problems


def _check_wideband(config, tables) -> list[str]:
    wb = config["wideband"]
    n_sub, n_real = wb["n_subcarriers"], wb["realizations"]
    alpha = wb.get("ks_alpha", 0.05)
    M = _n_antennas(config)
    problems = []

    header, rows = tables["wideband_spectra.csv"]
    keep = min(10, n_real, n_sub)
    cols = _columns(header, rows)
    if list(zip(map(int, cols["antenna"]), map(int, cols["component"]))) != [
        (m, i) for m in range(1, M + 1) for i in range(1, keep + 1)
    ]:
        problems.append(f"wideband_spectra.csv: {len(rows)} rows, expected {M} antennas x {keep} components")
    else:
        for m in range(M):
            values = [float(v) for v in cols["eigenvalue_normalized"][m * keep : (m + 1) * keep]]
            if values[0] != 1.0 or any(b > a or b < 0 for a, b in zip(values, values[1:])):
                problems.append(f"wideband_spectra.csv: antenna {m + 1} spectrum not normalized and descending")
                break

    header, rows = tables["wideband_fits.csv"]
    if [int(r[0]) for r in rows] != list(range(1, M + 1)):
        problems.append(f"wideband_fits.csv: {len(rows)} rows, expected one per antenna ({M})")

    header, rows = tables["wideband_ks.csv"]
    ref = _ref_antenna(config)
    cols = _columns(header, rows)
    expected = [(m, p) for m in range(1, M + 1) if m != ref for p in ("re", "im")]
    if list(zip(map(int, cols["antenna"]), cols["part"])) != expected:
        problems.append(f"wideband_ks.csv: {len(rows)} rows, expected 2 per non-reference antenna")
    else:
        critical = math.sqrt(-0.5 * math.log(alpha / 2.0)) / math.sqrt(n_sub)
        for s, c, p in zip(cols["statistic"], cols["critical"], cols["passed"]):
            if not math.isclose(float(c), critical, rel_tol=1e-12):
                problems.append(f"wideband_ks.csv: critical {c} != {critical}")
                break
            if p != ("true" if float(s) <= float(c) else "false"):
                problems.append(f"wideband_ks.csv: verdict {p} contradicts statistic {s} vs {c}")
                break
    return problems


_STRUCTURE = {"mse-sweep": _check_mse, "crlb-map": _check_crlb, "wideband": _check_wideband}


def _within(spec, got: str, ref: str) -> bool:
    kind = spec[0]
    if kind == "exact":
        return got == ref
    x, r = float(got), float(ref)
    if kind == "rel":
        return math.isclose(x, r, rel_tol=spec[1], abs_tol=0.0)
    if kind == "abs":
        return abs(x - r) <= spec[1]
    if kind == "absrel":
        return abs(x - r) <= spec[1] + spec[2] * abs(r)
    raise ValueError(f"unknown tolerance {spec}")


def compare(fname: str, got, ref) -> list[str]:
    """Problems of one CSV against its reference, column by column."""
    (g_header, g_rows), (r_header, r_rows) = got, ref
    if g_header != r_header or len(g_rows) != len(r_rows):
        return [f"{fname}: shape {len(g_rows)}x{g_header} != reference {len(r_rows)}x{r_header}"]
    problems = []
    stat_tol = TOLERANCES.get((fname, "statistic"), ("abs", 0.0))[1]
    for j, col in enumerate(r_header):
        spec = TOLERANCES.get((fname, col), ("exact",))
        for i, (g_row, r_row) in enumerate(zip(g_rows, r_rows)):
            if spec[0] == "ks-verdict":
                ok = g_row[j] == r_row[j] or abs(
                    float(r_row[r_header.index("statistic")]) - float(r_row[r_header.index("critical")])
                ) <= stat_tol
            else:
                ok = _within(spec, g_row[j], r_row[j])
            if not ok:
                problems.append(f"{fname}: {col} row {i + 1} is {g_row[j]}, reference {r_row[j]} ({spec})")
                break
    return problems


def reference_for(config: dict) -> Path | None:
    """The reference directory captured at ``config``, if any.

    The worker count is left out of the match: by the program's determinism
    contract it never changes the outputs.
    """

    def key(cfg):
        return {k: v for k, v in cfg.items() if k != "workers"}

    for config_file in sorted(REFERENCE_DIR.glob("*/config.json")):
        if key(json.loads(config_file.read_text())) == key(config):
            return config_file.parent
    return None


def check_run(config: dict, out_dir: Path, serial_dir: Path | None = None) -> list[str]:
    """Every problem found in the outputs of one run of ``config``.

    ``serial_dir`` holds the outputs of a one-worker run of the same inputs,
    whose bytes these must equal.
    """
    names = OUTPUTS[config["experiment"]]
    manifest = out_dir / "manifest.json"
    if not manifest.is_file():
        return ["manifest.json missing"]
    listed = json.loads(manifest.read_text()).get("outputs")
    if listed != names:
        return [f"manifest lists {listed}, expected {names}"]
    missing = [n for n in names if not (out_dir / n).is_file()]
    if missing:
        return [f"missing outputs {missing}"]
    tables = {n: read_csv(out_dir / n) for n in names}
    problems = []
    for n, (header, rows) in tables.items():
        if not rows:
            problems.append(f"{n}: no rows")
        problems += _finite(n, header, rows)
    if problems:
        return problems
    problems += _STRUCTURE[config["experiment"]](config, tables)
    if serial_dir is not None:
        for n in names:
            if (out_dir / n).read_bytes() != (serial_dir / n).read_bytes():
                problems.append(f"{n}: bytes differ from the one-worker run at the same seed")
    ref_dir = reference_for(config)
    if ref_dir is not None:
        for n in names:
            problems += compare(n, tables[n], read_csv(ref_dir / n))
    return problems
