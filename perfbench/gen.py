"""Seeded inputs for the benchmark workloads.

Every case is a market curve, a method parameter set and (where the
command needs one) a liability cash flow, written to plain CSV files the
CLI reads. The *structure* of a run's case list is fixed -- which case
has which node count, curve shape, file header, liability style and
shift-suite size -- so that the amount of work per run does not depend
on the seed; the seed draws the numbers (node placement, rate levels,
tau/kappa placement, amounts, shift-suite seed). Case 0 of every run is
the bundled sample data, so the default seed always covers it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

#: ``sample_data/curve.csv`` and ``sample_data/liabilities.csv``, copied so
#: the benchmark needs no file outside its own directory
SAMPLE_CURVE = (
    (0.5, 0.0210), (1.0, 0.0222), (2.0, 0.0239), (3.0, 0.0252), (5.0, 0.0270),
    (7.0, 0.0282), (10.0, 0.0294), (12.0, 0.0300), (15.0, 0.0306), (20.0, 0.0312),
)
SAMPLE_LUMPS = ((15.0, 1.0), (25.0, 0.8), (40.0, 0.6), (60.0, 0.4))
SAMPLE_DENSITIES = ((12.0, 30.0, 0.05),)

#: node ladder the generated curves pick their interior nodes from
_LADDER = (1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0, 9.0, 10.0, 11.0, 12.0, 14.0,
           15.0, 17.0, 20.0, 22.0, 25.0, 27.0)
_LAST_NODE = 30.0
SHAPES = ("upward", "flat", "inverted")
HEADERS = ("zero_yield", "forward")


@dataclass
class Case:
    """One generated input set; ``files`` maps a role to a written path."""

    name: str
    curve_header: str
    curve_rows: list
    tau: float
    kappa: float
    ufr: float
    alpha: float
    offset: float
    lumps: list = field(default_factory=list)
    densities: list = field(default_factory=list)
    shifts: int = 2
    shift_seed: int = 0
    files: dict = field(default_factory=dict)

    def spec(self, kind: str, calibrate: bool = False) -> dict:
        """Method spec JSON for one of the seven kinds on this case."""
        out = {"kind": kind, "tau": self.tau, "offset": self.offset}
        if kind in ("M1", "M3", "M5_SFSA", "M6_SW_continuous", "M6_SW_discrete"):
            out["ufr"] = self.ufr
        if kind == "M5_SFSA":
            out["kappa"] = self.kappa
        if kind.startswith("M6"):
            if calibrate:
                out["kappa"] = self.kappa
                out["epsilon"] = 1e-4
            else:
                out["alpha"] = self.alpha
        return out

    def write(self, directory: Path):
        directory.mkdir(parents=True, exist_ok=True)
        curve = directory / f"{self.name}-curve.csv"
        lines = [f"t,{self.curve_header}"] + [f"{t!r},{v!r}" for t, v in self.curve_rows]
        curve.write_text("\n".join(lines) + "\n")
        self.files["curve"] = str(curve)
        if self.lumps or self.densities:
            liab = directory / f"{self.name}-liabilities.csv"
            rows = [f"lump,{t!r},{a!r}" for t, a in self.lumps]
            rows += [f"density,{a!r},{b!r},{r!r}" for a, b, r in self.densities]
            liab.write_text("\n".join(rows) + "\n")
            self.files["liabilities"] = str(liab)


def _shape_forward(shape: str, t, level: float, amp: float):
    t = np.asarray(t, dtype=float)
    if shape == "upward":
        return level + amp * (1.0 - np.exp(-t / 4.0))
    if shape == "inverted":
        return level + amp * np.exp(-t / 4.0)
    return np.full_like(t, level)


def _curve(rng, n_nodes: int, shape: str, header: str):
    """Curve rows with positive forwards; returns (rows, max forward)."""
    interior = np.sort(rng.choice(_LADDER, size=n_nodes - 2, replace=False))
    first = float(rng.choice((0.25, 0.5)))
    times = np.concatenate(([first], interior, [_LAST_NODE]))
    level = float(rng.uniform(0.01, 0.03))
    amp = float(rng.uniform(0.004, 0.012))
    if header == "forward":
        values = _shape_forward(shape, times, level, amp)
        return [(float(t), float(v)) for t, v in zip(times, values)], float(values.max())
    # piecewise-constant forwards, written as the zero yields they imply
    nodes = np.concatenate(([0.0], times))
    fwd = _shape_forward(shape, 0.5 * (nodes[:-1] + nodes[1:]), level, amp)
    cum = np.cumsum(fwd * np.diff(nodes))
    return [(float(t), float(c / t)) for t, c in zip(times, cum)], float(fwd.max())


def _liabilities(rng, tau: float, kappa: float, density_years: float, inside: bool):
    """Lumps and (when ``density_years`` is positive) one density segment.

    One lump lies in (tau, kappa] and the others beyond kappa, so the
    number of pieces the M5 hedge is cut into is the same for every seed.
    With ``inside`` the density starts 1 to 1.5 years after tau and ends
    by kappa, so the M5 plan carries a symbolic roll-down density.
    Otherwise it starts 1 to 1.5 years before the last market node:
    shifted curves carry the shifts' half-year grid only up to there, so
    the number of panels its integrals are split into is nearly the same
    for every seed.
    """
    ranges = ((tau + 1.0, tau + 5.0), (kappa + 2.0, kappa + 15.0),
              (kappa + 25.0, kappa + 45.0), (kappa + 50.0, kappa + 80.0))
    lumps = [
        (round(float(rng.uniform(lo, hi)), 3), round(float(rng.uniform(0.2, 1.0)), 4))
        for lo, hi in ranges
    ]
    dens = []
    if density_years > 0.0:
        start = float(rng.uniform(1.0, 1.5))
        a = round(tau + start if inside else _LAST_NODE - start, 3)
        dens.append((a, round(a + density_years, 3), round(float(rng.uniform(0.02, 0.08)), 4)))
    return lumps, dens


def sample_case(shifts: int = 1) -> Case:
    return Case(
        name="sample",
        curve_header="zero_yield",
        curve_rows=list(SAMPLE_CURVE),
        tau=10.0,
        kappa=20.0,
        ufr=0.042,
        alpha=0.1,
        offset=0.0,
        lumps=list(SAMPLE_LUMPS),
        densities=list(SAMPLE_DENSITIES),
        shifts=shifts,
        shift_seed=7,
    )


def generated_case(rng, index: int, density_years: float = 8.0) -> Case:
    """Case ``index`` of a run; its structure follows from ``index`` alone.

    Node count, curve shape, file header, offset on/off, shift-suite size
    and the tau-to-kappa span are fixed by the index; the seed draws node
    placement, rate levels, tau, amounts and the shift-suite seed.
    Liabilities are lumps only for every third case; of the others, one
    in two has its density inside (tau, kappa] and one beyond kappa.
    """
    n_nodes = (6, 9, 12, 15)[index % 4]
    shape = SHAPES[index % 3]
    header = HEADERS[index % 2]
    rows, fmax = _curve(rng, n_nodes, shape, header)
    tau = round(float(rng.uniform(8.0, 12.0)) * 4.0) / 4.0
    kappa = tau + (10.0, 12.0, 14.0)[index % 3]
    offset = 0.0 if index % 2 == 0 else round(float(rng.uniform(-0.002, 0.002)), 5)
    lumps, dens = _liabilities(rng, tau, kappa, 0.0 if index % 3 == 1 else density_years,
                               inside=index % 3 == 2)
    return Case(
        name=f"case{index}",
        curve_header=header,
        curve_rows=rows,
        tau=tau,
        kappa=kappa,
        ufr=round(fmax + abs(offset) + float(rng.uniform(0.004, 0.01)), 5),
        alpha=round(float(rng.uniform(0.1, 0.3)), 4),
        offset=offset,
        lumps=lumps,
        densities=dens,
        shifts=1 + index % 2,
        shift_seed=int(rng.integers(0, 2**31 - 1)),
    )
