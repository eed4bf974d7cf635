"""Seeded input generation: probe trajectories, readings, frames and files.

Everything here runs outside the timed regions.  The same seed gives the
same inputs; the program under test only receives what these functions
return (readings, displacement vectors, grid layouts and files).
"""

from __future__ import annotations

import numpy as np

from contactshape import pipeline

GRID_HEADER = "index,center_x_m,center_y_m,half_extent_a_m,half_extent_b_m"

# Share of the frame's peak displacement used as the noise deviation.
NOISE_REL = 1e-3


def lattice_centers(n: int, pitch: float) -> np.ndarray:
    """Centers of an n-by-n lattice centered on the origin, x fastest."""
    c = (np.arange(n) - 0.5 * (n - 1)) * pitch
    xx, yy = np.meshgrid(c, c)
    return np.column_stack([xx.ravel(), yy.ravel()])


def trajectory_specs(rng, half_width: float, n_traj: int, frames: int):
    """Probe specs for press, slide and release strokes.

    Each stroke presses a probe up to its peak force at one point
    (a quarter of the frames), slides it 2 to 6 mm at that force (half),
    and releases it (a quarter), so consecutive frames share most of
    their contact area.
    """
    specs = []
    n_ramp = frames // 4
    n_slide = frames - 2 * n_ramp
    for _ in range(n_traj):
        shape = str(rng.choice(("hemisphere", "cylinder")))
        diameter = rng.uniform(6e-3, 12e-3)
        reach = half_width - 0.5 * diameter
        start = rng.uniform(-reach, reach, 2)
        angle = rng.uniform(0.0, 2.0 * np.pi)
        step = rng.uniform(2e-3, 6e-3) * np.array([np.cos(angle), np.sin(angle)])
        end = np.clip(start + step, -reach, reach)
        peak = rng.uniform(0.5, 2.5)
        ramp = np.linspace(0.2, 1.0, n_ramp)
        for s in ramp:
            specs.append(pipeline.IndenterSpec(shape, diameter, tuple(start), s * peak))
        for t in np.linspace(0.0, 1.0, n_slide):
            c = (1.0 - t) * start + t * end
            specs.append(pipeline.IndenterSpec(shape, diameter, tuple(c), peak))
        for s in ramp[::-1]:
            specs.append(pipeline.IndenterSpec(shape, diameter, tuple(end), s * peak))
    return specs


def pressures(specs, tract_grid) -> np.ndarray:
    """(frames, cells) probe pressures on the contact grid."""
    return np.array([pipeline.synth_contact(s, tract_grid).values for s in specs])


def delta_c_raw(d: np.ndarray, params) -> np.ndarray:
    """Capacitance change of each taxel for displacements d (may be < 0).

    Far-field effective displacements are negative, which gives negative
    capacitance changes; the parallel-plate model is applied as is.
    """
    h_n = params.nominal_thickness
    return params.capacitance_scale * d / ((h_n - d) * h_n)


def displacement_of(delta_c: np.ndarray, params) -> np.ndarray:
    """Taxel model inverse: displacement for a capacitance change."""
    h_n = params.nominal_thickness
    s = params.capacitance_scale
    return h_n - s * h_n / (s + delta_c * h_n)


def noisy_frames(rng, C: np.ndarray, loads: np.ndarray) -> np.ndarray:
    """Displacement frames C q plus Gaussian noise of NOISE_REL of each peak."""
    d = loads @ C.T
    sigma = NOISE_REL * np.max(np.abs(d), axis=1, keepdims=True)
    return d + sigma * rng.standard_normal(d.shape)


def write_grid_file(path, centers: np.ndarray, half: float) -> None:
    lines = [GRID_HEADER]
    for i, (x, y) in enumerate(centers):
        lines.append("%d,%r,%r,%r,%r" % (i, float(x), float(y), half, half))
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def write_field_file(path, centers: np.ndarray, values: np.ndarray) -> None:
    """Plot-data field file: one ``x y value`` record per cell."""
    lines = ["%r %r %r" % (float(x), float(y), float(v)) for (x, y), v in zip(centers, values)]
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")

