"""Capacitive taxel model: capacitance change to layer compression.

Each taxel is a parallel-plate capacitor whose dielectric is the soft
elastomer cover.  Compressing the cover from its nominal thickness h_n
to h_c raises the capacitance by

    delta_C = eps0 * eps_r * A * (h_n - h_c) / (h_c * h_n)

which inverts to h_c and hence to the normal surface displacement
delta_z = h_n - h_c used by the elastic models.
"""

from __future__ import annotations

from dataclasses import dataclass, fields

import numpy as np

from .errors import InvalidArgumentError, InvalidReadingError, check_finite, check_positive

VACUUM_PERMITTIVITY = 8.8541878128e-12  # F/m

READINGS_HEADER = "taxel_index,delta_c_F,timestamp_s"


@dataclass(frozen=True)
class ElastomerParams:
    """Material and sensor constants for one skin patch.

    The elastic defaults describe the silicone cover used throughout:
    E = 2.1e5 Pa, nu = 0.5 (incompressible), h_n = 2 mm.  The
    permittivity and electrode area defaults are placeholders; real
    capacitance ingestion needs calibrated values for the actual sensor.
    """

    young_modulus: float = 2.1e5
    poisson_ratio: float = 0.5
    nominal_thickness: float = 2e-3
    permittivity_vacuum: float = VACUUM_PERMITTIVITY
    permittivity_relative: float = 1.0
    taxel_area: float = 5e-5

    def __post_init__(self):
        check_finite("poisson_ratio", self.poisson_ratio)
        if not (-1.0 < self.poisson_ratio <= 0.5):
            raise InvalidArgumentError("Poisson ratio must lie in (-1, 0.5]")
        for f in fields(self):
            if f.name != "poisson_ratio":
                check_positive(f.name, getattr(self, f.name))

    @property
    def capacitance_scale(self) -> float:
        """eps0 * eps_r * A, the numerator constant of the taxel model."""
        return self.permittivity_vacuum * self.permittivity_relative * self.taxel_area


@dataclass(frozen=True)
class TaxelReading:
    """One taxel's capacitance change in farads (non-negative)."""

    taxel_index: int
    delta_c: float
    timestamp: float | None = None

    def __post_init__(self):
        object.__setattr__(self, "taxel_index", int(self.taxel_index))
        object.__setattr__(self, "delta_c", float(self.delta_c))
        if self.timestamp is not None:
            object.__setattr__(self, "timestamp", float(self.timestamp))
        if self.taxel_index < 0:
            raise InvalidArgumentError("taxel index must be non-negative")
        if not np.isfinite(self.delta_c):
            raise InvalidReadingError(
                "taxel %d: capacitance change %r is not finite"
                % (self.taxel_index, self.delta_c)
            )
        if self.delta_c < 0.0:
            raise InvalidReadingError(
                "taxel %d: negative capacitance change %g F"
                % (self.taxel_index, self.delta_c)
            )


def delta_c_from_thickness(h_c: float, params: ElastomerParams) -> float:
    """Forward taxel model: compressed thickness to capacitance change."""
    h_n = params.nominal_thickness
    if not (0.0 < h_c <= h_n):
        raise InvalidArgumentError(
            "compressed thickness must lie in (0, h_n], got %r" % h_c
        )
    return params.capacitance_scale * (h_n - h_c) / (h_c * h_n)


def _compressed_thickness(delta_c, params: ElastomerParams):
    """h_c for a capacitance change ``delta_c``, a float or an array."""
    h_n = params.nominal_thickness
    s = params.capacitance_scale
    return s * h_n / (s + delta_c * h_n)


def thickness_from_reading(reading: TaxelReading, params: ElastomerParams) -> float:
    """Invert the taxel model for the compressed cover thickness h_c."""
    return _compressed_thickness(reading.delta_c, params)


def reading_to_displacement(reading: TaxelReading, params: ElastomerParams) -> float:
    """Normal surface displacement delta_z = h_n - h_c (non-negative)."""
    return params.nominal_thickness - thickness_from_reading(reading, params)


def readings_to_displacements(readings, n_taxels: int, params: ElastomerParams) -> np.ndarray:
    """Displacement vector over taxel indices 0..n_taxels-1.

    Taxels without a reading stay at zero; duplicate indices are an error.
    Each entry is ``reading_to_displacement`` of its reading, bit for bit:
    the same IEEE operations in the same order, applied to all at once.
    """
    readings = list(readings)  # any iterable; read twice below
    keys = [r.taxel_index for r in readings]
    try:
        idx = np.array(keys, dtype=np.intp)
    except OverflowError:  # an index past intp is out of range; n_taxels stands in for it
        idx = np.array([min(k, n_taxels) for k in keys], dtype=np.intp)
    dc = np.array([r.delta_c for r in readings], dtype=float)
    # the first reading that is out of range or repeats an earlier index
    first_seen = np.zeros(len(idx), dtype=bool)
    first_seen[np.unique(idx, return_index=True)[1]] = True
    wrong = np.flatnonzero((idx >= n_taxels) | ~first_seen)
    if len(wrong):
        k = keys[wrong[0]]
        if k >= n_taxels:
            raise InvalidArgumentError(
                "reading for taxel %d but grid has %d taxels" % (k, n_taxels)
            )
        raise InvalidArgumentError("duplicate reading for taxel %d" % k)
    out = np.zeros(n_taxels)
    out[idx] = params.nominal_thickness - _compressed_thickness(dc, params)
    return out


def save_readings(readings, path) -> None:
    lines = [READINGS_HEADER]
    for r in readings:
        ts = "" if r.timestamp is None else repr(r.timestamp)
        lines.append("%d,%s,%s" % (r.taxel_index, repr(r.delta_c), ts))
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def load_readings(path, tolerant: bool = False) -> list[TaxelReading]:
    """Parse a readings file.

    Negative capacitance changes are rejected; with ``tolerant`` they are
    clamped to zero instead (drift around the resting capacitance).
    """
    with open(path) as fh:
        raw = [ln.strip() for ln in fh if ln.strip()]
    if not raw or raw[0] != READINGS_HEADER:
        raise InvalidArgumentError(
            "readings file %s: missing header %r" % (path, READINGS_HEADER)
        )
    out = []
    for ln in raw[1:]:
        parts = ln.split(",")
        if len(parts) not in (2, 3):
            raise InvalidArgumentError("readings file %s: bad record %r" % (path, ln))
        try:
            idx = int(parts[0])
            dc = float(parts[1])
            ts = None
            if len(parts) == 3 and parts[2]:
                ts = float(parts[2])
        except ValueError as exc:
            raise InvalidArgumentError(
                "readings file %s: bad record %r" % (path, ln)
            ) from exc
        if dc < 0.0 and tolerant:
            dc = 0.0
        out.append(TaxelReading(idx, dc, ts))
    return out
