"""Capacitive taxel model: capacitance change to layer compression.

Each taxel is a parallel-plate capacitor whose dielectric is the soft
elastomer cover.  Compressing the cover from its nominal thickness h_n
to h_c raises the capacitance by

    delta_C = eps0 * eps_r * A * (h_n - h_c) / (h_c * h_n)

which inverts to h_c and hence to the normal surface displacement
delta_z = h_n - h_c used by the elastic models.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass, fields

import numpy as np

from .errors import InvalidArgumentError, InvalidReadingError
from .errors import check_count, check_finite, check_positive
from .grid import read_records

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
        check_count("taxel index", self.taxel_index)
        dc = self.delta_c
        if isinstance(dc, bool) or not isinstance(dc, numbers.Real):
            raise InvalidArgumentError("capacitance change must be a number, got %r" % (dc,))
        if self.timestamp is not None:
            check_finite("timestamp", self.timestamp)
            object.__setattr__(self, "timestamp", float(self.timestamp))
        object.__setattr__(self, "taxel_index", int(self.taxel_index))
        object.__setattr__(self, "delta_c", float(dc))
        if not np.isfinite(self.delta_c):
            raise InvalidReadingError(
                "taxel %d: capacitance change %r is not finite" % (self.taxel_index, self.delta_c)
            )
        if self.delta_c < 0.0:
            raise InvalidReadingError(
                "taxel %d: negative capacitance change %g F" % (self.taxel_index, self.delta_c)
            )


def delta_c_from_thickness(h_c: float, params: ElastomerParams) -> float:
    """Forward taxel model: compressed thickness to capacitance change."""
    check_finite("compressed thickness", h_c)
    h_n = params.nominal_thickness
    if not (0.0 < h_c <= h_n):
        raise InvalidArgumentError("compressed thickness must lie in (0, h_n], got %r" % h_c)
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
    Each reading's index and capacitance change are read once.  The
    indices are checked in linear time, without sorting: each marks its
    taxel in the output, so an index out of range fails to mark and a
    repeated one marks fewer taxels than there are readings.  Only when
    that check fails are the readings scanned again, to name the first
    that is out of range or repeats an index.
    """
    check_count("n_taxels", n_taxels)
    readings = list(readings)  # any iterable; scanned again only to name a bad reading
    n = len(readings)
    out = np.zeros(n_taxels)
    try:
        idx = np.fromiter([r.taxel_index for r in readings], np.intp, n)
        out[idx] = 1.0
    except (OverflowError, IndexError):  # an index past intp, or past n_taxels
        idx = None
    if idx is None or np.count_nonzero(out) < n:
        seen = set()  # name the first reading out of range or repeating an index
        for r in readings:
            k = r.taxel_index
            if k >= n_taxels:
                raise InvalidArgumentError(
                    "reading for taxel %d but grid has %d taxels" % (k, n_taxels)
                )
            if k in seen:
                raise InvalidArgumentError("duplicate reading for taxel %d" % k)
            seen.add(k)
    dc = np.fromiter([r.delta_c for r in readings], float, n)
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

    def parse(f):
        dc = float(f[1])
        ts = float(f[2]) if len(f) == 3 and f[2] else None
        return TaxelReading(int(f[0]), 0.0 if dc < 0.0 and tolerant else dc, ts)

    return read_records(path, "readings", READINGS_HEADER, ",", (2, 3), parse)
