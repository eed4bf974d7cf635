import numpy as np
import pytest

from contactshape import ElastomerParams, grid_from_taxel_layout, pipeline


@pytest.fixture
def params():
    return ElastomerParams()


def triangular_module_centers():
    """Taxel centers of one triangular skin module, 3 cm side, 12 taxels.

    Three staggered rows of 5, 4, and 3 taxels packed inside the
    triangle; coordinates in meters.
    """
    side = 0.03
    pitch = side / 6.0
    rows = [(5, 0.0), (4, 1.0), (3, 2.0)]
    pts = []
    for count, level in rows:
        y = 0.004 + level * pitch
        x0 = -0.5 * (count - 1) * pitch
        for i in range(count):
            pts.append((x0 + i * pitch, y))
    return np.array(pts)


@pytest.fixture
def module_grid():
    return grid_from_taxel_layout(triangular_module_centers(), (0.004) ** 2)


@pytest.fixture(autouse=True)
def empty_memory_tier():
    """Each test starts with no solve state held in memory, so one test's
    entries cannot serve another's cache dir."""
    pipeline.memory_tier.clear()
