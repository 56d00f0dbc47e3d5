"""Problems the test modules share; they import it as they import selection_grid."""

import numpy as np

from nrqae.model import amplitude_problem


def plane_problem(delta):
    """Two real states separated by the angle delta."""
    psi = np.array([1.0, 0.0])
    phi = np.array([np.cos(delta), np.sin(delta)])
    return amplitude_problem(psi, phi)
