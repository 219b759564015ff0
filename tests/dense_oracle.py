"""Dense state-vector oracle for the monomial bucket-brigade simulator.

A gate acts as a dense unitary on its tensor factors of the full register
state of two-level modes, 2^n_modes amplitudes. The tests compare the
route-map simulator in ``qram_bounds.qram`` against it amplitude by
amplitude, so it shares none of that simulator's code.
"""
from __future__ import annotations

import numpy as np

MAX_MODES = 14  # state dimension 2^14


def apply_unitary(state: np.ndarray, U: np.ndarray, modes, n_modes: int) -> np.ndarray:
    """Apply the unitary U, acting on ``modes`` in that order, to the state
    of an ``n_modes`` register (mode 0 is the most significant bit)."""
    modes = [int(m) for m in modes]
    k = len(modes)
    psi = np.asarray(state, dtype=complex).reshape((2,) * n_modes)
    T = np.asarray(U).reshape((2,) * (2 * k))
    psi = np.tensordot(T, psi, axes=(list(range(k, 2 * k)), modes))
    # tensordot moved the acted-on axes to the front; put them back
    return np.moveaxis(psi, list(range(k)), modes).reshape(-1)


def dense_state(result) -> np.ndarray:
    """The state vector of a ``QueryResult``'s basis rows and amplitudes."""
    n_modes = result.bits.shape[1]
    if n_modes > MAX_MODES:
        raise ValueError(f"register of {n_modes} modes exceeds the "
                         f"{MAX_MODES}-mode cap")
    state = np.zeros(1 << n_modes, dtype=complex)
    state[result.bits @ (1 << np.arange(n_modes)[::-1])] = result.amplitudes
    return state
