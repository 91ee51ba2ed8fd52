"""Per-gate reference executor for circuit programs (test oracle).

Walks the gate list one kernel per gate, with the phase offset applied
as a last pass.  The compiled :class:`sawtoothsim.circuit.CircuitEngine`
must agree with it to rounding level.  It shares no kernel with the
package.
"""

import math

import numpy as np

from sawtoothsim.circuit import CPHASE, HADAMARD, PHASE1


def _qubit_views(amps, n_q, t):
    m = amps.shape[0]
    return amps.reshape(m, 1 << (n_q - 1 - t), 2, 1 << t)


def _apply_h_tilted(amps, n_q, t, nu1, nu2):
    """Pi rotation about the tilted axis, batched over members.

    Matrix [[cos th, sin th e^{-i phi}], [sin th e^{i phi}, -cos th]]
    with th = pi/4 + nu1, phi = nu2; nu arrays have length members.
    """
    th = math.pi / 4.0 + nu1
    c = np.cos(th)[:, None, None]
    s = np.sin(th)
    ep = (s * np.exp(1j * nu2))[:, None, None]
    em = (s * np.exp(-1j * nu2))[:, None, None]
    v = _qubit_views(amps, n_q, t)
    a = v[:, :, 0, :].copy()
    b = v[:, :, 1, :]
    v[:, :, 0, :] = c * a + em * b
    v[:, :, 1, :] = ep * a - c * b


def _cp_views(amps, n_q, qa, qb):
    m = amps.shape[0]
    hi, lo = max(qa, qb), min(qa, qb)
    return amps.reshape(m, 1 << (n_q - 1 - hi), 2, 1 << (hi - lo - 1), 2, 1 << lo)


def _apply_cp_noisy(amps, n_q, control, target, angle, eps):
    """Ideal controlled-phase followed by sector dephasing.

    eps has shape (members, 4); sectors are labelled by the
    (control bit, target bit) pair as 00, 01, 10, 11, with the drawn
    phase eps[:, 3] joining the ideal angle on the 11 sector.
    """
    v = _cp_views(amps, n_q, control, target)
    hi = max(control, target)
    ph = np.exp(1j * eps)

    def sector(bc, bt):
        bh, bl = (bc, bt) if control == hi else (bt, bc)
        return v[:, :, bh, :, bl, :]

    sector(0, 0)[...] *= ph[:, 0, None, None, None]
    sector(0, 1)[...] *= ph[:, 1, None, None, None]
    sector(1, 0)[...] *= ph[:, 2, None, None, None]
    sector(1, 1)[...] *= (np.exp(1j * angle) * ph[:, 3])[:, None, None, None]


def _apply_p1_noisy(amps, n_q, t, angle, eps):
    """Phase gate with independent dephasing on both of its sectors."""
    v = _qubit_views(amps, n_q, t)
    v[:, :, 0, :] *= np.exp(1j * eps[:, 0])[:, None, None]
    v[:, :, 1, :] *= np.exp(1j * (angle + eps[:, 1]))[:, None, None]


def reference_step(program, amps, params):
    """One program step on ``amps`` (members, N), gate by gate, in place.

    params: (members, noisy_gate_count, 4) in program gate order.
    """
    n_q = program.n_q
    for gi, g in enumerate(program.gates):
        if g.kind == HADAMARD:
            _apply_h_tilted(amps, n_q, g.target,
                            params[:, gi, 0], params[:, gi, 1])
        elif g.kind == CPHASE:
            _apply_cp_noisy(amps, n_q, g.control, g.target, g.angle,
                            params[:, gi, :])
        elif g.kind == PHASE1:
            _apply_p1_noisy(amps, n_q, g.target, g.angle, params[:, gi, :])
    amps *= np.exp(1j * program.phase_offset)
    return amps
