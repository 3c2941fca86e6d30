"""lindosc — Gaussian dynamics of the damped quantum harmonic oscillator.

Exact moment propagation for a Lindblad-damped oscillator coupled to a
thermal bath, density-matrix and Wigner-function evaluation, decoherence and
classical-correlation metrics with their time scales, and two independent
numerical oracles (a fixed-step moment integrator and a phase-space
finite-difference solver) that cross-check every closed form.

The package exports the names each library module lists in its
``__all__``, and no others.
"""

from . import classicality, config_io, decoherence, fpe, model, propagate, states, sweep

__version__ = "0.1.0"

_MODULES = (model, propagate, states, classicality, decoherence, fpe, config_io, sweep)
globals().update({name: getattr(m, name) for m in _MODULES for name in m.__all__})
__all__ = sorted(name for m in _MODULES for name in m.__all__)
