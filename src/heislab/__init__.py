"""Numerical operator-theory laboratory for sub-Laplacian harmonic analysis.

The package provides five layers that build on each other:

* :mod:`heislab.schatten` - singular value analytics and trace approximants,
* :mod:`heislab.oscillator` - the truncated harmonic oscillator model and the
  two-component fiber algebra,
* :mod:`heislab.doi` - finite dimensional double operator integrals and the
  commutator correction symbols built from them,
* :mod:`heislab.plancherel` - node quadrature of the Plancherel measure,
  radial trace integrals and weak-norm closed forms,
* :mod:`heislab.grid` - a finite difference model of the first Heisenberg
  group with Riesz transforms and Sobolev diagnostics.

:mod:`heislab.experiments` combines these into end-to-end experiments and
:mod:`heislab.cli` exposes them as the ``lab`` command line tool.
"""

__version__ = "0.1.0"

__all__ = [
    "schatten",
    "oscillator",
    "doi",
    "plancherel",
    "grid",
    "experiments",
    "cli",
]
