"""Density-matrix simulator and audit toolkit for gauge cooling on a single
SU(2) lattice plaquette.

The package is organized bottom-up:

- ``su2``         : representation primitives (spin matrices, Clebsch-Gordan,
                    Wigner D, spherical tensors)
- ``lattice``     : plaquette geometry, the 5^4 Wigner-basis Hilbert space,
                    gauge generators, vertex Clebsch-Gordan bases and
                    singlet projectors
- ``hamiltonian`` : electric and magnetic Kogut-Susskind Hamiltonians
- ``dynamics``    : Trotter stepping, depolarizing / amplitude-damping noise,
                    fidelity against the ideal trajectory
- ``cooling``     : syndrome probabilities, recovery channels, vertex
                    cooling sweeps and convergence reports
- ``reference``   : the oracle layer outside the run path: dense syndrome,
                    recovery and gauge-action operators, Kraus-sum edge
                    channels, the Monte Carlo Haar oracle and the ``check``
                    suites
- ``klaudit``     : single coordination-4 vertex error-detection and
                    Knill-Laflamme analysis
- ``tdesign``     : unitary t-design verification and the truncated group
                    Fourier transform
- ``cli``         : command-line front end
"""

__version__ = "0.1.0"
