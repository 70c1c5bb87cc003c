"""Emission and detection of a single photon in a rectangular guide.

The package follows one pipeline: classify the guided eigenmodes
(``modes``), promote them to quantized field operators (``quantize``),
compute the emitter's decay rate and level shift (``emission``), and
propagate the emitted photon to a detection point where the
correlation map carries one decay rate in time and another along the
axis (``detection``). ``numerics`` holds the shared quadrature and
root-finding plumbing, ``config``/``cli``/``validate`` the command
line surface. Import each name from the module that defines it; the
package namespace holds only ``__version__``.
"""

__version__ = "0.1.0"
