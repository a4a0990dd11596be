"""Correlation-based record classification.

Two models of the same idea: a linear one, where hidden taste and feature
vectors generate an opinion table whose row correlations predict unseen
entries, and a nonlinear one, where random probes measure sequences and
the correlation of their match scores recovers k-mer overlap.  A sweep
harness measures how well the recovery works as the geometry varies.
"""

from . import analysis, fasta, opinions, rng, sequences, sweep
from .analysis import *
from .fasta import *
from .opinions import *
from .rng import *
from .sequences import *
from .sweep import *

__version__ = "0.1.0"

__all__ = ["__version__"]
__all__ += analysis.__all__
__all__ += fasta.__all__
__all__ += opinions.__all__
__all__ += rng.__all__
__all__ += sequences.__all__
__all__ += sweep.__all__
