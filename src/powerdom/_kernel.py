"""Propagation backend selection.

The compiled extension is preferred when built; the pure Python engine is
the fallback. Both follow the contract in _pycore.
"""

from . import _pycore

try:
    from . import _core as _compiled
except ImportError:
    _compiled = None

if _compiled is not None:
    PropagationCore = _compiled.PropagationCore
    BACKEND = "compiled"
else:
    PropagationCore = _pycore.PropagationCore
    BACKEND = "pure"
