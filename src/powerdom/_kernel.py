"""Propagation backend selection.

The compiled extension is preferred when built; the pure Python engine is
the fallback. Set POWERDOM_PURE=1 to force the fallback, for debugging or
to time the pure engine on a machine where the compiled one is built.
"""

import os

from . import _pycore

try:
    from . import _core as _compiled
except ImportError:
    _compiled = None

if _compiled is not None and not os.environ.get("POWERDOM_PURE"):
    PropagationCore = _compiled.PropagationCore
    BACKEND = "compiled"
else:
    PropagationCore = _pycore.PropagationCore
    BACKEND = "pure"

