"""Exact SHA-256 fingerprints of simulation output.

Shared by the committed-fingerprint test files
(``tests/test_batch_fingerprint.py`` and
``tests/test_kernel_fingerprint.py``).  A value is encoded as canonical
text — dataclasses by their compared fields (so ``KernelStats``, which
carries wall time, never enters a fingerprint), sequences element by
element, floats exactly via ``float.hex`` — and the text is hashed.
numpy is optional: its booleans are recognised only when it imports.
"""

import dataclasses
import hashlib
import numbers

try:
    import numpy as _np
except ImportError:  # the base install runs without numpy
    _BOOLS = (bool,)
else:
    _BOOLS = (bool, _np.bool_)


def _encode(value, out):
    """Append a canonical, exact text encoding of ``value`` to ``out``:
    dataclasses by their compared fields, floats via ``float.hex``."""
    if dataclasses.is_dataclass(value):
        out.append(type(value).__name__ + "(")
        for f in dataclasses.fields(value):
            if f.compare:
                out.append(f.name + "=")
                _encode(getattr(value, f.name), out)
                out.append(",")
        out.append(")")
    elif isinstance(value, (list, tuple)):
        out.append("[")
        for item in value:
            _encode(item, out)
            out.append(",")
        out.append("]")
    elif value is None:
        out.append("N")
    elif isinstance(value, _BOOLS):
        out.append("T" if value else "F")
    elif isinstance(value, numbers.Integral):
        out.append("i%d" % int(value))
    elif isinstance(value, numbers.Real):
        out.append("f" + float(value).hex())
    elif isinstance(value, str):
        out.append(repr(value))
    else:
        raise TypeError(f"cannot fingerprint {type(value).__name__}")


def fingerprint(value) -> str:
    """SHA-256 hex digest of the canonical encoding of ``value``."""
    out = []
    _encode(value, out)
    return hashlib.sha256("".join(out).encode()).hexdigest()
