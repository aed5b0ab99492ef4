"""Argument checks shared by every module.

Counts are integers (numpy integers too, bools not) from a least value on,
scales are positive and finite numbers (strings are not numbers), fractions
lie in (0, 1].  Each check returns the value as an int or float, or raises
a ValueError naming the argument.  fits_in_memory checks the size of the
arrays an argument asks for, before they are allocated.
"""

import functools
import math
import os
import sys


def integer(n, name: str, least: int = 1) -> int:
    if not isinstance(n, int) or isinstance(n, bool):
        # no numpy integer can exist before numpy is loaded, so this imports nothing
        np = sys.modules.get("numpy")
        if np is None or not isinstance(n, np.integer):
            raise ValueError(f"expected an integer {name}, got {n!r}")
    if n < least:
        raise ValueError(f"{name} must be >= {least}, got {n}")
    return int(n)


def _number(x, name: str) -> float:
    """x as a float; a string is not a number, even one that float() parses."""
    if not isinstance(x, (str, bytes)):
        try:
            return float(x)
        except (TypeError, ValueError):
            pass
    raise ValueError(f"{name} must be a number, got {x!r}")


def finite(x, name: str) -> float:
    x = _number(x, name)
    if not math.isfinite(x):
        raise ValueError(f"{name} must be finite, got {x}")
    return x


def positive(x, name: str) -> float:
    """NaN reads as not positive, inf as not finite."""
    x = _number(x, name)
    if not x > 0.0:
        raise ValueError(f"{name} must be positive, got {x}")
    return finite(x, name)


def non_negative(x, name: str) -> float:
    """NaN reads as not finite."""
    x = _number(x, name)
    if x < 0.0:
        raise ValueError(f"{name} must be non-negative, got {x}")
    return finite(x, name)


def fraction(x, name: str) -> float:
    x = _number(x, name)
    if not 0.0 < x <= 1.0:
        raise ValueError(f"{name} must be in (0, 1], got {x}")
    return x


@functools.cache
def _physical_memory() -> int | None:
    """Bytes of physical memory, or None where os.sysconf cannot tell."""
    try:
        return os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
    except (AttributeError, OSError, ValueError):
        return None


def fits_in_memory(nbytes: int, what: str) -> None:
    """A ValueError naming what, unless its arrays of nbytes fit in physical memory."""
    memory = _physical_memory()
    if memory is not None and nbytes > memory:
        raise ValueError(
            f"{what} needs about {nbytes / 2**30:.3g} GiB for its arrays, "
            f"more than the {memory / 2**30:.3g} GiB of physical memory"
        )
