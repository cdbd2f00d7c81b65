"""The OpenBLAS kernel (core type) this interpreter's numpy runs, as its
bundled OpenBLAS in numpy.libs names it through ctypes.  Run as a script,
print it, or nothing where no library there has a corename symbol.

    python tests/openblas_kernel.py                              # SkylakeX, say
    OPENBLAS_CORETYPE=Haswell python tests/openblas_kernel.py    # Haswell
"""

import ctypes
import glob
import os

import numpy


def openblas_kernel():
    """The kernel name, or None where no bundled OpenBLAS reports one."""
    libs = os.path.join(os.path.dirname(os.path.dirname(numpy.__file__)), "numpy.libs")
    for path in sorted(glob.glob(os.path.join(libs, "*openblas*"))):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_corename64_", "openblas_get_corename64_"):
            if hasattr(lib, symbol):
                corename = getattr(lib, symbol)
                corename.argtypes, corename.restype = [], ctypes.c_char_p
                return corename().decode()
    return None


if __name__ == "__main__":
    if (name := openblas_kernel()) is not None:
        print(name)
