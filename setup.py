"""Build script.

The package works as pure Python; the optional extension module
``motzkinrank._kernels`` compiles three hot loops (series convolution and
the two elimination routines) with Cython; the path-counting DP is pure
Python on both backends.
Set MOTZKINRANK_NO_EXT=1 to skip building the extension entirely.
"""

import os

from setuptools import Extension, setup

ext_modules = []
if not os.environ.get("MOTZKINRANK_NO_EXT"):
    try:
        from Cython.Build import cythonize
    except ImportError:
        cythonize = None
    if cythonize is not None:
        ext_modules = cythonize(
            [Extension("motzkinrank._kernels", ["src/motzkinrank/_kernels.pyx"])],
            compiler_directives={"language_level": "3"},
        )

setup(ext_modules=ext_modules)
