"""Build script for the compiled propagation core.

The package works without the extension (a pure Python engine is selected
at import time), but the compiled core is what makes the exhaustive
verification suites fast. With Cython the core is built from _core.pyx;
without it, from the committed _core.c, which tests/test_backends.py keeps
in step with the .pyx.
"""

from setuptools import Extension, setup

try:
    from Cython.Build import cythonize
except ImportError:
    ext_modules = [
        Extension("powerdom._core", ["src/powerdom/_core.c"], extra_compile_args=["-O3"])
    ]
else:
    ext_modules = cythonize(
        [Extension("powerdom._core", ["src/powerdom/_core.pyx"], extra_compile_args=["-O3"])],
        compiler_directives={"language_level": "3"},
    )

setup(ext_modules=ext_modules)
