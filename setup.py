"""Build script for the compiled propagation core.

The package works without the extension (a pure Python engine is selected
at import time), but the compiled core is what makes the exhaustive
verification suites fast. It is one hand-written C file, _core.c, built
against the public CPython API; tests/test_backends.py builds it with
-Wall -Werror and checks it against the pure engine.
"""

from setuptools import Extension, setup

setup(
    ext_modules=[
        Extension("powerdom._core", ["src/powerdom/_core.c"], extra_compile_args=["-O3"])
    ]
)
