"""Build script for the optional compiled simplex kernel.

``src/homproj/_simplex.c`` is plain C (no Python or numpy headers) that
``homproj._simplex_ctypes`` loads with ctypes. The package works without it
(``homproj.lp`` falls back to the numpy kernel at import), so a failed build
only costs speed; setuptools then prints a warning and goes on.
"""

from setuptools import Extension, setup

setup(
    ext_modules=[
        Extension(
            "homproj._simplex_c",
            ["src/homproj/_simplex.c"],
            # no fused multiply-add: it would break bit parity with numpy
            extra_compile_args=["-ffp-contract=off"],
            optional=True,
        )
    ]
)
