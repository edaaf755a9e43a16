"""The numpy build a seed pin was recorded on, next to the running one.

The pinned files under ``data/`` hold exact floats, and those can change
with the numpy version or the BLAS/LAPACK build.  Each file names its
build under ``"platform"``; the pin tests quote it when they fail.
"""

import numpy as np


def running_platform() -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"numpy": np.__version__,
            "blas": f"{blas.get('name')} {blas.get('version')}"}


def build_note(pinned: dict) -> str:
    return (f"pinned on {pinned['platform']}, "
            f"running on {running_platform()}")
