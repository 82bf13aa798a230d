"""A compiled program pickles to bytes that do not depend on what the
process compiled before it.

A reservation table holds only its sorted cells and its length, both set
when it is built, and pickles by value, so neither the machine nor the
op-class tables a compiled program reaches carry per-process state.
Each count runs in a fresh interpreter with a fixed hash seed.
"""

import os
import pathlib
import subprocess
import sys

SRC = pathlib.Path(__file__).resolve().parent.parent / "src"

_SCRIPT = """
import hashlib, pickle, sys
from repro import WARP, CompilerPolicy
from repro.batch.driver import compile_one
from repro.workloads import LIVERMORE_KERNELS, generate_suite

for program in generate_suite(7, int(sys.argv[1])):
    assert compile_one(program.name, program.source, WARP, CompilerPolicy()).ok
kernel = LIVERMORE_KERNELS[1]
result = compile_one("livermore1", kernel.source, WARP, CompilerPolicy())
data = pickle.dumps(result.compiled)
print(len(data), hashlib.sha256(data).hexdigest())
"""


def _pickled_after(count: int) -> tuple[int, str]:
    env = dict(os.environ, PYTHONPATH=str(SRC), PYTHONHASHSEED="0")
    out = subprocess.run(
        [sys.executable, "-c", _SCRIPT, str(count)],
        env=env, capture_output=True, text=True, timeout=300, check=True,
    ).stdout.split()
    return int(out[0]), out[1]


def test_pickle_bytes_do_not_depend_on_process_history():
    assert _pickled_after(0) == _pickled_after(50)
