"""Print one ``NPY_DISABLE_CPU_FEATURES`` value per numpy SIMD dispatch level.

numpy picks, per kernel, the highest dispatch target the CPU supports.  Line
k switches off the k-th target this CPU supports and every target above it,
so running a command once per line runs it at each lower level in turn.
The target names are read from numpy, since they differ between versions
(numpy 1.x lists single extensions such as AVX2, 2.x microarchitecture
levels such as X86_V3)::

    python scripts/numpy_dispatch_levels.py | while read -r off; do
        NPY_DISABLE_CPU_FEATURES="$off" python -m pytest ...
    done
"""

try:
    from numpy._core import _multiarray_umath as umath
except ImportError:  # numpy 1.x
    from numpy.core import _multiarray_umath as umath

targets = list(umath.__cpu_dispatch__)
for index, target in enumerate(targets):
    if umath.__cpu_features__.get(target):
        print(" ".join(targets[index:]))
