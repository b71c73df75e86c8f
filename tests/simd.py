"""The SIMD class of the loop numpy runs for float64 exp here.

numpy's AVX-512 exp and log1p loops (its X86_V4 target) round some
results differently from its AVX2 (X86_V3) and baseline loops, which
agree with each other.  A test that pins bytes through np.exp or
np.log1p keeps one golden per class and picks it with by_dispatch;
test_dispatch.py reruns those tests with AVX-512 dispatch turned off,
so that both classes are checked on an AVX-512 host.
"""

try:
    from numpy.lib.introspect import opt_func_info
except ImportError:  # numpy < 2.0 cannot say which loop it runs
    opt_func_info = None


def exp_target() -> str:
    """The target numpy dispatches float64 exp to here, e.g. "X86_V4"."""
    if opt_func_info is None:
        return "unknown"
    loops = opt_func_info(func_name="^exp$", signature="float64")["exp"]
    return next(iter(loops.values()))["current"]


AVX512 = exp_target().startswith(("X86_V4", "AVX512"))


def by_dispatch(avx512, other):
    """avx512 where numpy runs its AVX-512 exp loop here, else other."""
    return avx512 if AVX512 else other
