#include "util/simd.hh"

namespace wavedyn
{

bool
simdVariantSupported(SimdVariant v)
{
    if (v == SimdVariant::Baseline)
        return true;
#if WAVEDYN_HAVE_AVX2_VARIANT
    // The cpu model also checks that the OS saves the YMM state; init
    // makes the answer valid even during static initialisation.
    __builtin_cpu_init();
    return __builtin_cpu_supports("avx2");
#else
    return false;
#endif
}

SimdVariant
bestSimdVariant()
{
    static const SimdVariant best =
        simdVariantSupported(SimdVariant::Avx2) ? SimdVariant::Avx2
                                                : SimdVariant::Baseline;
    return best;
}

const char *
simdVariantName(SimdVariant v)
{
    return v == SimdVariant::Avx2 ? "avx2" : "baseline";
}

} // namespace wavedyn
