/**
 * @file
 * Dual-compiled kernels: one source body, built once for baseline
 * x86-64 and once for AVX2, with the variant picked once per process.
 *
 * A kernel writes its body once as an inline function and gives it
 * two entry points: a plain one, and one marked WAVEDYN_AVX2_VARIANT,
 * which inlines the whole body under target("avx2"). Neither enables
 * FMA (target("avx2") does not imply it, and the build passes no
 * -mfma), so no multiply and add are ever fused: the wider vectors
 * only put more independent rows in one instruction. A kernel whose
 * vector lanes run across rows, each row's own operations in source
 * order, therefore returns the same bits from either entry point.
 *
 * The AVX2 variant exists only where a GNU-compatible compiler
 * targets x86 (WAVEDYN_HAVE_AVX2_VARIANT); everywhere else the
 * baseline is the one variant. No build option or environment
 * variable selects it.
 */

#ifndef WAVEDYN_UTIL_SIMD_HH
#define WAVEDYN_UTIL_SIMD_HH

#if defined(__GNUC__) && (defined(__x86_64__) || defined(__i386__))
#define WAVEDYN_HAVE_AVX2_VARIANT 1
/** The AVX2 entry point of a dual-compiled kernel: every call in it
 *  is inlined, so the whole body is compiled for AVX2. */
#define WAVEDYN_AVX2_VARIANT __attribute__((target("avx2"), flatten))
#else
#define WAVEDYN_HAVE_AVX2_VARIANT 0
#endif

namespace wavedyn
{

/** A compiled variant of a dual-compiled kernel. */
enum class SimdVariant
{
    Baseline, //!< the library's own target (SSE2 on x86-64)
    Avx2,     //!< target("avx2"), no FMA
};

/** Whether @p v runs here: Baseline always, Avx2 when it was
 *  compiled and the CPU (and OS) support AVX2. */
bool simdVariantSupported(SimdVariant v);

/** The widest supported variant, decided on the first call. */
SimdVariant bestSimdVariant();

/** "avx2" or "baseline". */
const char *simdVariantName(SimdVariant v);

} // namespace wavedyn

#endif // WAVEDYN_UTIL_SIMD_HH
