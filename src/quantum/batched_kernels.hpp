/**
 * @file
 * Lane-level kernels behind BatchedStateSet, with runtime SIMD dispatch.
 *
 * A batched state set holds kBatchLanes statevectors in struct-of-arrays
 * form: for amplitude index i, the lanes' real parts occupy
 * re[i * kBatchLanes .. i * kBatchLanes + kBatchLanes) and the imaginary
 * parts mirror them in im[]. Every kernel below performs, per lane,
 * EXACTLY the arithmetic the scalar Statevector kernels perform on one
 * state — same operations, same order, no fused multiply-add — so a
 * batched sweep is bit-identical to running the lanes one at a time.
 *
 * The kernels have one source, batched_lane_kernels.hpp, written with
 * GCC/Clang vector types and compiled for two ISAs:
 *  - scalar: the baseline-target build (batched_state.cpp), always
 *    available; the compiler lowers each 4-double vector to the
 *    widest vectors the baseline target has;
 *  - avx2: the same source built with -mavx2 in its own TU
 *    (batched_kernels_avx2.cpp), deliberately WITHOUT -mfma: the rest
 *    of the library targets baseline x86-64 where the compiler cannot
 *    contract a*b+c into fma(a,b,c), and the bit-identity contract
 *    requires the SIMD lanes to round exactly like the scalar path.
 *
 * Selection: activeKernels() picks avx2 when it was compiled in and the
 * CPU reports support, else scalar. forceKernels() lets tests and
 * benchmarks pin a specific table mid-process.
 */

#ifndef REDQAOA_QUANTUM_BATCHED_KERNELS_HPP
#define REDQAOA_QUANTUM_BATCHED_KERNELS_HPP

#include <cstddef>
#include <cstdint>

namespace redqaoa {
namespace batched {

/** Statevectors advanced per batched sweep (two AVX2 vectors wide). */
constexpr int kBatchLanes = 8;

/**
 * One kernel implementation. All ranges are amplitude indices (the
 * lane dimension is implicit: every amplitude is kBatchLanes doubles
 * in each plane). Phase tables arrive lane-major too: entry
 * (code, lane) lives at p[code * kBatchLanes + lane].
 */
struct KernelOps
{
    const char *name; //!< "scalar" or "avx2" (bench / stats labels).

    /** amps[i] *= phases[codes[i]] per lane, for i in [begin, end). */
    void (*phase)(double *re, double *im, const std::int32_t *codes,
                  std::size_t begin, std::size_t end, const double *pre,
                  const double *pim);

    /**
     * RX butterflies over flat pair indices [pair_begin, pair_end):
     * pair p addresses amplitudes i = ((p & ~(step-1)) << 1) | (p &
     * (step-1)) and i + step, exactly like the scalar rxPass walk.
     * c / s are the per-lane cos/sin of the half angle.
     */
    void (*rxPairs)(double *re, double *im, std::size_t pair_begin,
                    std::size_t pair_end, std::size_t step,
                    const double *c, const double *s);

    /**
     * acc[lane] += sum over i in [begin, end) of |amp_i|^2 * codes[i],
     * accumulated in ascending i exactly like the scalar
     * expectationFromCodes loop (norm first, then the code product,
     * then the running-sum add).
     */
    void (*expect)(const double *re, const double *im,
                   const std::int32_t *codes, std::size_t begin,
                   std::size_t end, double *acc);
};

/** The baseline-ISA build of the lane kernels (always available). */
const KernelOps &scalarKernels();

/**
 * The AVX2 implementation, or nullptr when it was not compiled in
 * (configure-time -mavx2 probe failed / REDQAOA_ENABLE_AVX2=OFF) or
 * the running CPU lacks AVX2.
 */
const KernelOps *avx2Kernels();

/** The implementation batched sweeps use (see file comment). */
const KernelOps &activeKernels();

/**
 * Pin the active implementation (test/bench hook; not thread-safe
 * against concurrent sweeps). nullptr restores automatic selection.
 */
void forceKernels(const KernelOps *ops);

namespace detail {

/** Raw AVX2 table: non-null iff the TU was built with -mavx2. */
const KernelOps *avx2KernelsBuild();

} // namespace detail

} // namespace batched
} // namespace redqaoa

#endif // REDQAOA_QUANTUM_BATCHED_KERNELS_HPP
