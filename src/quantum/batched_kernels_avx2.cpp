/**
 * @file
 * The "avx2" KernelOps table: batched_lane_kernels.hpp compiled for
 * AVX2.
 *
 * This TU is the only one compiled with -mavx2 (CMake sets the flag
 * plus REDQAOA_AVX2_BUILD when the compiler supports it) and it is
 * compiled WITHOUT -mfma on purpose: the rest of the library targets
 * baseline x86-64, where there is no FMA instruction to contract
 * a*b+c into, so scalar mul+add rounds twice. With -mfma the compiler
 * could fuse the vector mul+add here and break the bit-identity
 * contract. Do not add -mfma.
 */

#include "quantum/batched_kernels.hpp"

#if defined(REDQAOA_AVX2_BUILD) && defined(__AVX2__)

#include "quantum/batched_lane_kernels.hpp"

namespace redqaoa {
namespace batched {
namespace detail {

const KernelOps *
avx2KernelsBuild()
{
    static const KernelOps ops{"avx2", lanePhase, laneRxPairs, laneExpect};
    return &ops;
}

} // namespace detail
} // namespace batched
} // namespace redqaoa

#else // !REDQAOA_AVX2_BUILD || !__AVX2__

namespace redqaoa {
namespace batched {
namespace detail {

const KernelOps *
avx2KernelsBuild()
{
    return nullptr;
}

} // namespace detail
} // namespace batched
} // namespace redqaoa

#endif
