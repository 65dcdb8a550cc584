/**
 * @file
 * The one source of the BatchedStateSet lane kernels (the KernelOps
 * entries of batched_kernels.hpp), written with GCC/Clang vector
 * types. Exactly two translation units include it, each compiling it
 * for its own ISA: batched_state.cpp (baseline target; the "scalar"
 * table) and batched_kernels_avx2.cpp (-mavx2; the "avx2" table).
 * Everything here has internal linkage so that each TU keeps its own
 * copy; external linkage would let the linker merge the two ISAs'
 * copies into one.
 *
 * An 8-lane plane row is two 4-double vectors. Vector +, - and * are
 * elementwise IEEE operations with one rounding each, so every lane
 * performs exactly the scalar Statevector arithmetic, and the avx2 TU
 * is built without -mfma so nothing contracts into fma. Vectors are
 * never passed or returned by value: that would make the calling
 * convention depend on the ISA (-Wpsabi).
 */

#ifndef REDQAOA_QUANTUM_BATCHED_LANE_KERNELS_HPP
#define REDQAOA_QUANTUM_BATCHED_LANE_KERNELS_HPP

#include <cstddef>
#include <cstdint>

#include "quantum/batched_kernels.hpp"

namespace redqaoa {
namespace batched {
namespace {

static_assert(kBatchLanes == 8, "a lane row is two 4-double vectors");

/**
 * Four lanes of a plane row. aligned(8): rows start at any double;
 * may_alias: the planes are plain double arrays.
 */
typedef double Vec
    __attribute__((vector_size(32), aligned(8), may_alias));

Vec *
row(double *plane, std::size_t i)
{
    return reinterpret_cast<Vec *>(plane + i * kBatchLanes);
}

const Vec *
row(const double *plane, std::size_t i)
{
    return reinterpret_cast<const Vec *>(plane + i * kBatchLanes);
}

// The writing kernels read a whole row (both halves) into registers before
// they write any of it: through may_alias pointers the compiler must
// otherwise assume a store to one half can change the other.

void
lanePhase(double *re, double *im, const std::int32_t *codes,
          std::size_t begin, std::size_t end, const double *pre,
          const double *pim)
{
    for (std::size_t i = begin; i < end; ++i) {
        const std::size_t code = static_cast<std::size_t>(codes[i]);
        Vec *r = row(re, i);
        Vec *m = row(im, i);
        const Vec *pr = row(pre, code);
        const Vec *pi = row(pim, code);
        const Vec ar[2] = {r[0], r[1]}, ai[2] = {m[0], m[1]};
        const Vec br[2] = {pr[0], pr[1]}, bi[2] = {pi[0], pi[1]};
        for (int h = 0; h < 2; ++h) {
            // amp *= phase, expanded like std::complex operator*:
            // (ar*br - ai*bi, ar*bi + ai*br).
            r[h] = ar[h] * br[h] - ai[h] * bi[h];
            m[h] = ar[h] * bi[h] + ai[h] * br[h];
        }
    }
}

void
laneRxPairs(double *re, double *im, std::size_t pair_begin,
            std::size_t pair_end, std::size_t step, const double *c,
            const double *s)
{
    const Vec cv[2] = {row(c, 0)[0], row(c, 0)[1]};
    const Vec sv[2] = {row(s, 0)[0], row(s, 0)[1]};
    const std::size_t mask = step - 1;
    for (std::size_t p = pair_begin; p < pair_end; ++p) {
        const std::size_t i = ((p & ~mask) << 1) | (p & mask);
        Vec *r0 = row(re, i);
        Vec *m0 = row(im, i);
        Vec *r1 = row(re, i + step);
        Vec *m1 = row(im, i + step);
        const Vec re0[2] = {r0[0], r0[1]}, im0[2] = {m0[0], m0[1]};
        const Vec re1[2] = {r1[0], r1[1]}, im1[2] = {m1[0], m1[1]};
        for (int h = 0; h < 2; ++h) {
            // The rxButterfly body: a0 <- (c*re0 + s*im1, c*im0 - s*re1),
            // a1 <- (c*re1 + s*im0, c*im1 - s*re0).
            r0[h] = cv[h] * re0[h] + sv[h] * im1[h];
            m0[h] = cv[h] * im0[h] - sv[h] * re1[h];
            r1[h] = cv[h] * re1[h] + sv[h] * im0[h];
            m1[h] = cv[h] * im1[h] - sv[h] * re0[h];
        }
    }
}

void
laneExpect(const double *re, const double *im, const std::int32_t *codes,
           std::size_t begin, std::size_t end, double *acc)
{
    Vec a0 = row(acc, 0)[0], a1 = row(acc, 0)[1];
    for (std::size_t i = begin; i < end; ++i) {
        const double c = static_cast<double>(codes[i]);
        const Vec code = {c, c, c, c};
        const Vec *r = row(re, i);
        const Vec *m = row(im, i);
        // Norm first, then the code product, then the running add.
        a0 += (r[0] * r[0] + m[0] * m[0]) * code;
        a1 += (r[1] * r[1] + m[1] * m[1]) * code;
    }
    row(acc, 0)[0] = a0;
    row(acc, 0)[1] = a1;
}

} // namespace
} // namespace batched
} // namespace redqaoa

#endif // REDQAOA_QUANTUM_BATCHED_LANE_KERNELS_HPP
