#include "quantum/batched_state.hpp"

#include <algorithm>
#include <array>
#include <cassert>

#include "common/thread_pool.hpp"
#include "quantum/batched_lane_kernels.hpp"
#include "quantum/maxcut.hpp"
#include "quantum/statevector.hpp"

namespace redqaoa {
namespace batched {

namespace {

const KernelOps *gForced = nullptr;

} // namespace

const KernelOps &
scalarKernels()
{
    static const KernelOps ops{"scalar", lanePhase, laneRxPairs,
                               laneExpect};
    return ops;
}

const KernelOps *
avx2Kernels()
{
    const KernelOps *built = detail::avx2KernelsBuild();
    if (!built)
        return nullptr;
#if defined(__x86_64__) || defined(__i386__)
    if (!__builtin_cpu_supports("avx2"))
        return nullptr;
    return built;
#else
    return nullptr;
#endif
}

const KernelOps &
activeKernels()
{
    if (gForced)
        return *gForced;
    static const KernelOps *selected = [] {
        const KernelOps *avx = avx2Kernels();
        return avx ? avx : &scalarKernels();
    }();
    return *selected;
}

void
forceKernels(const KernelOps *ops)
{
    gForced = ops;
}

} // namespace batched

namespace {

constexpr int kL = batched::kBatchLanes;
constexpr std::size_t kChunkLen = detail::kStateChunkLen;

/**
 * Cache block of the fused batched mixer: 2^11 amplitudes * kL lanes *
 * 16 bytes = 256 KiB, L2-resident. Matching the scalar kernel's
 * kBlockQubits = 11 keeps the number of strided high-qubit passes the
 * same as the point-at-a-time path (each such pass streams the full
 * 8-lane set, so extra ones cost 8x); measured faster than an
 * L1-sized block at n = 12..16. Blocking never changes values.
 */
constexpr int kBatchBlockQubits = 11;

using detail::intraStateParallel;

} // namespace

void
BatchedStateSet::resetUniform(int num_qubits)
{
    assert(num_qubits >= 0 && num_qubits < 30);
    numQubits_ = num_qubits;
    const std::size_t dim = static_cast<std::size_t>(1) << num_qubits;
    const double a = 1.0 / std::sqrt(static_cast<double>(dim));
    re_.assign(dim * kL, a);
    im_.assign(dim * kL, 0.0);
}

void
BatchedStateSet::applyPhaseTables(std::span<const std::int32_t> codes,
                                  std::span<const double> pre,
                                  std::span<const double> pim)
{
    const std::size_t n = dim();
    assert(codes.size() == n);
    double *re = re_.data();
    double *im = im_.data();
    const double *pr = pre.data();
    const double *pi = pim.data();
    const std::int32_t *cd = codes.data();
    const batched::KernelOps &ops = batched::activeKernels();
    if (intraStateParallel(n))
        parallelForChunks(
            n,
            [&](std::size_t begin, std::size_t end) {
                ops.phase(re, im, cd, begin, end, pr, pi);
            },
            kChunkLen);
    else
        ops.phase(re, im, cd, 0, n, pr, pi);
}

void
BatchedStateSet::applyRxAll(std::span<const double> thetas)
{
    assert(thetas.size() == static_cast<std::size_t>(kL));
    // Per-lane c/s computed exactly as Statevector::applyRxAll does.
    double c[kL], s[kL];
    for (int l = 0; l < kL; ++l) {
        c[l] = std::cos(thetas[static_cast<std::size_t>(l)] / 2.0);
        s[l] = std::sin(thetas[static_cast<std::size_t>(l)] / 2.0);
    }
    const std::size_t n = dim();
    double *re = re_.data();
    double *im = im_.data();
    const batched::KernelOps &ops = batched::activeKernels();

    // Low qubits: fused back-to-back passes inside each cache block
    // (qubits below the block size never pair across blocks).
    const int low = std::min(numQubits_, kBatchBlockQubits);
    const std::size_t block = std::size_t{1} << low;
    const std::size_t blocks = n / block;
    auto fused = [&](std::size_t bbegin, std::size_t bend) {
        for (std::size_t b = bbegin; b < bend; ++b) {
            double *br = re + b * block * kL;
            double *bi = im + b * block * kL;
            for (int q = 0; q < low; ++q)
                ops.rxPairs(br, bi, 0, block / 2, std::size_t{1} << q, c,
                            s);
        }
    };
    if (intraStateParallel(n))
        parallelForChunks(blocks, fused,
                          std::max<std::size_t>(1, kChunkLen / block));
    else
        fused(0, blocks);

    // High qubits: one strided pass each over the flat pair index.
    for (int q = low; q < numQubits_; ++q) {
        const std::size_t step = std::size_t{1} << q;
        if (intraStateParallel(n))
            parallelForChunks(
                n / 2,
                [&](std::size_t pb, std::size_t pe) {
                    ops.rxPairs(re, im, pb, pe, step, c, s);
                },
                kChunkLen / 2);
        else
            ops.rxPairs(re, im, 0, n / 2, step, c, s);
    }
}

void
BatchedStateSet::expectationFromCodes(std::span<const std::int32_t> codes,
                                      std::span<double> out) const
{
    const std::size_t n = dim();
    assert(codes.size() == n);
    assert(out.size() == static_cast<std::size_t>(kL));
    const double *re = re_.data();
    const double *im = im_.data();
    const std::int32_t *cd = codes.data();
    const batched::KernelOps &ops = batched::activeKernels();
    // The scalar chunkedSum shape, per lane: serial single accumulator
    // below the parallel threshold / on a 1-thread pool; fixed-chunk
    // partials combined in chunk order otherwise.
    if (!intraStateParallel(n)) {
        double acc[kL] = {};
        ops.expect(re, im, cd, 0, n, acc);
        std::copy(acc, acc + kL, out.begin());
        return;
    }
    const std::size_t chunks = (n + kChunkLen - 1) / kChunkLen;
    thread_local std::vector<double> partial_scratch;
    partial_scratch.assign(chunks * kL, 0.0);
    double *partials = partial_scratch.data();
    parallelFor(chunks, [&, partials](std::size_t ch) {
        const std::size_t begin = ch * kChunkLen;
        ops.expect(re, im, cd, begin, std::min(n, begin + kChunkLen),
                   partials + ch * kL);
    });
    for (int l = 0; l < kL; ++l) {
        double total = 0.0;
        for (std::size_t ch = 0; ch < chunks; ++ch)
            total += partials[ch * kL + static_cast<std::size_t>(l)];
        out[static_cast<std::size_t>(l)] = total;
    }
}

void
buildPhaseTablesSoA(int max_code, std::span<const double> angles,
                    std::vector<double> &pre, std::vector<double> &pim)
{
    assert(angles.size() == static_cast<std::size_t>(kL));
    const std::size_t entries = static_cast<std::size_t>(max_code) + 1;
    pre.resize(entries * kL);
    pim.resize(entries * kL);
    thread_local std::vector<Complex> lane;
    for (int l = 0; l < kL; ++l) {
        buildPhaseTable(max_code, angles[static_cast<std::size_t>(l)],
                        lane);
        for (std::size_t c = 0; c < entries; ++c) {
            pre[c * kL + static_cast<std::size_t>(l)] = lane[c].real();
            pim[c * kL + static_cast<std::size_t>(l)] = lane[c].imag();
        }
    }
}

namespace {

/** One padded sweep: up to kL distinct points sharing a layer count. */
struct LaneGroup
{
    std::array<const QaoaParams *, kL> pts;
    std::array<std::size_t, kL> outIdx;
    int depth = 0;
    int count = 0;
};

void
runLaneGroup(std::span<const std::int32_t> codes, int max_code,
             int num_qubits, const LaneGroup &group, std::span<double> out)
{
    thread_local BatchedStateSet set;
    thread_local std::vector<double> pre, pim;
    set.resetUniform(num_qubits);
    double gammas[kL], thetas[kL];
    for (int layer = 0; layer < group.depth; ++layer) {
        const std::size_t l2 = static_cast<std::size_t>(layer);
        for (int l = 0; l < kL; ++l) {
            gammas[l] = group.pts[static_cast<std::size_t>(l)]->gamma[l2];
            thetas[l] =
                2.0 * group.pts[static_cast<std::size_t>(l)]->beta[l2];
        }
        buildPhaseTablesSoA(max_code, gammas, pre, pim);
        set.applyPhaseTables(codes, pre, pim);
        set.applyRxAll(thetas);
    }
    double acc[kL];
    set.expectationFromCodes(codes, acc);
    for (int l = 0; l < group.count; ++l)
        out[group.outIdx[static_cast<std::size_t>(l)]] = acc[l];
}

} // namespace

void
batchedCutExpectations(std::span<const std::int32_t> codes, int max_code,
                       int num_qubits,
                       std::span<const QaoaParams *const> points,
                       std::span<double> out)
{
    assert(out.size() == points.size());
    if (points.empty())
        return;

    // Lanes of one sweep must share the layer count (every lane takes
    // the same number of phase + mixer passes). Bucket points by depth
    // in first-seen order, then cut each bucket into groups of kL,
    // padding the tail by replicating its last point — padded lanes
    // are computed and discarded, and byte-identity makes the grouping
    // invisible in the results.
    std::vector<int> depths;
    std::vector<std::vector<std::size_t>> buckets;
    for (std::size_t k = 0; k < points.size(); ++k) {
        const int d = points[k]->layers();
        std::size_t b = 0;
        while (b < depths.size() && depths[b] != d)
            ++b;
        if (b == depths.size()) {
            depths.push_back(d);
            buckets.emplace_back();
        }
        buckets[b].push_back(k);
    }

    std::vector<LaneGroup> groups;
    for (std::size_t b = 0; b < buckets.size(); ++b) {
        const std::vector<std::size_t> &idx = buckets[b];
        for (std::size_t off = 0; off < idx.size(); off += kL) {
            LaneGroup g;
            g.depth = depths[b];
            g.count = static_cast<int>(
                std::min<std::size_t>(kL, idx.size() - off));
            for (int l = 0; l < kL; ++l) {
                const std::size_t src =
                    idx[off + static_cast<std::size_t>(
                                  std::min(l, g.count - 1))];
                g.pts[static_cast<std::size_t>(l)] = points[src];
                g.outIdx[static_cast<std::size_t>(l)] = src;
            }
            groups.push_back(g);
        }
    }

    if (groups.size() == 1) {
        runLaneGroup(codes, max_code, num_qubits, groups[0], out);
        return;
    }
    parallelFor(groups.size(), [&](std::size_t gi) {
        runLaneGroup(codes, max_code, num_qubits, groups[gi], out);
    });
}

} // namespace redqaoa
