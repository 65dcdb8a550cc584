/**
 * @file
 * Kernel-overhaul equivalence suite. Three layers of protection:
 *  - golden values: ExactEvaluator / NoisyEvaluator / LightconeEvaluator
 *    expectations on fixed graphs+params, pinned to 1e-12 against the
 *    values the pre-overhaul kernels produced (captured at threads=1);
 *  - kernel equivalences: each fused/fast-path kernel against the
 *    simple reference it replaced, bit-for-bit on a 1-thread pool;
 *  - thread-count invariance: the intra-state parallel paths must give
 *    identical results at 2 and 8 threads, and stay within 1e-12 of
 *    the serial 1-thread value (reductions regroup into fixed chunks
 *    above the parallel threshold, so ulp-level drift is allowed
 *    across the 1-vs-many boundary but nothing more).
 */

#include <gtest/gtest.h>

#include <cmath>

#include "common/thread_pool.hpp"
#include "engine/eval_spec.hpp"
#include "graph/generators.hpp"
#include "quantum/batched_state.hpp"
#include "quantum/evaluator.hpp"

namespace redqaoa {
namespace {

constexpr double kGolden = 1e-12;

class ThreadGuard
{
  public:
    ThreadGuard() : saved_(ThreadPool::globalThreadCount()) {}
    ~ThreadGuard() { ThreadPool::setGlobalThreads(saved_); }

  private:
    int saved_;
};

// ---------------------------------------------------------------------
// Golden values (generated with the pre-overhaul scalar kernels).
// ---------------------------------------------------------------------

TEST(KernelGolden, ExactEvaluatorMatchesPreOverhaul)
{
    Rng rng(3);
    Graph g = gen::connectedGnp(10, 0.4, rng);
    ASSERT_EQ(g.numEdges(), 18);
    ExactEvaluator eval(g);
    EXPECT_NEAR(eval.expectation(QaoaParams({0.8}, {0.4})),
                10.986896769608293, kGolden);
    EXPECT_NEAR(eval.expectation(
                    QaoaParams({0.8, 0.5, 0.3}, {0.4, 0.2, 0.1})),
                11.243914612497715, kGolden);
}

TEST(KernelGolden, NoisyEvaluatorMatchesPreOverhaul)
{
    // The trajectory path must consume the RNG stream exactly as the
    // historical per-gate implementation did; any drift shows up here
    // as a large delta, not an ulp.
    Rng rng(5);
    Graph g = gen::connectedGnp(8, 0.45, rng);
    ASSERT_EQ(g.numEdges(), 14);
    QaoaParams p2({0.8, 0.5}, {0.4, 0.2});
    NoisyEvaluator exact_readout(g, noise::ibmKolkata(), 8, 7, 0);
    EXPECT_NEAR(exact_readout.expectation(p2), 8.0074688351753913,
                kGolden);
    NoisyEvaluator sampled(g, noise::ibmKolkata(), 8, 7, 333);
    EXPECT_NEAR(sampled.expectation(p2), 8.0792682926829276, kGolden);
}

TEST(KernelGolden, LightconeEvaluatorMatchesPreOverhaul)
{
    Rng rng(11);
    Graph g = gen::randomRegular(20, 3, rng);
    ASSERT_EQ(g.numEdges(), 30);
    QaoaParams p2({0.8, 0.5}, {0.4, 0.2});
    LightconeCutEvaluator cone12(g, 2, 12);
    EXPECT_NEAR(cone12.expectation(p2), 19.406385972506314, kGolden);
    LightconeCutEvaluator cone16(g, 2, 16);
    EXPECT_NEAR(cone16.expectation(p2), 19.400396703537446, kGolden);
}

// ---------------------------------------------------------------------
// Fused / fast-path kernels against their references (1-thread pool:
// every kernel takes the serial path, results must be bit-identical).
// ---------------------------------------------------------------------

TEST(KernelEquivalence, PhaseTableMatchesDiagonalPhaseBitwise)
{
    ThreadGuard guard;
    ThreadPool::setGlobalThreads(1);
    Rng rng(21);
    Graph g = gen::connectedGnp(9, 0.4, rng);
    CutTable table = makeCutTable(g);
    std::vector<double> diag(table.codes.size());
    for (std::size_t z = 0; z < diag.size(); ++z)
        diag[z] = static_cast<double>(table.codes[z]);
    const double angle = 0.731;
    std::vector<Complex> phases;
    buildPhaseTable(table.maxCode, angle, phases);

    Statevector a = Statevector::uniform(9);
    Statevector b = Statevector::uniform(9);
    a.applyRxAll(0.9); // Some structure before the layer under test.
    b.applyRxAll(0.9);
    a.applyDiagonalPhase(diag, angle);
    b.applyPhaseTable(table.codes, phases);
    for (std::size_t i = 0; i < a.dim(); ++i) {
        EXPECT_EQ(a[i].real(), b[i].real());
        EXPECT_EQ(a[i].imag(), b[i].imag());
    }
}

TEST(KernelEquivalence, FusedRxAllMatchesPerQubitRxBitwise)
{
    ThreadGuard guard;
    ThreadPool::setGlobalThreads(1);
    for (int n : {3, 11, 13}) { // Below, at, and above the cache block.
        Statevector a = Statevector::uniform(n);
        Statevector b = Statevector::uniform(n);
        a.applyDiagonalPhase(std::vector<double>(a.dim(), 1.5), 0.8);
        b.applyDiagonalPhase(std::vector<double>(b.dim(), 1.5), 0.8);
        a.applyRxAll(0.7);
        for (int q = 0; q < n; ++q)
            b.applyRx(q, 0.7);
        for (std::size_t i = 0; i < a.dim(); ++i) {
            ASSERT_EQ(a[i].real(), b[i].real()) << "n=" << n;
            ASSERT_EQ(a[i].imag(), b[i].imag()) << "n=" << n;
        }
    }
}

TEST(KernelEquivalence, RzzBatchMatchesSequentialRzz)
{
    ThreadGuard guard;
    ThreadPool::setGlobalThreads(1);
    Rng rng(33);
    const int n = 10;
    std::vector<RzzTerm> terms;
    Statevector a = Statevector::uniform(n);
    Statevector b = Statevector::uniform(n);
    for (int t = 0; t < 17; ++t) { // Spans several batch tiles.
        int u = static_cast<int>(rng.index(n));
        int v = (u + 1 + static_cast<int>(rng.index(n - 1))) % n;
        double theta = rng.uniform(-1.5, 1.5);
        terms.push_back(makeRzzTerm(u, v, theta));
        b.applyRzz(u, v, theta);
    }
    a.applyRzzBatch(terms);
    for (std::size_t i = 0; i < a.dim(); ++i)
        EXPECT_NEAR(std::abs(a[i] - b[i]), 0.0, 1e-14)
            << "batched phase product drifted at amp " << i;
}

TEST(KernelEquivalence, FusedZAndZzMatchesIndividualBitwise)
{
    ThreadGuard guard;
    ThreadPool::setGlobalThreads(1);
    Rng rng(44);
    Graph g = gen::connectedGnp(8, 0.5, rng);
    QaoaSimulator sim(g);
    Statevector psi = sim.state(QaoaParams({0.8}, {0.4}));

    std::vector<std::pair<int, int>> pairs;
    for (const Edge &e : g.edges())
        pairs.emplace_back(e.u, e.v);
    std::vector<double> z(static_cast<std::size_t>(g.numNodes()));
    std::vector<double> zz(pairs.size());
    psi.zAndZzExpectations(pairs, z, zz);
    for (int q = 0; q < g.numNodes(); ++q)
        EXPECT_EQ(z[static_cast<std::size_t>(q)], psi.zExpectation(q));
    for (std::size_t k = 0; k < pairs.size(); ++k)
        EXPECT_EQ(zz[k],
                  psi.zzExpectation(pairs[k].first, pairs[k].second));
}

TEST(KernelEquivalence, ExpectationFromTableMatchesManualLoop)
{
    ThreadGuard guard;
    ThreadPool::setGlobalThreads(1);
    Rng rng(55);
    Graph g = gen::connectedGnp(9, 0.35, rng);
    QaoaSimulator sim(g);
    Statevector psi = sim.state(QaoaParams({1.1}, {0.3}));
    const auto &codes = sim.costTable();
    std::vector<double> cut(codes.begin(), codes.end());
    double manual = 0.0;
    for (std::size_t z = 0; z < psi.dim(); ++z)
        manual += std::norm(psi[z]) * cut[z];
    EXPECT_EQ(psi.expectationFromTable(cut), manual);
    EXPECT_EQ(psi.expectationFromCodes(codes), manual);
    EXPECT_EQ(sim.expectation(QaoaParams({1.1}, {0.3})), manual);
}

TEST(KernelEquivalence, CutTableCodesMatchCutValue)
{
    Rng rng(66);
    Graph g = gen::connectedGnp(11, 0.3, rng);
    CutTable table = makeCutTable(g);
    ASSERT_EQ(table.codes.size(), std::size_t{1} << 11);
    EXPECT_EQ(table.maxCode, g.numEdges());
    for (std::uint64_t z = 0; z < table.codes.size(); ++z)
        ASSERT_EQ(table.codes[z], cutValue(g, z));
    // Double-table API agrees entry for entry.
    std::vector<double> doubles = cutTable(g);
    for (std::size_t z = 0; z < doubles.size(); ++z)
        ASSERT_EQ(doubles[z], static_cast<double>(table.codes[z]));
}

TEST(KernelEquivalence, SampleIntoMatchesSample)
{
    Statevector psi = Statevector::uniform(6);
    psi.applyRxAll(0.4);
    Rng r1(9), r2(9);
    auto a = psi.sample(200, r1);
    std::vector<std::uint64_t> b;
    psi.sampleInto(200, r2, b);
    EXPECT_EQ(a, b);
}

TEST(KernelEquivalence, ScratchStateResetsCleanly)
{
    Statevector &s = scratchUniformState(StateScratch::kEvaluator, 5);
    s.applyRxAll(1.0);
    Statevector &t = scratchUniformState(StateScratch::kEvaluator, 5);
    EXPECT_EQ(&s, &t); // Same per-thread instance...
    Statevector u = Statevector::uniform(5);
    for (std::size_t i = 0; i < u.dim(); ++i)
        EXPECT_EQ(t[i], u[i]); // ...reset to a fresh uniform state.
    // Distinct slots never alias.
    Statevector &v = scratchUniformState(StateScratch::kTrajectory, 5);
    EXPECT_NE(&t, &v);
}

// ---------------------------------------------------------------------
// Thread-count invariance of the intra-state parallel paths. n = 16
// (65536 amplitudes) is above the parallel threshold, so these exercise
// the chunked kernels and reductions for real.
// ---------------------------------------------------------------------

TEST(KernelThreads, LargeStateExpectationInvariantAcrossPools)
{
    ThreadGuard guard;
    Rng rng(77);
    Graph g = gen::connectedGnp(16, 0.25, rng);
    QaoaParams p({0.8, 0.5}, {0.4, 0.2});

    ThreadPool::setGlobalThreads(1);
    QaoaSimulator sim1(g);
    const double serial = sim1.expectation(p);

    std::vector<double> multi;
    for (int threads : {2, 8}) {
        ThreadPool::setGlobalThreads(threads);
        QaoaSimulator sim(g);
        multi.push_back(sim.expectation(p));
    }
    // Fixed-chunk reductions: every multi-thread pool gives the same
    // bits; the serial path may differ by reassociation ulps only.
    EXPECT_EQ(multi[0], multi[1]);
    EXPECT_NEAR(serial, multi[0], kGolden);
}

TEST(KernelThreads, LightconeInvariantAcrossPools)
{
    ThreadGuard guard;
    Rng rng(88);
    Graph g = gen::randomRegular(24, 3, rng);
    QaoaParams p({0.8, 0.5}, {0.4, 0.2});

    ThreadPool::setGlobalThreads(1);
    LightconeEvaluator serial_eval(g, 2, 16);
    const double serial = serial_eval.expectation(p);

    std::vector<double> multi;
    for (int threads : {2, 8}) {
        ThreadPool::setGlobalThreads(threads);
        LightconeEvaluator eval(g, 2, 16);
        multi.push_back(eval.expectation(p));
    }
    EXPECT_EQ(multi[0], multi[1]);
    EXPECT_NEAR(serial, multi[0], kGolden);
}

TEST(KernelThreads, NoisySmallStateBitIdenticalAcrossPools)
{
    // Below the parallel threshold every statevector kernel is serial,
    // so the PR-1 contract still holds exactly: the trajectory value is
    // bit-identical at every pool size.
    ThreadGuard guard;
    Rng rng(99);
    Graph g = gen::connectedGnp(8, 0.45, rng);
    QaoaParams p({0.8}, {0.4});
    std::vector<double> values;
    for (int threads : {1, 2, 8}) {
        ThreadPool::setGlobalThreads(threads);
        NoisyEvaluator eval(g, noise::ibmKolkata(), 8, 7, 0);
        values.push_back(eval.expectation(p));
    }
    EXPECT_EQ(values[0], values[1]);
    EXPECT_EQ(values[1], values[2]);
}

TEST(KernelThreads, ElementwiseKernelsBitIdenticalAcrossPools)
{
    // Element-wise updates (phase table, mixer butterflies) are exact
    // under any partition: a 16-qubit layer stack must produce the same
    // bits at 1, 2, and 8 threads.
    ThreadGuard guard;
    Rng rng(111);
    Graph g = gen::connectedGnp(16, 0.25, rng);
    CutTable table = makeCutTable(g);
    std::vector<Complex> phases;
    buildPhaseTable(table.maxCode, 0.9, phases);

    std::vector<std::vector<Complex>> amps;
    for (int threads : {1, 2, 8}) {
        ThreadPool::setGlobalThreads(threads);
        Statevector psi = Statevector::uniform(16);
        psi.applyPhaseTable(table.codes, phases);
        psi.applyRxAll(0.7);
        psi.applyRzz(3, 11, 0.4);
        amps.push_back(psi.amplitudes());
    }
    EXPECT_EQ(amps[0], amps[1]);
    EXPECT_EQ(amps[1], amps[2]);
}

// ---------------------------------------------------------------------
// Batched-point sweeps (BatchedStateSet lane groups). The contract is
// byte-identity with the point-at-a-time path AT EACH thread count:
// per lane the batched kernels perform the scalar arithmetic sequence
// exactly, including the chunked-reduction shape above the parallel
// threshold.
// ---------------------------------------------------------------------

/** Restore automatic kernel selection when a test returns. */
class KernelGuard
{
  public:
    ~KernelGuard() { batched::forceKernels(nullptr); }
};

std::vector<double>
batchedValues(const Graph &g, const std::vector<QaoaParams> &pts)
{
    CutTable table = makeCutTable(g);
    std::vector<const QaoaParams *> ptrs;
    ptrs.reserve(pts.size());
    for (const QaoaParams &p : pts)
        ptrs.push_back(&p);
    std::vector<double> out(pts.size());
    batchedCutExpectations(table.codes, table.maxCode, g.numNodes(),
                           ptrs, out);
    return out;
}

/** Mixed-depth point set: full lane groups plus a padded partial one. */
std::vector<QaoaParams>
mixedDepthPoints(Rng &rng, std::size_t p1_count, std::size_t p3_count)
{
    std::vector<QaoaParams> pts;
    for (std::size_t i = 0; i < p1_count; ++i)
        pts.emplace_back(std::vector<double>{rng.uniform(-1.5, 1.5)},
                         std::vector<double>{rng.uniform(-1.5, 1.5)});
    for (std::size_t i = 0; i < p3_count; ++i)
        pts.emplace_back(std::vector<double>{rng.uniform(-1.5, 1.5),
                                             rng.uniform(-1.5, 1.5),
                                             rng.uniform(-1.5, 1.5)},
                         std::vector<double>{rng.uniform(-1.5, 1.5),
                                             rng.uniform(-1.5, 1.5),
                                             rng.uniform(-1.5, 1.5)});
    return pts;
}

TEST(BatchedKernels, GoldenAndBitIdenticalToScalarPath)
{
    ThreadGuard guard;
    KernelGuard kernels;
    ThreadPool::setGlobalThreads(1);
    Rng rng(3);
    Graph g = gen::connectedGnp(10, 0.4, rng);
    ASSERT_EQ(g.numEdges(), 18);

    // The golden points lead the batch; the rest fill out full and
    // partial lane groups at both depths.
    Rng prng(123);
    std::vector<QaoaParams> pts = mixedDepthPoints(prng, 9, 4);
    pts[0] = QaoaParams({0.8}, {0.4});
    pts[9] = QaoaParams({0.8, 0.5, 0.3}, {0.4, 0.2, 0.1});

    ExactEvaluator direct(g);
    for (const batched::KernelOps *ops :
         {&batched::scalarKernels(), batched::avx2Kernels()}) {
        if (!ops)
            GTEST_SKIP() << "AVX2 kernels unavailable on this build/CPU";
        batched::forceKernels(ops);
        std::vector<double> got = batchedValues(g, pts);
        EXPECT_NEAR(got[0], 10.986896769608293, kGolden) << ops->name;
        EXPECT_NEAR(got[9], 11.243914612497715, kGolden) << ops->name;
        for (std::size_t i = 0; i < pts.size(); ++i)
            EXPECT_EQ(got[i], direct.expectation(pts[i]))
                << ops->name << " point " << i;
    }
}

TEST(BatchedKernels, ByteIdenticalAcrossPoolsOnLargeState)
{
    // n = 16 crosses the intra-state parallel threshold, so the batched
    // sweep must mirror the chunked reduction: at EVERY thread count
    // the batched value equals the point-at-a-time value computed at
    // that same thread count, bit for bit.
    ThreadGuard guard;
    Rng rng(77);
    Graph g = gen::connectedGnp(16, 0.25, rng);
    Rng prng(321);
    std::vector<QaoaParams> pts = mixedDepthPoints(prng, 6, 5);

    std::vector<std::vector<double>> multi;
    for (int threads : {1, 2, 8}) {
        ThreadPool::setGlobalThreads(threads);
        std::vector<double> got = batchedValues(g, pts);
        QaoaSimulator sim(g);
        for (std::size_t i = 0; i < pts.size(); ++i)
            EXPECT_EQ(got[i], sim.expectation(pts[i]))
                << "threads=" << threads << " point " << i;
        if (threads >= 2)
            multi.push_back(std::move(got));
    }
    // And the multi-thread pools agree among themselves exactly.
    EXPECT_EQ(multi[0], multi[1]);
}

TEST(BatchedKernels, EvaluatorBatchRoutesThroughLanes)
{
    ThreadGuard guard;
    ThreadPool::setGlobalThreads(1);
    Rng rng(21);
    Graph g = gen::connectedGnp(9, 0.4, rng);
    Rng prng(555);

    ExactEvaluator eval(g);
    ExactEvaluator direct(g);
    // At or above the threshold the batch sweeps through lane groups;
    // below it the per-point default runs. Both are bit-identical to
    // point-at-a-time expectation, so the switch is invisible.
    for (std::size_t count : {kBatchedPointsThreshold - 1,
                              kBatchedPointsThreshold,
                              kBatchedPointsThreshold + 5}) {
        std::vector<QaoaParams> pts = mixedDepthPoints(prng, count, 0);
        std::vector<double> got = eval.batchExpectation(pts);
        ASSERT_EQ(got.size(), pts.size());
        for (std::size_t i = 0; i < pts.size(); ++i)
            EXPECT_EQ(got[i], direct.expectation(pts[i]))
                << "count=" << count << " point " << i;
    }
}

TEST(BatchedKernels, ForcePinAndAutomaticSelection)
{
    KernelGuard kernels;
    // forceKernels pins; nullptr restores the automatic policy.
    batched::forceKernels(&batched::scalarKernels());
    EXPECT_STREQ(batched::activeKernels().name, "scalar");
    batched::forceKernels(nullptr);
    const batched::KernelOps &active = batched::activeKernels();
    if (batched::avx2Kernels())
        EXPECT_STREQ(active.name, "avx2");
    else
        EXPECT_STREQ(active.name, "scalar");
}

} // namespace
} // namespace redqaoa
