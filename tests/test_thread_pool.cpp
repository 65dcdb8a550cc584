/**
 * @file
 * Thread-pool tests: range coverage, edge cases, exception propagation,
 * nesting, and — most importantly — the determinism contract: seeded
 * noisy results are identical at 1, 2, and 8 threads because RNG
 * streams are split serially before any fan-out.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <stdexcept>
#include <vector>

#include "common/thread_pool.hpp"
#include "core/sa_reducer.hpp"
#include "graph/generators.hpp"
#include "landscape/landscape.hpp"
#include "quantum/evaluator.hpp"

namespace redqaoa {
namespace {

/** Restore the default global pool when a test returns. */
class PoolGuard
{
  public:
    ~PoolGuard() { ThreadPool::setGlobalThreads(ThreadPool::defaultThreads()); }
};

TEST(ThreadPool, CoversEveryIndexOnce)
{
    PoolGuard guard;
    for (int threads : {1, 2, 8}) {
        ThreadPool::setGlobalThreads(threads);
        const std::size_t n = 1000;
        std::vector<std::atomic<int>> hits(n);
        parallelFor(n, [&](std::size_t i) { ++hits[i]; });
        for (std::size_t i = 0; i < n; ++i)
            EXPECT_EQ(hits[i].load(), 1) << "i=" << i
                                         << " threads=" << threads;
    }
}

TEST(ThreadPool, ChunksPartitionTheRange)
{
    PoolGuard guard;
    ThreadPool::setGlobalThreads(4);
    const std::size_t n = 237;
    std::vector<std::atomic<int>> hits(n);
    parallelForChunks(n, [&](std::size_t begin, std::size_t end) {
        ASSERT_LT(begin, end);
        ASSERT_LE(end, n);
        for (std::size_t i = begin; i < end; ++i)
            ++hits[i];
    });
    for (std::size_t i = 0; i < n; ++i)
        EXPECT_EQ(hits[i].load(), 1);
}

TEST(ThreadPool, EmptyRangeNeverInvokesBody)
{
    PoolGuard guard;
    for (int threads : {1, 4}) {
        ThreadPool::setGlobalThreads(threads);
        bool called = false;
        parallelFor(0, [&](std::size_t) { called = true; });
        parallelForChunks(0, [&](std::size_t, std::size_t) { called = true; });
        EXPECT_FALSE(called);
    }
}

TEST(ThreadPool, SingleItemRuns)
{
    PoolGuard guard;
    ThreadPool::setGlobalThreads(8);
    int calls = 0;
    parallelForChunks(1, [&](std::size_t begin, std::size_t end) {
        EXPECT_EQ(begin, 0u);
        EXPECT_EQ(end, 1u);
        ++calls;
    });
    EXPECT_EQ(calls, 1);
}

TEST(ThreadPool, ExceptionPropagatesFromWorkers)
{
    PoolGuard guard;
    for (int threads : {1, 2, 8}) {
        ThreadPool::setGlobalThreads(threads);
        EXPECT_THROW(
            parallelFor(64,
                        [](std::size_t i) {
                            if (i == 13)
                                throw std::runtime_error("boom");
                        }),
            std::runtime_error)
            << "threads=" << threads;
    }
}

TEST(ThreadPool, LowestChunkExceptionWins)
{
    PoolGuard guard;
    ThreadPool::setGlobalThreads(8);
    // Two throwing indices; the surfaced message must be the lower
    // chunk's regardless of scheduling.
    for (int repeat = 0; repeat < 8; ++repeat) {
        try {
            parallelFor(
                256,
                [](std::size_t i) {
                    if (i == 3)
                        throw std::runtime_error("low");
                    if (i == 255)
                        throw std::runtime_error("high");
                },
                1);
            FAIL() << "expected throw";
        } catch (const std::runtime_error &e) {
            EXPECT_STREQ(e.what(), "low");
        }
    }
}

TEST(ThreadPool, PoolUsableAfterException)
{
    PoolGuard guard;
    ThreadPool::setGlobalThreads(4);
    EXPECT_THROW(parallelFor(8, [](std::size_t) {
                     throw std::runtime_error("boom");
                 }),
                 std::runtime_error);
    std::atomic<int> sum{0};
    parallelFor(100, [&](std::size_t i) { sum += static_cast<int>(i); });
    EXPECT_EQ(sum.load(), 4950);
}

TEST(ThreadPool, NestedParallelForRunsInline)
{
    PoolGuard guard;
    ThreadPool::setGlobalThreads(4);
    std::vector<std::atomic<int>> hits(64);
    parallelFor(8, [&](std::size_t outer) {
        parallelFor(8, [&](std::size_t inner) {
            ++hits[outer * 8 + inner];
        });
    });
    for (auto &h : hits)
        EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPool, SetGlobalThreadsTakesEffect)
{
    PoolGuard guard;
    ThreadPool::setGlobalThreads(3);
    EXPECT_EQ(ThreadPool::globalThreadCount(), 3);
    ThreadPool::setGlobalThreads(1);
    EXPECT_EQ(ThreadPool::globalThreadCount(), 1);
}

TEST(ThreadPool, EnvOverrideControlsDefault)
{
    PoolGuard guard;
    ASSERT_EQ(setenv("REDQAOA_THREADS", "5", 1), 0);
    EXPECT_EQ(ThreadPool::defaultThreads(), 5);
    ASSERT_EQ(setenv("REDQAOA_THREADS", "0", 1), 0);
    EXPECT_GE(ThreadPool::defaultThreads(), 1); // Invalid -> hardware.
    ASSERT_EQ(unsetenv("REDQAOA_THREADS"), 0);
    EXPECT_GE(ThreadPool::defaultThreads(), 1);
}

TEST(Rng, SplitNMatchesSequentialSplit)
{
    Rng a(77), b(77);
    auto streams = a.splitN(10);
    ASSERT_EQ(streams.size(), 10u);
    for (std::size_t i = 0; i < streams.size(); ++i) {
        Rng child = b.split();
        for (int d = 0; d < 16; ++d)
            EXPECT_EQ(streams[i].next(), child.next());
    }
    // Parent streams advanced identically.
    EXPECT_EQ(a.next(), b.next());
}

/** Seeded noisy landscape values for a given thread count. */
std::vector<double>
noisyLandscapeAt(int threads, int shots)
{
    ThreadPool::setGlobalThreads(threads);
    Rng grng(3);
    Graph g = gen::erdosRenyiGnp(8, 0.5, grng);
    NoiseModel nm = noise::transpiled(noise::ibmGuadalupe(), g.numNodes());
    NoisyEvaluator noisy(g, nm, 10, 2024, shots);
    return Landscape::evaluate(noisy, 8).values();
}

TEST(Determinism, NoisyLandscapeIdenticalAt1_2_8Threads)
{
    PoolGuard guard;
    auto v1 = noisyLandscapeAt(1, 0);
    auto v2 = noisyLandscapeAt(2, 0);
    auto v8 = noisyLandscapeAt(8, 0);
    ASSERT_EQ(v1.size(), v2.size());
    ASSERT_EQ(v1.size(), v8.size());
    for (std::size_t i = 0; i < v1.size(); ++i) {
        // Bit-exact, not approximately equal: the RNG pre-split plus
        // in-order reduction make the fan-out scheduling invisible.
        EXPECT_EQ(v1[i], v2[i]) << "cell " << i;
        EXPECT_EQ(v1[i], v8[i]) << "cell " << i;
    }
}

TEST(Determinism, SampledNoisyLandscapeIdenticalAcrossThreads)
{
    PoolGuard guard;
    auto v1 = noisyLandscapeAt(1, 256);
    auto v8 = noisyLandscapeAt(8, 256);
    ASSERT_EQ(v1.size(), v8.size());
    for (std::size_t i = 0; i < v1.size(); ++i)
        EXPECT_EQ(v1[i], v8[i]) << "cell " << i;
}

TEST(Determinism, TrajectoryExpectationIdenticalAcrossThreads)
{
    PoolGuard guard;
    Rng grng(5);
    Graph g = gen::erdosRenyiGnp(9, 0.4, grng);
    NoiseModel nm = noise::transpiled(noise::ibmMelbourne(), g.numNodes());
    QaoaParams p({0.9}, {0.4});
    std::vector<double> vals;
    for (int threads : {1, 2, 8}) {
        ThreadPool::setGlobalThreads(threads);
        TrajectorySimulator sim(g, nm, 12, 777);
        vals.push_back(sim.expectation(p));
    }
    EXPECT_EQ(vals[0], vals[1]);
    EXPECT_EQ(vals[0], vals[2]);
}

TEST(Determinism, BatchExpectationMatchesSerialLoop)
{
    PoolGuard guard;
    Rng grng(6);
    Graph g = gen::erdosRenyiGnp(8, 0.5, grng);
    NoiseModel nm = noise::transpiled(noise::ibmKolkata(), g.numNodes());
    Rng prng(41);
    auto sets = randomParameterSets(1, 24, prng);

    ThreadPool::setGlobalThreads(1);
    TrajectorySimulator serial(g, nm, 8, 515);
    std::vector<double> expect;
    for (const QaoaParams &p : sets)
        expect.push_back(serial.expectation(p));

    ThreadPool::setGlobalThreads(8);
    TrajectorySimulator batched(g, nm, 8, 515);
    auto got = batched.batchExpectation(sets);
    ASSERT_EQ(got.size(), expect.size());
    for (std::size_t i = 0; i < got.size(); ++i)
        EXPECT_EQ(got[i], expect[i]) << "point " << i;
}

TEST(Determinism, SaReducerDefaultChainIgnoresThreadCount)
{
    // The annealing chain is the historical serial one at every pool
    // size, so results never depend on the host machine's core count.
    PoolGuard guard;
    Rng grng(8);
    Graph g = gen::erdosRenyiGnp(16, 0.35, grng);
    std::vector<std::vector<Node>> members;
    for (int threads : {1, 2, 8}) {
        ThreadPool::setGlobalThreads(threads);
        Rng rng(123);
        SaReducer reducer;
        SaResult res = reducer.reduce(g, 8, rng);
        members.push_back(res.subgraph.toOriginal);
    }
    EXPECT_EQ(members[0], members[1]);
    EXPECT_EQ(members[0], members[2]);
}

TEST(Determinism, LightconeIdenticalAcrossMultiThreadCounts)
{
    PoolGuard guard;
    Rng grng(12);
    Graph g = gen::randomRegular(30, 3, grng);
    QaoaParams p({0.4, 0.2}, {0.3, 0.1});
    std::vector<double> vals;
    for (int threads : {2, 8}) {
        ThreadPool::setGlobalThreads(threads);
        LightconeEvaluator lc(g, 2, 14);
        vals.push_back(lc.expectation(p));
    }
    EXPECT_EQ(vals[0], vals[1]);
}

} // namespace
} // namespace redqaoa
