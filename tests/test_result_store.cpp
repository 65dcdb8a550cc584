/**
 * @file
 * ResultStore tests. The load-bearing contracts:
 *  - iso-canonical keying: every node relabeling of a graph maps to
 *    ONE store key, non-isomorphic graphs map to distinct keys, and
 *    the canonical-vs-fallback branch is itself iso-invariant;
 *  - records round-trip across a close/reopen bit-exactly;
 *  - point values only serve the exact recording presentation;
 *  - every corruption mode (truncated tail, flipped payload byte,
 *    wrong schema version) loads as cold WITHOUT an error, and the
 *    next append rewrites a clean log;
 *  - the transfer index returns the nearest structurally similar
 *    donor, deterministically, never the requesting iso-class;
 *  - an engine attached to a warmed store serves repeat traffic from
 *    disk: bit-identical values with zero fresh evaluations;
 *  - the router's `warm_start` optimize seeds its first restart from a
 *    solved donor graph in the store.
 */

#include <gtest/gtest.h>

#include <bit>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <numeric>
#include <string>
#include <vector>

#include "engine/eval_engine.hpp"
#include "engine/result_store.hpp"
#include "graph/generators.hpp"
#include "graph/isomorphism.hpp"
#include "service/protocol.hpp"
#include "service/router.hpp"

namespace redqaoa {
namespace {

namespace fs = std::filesystem;

/** Fresh store directory under the test temp root, removed on exit. */
class TempStoreDir
{
  public:
    TempStoreDir()
    {
        static int counter = 0;
        path_ = fs::path(::testing::TempDir()) /
                ("result_store_" + std::to_string(::getpid()) + "_" +
                 std::to_string(counter++));
        fs::remove_all(path_);
    }
    ~TempStoreDir() { fs::remove_all(path_); }

    std::string str() const { return path_.string(); }
    fs::path logPath() const { return path_ / "results.log"; }

  private:
    fs::path path_;
};

Graph
permuted(const Graph &g, const std::vector<int> &perm)
{
    Graph out(g.numNodes());
    for (const Edge &e : g.edges())
        out.addEdge(perm[static_cast<std::size_t>(e.u)],
                    perm[static_cast<std::size_t>(e.v)]);
    return out;
}

std::vector<int>
randomPermutation(int n, Rng &rng)
{
    std::vector<int> perm(static_cast<std::size_t>(n));
    std::iota(perm.begin(), perm.end(), 0);
    rng.shuffle(perm);
    return perm;
}

std::vector<std::uint64_t>
bitsOf(const std::vector<double> &x)
{
    std::vector<std::uint64_t> bits;
    bits.reserve(x.size());
    for (double v : x)
        bits.push_back(std::bit_cast<std::uint64_t>(v));
    return bits;
}

ResultStore::OptimizeRecord
sampleRecord()
{
    ResultStore::OptimizeRecord rec;
    rec.xBits = bitsOf({0.1 + 0.2, -1.75, 3.5e-3, 2.0});
    rec.valueBits = std::bit_cast<std::uint64_t>(-4.321987654321);
    rec.evaluations = 123;
    rec.restarts = 3;
    rec.seeded = 1;
    return rec;
}

TEST(ResultStoreKeys, IsoRelabelingsShareOneKey)
{
    Rng rng(11);
    for (int n : {6, 9, 12}) {
        Graph g = gen::connectedGnp(n, 0.4, rng);
        std::string key = ResultStore::graphKey(g);
        for (int trial = 0; trial < 8; ++trial) {
            Graph h = permuted(g, randomPermutation(n, rng));
            // The canonical-vs-fallback gate is iso-invariant, so
            // every relabeling takes the same branch; on the
            // canonical branch they share one key.
            std::string hkey = ResultStore::graphKey(h);
            EXPECT_EQ(key.substr(0, 2), hkey.substr(0, 2));
            if (key.rfind("c:", 0) == 0)
                EXPECT_EQ(key, hkey) << "n=" << n << " trial=" << trial;
        }
    }
}

TEST(ResultStoreKeys, NonIsomorphicGraphsGetDistinctKeys)
{
    Rng rng(23);
    Graph g = gen::connectedGnp(9, 0.4, rng);
    ASSERT_EQ(ResultStore::graphKey(g).substr(0, 2), "c:");

    // Flip one edge (add a missing one): different iso class.
    Graph h = g;
    bool changed = false;
    for (Node u = 0; u < h.numNodes() && !changed; ++u)
        for (Node v = u + 1; v < h.numNodes() && !changed; ++v)
            if (!h.hasEdge(u, v))
                changed = h.addEdge(u, v);
    ASSERT_TRUE(changed);
    EXPECT_NE(ResultStore::graphKey(g), ResultStore::graphKey(h));
}

TEST(ResultStoreKeys, SymmetricGraphsFallBackConsistently)
{
    // C12: one WL color class of size 12 -> 12! search bound, far over
    // budget, so both the cycle and its relabelings take the exact-
    // structure fallback (no crash, no factorial search).
    Graph c12 = gen::cycle(12);
    EXPECT_GE(canonicalSearchBound(c12), 1e6);
    std::string key = ResultStore::graphKey(c12);
    EXPECT_EQ(key.substr(0, 2), "x:");
    Rng rng(7);
    Graph h = permuted(c12, randomPermutation(12, rng));
    EXPECT_EQ(ResultStore::graphKey(h).substr(0, 2), "x:");

    // Small rings stay tractable and canonical.
    EXPECT_LT(canonicalSearchBound(gen::cycle(9)), 1e6);
    EXPECT_EQ(ResultStore::graphKey(gen::cycle(9)).substr(0, 2), "c:");
}

TEST(ResultStore, OptimizeRoundTripsAcrossReopenBitExactly)
{
    TempStoreDir dir;
    Rng rng(3);
    Graph g = gen::connectedGnp(8, 0.4, rng);
    std::string key = ResultStore::graphKey(g);
    ResultStore::OptimizeRecord rec = sampleRecord();
    {
        ResultStore store(dir.str());
        EXPECT_TRUE(store.persistent());
        store.recordOptimize(key, "spec", "opt", g, 2, rec);
        ResultStore::OptimizeRecord out;
        ASSERT_TRUE(store.lookupOptimize(key, "spec", "opt", out));
        EXPECT_EQ(out.xBits, rec.xBits);
    }
    ResultStore reopened(dir.str());
    ResultStore::OptimizeRecord out;
    ASSERT_TRUE(reopened.lookupOptimize(key, "spec", "opt", out));
    EXPECT_EQ(out.xBits, rec.xBits);
    EXPECT_EQ(out.valueBits, rec.valueBits);
    EXPECT_EQ(out.evaluations, rec.evaluations);
    EXPECT_EQ(out.restarts, rec.restarts);
    EXPECT_EQ(out.seeded, rec.seeded);
    // Wrong spec/opt key: miss.
    EXPECT_FALSE(reopened.lookupOptimize(key, "spec2", "opt", out));
    EXPECT_FALSE(reopened.lookupOptimize(key, "spec", "opt2", out));
    EXPECT_EQ(reopened.stats().records, 1u);
}

TEST(ResultStore, PointsServeOnlyTheRecordingPresentation)
{
    TempStoreDir dir;
    std::vector<std::uint64_t> bits = bitsOf({0.25, -0.5});
    {
        ResultStore store(dir.str());
        store.appendPoints("c:k", "spec", 42, {{bits, 1.25}});
    }
    ResultStore store(dir.str());
    double value = 0.0;
    ASSERT_TRUE(store.lookupPoint("c:k", "spec", 42, bits, value));
    EXPECT_EQ(std::bit_cast<std::uint64_t>(value),
              std::bit_cast<std::uint64_t>(1.25));
    // Same key, different presentation: an isomorphic relabeling may
    // differ in final-ULP rounding, so the store must not serve it.
    EXPECT_FALSE(store.lookupPoint("c:k", "spec", 43, bits, value));
    // Different parameter bits: miss.
    EXPECT_FALSE(store.lookupPoint("c:k", "spec", 42,
                                   bitsOf({0.25, -0.5000001}), value));
}

/** Seed a store with one optimize record + one point batch. */
void
seedStore(const std::string &dir, const Graph &g)
{
    ResultStore store(dir);
    store.recordOptimize(ResultStore::graphKey(g), "spec", "opt", g, 1,
                         sampleRecord());
    store.appendPoints(ResultStore::graphKey(g), "spec", 7,
                       {{bitsOf({0.5, 0.25}), -2.5}});
    ASSERT_EQ(store.stats().records, 2u);
}

TEST(ResultStore, TruncatedTailDropsOnlyTheTornRecord)
{
    TempStoreDir dir;
    Rng rng(5);
    Graph g = gen::connectedGnp(8, 0.4, rng);
    seedStore(dir.str(), g);

    // Tear the last few bytes off the final record (a crash mid-write).
    auto size = fs::file_size(dir.logPath());
    fs::resize_file(dir.logPath(), size - 3);

    ResultStore store(dir.str());
    EXPECT_EQ(store.stats().records, 1u); // Valid prefix kept.
    EXPECT_EQ(store.stats().recoveredDrops, 1u);
    ResultStore::OptimizeRecord out;
    EXPECT_TRUE(store.lookupOptimize(ResultStore::graphKey(g), "spec",
                                     "opt", out));

    // The next append rewrites a clean log covering the new entry.
    store.appendPoints("c:other", "spec", 1, {{bitsOf({1.0}), 0.5}});
    ResultStore reopened(dir.str());
    EXPECT_EQ(reopened.stats().records, 2u);
    EXPECT_EQ(reopened.stats().recoveredDrops, 0u);
}

TEST(ResultStore, FlippedPayloadByteFailsCrcAndLoadsCold)
{
    TempStoreDir dir;
    Rng rng(5);
    Graph g = gen::connectedGnp(8, 0.4, rng);
    seedStore(dir.str(), g);

    // Flip one byte inside the FIRST record's payload: its CRC fails,
    // and everything after an unparseable frame is unreachable.
    {
        std::fstream f(dir.logPath(),
                       std::ios::in | std::ios::out | std::ios::binary);
        f.seekg(8 + 8 + 4); // Header, first frame header, into payload.
        char byte = 0;
        f.read(&byte, 1);
        byte = static_cast<char>(byte ^ 0x5a);
        f.seekp(8 + 8 + 4);
        f.write(&byte, 1);
    }
    ResultStore store(dir.str());
    EXPECT_EQ(store.stats().records, 0u);
    EXPECT_EQ(store.stats().recoveredDrops, 1u);
    ResultStore::OptimizeRecord out;
    EXPECT_FALSE(store.lookupOptimize(ResultStore::graphKey(g), "spec",
                                      "opt", out));
    store.recordOptimize("c:fresh", "spec", "opt", g, 1, sampleRecord());
    ResultStore reopened(dir.str());
    EXPECT_EQ(reopened.stats().records, 1u);
    EXPECT_EQ(reopened.stats().recoveredDrops, 0u);
}

TEST(ResultStore, WrongSchemaVersionLoadsColdWithoutError)
{
    TempStoreDir dir;
    Rng rng(5);
    Graph g = gen::connectedGnp(8, 0.4, rng);
    seedStore(dir.str(), g);

    { // Bump the version field: a future-format log must load cold.
        std::fstream f(dir.logPath(),
                       std::ios::in | std::ios::out | std::ios::binary);
        f.seekp(4);
        char v = 99;
        f.write(&v, 1);
    }
    ResultStore store(dir.str());
    EXPECT_EQ(store.stats().records, 0u);
    store.appendPoints("c:k", "spec", 1, {{bitsOf({1.0}), 0.5}});
    ResultStore reopened(dir.str()); // Rewritten at OUR version.
    EXPECT_EQ(reopened.stats().records, 1u);
    double value = 0.0;
    EXPECT_TRUE(
        reopened.lookupPoint("c:k", "spec", 1, bitsOf({1.0}), value));
}

TEST(ResultStore, FindDonorPicksNearestOtherIsoClass)
{
    TempStoreDir dir;
    ResultStore store(dir.str());
    Rng rng(17);
    Graph near = gen::connectedGnp(10, 0.4, rng);
    Graph far = gen::connectedGnp(20, 0.2, rng);
    ResultStore::OptimizeRecord nearRec = sampleRecord();
    nearRec.xBits = bitsOf({1.5, -0.5});
    store.recordOptimize(ResultStore::graphKey(near), "spec", "o1", near,
                         1, nearRec);
    store.recordOptimize(ResultStore::graphKey(far), "spec", "o2", far,
                         1, sampleRecord());

    Graph fresh = gen::connectedGnp(11, 0.4, rng);
    ResultStore::TransferDonor donor;
    ASSERT_TRUE(store.findDonor(ResultStore::graphKey(fresh), "spec", 1,
                                fresh, donor));
    EXPECT_EQ(donor.nodes, 10);
    EXPECT_EQ(bitsOf(donor.x), nearRec.xBits);

    // Never donates to its own iso-class (for `near`, only the `far`
    // record remains eligible), other specs, or other layers.
    ASSERT_TRUE(store.findDonor(ResultStore::graphKey(near), "spec", 1,
                                near, donor));
    EXPECT_EQ(donor.nodes, 20);
    EXPECT_FALSE(store.findDonor(ResultStore::graphKey(fresh), "spec2",
                                 1, fresh, donor));
    EXPECT_FALSE(store.findDonor(ResultStore::graphKey(fresh), "spec", 2,
                                 fresh, donor));
}

TEST(ResultStore, EngineServesRestartTrafficFromDiskBitIdentically)
{
    TempStoreDir dir;
    Rng rng(29);
    Graph g = gen::connectedGnp(9, 0.4, rng);
    std::vector<QaoaParams> points;
    for (int i = 0; i < 6; ++i)
        points.push_back(QaoaParams::random(2, rng));

    std::vector<double> cold;
    {
        EvalEngine engine;
        engine.attachStore(
            std::make_shared<ResultStore>(dir.str() + "/shard0"));
        cold = engine.evaluate(g, EvalSpec::ideal(2), points);
        EXPECT_EQ(engine.stats().evaluated, points.size());
        EXPECT_EQ(engine.stats().store.appends, 1u);
    }
    // "Restart": a fresh engine over the same store directory.
    EvalEngine engine;
    engine.attachStore(
        std::make_shared<ResultStore>(dir.str() + "/shard0"));
    std::vector<double> warm = engine.evaluate(g, EvalSpec::ideal(2), points);
    ASSERT_EQ(warm.size(), cold.size());
    for (std::size_t i = 0; i < warm.size(); ++i)
        EXPECT_EQ(std::bit_cast<std::uint64_t>(warm[i]),
                  std::bit_cast<std::uint64_t>(cold[i]))
            << "point " << i;
    EngineStats stats = engine.stats();
    EXPECT_EQ(stats.evaluated, 0u);
    EXPECT_EQ(stats.store.warmHits, points.size());

    // And a memo-less engine with no store recomputes the same bits
    // (the store returned real values, not stale ones).
    EvalEngine bare;
    std::vector<double> direct =
        bare.evaluate(g, EvalSpec::ideal(2), points);
    for (std::size_t i = 0; i < warm.size(); ++i)
        EXPECT_EQ(std::bit_cast<std::uint64_t>(warm[i]),
                  std::bit_cast<std::uint64_t>(direct[i]));
}

TEST(ResultStore, UnwritableDirectoryDegradesToMemoryOnly)
{
    // A path under a regular FILE cannot be created.
    TempStoreDir dir;
    fs::create_directories(dir.str());
    std::ofstream(dir.str() + "/blocker").put('x');
    ResultStore store(dir.str() + "/blocker/sub");
    EXPECT_FALSE(store.persistent());
    // Still warms within the process.
    store.appendPoints("c:k", "spec", 1, {{bitsOf({1.0}), 0.5}});
    double value = 0.0;
    EXPECT_TRUE(store.lookupPoint("c:k", "spec", 1, bitsOf({1.0}), value));
    EXPECT_EQ(value, 0.5);
}

/** Router `optimize` at p = 2 (3 restarts x 60 evaluations). */
json::Value
routerOptimize(service::ServiceRouter &router, const Graph &g, bool warm)
{
    service::Request req;
    req.id = 1;
    req.method = "optimize";
    req.params = json::Value::object();
    req.params["graph"] = service::graphToJson(g);
    json::Value spec = json::Value::object();
    spec["layers"] = 2;
    req.params["spec"] = std::move(spec);
    req.params["seed"] = 3;
    req.params["warm_start"] = warm;
    return router.dispatch(req);
}

TEST(RouterWarmStart, SeedsTheFirstRestartFromAStoredDonor)
{
    TempStoreDir dir;
    auto engine = std::make_shared<EvalEngine>();
    engine->attachStore(std::make_shared<ResultStore>(dir.str()));
    service::ServiceRouter router(engine);

    // The store holds one solved p = 2 graph: the only donor.
    Rng rng(1);
    Graph donor = gen::connectedGnp(10, 0.35, rng);
    routerOptimize(router, donor, false);
    Graph fresh = gen::connectedGnp(11, 0.35, rng);

    json::Value cold = routerOptimize(router, fresh, false);
    json::Value seeded = routerOptimize(router, fresh, true);
    EXPECT_EQ(cold.find("seeded"), nullptr); // Only warm_start echoes it.
    ASSERT_NE(seeded.find("seeded"), nullptr);
    EXPECT_TRUE(seeded.find("seeded")->asBool());
    EXPECT_EQ(seeded.find("evaluations")->asNumber(),
              cold.find("evaluations")->asNumber());
    // The donor start changes the answer, and not for the worse.
    const double cold_energy = cold.find("energy")->asNumber();
    const double seeded_energy = seeded.find("energy")->asNumber();
    EXPECT_NE(seeded_energy, cold_energy);
    EXPECT_GE(seeded_energy, cold_energy);
}

} // namespace
} // namespace redqaoa
