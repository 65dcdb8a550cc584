/**
 * @file
 * EvalEngine / backend-registry / PipelineFleet tests. The load-bearing
 * contracts:
 *  - engine-routed evaluation is bit-identical to direct evaluator
 *    construction at 1 thread, for every backend family;
 *  - results are invariant across thread counts >= 2 (and equal to the
 *    1-thread values);
 *  - the artifact cache hands every evaluator of the same graph the
 *    same shared tables;
 *  - duplicate (graph, spec, params) points are served from the memo
 *    with exactly the values a fresh computation produces;
 *  - a >= 100-job PipelineFleet on one engine produces an identical
 *    JSON report across repeats and thread counts.
 */

#include <gtest/gtest.h>

#include <unistd.h>

#include <bit>
#include <filesystem>
#include <memory>
#include <string>
#include <vector>

#include "common/thread_pool.hpp"
#include "engine/backend_registry.hpp"
#include "engine/engine_shard_set.hpp"
#include "engine/eval_engine.hpp"
#include "engine/fleet.hpp"
#include "engine/result_store.hpp"
#include "graph/generators.hpp"
#include "landscape/landscape.hpp"

namespace redqaoa {
namespace {

/** Restore the default global pool when a test returns. */
class PoolGuard
{
  public:
    ~PoolGuard() { ThreadPool::setGlobalThreads(ThreadPool::defaultThreads()); }
};

Graph
smallGraph(std::uint64_t seed = 5)
{
    Rng rng(seed);
    return gen::connectedGnp(9, 0.4, rng);
}

Graph
largeGraph(std::uint64_t seed = 6)
{
    Rng rng(seed);
    return gen::connectedGnp(24, 0.15, rng);
}

TEST(BackendRegistry, AutoPolicyMatchesHistoricalSelection)
{
    Graph small = smallGraph();
    Graph large = largeGraph();

    EXPECT_EQ(makeEvaluator(small, EvalSpec::ideal(2))->describe(),
              "statevector");
    EXPECT_EQ(makeEvaluator(large, EvalSpec::ideal(1))->describe(),
              "analytic-p1");
    EXPECT_EQ(makeEvaluator(large, EvalSpec::ideal(2))->describe(),
              "lightcone");
    // The cutoff is part of the spec, not a global.
    EXPECT_EQ(makeEvaluator(large, EvalSpec::ideal(2, 26))->describe(),
              "statevector");
    // Non-ideal noise resolves an Auto spec to the trajectory backend.
    EvalSpec auto_noisy;
    auto_noisy.noise = noise::ibmKolkata();
    EXPECT_EQ(makeEvaluator(small, auto_noisy)->describe(),
              "noisy:ibmq_kolkata");
    // EvalSpec::noisy PINS Trajectory, so pipelines keep trajectory
    // averaging and shot sampling even under an ideal noise model.
    EXPECT_EQ(makeEvaluator(small, EvalSpec::noisy(noise::ibmKolkata()))
                  ->describe(),
              "noisy:ibmq_kolkata");
    EXPECT_EQ(makeEvaluator(small, EvalSpec::noisy(noise::ideal()))
                  ->describe(),
              "noisy:ideal");
}

TEST(BackendRegistry, DuplicateRegistrationThrows)
{
    EXPECT_THROW(BackendRegistry::instance().add(
                     EvalBackend::Statevector,
                     [](const Graph &, const EvalSpec &, ArtifactCache *)
                         -> std::unique_ptr<CutEvaluator> {
                         return nullptr;
                     }),
                 std::invalid_argument);
    EXPECT_THROW(BackendRegistry::instance().add(
                     EvalBackend::Auto,
                     [](const Graph &, const EvalSpec &, ArtifactCache *)
                         -> std::unique_ptr<CutEvaluator> {
                         return nullptr;
                     }),
                 std::invalid_argument);
}

TEST(BackendRegistry, ResolutionIgnoresSweepShape)
{
    Graph small = smallGraph();
    Graph large = largeGraph();

    // An exact-sized Auto spec resolves to the one statevector backend
    // and key, however many points its jobs carry: lane sweeping is a
    // drain choice, not a backend.
    EXPECT_EQ(resolveBackend(EvalSpec::ideal(2), small),
              EvalBackend::Statevector);
    EXPECT_EQ(backendCacheKey(EvalSpec::ideal(2), EvalBackend::Statevector),
              "statevector");

    // Non-statevector resolutions.
    EXPECT_EQ(resolveBackend(EvalSpec::ideal(1), large),
              EvalBackend::AnalyticP1);
    EXPECT_EQ(resolveBackend(EvalSpec::ideal(2), large),
              EvalBackend::Lightcone);

    // A pinned backend is a caller decision and passes through.
    EvalSpec pinned = EvalSpec::ideal(2);
    pinned.backend = EvalBackend::Statevector;
    EXPECT_EQ(resolveBackend(pinned, small), EvalBackend::Statevector);
    EXPECT_EQ(resolveBackend(pinned, large), EvalBackend::Statevector);
}

TEST(EvalEngine, BatchedJobsBitIdenticalToDirectEvaluator)
{
    // Multi-point statevector jobs route through the batched sweep in
    // drain(); values must stay bit-identical to a direct per-point
    // evaluator at 1 thread AND across pools, memo included.
    PoolGuard guard;
    Graph g = smallGraph();
    Rng prng(88);
    auto pts = randomParameterSets(2, 12, prng);
    ASSERT_GE(pts.size(), kBatchedPointsThreshold);

    ExactEvaluator direct(g);
    std::vector<std::vector<double>> runs;
    for (int threads : {1, 2, 8}) {
        ThreadPool::setGlobalThreads(threads);
        EvalEngine engine;
        auto got = engine.evaluate(g, EvalSpec::ideal(2), pts);
        for (std::size_t i = 0; i < pts.size(); ++i)
            EXPECT_EQ(got[i], direct.expectation(pts[i]))
                << "threads=" << threads << " i=" << i;
        // The batched path feeds the same memo: duplicates are served
        // with identical values and no recomputation.
        auto again = engine.evaluate(g, EvalSpec::ideal(2), pts);
        EXPECT_EQ(got, again);
        EXPECT_EQ(engine.stats().memoHits, pts.size());
        EXPECT_EQ(engine.stats().evaluated, pts.size());
        runs.push_back(std::move(got));
    }
    for (std::size_t r = 1; r < runs.size(); ++r)
        EXPECT_EQ(runs[0], runs[r]) << "run " << r;
}

/** One point per job, in order (the 1-point service request shape). */
std::vector<double>
evaluateOneByOne(EvalEngine &engine, const Graph &g, const EvalSpec &spec,
                 const std::vector<QaoaParams> &pts)
{
    std::vector<double> out;
    for (const QaoaParams &p : pts)
        out.push_back(engine.evaluate(g, spec, {p}).front());
    return out;
}

TEST(EvalEngine, LaneAndPointJobsShareOneMemoKey)
{
    // A point computed inside a lane-swept job is a memo hit when it
    // comes back as a 1-point job, and the reverse: both sweep shapes
    // fill and read one statevector memo entry per value.
    PoolGuard guard;
    ThreadPool::setGlobalThreads(2);
    Graph g = smallGraph();
    Rng prng(91);
    auto pts = randomParameterSets(2, kBatchedPointsThreshold + 4, prng);
    const EvalSpec spec = EvalSpec::ideal(2);

    {
        EvalEngine engine;
        auto swept = engine.evaluate(g, spec, pts);
        EXPECT_EQ(engine.stats().evaluated, pts.size());
        auto single = evaluateOneByOne(engine, g, spec, pts);
        EXPECT_EQ(single, swept);
        EXPECT_EQ(engine.stats().memoHits, pts.size());
        EXPECT_EQ(engine.stats().evaluated, pts.size());
    }
    {
        EvalEngine engine;
        auto single = evaluateOneByOne(engine, g, spec, pts);
        EXPECT_EQ(engine.stats().evaluated, pts.size());
        auto swept = engine.evaluate(g, spec, pts);
        EXPECT_EQ(swept, single);
        EXPECT_EQ(engine.stats().memoHits, pts.size());
        EXPECT_EQ(engine.stats().evaluated, pts.size());
    }
}

/** Fresh store directory under the test temp root, removed on exit. */
class TempStoreDir
{
  public:
    TempStoreDir()
    {
        static int counter = 0;
        path_ = std::filesystem::path(::testing::TempDir()) /
                ("engine_store_" + std::to_string(::getpid()) + "_" +
                 std::to_string(counter++));
        std::filesystem::remove_all(path_);
    }
    ~TempStoreDir() { std::filesystem::remove_all(path_); }

    std::string str() const { return path_.string(); }

  private:
    std::filesystem::path path_;
};

/** The store's point key: depth, then gamma and beta as exact bits. */
std::vector<std::uint64_t>
storedParamBits(const QaoaParams &p)
{
    std::vector<std::uint64_t> bits{
        static_cast<std::uint64_t>(p.gamma.size())};
    for (double v : p.gamma)
        bits.push_back(std::bit_cast<std::uint64_t>(v));
    for (double v : p.beta)
        bits.push_back(std::bit_cast<std::uint64_t>(v));
    return bits;
}

TEST(EvalEngine, LaneAndPointJobsShareOneStoreKey)
{
    // Every persisted point sits under the single `statevector` spec
    // key, so a later lifetime serves it warm in either sweep shape.
    PoolGuard guard;
    ThreadPool::setGlobalThreads(2);
    Graph g = smallGraph();
    Rng prng(92);
    auto pts = randomParameterSets(2, kBatchedPointsThreshold + 4, prng);
    const EvalSpec spec = EvalSpec::ideal(2);
    const std::vector<double> direct = EvalEngine().evaluate(g, spec, pts);

    for (bool sweep_first : {true, false}) {
        SCOPED_TRACE(sweep_first ? "lane sweep first" : "1-point first");
        TempStoreDir dir;
        {
            EvalEngine engine;
            engine.attachStore(std::make_shared<ResultStore>(dir.str()));
            if (sweep_first)
                EXPECT_EQ(engine.evaluate(g, spec, pts), direct);
            else
                EXPECT_EQ(evaluateOneByOne(engine, g, spec, pts), direct);
            EXPECT_EQ(engine.stats().store.records, pts.size());

            ResultStore &store = *engine.store();
            const std::string graph_key = engine.storeKeyFor(g);
            for (std::size_t i = 0; i < pts.size(); ++i) {
                double value = 0.0;
                ASSERT_TRUE(store.lookupPoint(
                    graph_key, "statevector", graphStructureHash(g),
                    storedParamBits(pts[i]), value))
                    << "i=" << i;
                EXPECT_EQ(value, direct[i]) << "i=" << i;
            }
        }
        // A new lifetime asks in the other shape: all warm, none fresh.
        EvalEngine engine;
        engine.attachStore(std::make_shared<ResultStore>(dir.str()));
        if (sweep_first)
            EXPECT_EQ(evaluateOneByOne(engine, g, spec, pts), direct);
        else
            EXPECT_EQ(engine.evaluate(g, spec, pts), direct);
        EXPECT_EQ(engine.stats().store.warmHits, pts.size());
        EXPECT_EQ(engine.stats().evaluated, 0u);
    }
}

TEST(EvalEngine, BitIdenticalToDirectAtOneThread)
{
    PoolGuard guard;
    ThreadPool::setGlobalThreads(1);
    Graph small = smallGraph();
    Graph large = largeGraph();
    Rng prng(33);
    auto p1 = randomParameterSets(1, 12, prng);
    auto p2 = randomParameterSets(2, 12, prng);

    // Statevector.
    {
        ExactEvaluator direct(small);
        auto got = EvalEngine().evaluate(small, EvalSpec::ideal(2), p2);
        for (std::size_t i = 0; i < p2.size(); ++i)
            EXPECT_EQ(got[i], direct.expectation(p2[i])) << "i=" << i;
    }
    // Analytic p=1.
    {
        AnalyticEvaluator direct(large);
        auto got = EvalEngine().evaluate(large, EvalSpec::ideal(1), p1);
        for (std::size_t i = 0; i < p1.size(); ++i)
            EXPECT_EQ(got[i], direct.expectation(p1[i])) << "i=" << i;
    }
    // Lightcone.
    {
        LightconeCutEvaluator direct(large, 2, 16);
        auto got = EvalEngine().evaluate(large, EvalSpec::ideal(2), p2);
        for (std::size_t i = 0; i < p2.size(); ++i)
            EXPECT_EQ(got[i], direct.expectation(p2[i])) << "i=" << i;
    }
    // Trajectory, exact and sampled readout.
    for (int shots : {0, 256}) {
        NoisyEvaluator direct(small, noise::ibmKolkata(), 6, 77, shots);
        auto spec = EvalSpec::noisy(noise::ibmKolkata(), 1, 6, 77, shots);
        auto got = EvalEngine().evaluate(small, spec, p1);
        auto want = direct.batchExpectation(p1);
        EXPECT_EQ(got, want) << "shots=" << shots;
    }
}

TEST(EvalEngine, ThreadCountInvariance)
{
    PoolGuard guard;
    Graph small = smallGraph();
    Graph large = largeGraph();
    Rng prng(44);
    auto p2 = randomParameterSets(2, 16, prng);
    auto noisy_spec = EvalSpec::noisy(noise::ibmCairo(), 2, 4, 9, 128);

    // Small-state backends (below the intra-state parallel threshold)
    // are bitwise identical at EVERY thread count, 1 included.
    std::vector<std::vector<double>> ideal_runs, noisy_runs;
    for (int threads : {1, 2, 8}) {
        ThreadPool::setGlobalThreads(threads);
        EvalEngine engine;
        ideal_runs.push_back(
            engine.evaluate(small, EvalSpec::ideal(2), p2));
        noisy_runs.push_back(engine.evaluate(small, noisy_spec, p2));
    }
    for (std::size_t r = 1; r < ideal_runs.size(); ++r) {
        EXPECT_EQ(ideal_runs[0], ideal_runs[r]) << "run " << r;
        EXPECT_EQ(noisy_runs[0], noisy_runs[r]) << "run " << r;
    }

    // Cone states here cross the intra-state parallel threshold, where
    // the repo's kernel contract is invariance across thread counts
    // >= 2 (the 1-thread pool is the bit-identical serial reference,
    // pinned against direct evaluation in BitIdenticalToDirect).
    std::vector<std::vector<double>> cone_runs;
    for (int threads : {2, 4, 8}) {
        ThreadPool::setGlobalThreads(threads);
        EvalEngine engine;
        cone_runs.push_back(
            engine.evaluate(large, EvalSpec::ideal(2), p2));
    }
    for (std::size_t r = 1; r < cone_runs.size(); ++r)
        EXPECT_EQ(cone_runs[0], cone_runs[r]) << "run " << r;
}

TEST(EvalEngine, ArtifactCacheSharesTablesAcrossEvaluators)
{
    EvalEngine engine;
    Graph g = smallGraph();
    Graph big = largeGraph();

    // Same (graph, spec) -> the same shared evaluator instance.
    auto a = engine.evaluator(g, EvalSpec::ideal(1));
    auto b = engine.evaluator(g, EvalSpec::ideal(1));
    EXPECT_EQ(a.get(), b.get());
    EXPECT_EQ(engine.stats().evaluatorHits, 1u);

    // A structurally equal copy of the graph hits the same entry.
    Graph copy = g;
    auto c = engine.evaluator(copy, EvalSpec::ideal(1));
    EXPECT_EQ(a.get(), c.get());

    // Statevector evaluators of one graph share one cut table, across
    // distinct specs that resolve to the same backend.
    auto any_depth = engine.evaluator(g, EvalSpec::ideal(3));
    auto *ea = dynamic_cast<ExactEvaluator *>(a.get());
    auto *ed = dynamic_cast<ExactEvaluator *>(any_depth.get());
    ASSERT_NE(ea, nullptr);
    ASSERT_NE(ed, nullptr);
    EXPECT_EQ(ea->simulator().sharedTable().get(),
              ed->simulator().sharedTable().get());
    EXPECT_EQ(ea->simulator().sharedTable().get(),
              engine.artifacts().cutTable(g).get());

    // Lightcone decompositions are shared per (p, cone cap).
    auto l1 = engine.evaluator(big, EvalSpec::ideal(2));
    auto l2 = engine.evaluator(big, EvalSpec::ideal(2));
    auto *c1 = dynamic_cast<LightconeCutEvaluator *>(l1.get());
    auto *c2 = dynamic_cast<LightconeCutEvaluator *>(l2.get());
    ASSERT_NE(c1, nullptr);
    ASSERT_NE(c2, nullptr);
    EXPECT_EQ(c1->shared().get(), c2->shared().get());

    ArtifactCache::Stats stats = engine.artifacts().stats();
    EXPECT_EQ(stats.graphs, 2u);
    EXPECT_GE(stats.hits, 1u);
}

TEST(EvalEngine, MemoServesDuplicatePointsWithIdenticalValues)
{
    PoolGuard guard;
    ThreadPool::setGlobalThreads(2);
    Graph g = smallGraph();
    Rng prng(55);
    auto base = randomParameterSets(1, 10, prng);

    // A batch with intra-job duplicates.
    std::vector<QaoaParams> with_dups = base;
    with_dups.insert(with_dups.end(), base.begin(), base.begin() + 5);

    EvalEngine engine;
    auto first = engine.evaluate(g, EvalSpec::ideal(1), with_dups);
    for (std::size_t i = 0; i < 5; ++i)
        EXPECT_EQ(first[base.size() + i], first[i]);
    EngineStats after_first = engine.stats();
    EXPECT_EQ(after_first.points, with_dups.size());
    EXPECT_EQ(after_first.evaluated, base.size());
    EXPECT_EQ(after_first.memoHits, 5u);

    // A second job repeating the base points: all memo hits, same
    // values, nothing recomputed.
    auto second = engine.evaluate(g, EvalSpec::ideal(1), base);
    for (std::size_t i = 0; i < base.size(); ++i)
        EXPECT_EQ(second[i], first[i]);
    EngineStats after_second = engine.stats();
    EXPECT_EQ(after_second.evaluated, base.size());
    EXPECT_EQ(after_second.memoHits, 5u + base.size());

    // Memoized values equal a fresh engine's computation.
    auto fresh = EvalEngine().evaluate(g, EvalSpec::ideal(1), base);
    EXPECT_EQ(second, fresh);
}

TEST(EvalEngine, TrajectoryJobsUseWholeBatchSemantics)
{
    PoolGuard guard;
    ThreadPool::setGlobalThreads(2);
    Graph g = smallGraph();
    Rng prng(66);
    auto params = randomParameterSets(1, 8, prng);
    auto spec = EvalSpec::noisy(noise::ibmToronto(), 1, 5, 13, 64);

    EvalEngine engine;
    auto first = engine.evaluate(g, spec, params);
    // Resubmitting the identical batch is served from the batch memo.
    auto again = engine.evaluate(g, spec, params);
    EXPECT_EQ(first, again);
    EXPECT_EQ(engine.stats().memoHits, params.size());
    // And matches a fresh direct evaluator, which is what any single
    // job is bit-identical to.
    NoisyEvaluator direct(g, noise::ibmToronto(), 5, 13, 64);
    EXPECT_EQ(first, direct.batchExpectation(params));
}

TEST(EvalEngine, CrossJobShardingRunsAllPendingJobsOnDrain)
{
    PoolGuard guard;
    ThreadPool::setGlobalThreads(4);
    Graph a = smallGraph(7);
    Graph b = smallGraph(8);
    Rng prng(77);
    auto pa = randomParameterSets(1, 6, prng);
    auto pb = randomParameterSets(2, 6, prng);

    EvalEngine engine;
    EvalJobTicket ta = engine.submit(a, EvalSpec::ideal(1), pa);
    EvalJobTicket tb = engine.submit(b, EvalSpec::ideal(2), pb);
    EXPECT_FALSE(ta.ready());
    EXPECT_FALSE(tb.ready());
    // Getting one ticket drains the whole queue (one shared fan-out).
    const auto &va = ta.get();
    EXPECT_TRUE(tb.ready());
    EXPECT_EQ(va.size(), pa.size());
    EXPECT_EQ(tb.get().size(), pb.size());

    ExactEvaluator da(a), db(b);
    for (std::size_t i = 0; i < pa.size(); ++i)
        EXPECT_EQ(va[i], da.expectation(pa[i]));
    for (std::size_t i = 0; i < pb.size(); ++i)
        EXPECT_EQ(tb.get()[i], db.expectation(pb[i]));
}

TEST(EvalEngine, ObjectiveMatchesEvaluator)
{
    EvalEngine engine;
    Graph g = smallGraph();
    Objective obj = engine.objective(g, EvalSpec::ideal(1));
    auto ev = engine.evaluator(g, EvalSpec::ideal(1));
    QaoaParams p({0.7}, {0.3});
    EXPECT_EQ(obj(p.flatten()), -ev->expectation(p));
}

TEST(EvalEngine, EngineLandscapeMatchesDirectLandscape)
{
    PoolGuard guard;
    ThreadPool::setGlobalThreads(2);
    Graph g = smallGraph();
    ExactEvaluator direct(g);
    Landscape want = Landscape::evaluate(direct, 12);
    EvalEngine engine;
    Landscape got =
        Landscape::evaluate(engine, g, EvalSpec::ideal(1), 12);
    EXPECT_EQ(got.values(), want.values());
}

/** >= 100 tiny pipeline runs on one engine; tiny budgets keep it fast. */
std::vector<FleetScenario>
fleetScenarios()
{
    std::vector<std::pair<std::string, Graph>> graphs;
    Rng rng(313);
    for (int i = 0; i < 13; ++i) {
        char name[16];
        std::snprintf(name, sizeof name, "g%d", i);
        graphs.emplace_back(name, gen::connectedGnp(8, 0.4, rng));
    }
    PipelineOptions base;
    base.restarts = 1;
    base.searchEvaluations = 6;
    base.refineEvaluations = 3;
    base.trajectories = 2;
    return PipelineFleet::grid(
        graphs, {noise::ibmKolkata(), noise::scaled(2.0)}, {1, 2}, base,
        /*seed0=*/41, /*include_baseline=*/true);
}

TEST(PipelineFleet, HundredConcurrentJobsDeterministicReport)
{
    PoolGuard guard;
    auto scenarios = fleetScenarios();
    ASSERT_GE(scenarios.size(), 100u);

    std::vector<std::string> dumps;
    std::vector<FleetReport> reports;
    // Two runs at 8 threads (repeatability) and one each at 2 and 1
    // (thread-count invariance, incl. the serial reference).
    for (int threads : {8, 8, 2, 1}) {
        ThreadPool::setGlobalThreads(threads);
        PipelineFleet fleet;
        FleetReport report = fleet.run(scenarios);
        EXPECT_EQ(report.runs.size(), scenarios.size());
        dumps.push_back(report.runsJson().dump(1));
        reports.push_back(std::move(report));
    }
    for (std::size_t r = 1; r < dumps.size(); ++r)
        EXPECT_EQ(dumps[0], dumps[r]) << "run " << r;

    // The full report document round-trips and carries the schema tag
    // plus engine traffic.
    json::Value doc = json::Value::parse(reports[0].toJson().dump(2));
    EXPECT_EQ(doc.find("schema_version")->asNumber(), 1);
    EXPECT_EQ(doc.find("tool")->asString(), "redqaoa_fleet");
    const json::Value *meta = doc.find("metadata");
    ASSERT_NE(meta, nullptr);
    EXPECT_EQ(meta->find("scenario_count")->asNumber(),
              static_cast<double>(scenarios.size()));
    const json::Value *eng = meta->find("engine");
    ASSERT_NE(eng, nullptr);
    // One engine served every run: the shared scoring evaluators must
    // have produced cache traffic.
    EXPECT_GT(eng->find("evaluator_hits")->asNumber(), 0.0);
    EXPECT_EQ(doc.find("runs")->size(), scenarios.size());

    // Sanity on the rows themselves.
    for (const FleetRunSummary &run : reports[0].runs) {
        EXPECT_GT(run.maxCut, 0) << run.name;
        EXPECT_GE(run.approxRatio, -1.0) << run.name;
        EXPECT_LE(run.approxRatio, 1.0 + 1e-9) << run.name;
    }
}

TEST(PipelineFleet, GridBuildsEveryCombination)
{
    PipelineOptions base;
    Rng rng(1);
    std::vector<std::pair<std::string, Graph>> graphs{
        {"a", gen::connectedGnp(6, 0.5, rng)},
        {"b", gen::connectedGnp(7, 0.5, rng)}};
    auto plain = PipelineFleet::grid(graphs, {noise::ibmKolkata()},
                                     {1, 2, 3}, base, 10, false);
    EXPECT_EQ(plain.size(), 6u);
    auto with_base = PipelineFleet::grid(graphs, {noise::ibmKolkata()},
                                         {1, 2, 3}, base, 10, true);
    EXPECT_EQ(with_base.size(), 12u);
    // Seeds are sequential and unique in row order.
    for (std::size_t i = 0; i < with_base.size(); ++i)
        EXPECT_EQ(with_base[i].seed, 10u + i);
    EXPECT_TRUE(with_base[1].baseline);
    EXPECT_EQ(with_base[1].name, "a/ibmq_kolkata/p1/baseline");
}

TEST(EngineShardSet, RoutingIsDeterministicAcrossRestarts)
{
    // Placement is a pure function of graph structure and shard count:
    // two independently constructed shard sets (a "restart") must
    // route every graph the same way.
    std::vector<Graph> graphs;
    for (std::uint64_t seed = 1; seed <= 24; ++seed)
        graphs.push_back(smallGraph(seed));

    EngineShardSet first(4);
    EngineShardSet second(4);
    ASSERT_EQ(first.shardCount(), 4);
    for (const Graph &g : graphs) {
        std::size_t shard = first.shardFor(g);
        EXPECT_LT(shard, 4u);
        EXPECT_EQ(shard, second.shardFor(g));
        // Repeated lookups of the same graph never move.
        EXPECT_EQ(shard, first.shardFor(g));
    }
}

TEST(EngineShardSet, NestedCongruenceWhenShardCountsDivideEvenly)
{
    // hash % 2 == (hash % 4) % 2: when one shard count divides the
    // other, a graph's 2-shard placement is derivable from its 4-shard
    // placement. Growing a deployment 2 -> 4 therefore splits each
    // shard's population in two instead of reshuffling everything.
    EngineShardSet two(2);
    EngineShardSet four(4);
    EngineShardSet eight(8);
    for (std::uint64_t seed = 1; seed <= 32; ++seed) {
        Graph g = smallGraph(seed);
        EXPECT_EQ(four.shardFor(g) % 2, two.shardFor(g));
        EXPECT_EQ(eight.shardFor(g) % 4, four.shardFor(g));
        EXPECT_EQ(eight.shardFor(g) % 2, two.shardFor(g));
    }
}

TEST(EngineShardSet, AggregateStatsSumsShardCounters)
{
    EngineShardSet set(3);
    Graph g = smallGraph();
    Rng rng(11);
    std::vector<QaoaParams> points = randomParameterSets(1, 6, rng);

    // Evaluate on two different shards; the third stays idle.
    set.shard(0)->evaluate(g, EvalSpec::ideal(1), points);
    set.shard(1)->evaluate(g, EvalSpec::ideal(1), points);
    set.shard(1)->evaluate(g, EvalSpec::ideal(1), points); // memo hits

    EngineStats total = set.aggregateStats();
    std::vector<EngineStats> per = set.shardStats();
    ASSERT_EQ(per.size(), 3u);
    std::uint64_t points_sum = 0;
    std::uint64_t memo_sum = 0;
    std::uint64_t graphs_sum = 0;
    for (const EngineStats &s : per) {
        points_sum += s.points;
        memo_sum += s.memoHits;
        graphs_sum += s.artifacts.graphs;
    }
    EXPECT_EQ(total.points, points_sum);
    EXPECT_EQ(total.memoHits, memo_sum);
    EXPECT_EQ(total.artifacts.graphs, graphs_sum);
    EXPECT_EQ(total.points, 18u);
    EXPECT_EQ(total.memoHits, 6u);   // The repeated shard-1 batch.
    EXPECT_EQ(total.artifacts.graphs, 2u);
    EXPECT_EQ(per[2].points, 0u);    // The idle shard contributes zeros.
}

TEST(RedQaoaPipeline, SharedEngineMatchesPrivateEngine)
{
    PoolGuard guard;
    ThreadPool::setGlobalThreads(2);
    Rng grng(91);
    Graph g = gen::connectedGnp(9, 0.4, grng);
    PipelineOptions opts;
    opts.restarts = 2;
    opts.searchEvaluations = 10;
    opts.refineEvaluations = 5;
    opts.trajectories = 3;
    opts.noise = noise::ibmKolkata();

    RedQaoaPipeline private_engine(opts);
    Rng r1(3);
    PipelineResult a = private_engine.run(g, r1);

    auto engine = std::make_shared<EvalEngine>();
    RedQaoaPipeline shared_engine(opts, engine);
    Rng r2(3);
    PipelineResult b = shared_engine.run(g, r2);
    // Warm engine: run again, results must not depend on cache state.
    Rng r3(3);
    PipelineResult c = shared_engine.run(g, r3);

    EXPECT_EQ(a.idealEnergy, b.idealEnergy);
    EXPECT_EQ(a.approxRatio, b.approxRatio);
    EXPECT_EQ(a.params.gamma, b.params.gamma);
    EXPECT_EQ(a.params.beta, b.params.beta);
    EXPECT_EQ(b.idealEnergy, c.idealEnergy);
    EXPECT_EQ(b.params.gamma, c.params.gamma);
}

} // namespace
} // namespace redqaoa
