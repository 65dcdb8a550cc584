#include "workloads.hpp"

#include <cstdio>
#include <iterator>
#include <numeric>

#include "graph/generators.hpp"
#include "measure.hpp"

namespace perfbench {

using redqaoa::Graph;
using redqaoa::Node;
using redqaoa::QaoaParams;
using redqaoa::Rng;
namespace gen = redqaoa::gen;
namespace json = redqaoa::json;

namespace {

// serve-hot: a small fixed pool, so every value is a memo hit once warm.
constexpr int kHotGraphs = 8;
constexpr int kHotPointsPerGraph = 32;
constexpr int kHotNodes = 12;

// evaluate-sweep: tiles = graph x depth, each with a shared point grid.
constexpr int kSweepGraphsPerSize = 3;
constexpr int kSweepSizes[] = {14, 16};
constexpr int kSweepDepths[] = {1, 2};
constexpr int kSweepGridPoints = 16;
constexpr int kSweepBatchSizes[] = {1, 4, 32};

// optimize-store: a quarter of requests repeat an earlier (graph, seed),
// half of those as a relabeled isomorphic copy. An n=14 optimize costs
// about five n=12 ones; with the sizes 1:1 the median latency would sit
// on the cliff between them, so n=14 comes three times as often.
constexpr struct
{
    int nodes;
    int layers;
} kOptimizeShapes[] = {{12, 1}, {12, 2}, {14, 1}, {14, 2},
                       {14, 1}, {14, 2}, {14, 1}, {14, 2}};
constexpr std::size_t kOptimizeShapeCount = std::size(kOptimizeShapes);
// Connected G(n, 0.25) graphs, not 3-regular ones: colour refinement
// cannot split a regular graph, so ResultStore::graphKey would take its
// exact-structure fallback and relabeled copies would never meet the
// canonical-key path this workload exists to stress.
constexpr double kOptimizeEdgeProbability = 0.25;
constexpr std::uint64_t kOptimizeFreshPrefix = 8;
constexpr std::uint64_t kOptimizeMinDistance = 3;
constexpr std::uint64_t kOptimizeWindow = 61;

constexpr int kPipelineNodes = 12;

// Salts keep the warm-up stream disjoint from the timed stream.
constexpr std::uint64_t kTimedSalt = 0x7117ed;
constexpr std::uint64_t kWarmSalt = 0x3a93;

Graph
relabeled(const Graph &g, Rng &rng)
{
    std::vector<Node> perm(static_cast<std::size_t>(g.numNodes()));
    std::iota(perm.begin(), perm.end(), 0);
    for (std::size_t i = perm.size(); i > 1; --i)
        std::swap(perm[i - 1], perm[rng.next() % i]);
    Graph out(g.numNodes());
    for (const redqaoa::Edge &e : g.edges())
        out.addEdge(perm[static_cast<std::size_t>(e.u)],
                    perm[static_cast<std::size_t>(e.v)]);
    return out;
}

/**
 * Combination of op @p i out of @p combos: each block of @p combos
 * consecutive ops takes every combination once, in a seeded order, so
 * every run sends the same mix whatever its seed and length.
 */
std::size_t
balancedPick(std::uint64_t seed, std::uint64_t i, std::size_t combos)
{
    std::vector<std::size_t> perm(combos);
    std::iota(perm.begin(), perm.end(), 0);
    Rng r(mix64(seed, i / combos));
    for (std::size_t k = combos; k > 1; --k)
        std::swap(perm[k - 1], perm[r.next() % k]);
    return perm[i % combos];
}

Op
evaluateOp(const Graph &g, std::vector<QaoaParams> points)
{
    Op op;
    op.method = "evaluate";
    op.evaluate.graph = g;
    op.evaluate.points = std::move(points);
    return op;
}

} // namespace

json::Value
Op::params() const
{
    if (method == "evaluate")
        return evaluate.toParams();
    if (method == "optimize")
        return optimize.toParams();
    return pipeline.toParams();
}

const Graph &
Op::graph() const
{
    if (method == "evaluate")
        return evaluate.graph;
    if (method == "optimize")
        return optimize.graph;
    return pipeline.graph;
}

svc::Request
Op::request() const
{
    svc::Request req;
    req.id = json::Value(1);
    req.method = method;
    req.params = params();
    req.schemaVersion = svc::kSchemaVersionV2;
    return req;
}

std::size_t
Op::lane(std::size_t lanes) const
{
    std::uint64_t hash = 0;
    svc::requestRouteHash(request(), hash);
    return static_cast<std::size_t>(hash % lanes);
}

std::unique_ptr<Workload>
Workload::make(const std::string &name, std::uint64_t seed)
{
    WorkloadKind kind;
    if (name == "serve-hot")
        kind = WorkloadKind::ServeHot;
    else if (name == "evaluate-sweep")
        kind = WorkloadKind::EvaluateSweep;
    else if (name == "optimize-store")
        kind = WorkloadKind::OptimizeStore;
    else if (name == "pipeline-noisy")
        kind = WorkloadKind::PipelineNoisy;
    else
        return nullptr;
    return std::unique_ptr<Workload>(new Workload(kind, name, seed));
}

Workload::Workload(WorkloadKind kind, std::string name, std::uint64_t seed)
    : kind_(kind), name_(std::move(name)), seed_(seed)
{
    Rng rng(mix64(seed, static_cast<std::uint64_t>(kind)));
    if (kind == WorkloadKind::ServeHot) {
        for (int g = 0; g < kHotGraphs; ++g) {
            graphs_.push_back(gen::randomRegular(kHotNodes, 3, rng));
            std::vector<QaoaParams> pts;
            for (int k = 0; k < kHotPointsPerGraph; ++k)
                pts.push_back(QaoaParams::random(1, rng));
            points_.push_back(std::move(pts));
        }
    } else if (kind == WorkloadKind::EvaluateSweep) {
        for (int n : kSweepSizes)
            for (int g = 0; g < kSweepGraphsPerSize; ++g)
                graphs_.push_back(gen::randomRegular(n, 3, rng));
        // Tile t = graph (t / 2) at depth kSweepDepths[t % 2].
        for (std::size_t g = 0; g < graphs_.size(); ++g)
            for (int p : kSweepDepths) {
                std::vector<QaoaParams> grid;
                for (int k = 0; k < kSweepGridPoints; ++k)
                    grid.push_back(QaoaParams::random(p, rng));
                points_.push_back(std::move(grid));
            }
    }
}

double
Workload::tailPercentile() const
{
    // At least ten samples beyond it at the benchmark's run length. On
    // serve-hot p99 of a 0.2 ms request is set by the host's 1%-level
    // CPU steal stalls, not by the program (see perfbench/README.md).
    switch (kind_) {
    case WorkloadKind::ServeHot:
        return 90.0;
    case WorkloadKind::EvaluateSweep:
        return 99.0;
    case WorkloadKind::OptimizeStore:
        return 95.0;
    case WorkloadKind::PipelineNoisy:
        return 55.0;
    }
    return 99.0;
}

bool
Workload::freshOptimizeSlot(std::uint64_t j) const
{
    return j < kOptimizeFreshPrefix || mix64(seed_ ^ kTimedSalt, j) % 4 != 0;
}

Op
Workload::freshOptimize(std::uint64_t salt, std::uint64_t j,
                        std::size_t shape) const
{
    Rng r(mix64(seed_ ^ salt, j));
    int n = kOptimizeShapes[shape].nodes;
    int p = kOptimizeShapes[shape].layers;
    Op op;
    op.method = "optimize";
    op.optimize.graph = gen::connectedGnp(n, kOptimizeEdgeProbability, r);
    op.optimize.spec = json::Value::object();
    op.optimize.spec["layers"] = p;
    op.optimize.restarts = 3;
    op.optimize.maxEvaluations = 60;
    op.optimize.seed = 1 + mix64(salt, j) % 1000000007ULL;
    return op;
}

Op
Workload::op(std::uint64_t i) const
{
    const std::uint64_t h = mix64(seed_ ^ kTimedSalt, i);
    switch (kind_) {
    case WorkloadKind::ServeHot: {
        std::uint64_t entry = h % (kHotGraphs * kHotPointsPerGraph);
        std::size_t g = entry / kHotPointsPerGraph;
        return evaluateOp(graphs_[g],
                          {points_[g][entry % kHotPointsPerGraph]});
    }
    case WorkloadKind::EvaluateSweep: {
        Rng r(h);
        const std::size_t tiles = points_.size();
        std::size_t combo = balancedPick(seed_ ^ kTimedSalt, i, tiles * 3);
        std::size_t tile = combo % tiles;
        int p = kSweepDepths[tile % 2];
        int batch = kSweepBatchSizes[combo / tiles];
        const auto &grid = points_[tile];
        std::vector<QaoaParams> pts;
        for (int k = 0; k < batch; ++k) {
            if (r.uniform() < 0.5)
                pts.push_back(grid[r.next() % grid.size()]);
            else
                pts.push_back(QaoaParams::random(p, r));
        }
        return evaluateOp(graphs_[tile / 2], std::move(pts));
    }
    case WorkloadKind::OptimizeStore: {
        auto fresh = [this](std::uint64_t j) {
            return freshOptimize(
                kTimedSalt, j,
                balancedPick(seed_ ^ kTimedSalt, j, kOptimizeShapeCount));
        };
        if (freshOptimizeSlot(i))
            return fresh(i);
        std::uint64_t j =
            i - kOptimizeMinDistance - (h >> 8) % kOptimizeWindow;
        if (j > i) // Wrapped below zero: fall back to the first op.
            j = 0;
        while (!freshOptimizeSlot(j))
            --j;
        Op op = fresh(j);
        op.after = static_cast<std::int64_t>(j);
        if ((h >> 40) & 1) {
            Rng r(h);
            op.optimize.graph = relabeled(op.optimize.graph, r);
        }
        return op;
    }
    case WorkloadKind::PipelineNoisy: {
        // Each block of four ops is the Red-QAOA flow on pairs k and
        // k+1, then their baseline twins (same graph, same seed).
        // Twins share a graph and so an lb lane; spacing them apart
        // keeps the two connections from always queueing on one worker.
        std::uint64_t pair = (i / 4) * 2 + (i % 2);
        Rng r(mix64(seed_ ^ kTimedSalt, pair));
        Op op;
        op.method = "pipeline";
        op.pipeline.graph = gen::randomRegular(kPipelineNodes, 3, r);
        op.pipeline.options = json::Value::object();
        json::Value noise = json::Value::object();
        noise["scaled"] = 1.0;
        op.pipeline.options["noise"] = std::move(noise);
        op.pipeline.baseline = (i % 4) >= 2;
        op.pipeline.rngSeed = 1 + mix64(seed_, pair) % 1000000007ULL;
        return op;
    }
    }
    return Op{};
}

std::vector<Op>
Workload::warmup() const
{
    std::vector<Op> out;
    switch (kind_) {
    case WorkloadKind::ServeHot:
        for (std::size_t g = 0; g < graphs_.size(); ++g)
            for (const QaoaParams &pt : points_[g])
                out.push_back(evaluateOp(graphs_[g], {pt}));
        break;
    case WorkloadKind::EvaluateSweep:
        for (std::size_t tile = 0; tile < points_.size(); ++tile)
            out.push_back(evaluateOp(graphs_[tile / 2], points_[tile]));
        break;
    case WorkloadKind::OptimizeStore:
        // One request of each (n, p) shape: the same set-up work at
        // every seed.
        for (std::size_t shape = 0; shape < 4; ++shape)
            out.push_back(freshOptimize(kWarmSalt, shape, shape));
        break;
    case WorkloadKind::PipelineNoisy: {
        Op op = this->op(0);
        Rng r(mix64(seed_ ^ kWarmSalt, 0));
        op.pipeline.graph = gen::randomRegular(kPipelineNodes, 3, r);
        out.push_back(std::move(op));
        break;
    }
    }
    return out;
}

std::string
Workload::digest(std::size_t prefix) const
{
    std::uint64_t h = fnv1a(name_);
    for (const Op &op : warmup())
        h = fnv1a(op.method + op.params().dump(), h);
    for (std::size_t i = 0; i < prefix; ++i) {
        Op o = op(i);
        h = fnv1a(o.method + o.params().dump() + std::to_string(o.after),
                  h);
    }
    char buf[17];
    std::snprintf(buf, sizeof buf, "%016llx",
                  static_cast<unsigned long long>(h));
    return buf;
}

} // namespace perfbench
