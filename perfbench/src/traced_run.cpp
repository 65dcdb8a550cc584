/**
 * @file
 * The traced run: per-layer numbers for one workload, in three phases.
 *
 *  A. Fleet: a warm lb fleet under the workload's closed loop for half
 *     the run length, split by process (lb, workers, this process), with
 *     the fleet's own engine and store counters from the lb `health`
 *     document and the steal share of the host.
 *  B. Hops: a sample of the workload's requests sent one at a time to a
 *     fresh warm fleet, to a standalone redqaoa_serve, and through an
 *     in-process ServiceServer::handleLine; paired differences give the
 *     lb hop and the worker transport.
 *  C. Layers: the same sample replayed in-process through the public
 *     functions of each layer (protocol, router, engine, store, graph,
 *     quantum, opt, core), with spans recorded here around each call.
 *     Every replayed payload must equal the one the fleet served.
 */

#include <algorithm>
#include <bit>
#include <chrono>
#include <filesystem>
#include <memory>
#include <stdexcept>
#include <thread>

#include "core/pipeline.hpp"
#include "core/red_qaoa.hpp"
#include "engine/artifact_cache.hpp"
#include "engine/eval_engine.hpp"
#include "engine/result_store.hpp"
#include "graph/subgraph.hpp"
#include "measure.hpp"
#include "opt/cobyla_lite.hpp"
#include "quantum/evaluator.hpp"
#include "quantum/noise.hpp"
#include "runs.hpp"
#include "service/server.hpp"

namespace perfbench {

namespace json = redqaoa::json;
using redqaoa::EvalEngine;
using redqaoa::EvalSpec;
using redqaoa::Graph;
using redqaoa::QaoaParams;
using redqaoa::ResultStore;

namespace {

/** Requests replayed in phases B and C. */
std::size_t
sampleSize(WorkloadKind kind)
{
    switch (kind) {
    case WorkloadKind::ServeHot:
        return 200;
    case WorkloadKind::EvaluateSweep:
        return 48;
    case WorkloadKind::OptimizeStore:
        return 16;
    case WorkloadKind::PipelineNoisy:
        return 4;
    }
    return 16;
}

/** The sample sits far past any op a timed window reaches. */
constexpr std::uint64_t kSampleOffset = 1u << 24;

/** Sum of file sizes under @p dir. */
double
directoryBytes(const std::string &dir)
{
    std::error_code ec;
    double bytes = 0.0;
    for (auto it = std::filesystem::recursive_directory_iterator(dir, ec);
         !ec && it != std::filesystem::recursive_directory_iterator();
         it.increment(ec))
        if (it->is_regular_file(ec))
            bytes += static_cast<double>(it->file_size(ec));
    return bytes;
}

redqaoa::EngineStats
fleetEngineStats(int port)
{
    svc::ServiceClient client = connectClient(port);
    json::Value health = client.call("health");
    const json::Value *engine = health.find("engine");
    if (!engine)
        throw std::runtime_error("lb health document has no engine block");
    return redqaoa::engineStatsFromJson(*engine);
}

double
ratio(double num, double den)
{
    return den > 0.0 ? num / den : 0.0;
}

std::string
requestLine(const Op &op, std::uint64_t id)
{
    json::Value doc = json::Value::object();
    doc["id"] = static_cast<std::size_t>(id);
    doc["method"] = op.method;
    doc["params"] = op.params();
    doc["schema_version"] = svc::kSchemaVersionV2;
    return doc.dump();
}

/** Payload of an outcome as the comparable text the replay produces. */
std::string
servedText(const Outcome &o)
{
    if (!o.payload.empty())
        return o.payload;
    json::Value values = json::Value::array();
    for (double v : o.values)
        values.push(v);
    return values.dump();
}

/**
 * Phase C: re-executes each sampled request through the layers' public
 * functions, the way ServiceRouter does, with spans around each call.
 */
class LayerReplay
{
  public:
    LayerReplay(int lanes, const std::string &store_root)
    {
        for (int l = 0; l < lanes; ++l) {
            auto engine = std::make_shared<EvalEngine>();
            engine->attachStore(std::make_shared<ResultStore>(
                store_root + "/lane" + std::to_string(l)));
            lanes_.push_back(std::move(engine));
        }
    }

    /** Replay one request with spans; returns its payload text. */
    std::string traced(const Op &op, int request) { return run(op, request); }

    /** Replay one request untraced; returns its payload text. */
    std::string untraced(const Op &op) { return run(op, -1); }

    /**
     * Search the graph left behind by moving the reduction (what the
     * served program does today) instead of the reduced graph itself.
     */
    bool searchAfterMove = true;

    Tracer tracer;
    // Counters measured where the work happens.
    double optEvaluations = 0.0;
    std::size_t optRequests = 0;
    std::size_t lanePoints = 0;
    double nodeReduction = 0.0;
    double edgeReduction = 0.0;
    double redFullEvals = 0.0;
    double baselineFullEvals = 0.0;
    double searchNodes = 0.0;
    std::size_t redRequests = 0;
    std::size_t baselineRequests = 0;
    std::vector<double> coverage;

  private:
    /** Span helper: a no-op for untraced (warm-up) replays. */
    struct Scope
    {
        Tracer *tracer;
        int id = -1;
        Scope(Tracer &t, const char *name, int request)
            : tracer(request >= 0 ? &t : nullptr)
        {
            if (tracer)
                id = tracer->begin(name, request);
        }
        ~Scope() { close(); }
        void close()
        {
            if (tracer && id >= 0)
                tracer->end(id);
            id = -1;
        }
    };

    redqaoa::Objective traceObjective(redqaoa::Objective inner,
                                      const char *name, int request,
                                      int *calls)
    {
        return [this, inner = std::move(inner), name, request,
                calls](const std::vector<double> &x) {
            ++*calls;
            Scope s(tracer, name, request);
            return inner(x);
        };
    }

    std::string run(const Op &op, int request)
    {
        const std::string line = requestLine(op, 1);
        svc::Request req;
        {
            Scope s(tracer, "protocol.parse", request);
            req = svc::parseRequest(line);
        }
        EvalEngine &engine = *lanes_[op.lane(lanes_.size())];
        json::Value result;
        double start = nowSeconds();
        {
            Scope dispatch(tracer, "router.dispatch", request);
            if (op.method == "evaluate")
                result = evaluate(engine, req.params, request);
            else if (op.method == "optimize")
                result = optimize(engine, req.params, request);
            else
                result = pipeline(engine, req.params, request);
        }
        double wall = nowSeconds() - start;
        {
            Scope s(tracer, "protocol.render", request);
            svc::RouteInfo route;
            svc::makeResultLine(req.id, result, svc::kSchemaVersionV2,
                                &route);
        }
        if (op.method == "evaluate" && request >= 0)
            kernelProbes(engine, req.params, request);
        if (op.method == "pipeline" && request >= 0) {
            double stages = 0.0;
            for (const Span &sp : tracer.spans())
                if (sp.request == request &&
                    (sp.name == "sa.reduce" || sp.name == "pipeline.search" ||
                     sp.name == "pipeline.refine" ||
                     sp.name == "pipeline.score"))
                    stages += sp.end - sp.start;
            coverage.push_back(ratio(stages, wall));
        }
        if (op.method == "evaluate")
            return result.find("values")->dump();
        return result.dump();
    }

    /** An evaluate request's inputs, decoded the way the router does. */
    struct EvaluateInputs
    {
        Graph g;
        std::vector<QaoaParams> points;
        EvalSpec spec;

        explicit EvaluateInputs(const json::Value &params)
            : g(svc::graphFromJson(*params.find("graph"))),
              points(svc::pointsFromJson(*params.find("points"))),
              spec(svc::specFromJson(params.find("spec")))
        {
            // An unpinned spec takes the points' depth.
            spec.layers = points.front().layers();
        }
    };

    json::Value evaluate(EvalEngine &engine, const json::Value &params,
                         int request)
    {
        auto [g, points, spec] = EvaluateInputs(params);
        redqaoa::EvalBackend kind = redqaoa::resolveBackend(spec, g);
        std::vector<double> values;
        {
            Scope s(tracer, "engine.evaluate", request);
            values = engine.evaluate(g, spec, points);
        }
        json::Value doc = json::Value::object();
        doc["backend"] = redqaoa::backendName(kind);
        json::Value arr = json::Value::array();
        for (double v : values)
            arr.push(json::Value(v));
        doc["values"] = std::move(arr);
        return doc;
    }

    /**
     * Kernel probes outside the dispatch: the scalar point kernel and
     * the lane kernel on the request's own points, plus a cold cut
     * table and canonical certificate for the request's graph.
     */
    void kernelProbes(EvalEngine &engine, const json::Value &params,
                      int request)
    {
        auto [g, points, spec] = EvaluateInputs(params);
        auto evaluator = engine.evaluator(g, spec);
        for (std::size_t k = 0; k < std::min<std::size_t>(points.size(), 8);
             ++k) {
            Scope s(tracer, "kernel.point", request);
            evaluator->expectation(points[k]);
        }
        if (auto *exact =
                dynamic_cast<redqaoa::ExactEvaluator *>(evaluator.get())) {
            std::vector<const QaoaParams *> ptrs;
            for (const QaoaParams &p : points)
                ptrs.push_back(&p);
            std::vector<double> out(points.size());
            Scope s(tracer, "kernel.lane_batch", request);
            exact->batchExpectationInto(ptrs, out);
            lanePoints += points.size();
        }
        {
            redqaoa::ArtifactCache cold;
            Scope s(tracer, "artifacts.cut_table", request);
            cold.cutTable(g);
        }
        {
            Scope s(tracer, "iso.certificate", request);
            ResultStore::graphKey(g);
        }
    }

    json::Value optimize(EvalEngine &engine, const json::Value &params,
                         int request)
    {
        Graph g = svc::graphFromJson(*params.find("graph"));
        EvalSpec spec = svc::specFromJson(params.find("spec"));
        redqaoa::EvalBackend kind = redqaoa::resolveBackend(spec, g);
        int restarts = static_cast<int>(params.find("restarts")->asNumber());
        redqaoa::OptOptions optOpts;
        optOpts.maxEvaluations =
            static_cast<int>(params.find("max_evaluations")->asNumber());
        std::uint64_t seed =
            static_cast<std::uint64_t>(params.find("seed")->asNumber());
        int layers = spec.layers;

        auto respond = [&](const ResultStore::OptimizeRecord &rec) {
            std::vector<double> x(rec.xBits.size());
            for (std::size_t i = 0; i < x.size(); ++i)
                x[i] = std::bit_cast<double>(rec.xBits[i]);
            json::Value doc = json::Value::object();
            doc["backend"] = redqaoa::backendName(kind);
            doc["params"] = svc::qaoaParamsToJson(QaoaParams::unflatten(x));
            doc["energy"] = -std::bit_cast<double>(rec.valueBits);
            doc["evaluations"] = static_cast<int>(rec.evaluations);
            doc["restarts"] = static_cast<int>(rec.restarts);
            return doc;
        };

        ResultStore &store = *engine.store();
        std::string graphKey;
        {
            Scope s(tracer, "iso.certificate", request);
            graphKey = ResultStore::graphKey(g);
        }
        const std::string specKey = redqaoa::backendCacheKey(spec, kind);
        char step[32];
        std::snprintf(step, sizeof step, "%llx",
                      static_cast<unsigned long long>(
                          std::bit_cast<std::uint64_t>(optOpts.initialStep)));
        const std::string optKey =
            "p=" + std::to_string(layers) + ";r=" + std::to_string(restarts) +
            ";m=" + std::to_string(optOpts.maxEvaluations) + ";s=" + step +
            ";seed=" + std::to_string(seed) + ";warm=0";
        ResultStore::OptimizeRecord hit;
        bool found = false;
        {
            Scope s(tracer, "store.lookup", request);
            found = store.lookupOptimize(graphKey, specKey, optKey, hit);
        }
        if (request >= 0)
            ++optRequests;
        if (found)
            return respond(hit);

        int calls = 0;
        redqaoa::Objective obj = traceObjective(
            engine.objective(g, spec), "kernel.point", request, &calls);
        redqaoa::CobylaLite optimizer(optOpts);
        redqaoa::Rng rng(seed);
        std::vector<redqaoa::OptResult> runs;
        {
            Scope s(tracer, "opt.minimize", request);
            runs = redqaoa::multiRestart(
                optimizer, obj, restarts,
                [layers](redqaoa::Rng &r) {
                    return QaoaParams::random(layers, r).flatten();
                },
                rng);
        }
        if (request >= 0)
            optEvaluations += calls;
        std::size_t best = redqaoa::bestRun(runs);
        int evaluations = 0;
        for (const redqaoa::OptResult &run : runs)
            evaluations += run.evaluations;
        ResultStore::OptimizeRecord rec;
        for (double v : runs[best].x)
            rec.xBits.push_back(std::bit_cast<std::uint64_t>(v));
        rec.valueBits = std::bit_cast<std::uint64_t>(runs[best].value);
        rec.evaluations = static_cast<std::uint32_t>(evaluations);
        rec.restarts = static_cast<std::uint32_t>(restarts);
        {
            Scope s(tracer, "store.append", request);
            store.recordOptimize(graphKey, specKey, optKey, g, layers, rec);
        }
        return respond(rec);
    }

    json::Value pipeline(EvalEngine &engine, const json::Value &params,
                         int request)
    {
        Graph g = svc::graphFromJson(*params.find("graph"));
        redqaoa::PipelineOptions opts;
        opts.noise =
            svc::noiseFromJson(*params.find("options")->find("noise"));
        const json::Value *b = params.find("baseline");
        const bool baseline = b && b->asBool();
        redqaoa::Rng rng(
            static_cast<std::uint64_t>(params.find("rng_seed")->asNumber()));

        redqaoa::ReductionResult reduction;
        if (baseline) {
            std::vector<redqaoa::Node> all(
                static_cast<std::size_t>(g.numNodes()));
            for (redqaoa::Node v = 0; v < g.numNodes(); ++v)
                all[static_cast<std::size_t>(v)] = v;
            reduction.reduced = redqaoa::inducedSubgraph(g, all);
            reduction.andRatio = 1.0;
        } else {
            Scope s(tracer, "sa.reduce", request);
            reduction = redqaoa::RedQaoaReducer(opts.reducer).reduce(g, rng);
        }
        // RedQaoaPipeline::runWithSearchGraph binds its search graph to
        // the reduction it then moves into the result, so the served
        // search runs on the moved-from graph. The replay follows
        // whichever graph reproduces the served payload (see
        // searchAfterMove) and reports the searched size.
        redqaoa::ReductionResult kept = std::move(reduction);
        const Graph &searchGraph =
            searchAfterMove ? reduction.reduced.graph : kept.reduced.graph;
        const bool searchOnFull = searchGraph.numNodes() == g.numNodes() &&
                                  searchGraph.numEdges() == g.numEdges();

        int searchCalls = 0;
        std::vector<redqaoa::OptResult> searchRuns;
        {
            Scope s(tracer, "pipeline.search", request);
            redqaoa::Objective searchObj = traceObjective(
                engine.objective(
                    searchGraph,
                    EvalSpec::noisy(redqaoa::noise::transpiled(
                                        opts.noise, searchGraph.numNodes()),
                                    opts.layers, opts.trajectories,
                                    opts.seed, opts.shots)),
                searchOnFull ? "kernel.trajectory_eval.full"
                             : "kernel.trajectory_eval.reduced",
                request, &searchCalls);
            redqaoa::OptOptions searchOpts;
            searchOpts.maxEvaluations = opts.searchEvaluations;
            redqaoa::CobylaLite optimizer(searchOpts);
            searchRuns = redqaoa::multiRestart(
                optimizer, searchObj, opts.restarts,
                [&opts](redqaoa::Rng &r) {
                    return QaoaParams::random(opts.layers, r).flatten();
                },
                rng);
        }
        std::vector<double> x = searchRuns[redqaoa::bestRun(searchRuns)].x;

        int refineCalls = 0;
        redqaoa::OptResult refineRun;
        {
            Scope s(tracer, "pipeline.refine", request);
            redqaoa::Objective refineObj = traceObjective(
                engine.objective(
                    g, EvalSpec::noisy(
                           redqaoa::noise::transpiled(opts.noise,
                                                      g.numNodes()),
                           opts.layers, opts.trajectories, opts.seed + 1,
                           opts.shots)),
                "kernel.trajectory_eval.full", request, &refineCalls);
            redqaoa::OptOptions refineOpts;
            refineOpts.maxEvaluations = opts.refineEvaluations;
            refineOpts.initialStep = 0.15;
            refineRun = redqaoa::CobylaLite(refineOpts).minimize(refineObj, x);
        }
        QaoaParams final = QaoaParams::unflatten(refineRun.x);

        double idealEnergy = 0.0;
        int maxCut = 0;
        {
            Scope s(tracer, "pipeline.score", request);
            auto ideal = engine.evaluator(
                g, EvalSpec::ideal(opts.layers, opts.exactQubitLimit));
            idealEnergy = ideal->expectation(final);
            redqaoa::Rng cutRng = rng.split();
            maxCut = redqaoa::maxCutBest(g, cutRng);
        }

        if (request >= 0) {
            const double fullEvals =
                refineCalls + (searchOnFull ? searchCalls : 0);
            optEvaluations += searchCalls + refineCalls;
            ++optRequests;
            if (baseline) {
                baselineFullEvals += fullEvals;
                ++baselineRequests;
            } else {
                redFullEvals += fullEvals;
                searchNodes += searchGraph.numNodes();
                nodeReduction += kept.nodeReduction;
                edgeReduction += kept.edgeReduction;
                ++redRequests;
            }
        }

        json::Value doc = json::Value::object();
        doc["flow"] = baseline ? "baseline" : "red-qaoa";
        doc["nodes"] = g.numNodes();
        doc["edges"] = g.numEdges();
        doc["reduced_nodes"] = kept.reduced.graph.numNodes();
        doc["and_ratio"] = kept.andRatio;
        doc["ideal_energy"] = idealEnergy;
        doc["approx_ratio"] =
            maxCut > 0 ? idealEnergy / maxCut : 1.0;
        doc["max_cut"] = maxCut;
        doc["params"] = svc::qaoaParamsToJson(final);
        return doc;
    }

    /** One engine with its own store per lb lane, as in the fleet. */
    std::vector<std::shared_ptr<EvalEngine>> lanes_;
};

/** Mean duration of the spans named @p name, or 0 without any. */
double
meanSpan(const Tracer &t, const std::string &name)
{
    return ratio(t.total(name), static_cast<double>(t.count(name)));
}

/** Mean over requests of @p name spans of one flow (by request ids). */
double
meanSpanOver(const Tracer &t, const std::string &name,
             const std::vector<int> &requests)
{
    double sum = 0.0;
    for (const Span &s : t.spans())
        if (s.name == name &&
            std::find(requests.begin(), requests.end(), s.request) !=
                requests.end())
            sum += s.end - s.start;
    return ratio(sum, static_cast<double>(requests.size()));
}

} // namespace

RunReport
runTraced(const Workload &workload, const RunContext &ctx)
{
    RunReport report;
    const HostSample host0 = readHost();

    // ---- A: the fleet, split by process -----------------------------
    WarmFleet warm = startWarmFleet(workload, ctx, "fleet");
    const std::vector<pid_t> workers = warm.fleet->workerPids();
    const pid_t lb = warm.fleet->lbPid();
    // Health probes refresh the lb's copy of worker counters.
    const double probeWait = 0.5;
    std::this_thread::sleep_for(std::chrono::duration<double>(probeWait));
    const redqaoa::EngineStats engine0 = fleetEngineStats(warm.fleet->port());
    const double lbCpu0 = processCpuSeconds(lb);
    const double workerCpu0 = fleetCpuSeconds(workers);
    LoadResult load = runClosedLoop(warm.fleet->port(), workload,
                                    ctx.seconds / 2, ctx.connections, {}, 1);
    const double lbCpu1 = processCpuSeconds(lb);
    const double workerCpu1 = fleetCpuSeconds(workers);
    std::this_thread::sleep_for(std::chrono::duration<double>(probeWait));
    const redqaoa::EngineStats engine1 = fleetEngineStats(warm.fleet->port());
    warm.fleet->stop();
    const double storeBytes = directoryBytes(ctx.workDir + "/fleet/store");
    const HostSample host1 = readHost();

    double okInWindow = 0.0;
    double queueSum = 0.0;
    double queueCount = 0.0;
    for (const Outcome &o : load.outcomes) {
        if (o.ok && o.done <= load.end)
            okInWindow += 1.0;
        if (o.ok && o.queueMs >= 0.0) {
            queueSum += o.queueMs;
            queueCount += 1.0;
        }
    }
    const double sent = static_cast<double>(load.outcomes.size());
    auto delta = [](std::uint64_t a, std::uint64_t b) {
        return static_cast<double>(b - a);
    };
    report.add("lb.cpu_ms_per_req", ratio((lbCpu1 - lbCpu0) * 1e3, okInWindow),
               "ms");
    report.add("worker.cpu_ms_per_req",
               ratio((workerCpu1 - workerCpu0) * 1e3, okInWindow), "ms");
    report.add("client.cpu_ms_per_req",
               ratio(load.clientCpuSeconds * 1e3, okInWindow), "ms");
    report.add("server.queue_ms", ratio(queueSum, queueCount), "ms");
    report.add("engine.memo_hit_rate",
               ratio(delta(engine0.memoHits, engine1.memoHits),
                     delta(engine0.points, engine1.points)),
               "ratio");
    report.add("engine.evaluated_per_req",
               ratio(delta(engine0.evaluated, engine1.evaluated), sent),
               "count");
    report.add("engine.evaluator_hit_rate",
               ratio(delta(engine0.evaluatorHits, engine1.evaluatorHits),
                     delta(engine0.evaluatorHits, engine1.evaluatorHits) +
                         delta(engine0.evaluatorMisses,
                               engine1.evaluatorMisses)),
               "ratio");
    report.add("store.warm_hit_rate",
               ratio(delta(engine0.store.warmHits, engine1.store.warmHits),
                     delta(engine0.store.warmHits, engine1.store.warmHits) +
                         delta(engine0.store.coldMisses,
                               engine1.store.coldMisses)),
               "ratio");
    report.add("store.log_bytes", storeBytes, "bytes");
    report.add("host.steal_frac", stealShare(host0, host1), "ratio");
    verifyRun(workload, ctx, warm, load, report);

    // ---- B: the same requests through lb, direct and in-process -----
    std::vector<Op> sample;
    for (std::size_t k = 0; k < sampleSize(workload.kind()); ++k)
        sample.push_back(workload.op(kSampleOffset + k));
    WarmFleet hopFleet = startWarmFleet(workload, ctx, "hop-fleet");
    makeDirs(ctx.workDir + "/direct");
    ServerProcess direct =
        spawnStandalone(ctx.bins, ctx.workDir + "/direct", ctx.workDir,
                        "direct");
    svc::ServerOptions inOpts;
    inOpts.storeDir = ctx.workDir + "/inproc";
    svc::ServiceServer inproc(inOpts);
    svc::ServiceClient lbClient = connectClient(hopFleet.fleet->port());
    svc::ServiceClient directClient = connectClient(direct.port());
    std::uint64_t lineId = 0;
    for (const Op &op : hopFleet.warmup) {
        sendOp(directClient, op);
        inproc.handleLine(requestLine(op, ++lineId));
    }
    std::vector<double> viaLb, viaDirect, inProcess;
    std::vector<Outcome> served;
    for (const Op &op : sample) {
        Outcome a = sendOp(lbClient, op);
        Outcome b = sendOp(directClient, op);
        std::string line = requestLine(op, ++lineId);
        double t0 = nowSeconds();
        std::string answer = inproc.handleLine(line);
        double t1 = nowSeconds();
        if (!a.ok || !b.ok || !svc::parseResponse(answer).ok)
            ++report.failed;
        report.attempted += 3;
        viaLb.push_back(a.done - a.sent);
        viaDirect.push_back(b.done - b.sent);
        inProcess.push_back(t1 - t0);
        served.push_back(std::move(a));
    }
    direct.stop();
    hopFleet.fleet->stop();
    report.add("lb.hop_us", pairedMedianDifference(viaLb, viaDirect) * 1e6,
               "us");
    report.add("server.transport_us",
               pairedMedianDifference(viaDirect, inProcess) * 1e6, "us");

    // ---- C: the layers, replayed in-process with spans ---------------
    LayerReplay replay(ctx.workers, ctx.workDir + "/replay");
    for (const Op &op : hopFleet.warmup)
        replay.untraced(op);
    // Pick the search graph that reproduces the served pipeline payload
    // (the first sampled request decides, before any span is recorded).
    if (sample.front().method == "pipeline" && served.front().ok &&
        replay.untraced(sample.front()) != servedText(served.front()))
        replay.searchAfterMove = false;
    std::vector<int> redIds, baselineIds;
    std::size_t replayMismatches = 0;
    for (std::size_t k = 0; k < sample.size(); ++k) {
        const int id = static_cast<int>(k);
        std::string got = replay.traced(sample[k], id);
        if (served[k].ok && got != servedText(served[k]))
            ++replayMismatches;
        if (sample[k].method == "pipeline")
            (sample[k].pipeline.baseline ? baselineIds : redIds).push_back(id);
    }
    report.attempted += sample.size();
    report.failed += replayMismatches;

    const Tracer &t = replay.tracer;
    const double perRequest = static_cast<double>(sample.size());
    report.add("protocol.parse_us", meanSpan(t, "protocol.parse") * 1e6, "us");
    report.add("protocol.render_us", meanSpan(t, "protocol.render") * 1e6,
               "us");
    report.add("router.dispatch_us",
               ratio(t.totalSelf("router.dispatch"), perRequest) * 1e6, "us");
    report.add("engine.evaluate_us", meanSpan(t, "engine.evaluate") * 1e6,
               "us");
    report.add("artifacts.cut_table_ms",
               meanSpan(t, "artifacts.cut_table") * 1e3, "ms");
    report.add("store.lookup_us", meanSpan(t, "store.lookup") * 1e6, "us");
    report.add("store.append_us", meanSpan(t, "store.append") * 1e6, "us");
    report.add("iso.certificate_us", meanSpan(t, "iso.certificate") * 1e6,
               "us");
    report.add("kernel.point_us", meanSpan(t, "kernel.point") * 1e6, "us");
    report.add("kernel.lane_point_us",
               ratio(t.total("kernel.lane_batch"),
                     static_cast<double>(replay.lanePoints)) *
                   1e6,
               "us");
    report.add("kernel.trajectory_eval_ms.reduced",
               meanSpan(t, "kernel.trajectory_eval.reduced") * 1e3, "ms");
    report.add("kernel.trajectory_eval_ms.full",
               meanSpan(t, "kernel.trajectory_eval.full") * 1e3, "ms");
    const double optRequests = static_cast<double>(replay.optRequests);
    report.add("opt.self_ms",
               ratio(t.totalSelf("opt.minimize") +
                         t.totalSelf("pipeline.search") +
                         t.totalSelf("pipeline.refine"),
                     optRequests) *
                   1e3,
               "ms");
    report.add("opt.evaluations_per_req",
               ratio(replay.optEvaluations, optRequests), "count");
    const double reds = static_cast<double>(replay.redRequests);
    report.add("sa.reduce_ms", meanSpanOver(t, "sa.reduce", redIds) * 1e3,
               "ms");
    report.add("pipeline.search_ms",
               meanSpanOver(t, "pipeline.search", redIds) * 1e3, "ms");
    report.add("pipeline.refine_ms",
               meanSpanOver(t, "pipeline.refine", redIds) * 1e3, "ms");
    report.add("pipeline.score_ms",
               meanSpanOver(t, "pipeline.score", redIds) * 1e3, "ms");
    report.add("pipeline.wall_ms",
               meanSpanOver(t, "router.dispatch", redIds) * 1e3, "ms");
    report.add("baseline.wall_ms",
               meanSpanOver(t, "router.dispatch", baselineIds) * 1e3, "ms");
    report.add("pipeline.search_nodes", ratio(replay.searchNodes, reds),
               "count");
    report.add("pipeline.full_graph_evals", ratio(replay.redFullEvals, reds),
               "count");
    report.add("baseline.full_graph_evals",
               ratio(replay.baselineFullEvals,
                     static_cast<double>(replay.baselineRequests)),
               "count");
    report.add("reduce.node_reduction", ratio(replay.nodeReduction, reds),
               "ratio");
    report.add("reduce.edge_reduction", ratio(replay.edgeReduction, reds),
               "ratio");
    double coverage = 0.0;
    for (double c : replay.coverage)
        coverage += c;
    report.add("pipeline.stage_coverage",
               ratio(coverage, static_cast<double>(replay.coverage.size())),
               "ratio");

    json::Value doc = json::Value::object();
    doc["sample"] = sample.size();
    doc["replay_mismatches"] = replayMismatches;
    doc["spans"] = t.spans().size();
    doc["fleet_window_s"] = ctx.seconds / 2;
    report.diagnostics["trace"] = std::move(doc);
    return report;
}

} // namespace perfbench
