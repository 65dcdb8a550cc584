#include "verify.hpp"

#include <atomic>
#include <bit>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <thread>

#include "engine/artifact_cache.hpp"
#include "engine/eval_engine.hpp"
#include "engine/result_store.hpp"
#include "service/router.hpp"

namespace perfbench {

using redqaoa::EvalEngine;
namespace json = redqaoa::json;

namespace {

bool
bitEqual(const std::vector<double> &a, const std::vector<double> &b)
{
    if (a.size() != b.size())
        return false;
    for (std::size_t i = 0; i < a.size(); ++i)
        if (std::bit_cast<std::uint64_t>(a[i]) !=
            std::bit_cast<std::uint64_t>(b[i]))
            return false;
    return true;
}

/** Collects mismatches from verifier threads. */
struct Tally
{
    std::mutex mutex;
    VerifyReport report;

    void add(bool match, const std::string &what)
    {
        std::lock_guard<std::mutex> lock(mutex);
        ++report.checked;
        if (!match) {
            if (report.mismatched++ == 0)
                report.firstMismatch = what;
        }
    }
};

/** Run @p body(t) on @p threads threads and join them. */
template <typename Body>
void
fanOut(int threads, Body body)
{
    std::vector<std::thread> pool;
    for (int t = 0; t < threads; ++t)
        pool.emplace_back(body, t);
    for (std::thread &th : pool)
        th.join();
}

/** evaluate: values against a private EvalEngine per verifier thread. */
void
verifyEvaluate(const std::vector<Answered> &answered, int threads,
               Tally &tally)
{
    // Group identical requests by (graph hash, point bits): serve-hot
    // sends each of its few hundred requests thousands of times.
    std::map<std::vector<std::uint64_t>, std::vector<const Answered *>> groups;
    for (const Answered &a : answered) {
        const svc::EvaluateRequest &req = a.op->evaluate;
        std::vector<std::uint64_t> key = {
            redqaoa::graphStructureHash(req.graph)};
        for (const redqaoa::QaoaParams &p : req.points)
            for (double x : p.flatten())
                key.push_back(std::bit_cast<std::uint64_t>(x));
        groups[std::move(key)].push_back(&a);
    }
    std::vector<const std::vector<const Answered *> *> work;
    for (const auto &[key, group] : groups)
        work.push_back(&group);
    std::atomic<std::size_t> next{0};
    fanOut(threads, [&](int) {
        EvalEngine engine;
        for (std::size_t k; (k = next.fetch_add(1)) < work.size();) {
            const Op &op = *work[k]->front()->op;
            // The router's rule: an unpinned spec takes the points' depth.
            redqaoa::EvalSpec spec = svc::specFromJson(nullptr);
            spec.layers = op.evaluate.points.front().layers();
            std::vector<double> want =
                engine.evaluate(op.evaluate.graph, spec, op.evaluate.points);
            for (const Answered *a : *work[k])
                tally.add(bitEqual(a->outcome->values, want),
                          "evaluate values differ for " +
                              op.params().dump().substr(0, 200));
        }
    });
}

/**
 * optimize: answers can be replays from a lane's store, and a store
 * entry serves every request of the same iso class (ResultStore's graph
 * key) on that lane. Requests of one (lane, key) group therefore go to
 * one verifier thread, in fleet order, through that thread's router for
 * the lane; groups never interact, so they spread across threads.
 */
void
verifyOptimize(const std::vector<Answered> &answered, int lanes,
               const std::string &scratch_dir, int threads, Tally &tally)
{
    std::vector<std::vector<std::pair<std::size_t, const Answered *>>> work(
        static_cast<std::size_t>(threads));
    for (const Answered &a : answered) {
        std::size_t lane = a.op->lane(static_cast<std::size_t>(lanes));
        std::string group = std::to_string(lane) + "/" +
                            redqaoa::ResultStore::graphKey(a.op->graph());
        work[std::hash<std::string>{}(group) %
             static_cast<std::size_t>(threads)]
            .emplace_back(lane, &a);
    }
    fanOut(threads, [&](int t) {
        std::vector<std::unique_ptr<svc::ServiceRouter>> routers;
        for (int lane = 0; lane < lanes; ++lane) {
            auto engine = std::make_shared<EvalEngine>();
            engine->attachStore(std::make_shared<redqaoa::ResultStore>(
                scratch_dir + "/t" + std::to_string(t) + "-lane" +
                std::to_string(lane)));
            routers.push_back(std::make_unique<svc::ServiceRouter>(engine));
        }
        for (const auto &[lane, a] : work[static_cast<std::size_t>(t)]) {
            std::string want =
                routers[lane]->dispatch(a->op->request()).dump();
            tally.add(a->outcome->payload == want,
                      "optimize payload differs: got " +
                          a->outcome->payload + " want " + want);
        }
    });
}

/** pipeline: payloads against private routers, requests spread out. */
void
verifyPipeline(const std::vector<Answered> &answered, int threads,
               Tally &tally)
{
    std::atomic<std::size_t> next{0};
    fanOut(threads, [&](int) {
        svc::ServiceRouter router;
        for (std::size_t k; (k = next.fetch_add(1)) < answered.size();) {
            const Answered &a = answered[k];
            std::string want = router.dispatch(a.op->request()).dump();
            tally.add(a.outcome->payload == want,
                      "pipeline payload differs: got " +
                          a.outcome->payload + " want " + want);
        }
    });
}

} // namespace

VerifyReport
verifyAnswers(const std::vector<Answered> &answered, int lanes,
              const std::string &scratch_dir, int threads)
{
    std::vector<Answered> ok;
    for (const Answered &a : answered)
        if (a.outcome->ok)
            ok.push_back(a);
    Tally tally;
    if (!ok.empty()) {
        const std::string &method = ok.front().op->method;
        if (method == "evaluate")
            verifyEvaluate(ok, threads, tally);
        else if (method == "optimize")
            verifyOptimize(ok, lanes, scratch_dir, threads, tally);
        else
            verifyPipeline(ok, threads, tally);
    }
    return tally.report;
}

} // namespace perfbench
