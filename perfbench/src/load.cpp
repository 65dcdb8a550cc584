#include "load.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <memory>
#include <mutex>
#include <thread>

#include "measure.hpp"

namespace perfbench {

namespace {

/** Upper bound on timed ops per run (completion flags are preallocated). */
constexpr std::uint64_t kMaxOps = 1u << 22;

} // namespace

svc::ServiceClient
connectClient(int port)
{
    svc::ConnectOptions opts;
    opts.port = port;
    opts.maxAttempts = 50;
    opts.backoffInitialMs = 1.0;
    opts.backoffMaxMs = 50.0;
    opts.backoffSeed = 1;
    return svc::ServiceClient::connect(opts);
}

Outcome
sendOp(svc::ServiceClient &client, const Op &op)
{
    Outcome out;
    out.sent = nowSeconds();
    try {
        if (op.method == "evaluate") {
            out.values = client.evaluate(op.evaluate).values;
        } else if (op.method == "optimize") {
            out.payload =
                client.call("optimize", op.optimize.toParams()).dump();
        } else {
            out.payload = client.pipeline(op.pipeline).dump();
        }
        out.ok = true;
    } catch (const std::exception &e) {
        out.error = e.what();
    }
    out.done = nowSeconds();
    svc::RouteInfo route;
    if (out.ok && client.lastRoute(route))
        out.queueMs = route.queueMs;
    return out;
}

LoadResult
runClosedLoop(int port, const Workload &workload, double seconds,
              int connections, const std::vector<pid_t> &fleet, int parts)
{
    auto boundary = [&fleet] {
        Boundary b;
        for (pid_t pid : fleet)
            b.fleetCpuSeconds += processCpuSeconds(pid);
        b.host = readHost();
        b.time = nowSeconds();
        return b;
    };
    std::vector<svc::ServiceClient> clients;
    for (int c = 0; c < connections; ++c)
        clients.push_back(connectClient(port));

    auto finished = std::make_unique<std::atomic<bool>[]>(kMaxOps);
    std::atomic<std::uint64_t> next{0};
    std::mutex mutex;
    LoadResult result;

    const double cpu0 = selfCpuSeconds();
    result.boundaries.push_back(boundary());
    result.start = result.boundaries.front().time;
    result.end = result.start + seconds;
    auto body = [&](svc::ServiceClient &client) {
        std::vector<Outcome> mine;
        while (nowSeconds() < result.end) {
            std::uint64_t i = next.fetch_add(1);
            if (i >= kMaxOps)
                break;
            Op op = workload.op(i);
            // A repeat of an earlier request waits for that request's
            // answer, so the store state it meets is fixed by the seed.
            if (op.after >= 0)
                while (!finished[static_cast<std::size_t>(op.after)].load(
                    std::memory_order_acquire))
                    std::this_thread::sleep_for(
                        std::chrono::microseconds(50));
            Outcome o = sendOp(client, op);
            o.op = i;
            finished[i].store(true, std::memory_order_release);
            mine.push_back(std::move(o));
        }
        std::lock_guard<std::mutex> lock(mutex);
        for (Outcome &o : mine)
            result.outcomes.push_back(std::move(o));
    };
    std::vector<std::thread> threads;
    for (auto &client : clients)
        threads.emplace_back(body, std::ref(client));
    for (int k = 1; k <= parts; ++k) {
        double cut = result.start + seconds * k / parts;
        std::this_thread::sleep_for(
            std::chrono::duration<double>(std::max(0.0, cut - nowSeconds())));
        result.boundaries.push_back(boundary());
    }
    for (std::thread &t : threads)
        t.join();
    result.clientCpuSeconds = selfCpuSeconds() - cpu0;
    std::sort(result.outcomes.begin(), result.outcomes.end(),
              [](const Outcome &a, const Outcome &b) { return a.op < b.op; });
    return result;
}

} // namespace perfbench
