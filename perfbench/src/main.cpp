/**
 * @file
 * perfbench: the repository benchmark.
 *
 *   perfbench --workload NAME --seed N --seconds S --trace 0|1
 *             --lb-bin PATH --serve-bin PATH --work-dir DIR
 *   perfbench --selftest
 *
 * Runs the self-tests, generates the workload's requests from the seed
 * (printing their digest), then either measures the end-to-end metrics
 * through a redqaoa_lb fleet (--trace 0) or the per-layer metrics
 * (--trace 1). Every answer is verified. The last stdout line is the
 * result document: {"correct", "attempted", "failed", "metrics"}.
 * Exit codes: 0 measured, 1 failed, 2 usage error.
 */

#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>

#include "common/thread_pool.hpp"
#include "runs.hpp"
#include "selftest.hpp"

using namespace perfbench;
namespace json = redqaoa::json;

namespace {

[[noreturn]] void
usage(const char *why)
{
    std::fprintf(stderr,
                 "perfbench: %s\n"
                 "usage: perfbench --workload NAME --seed N --seconds S "
                 "--trace 0|1 --lb-bin PATH --serve-bin PATH --work-dir DIR\n"
                 "       perfbench --selftest\n",
                 why);
    std::exit(2);
}

std::string
metricsLine(const RunReport &report, bool correct)
{
    json::Value metrics = json::Value::object();
    for (const Metric &m : report.metrics) {
        json::Value v = json::Value::object();
        v["value"] = m.value;
        v["unit"] = m.unit;
        metrics[m.name] = std::move(v);
    }
    json::Value doc = json::Value::object();
    doc["correct"] = correct;
    doc["attempted"] = report.attempted;
    doc["failed"] = report.failed;
    doc["metrics"] = std::move(metrics);
    return doc.dump();
}

} // namespace

int
main(int argc, char **argv)
{
    std::string workloadName;
    std::string seedText = "1";
    double seconds = 0.0;
    int trace = -1;
    bool selftestOnly = false;
    RunContext ctx;
    for (int i = 1; i < argc; ++i) {
        std::string arg = argv[i];
        auto value = [&]() -> std::string {
            if (++i >= argc)
                usage((arg + " needs a value").c_str());
            return argv[i];
        };
        if (arg == "--workload")
            workloadName = value();
        else if (arg == "--seed")
            seedText = value();
        else if (arg == "--seconds")
            seconds = std::atof(value().c_str());
        else if (arg == "--trace")
            trace = std::atoi(value().c_str());
        else if (arg == "--lb-bin")
            ctx.bins.lb = value();
        else if (arg == "--serve-bin")
            ctx.bins.serve = value();
        else if (arg == "--work-dir")
            ctx.workDir = value();
        else if (arg == "--selftest")
            selftestOnly = true;
        else
            usage(("unknown argument " + arg).c_str());
    }

    // Self-tests fork a child, so they run before any thread exists.
    std::string failure;
    if (!runSelfTests(failure)) {
        std::fprintf(stderr, "perfbench: self-test failed: %s\n",
                     failure.c_str());
        return 1;
    }
    if (selftestOnly) {
        std::printf("perfbench: self-tests passed\n");
        return 0;
    }

    char *end = nullptr;
    unsigned long long seed = std::strtoull(seedText.c_str(), &end, 10);
    if (end == seedText.c_str() || *end != '\0')
        usage("--seed must be a non-negative integer");
    if (!(seconds > 0.0) || (trace != 0 && trace != 1) ||
        ctx.bins.lb.empty() || ctx.bins.serve.empty() || ctx.workDir.empty())
        usage("missing or bad arguments");
    auto workload = Workload::make(workloadName, seed);
    if (!workload)
        usage(("unknown workload '" + workloadName + "'").c_str());
    ctx.seconds = seconds;

    std::signal(SIGPIPE, SIG_IGN);
    becomeSubreaper();
    // Workers run one evaluation thread; so does every in-process
    // check, which keeps their arithmetic identical to the workers'.
    redqaoa::ThreadPool::setGlobalThreads(1);

    std::printf("perfbench: workload=%s seed=%llu inputs=%s\n",
                workloadName.c_str(), seed, workload->digest().c_str());
    std::fflush(stdout);

    RunReport report;
    try {
        makeDirs(ctx.workDir);
        report = trace == 1 ? runTraced(*workload, ctx)
                            : runTimed(*workload, ctx);
    } catch (const std::exception &e) {
        reapChildren();
        std::fprintf(stderr, "perfbench: run failed: %s\n", e.what());
        return 1;
    }
    reapChildren();

    json::Value diag = json::Value::object();
    diag["diagnostics"] = report.diagnostics;
    std::printf("%s\n", diag.dump().c_str());
    bool correct = report.failed == 0 && report.attempted > 0;
    std::printf("%s\n", metricsLine(report, correct).c_str());
    return correct ? 0 : 1;
}
