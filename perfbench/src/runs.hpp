/**
 * @file
 * The two kinds of benchmark run: the timed end-to-end run (tracing
 * off) and the traced per-layer run.
 */

#ifndef PERFBENCH_RUNS_HPP
#define PERFBENCH_RUNS_HPP

#include <string>
#include <vector>

#include "fleet.hpp"
#include "load.hpp"
#include "report.hpp"
#include "workloads.hpp"

namespace perfbench {

struct RunContext
{
    Binaries bins;
    std::string workDir; //!< Fresh scratch directory for this run.
    double seconds = 10.0;
    int connections = 2;   //!< Closed-loop client connections.
    int workers = 2;       //!< redqaoa_serve processes behind the lb.
    int verifyThreads = 4; //!< In-process verifier threads.
};

/** End-to-end metrics through a real lb fleet (tracing off). */
RunReport runTimed(const Workload &workload, const RunContext &ctx);

/** Per-layer metrics: fleet diagnostics plus an in-process replay. */
RunReport runTraced(const Workload &workload, const RunContext &ctx);

// ---- shared by both runs ---------------------------------------------

/** A started fleet with its warm-up answered. */
struct WarmFleet
{
    std::unique_ptr<Fleet> fleet;
    std::vector<Op> warmup;
    std::vector<Outcome> warmOutcomes;
    double setupSeconds = 0.0; //!< Spawn until the last warm-up answer.
};

/** Spawn a fleet under @p tag and send the workload's warm-up. */
WarmFleet startWarmFleet(const Workload &workload, const RunContext &ctx,
                         const std::string &tag);

/** Summed user+sys CPU seconds of @p pids. */
double fleetCpuSeconds(const std::vector<pid_t> &pids);

/**
 * Verify the warm-up and timed answers of one fleet in the order the
 * fleet received them; adds mismatches and failures to @p report.
 */
void verifyRun(const Workload &workload, const RunContext &ctx,
               const WarmFleet &warm, const LoadResult &load,
               RunReport &report);

/**
 * Mean approximation ratio over the first answered ops of the timed
 * stream: <H_c>/MaxCut for evaluate and optimize answers, the
 * payload's approx_ratio for Red-QAOA pipeline answers.
 */
double approxRatio(const Workload &workload, const LoadResult &load);

/** Create @p path (and parents); throws on failure. */
void makeDirs(const std::string &path);

} // namespace perfbench

#endif // PERFBENCH_RUNS_HPP
