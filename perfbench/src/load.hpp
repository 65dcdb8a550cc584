/**
 * @file
 * The closed-loop load generator: a fixed number of connections, each
 * sending its next request only after the previous answer arrived,
 * drawing ops from one shared counter over the workload's stream.
 */

#ifndef PERFBENCH_LOAD_HPP
#define PERFBENCH_LOAD_HPP

#include <sys/types.h>

#include <cstdint>
#include <string>
#include <vector>

#include "measure.hpp"
#include "workloads.hpp"

namespace perfbench {

/** What came back for one sent request. */
struct Outcome
{
    std::uint64_t op = 0;  //!< Index in the timed stream (or warm-up list).
    double sent = 0.0;     //!< nowSeconds() just before sending.
    double done = 0.0;     //!< nowSeconds() when the answer was decoded.
    bool ok = false;
    double queueMs = -1.0; //!< v2 route.queue_ms (-1 when absent).
    std::vector<double> values; //!< evaluate: the returned values.
    std::string payload;        //!< optimize / pipeline: result JSON.
    std::string error;          //!< Failure text when !ok.
};

/** Connect a v2 client to 127.0.0.1:@p port (retries while binding). */
svc::ServiceClient connectClient(int port);

/** Send @p op on @p client and decode the answer (never throws). */
Outcome sendOp(svc::ServiceClient &client, const Op &op);

/** State sampled at the edges of the window's parts. */
struct Boundary
{
    double time = 0.0;
    double fleetCpuSeconds = 0.0; //!< user+sys of every fleet process.
    HostSample host;
};

struct LoadResult
{
    double start = 0.0; //!< Timed window start.
    double end = 0.0;   //!< Timed window end.
    /** Every timed-stream op sent, sorted by op index. */
    std::vector<Outcome> outcomes;
    double clientCpuSeconds = 0.0; //!< This process's CPU over the window.
    /** Samples at the window start and at the end of each part. */
    std::vector<Boundary> boundaries;
};

/**
 * Drive @p workload's timed stream from op 0 over @p connections
 * closed-loop connections for @p seconds. Requests still in flight at
 * the deadline are awaited and kept, but lie outside the window. The
 * window is cut into @p parts equal parts; the CPU of @p fleet and the
 * host counters are sampled at every cut.
 */
LoadResult runClosedLoop(int port, const Workload &workload, double seconds,
                         int connections, const std::vector<pid_t> &fleet,
                         int parts);

} // namespace perfbench

#endif // PERFBENCH_LOAD_HPP
