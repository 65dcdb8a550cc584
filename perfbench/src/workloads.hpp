/**
 * @file
 * Seeded request generators for the four benchmark workloads. A
 * workload is a pure function of (name, seed): op(i) is the i-th
 * request of the timed stream and warmup() the requests sent before
 * timing starts. Only these generated requests reach the fleet.
 */

#ifndef PERFBENCH_WORKLOADS_HPP
#define PERFBENCH_WORKLOADS_HPP

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "service/client.hpp"

namespace perfbench {

namespace svc = redqaoa::service;

/** One generated request: exactly one of the typed requests is live. */
struct Op
{
    std::string method; //!< "evaluate", "optimize" or "pipeline".
    svc::EvaluateRequest evaluate;
    svc::OptimizeRequest optimize;
    svc::PipelineRequest pipeline;
    /** Timed-stream op that must be answered before this one is sent. */
    std::int64_t after = -1;

    redqaoa::json::Value params() const;
    const redqaoa::Graph &graph() const;
    /** The v2 request envelope this op is sent as. */
    svc::Request request() const;
    /** The lb lane (worker) of this op among @p lanes, as the lb routes. */
    std::size_t lane(std::size_t lanes) const;
};

enum class WorkloadKind
{
    ServeHot,
    EvaluateSweep,
    OptimizeStore,
    PipelineNoisy,
};

class Workload
{
  public:
    /** The named workload at @p seed; null for an unknown name. */
    static std::unique_ptr<Workload> make(const std::string &name,
                                          std::uint64_t seed);

    WorkloadKind kind() const { return kind_; }
    const std::string &name() const { return name_; }

    /** The fixed tail percentile this workload reports. */
    double tailPercentile() const;

    /** Requests of the timed stream, a pure function of (seed, i). */
    Op op(std::uint64_t i) const;

    /** Requests that fill caches before timing starts. */
    std::vector<Op> warmup() const;

    /** Hex digest of the warm-up requests and the stream's first ops. */
    std::string digest(std::size_t prefix = 512) const;

  private:
    Workload(WorkloadKind kind, std::string name, std::uint64_t seed);

    /** optimize op @p j of a stream, of kOptimizeShapes[@p shape]. */
    Op freshOptimize(std::uint64_t salt, std::uint64_t j,
                     std::size_t shape) const;
    bool freshOptimizeSlot(std::uint64_t j) const;

    WorkloadKind kind_;
    std::string name_;
    std::uint64_t seed_;
    std::vector<redqaoa::Graph> graphs_;
    /** serve-hot: (graph, point) pool; evaluate-sweep: grid per tile. */
    std::vector<std::vector<redqaoa::QaoaParams>> points_;
};

} // namespace perfbench

#endif // PERFBENCH_WORKLOADS_HPP
