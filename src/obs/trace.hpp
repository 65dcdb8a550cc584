/**
 * @file
 * Request tracing for the serving path (tentpole of the observability
 * layer). A client opts in by adding "trace": true (or "trace":
 * "<id>") to a schema-v2 request; each hop the request crosses — lb
 * queue, lane forward, worker admission, shard queue, backend
 * evaluate, store lookup, optimizer restarts — records a span into a
 * per-request TraceRecorder, and the v2 response echoes the finished
 * trace as an envelope member:
 *
 *   "trace": {"id": "…", "total_us": …, "spans": [
 *       {"name": "worker.admission", "parent": "",
 *        "start_us": 12, "dur_us": 3, "count": 1}, …]}
 *
 * The trace rides the response envelope next to "route" and never
 * touches "result", preserving the bit-identity contract (the result
 * payload stays a pure function of the request content).
 *
 * Timing uses the steady clock; span offsets are microseconds since
 * the recorder was created at the admitting process. Hot spans that
 * fire many times per request (per-point backend evaluation) are
 * accumulated — one span per (name, parent) with dur_us summed and
 * count incremented — so trace payloads stay bounded.
 *
 * Threading: a request's recorder is handed between threads through
 * the same queues that hand off the request itself, so at most one
 * thread touches it at a time and the recorder needs no lock. The
 * executing thread parks the recorder in thread-local storage
 * (TraceScope) so deep library code (engine drain, optimizer) can
 * attribute spans without plumbing a pointer through every signature;
 * an untraced request leaves the TLS slot null and every tracing
 * entry point degrades to a single pointer test.
 *
 * Completed traces land in a bounded TraceRing per process: a ring of
 * the most recent traces plus a slowlog of the N worst by total
 * duration, served by the "slowlog" service method.
 */

#ifndef REDQAOA_OBS_TRACE_HPP
#define REDQAOA_OBS_TRACE_HPP

#include <chrono>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "common/json.hpp"

namespace redqaoa {
namespace obs {

/** One step of a request's journey; offsets relative to admission. */
struct TraceSpan
{
    std::string name;         //!< Taxonomy name, e.g. "shard.queue".
    std::string parent;       //!< Parent span name; "" for a root.
    std::int64_t startUs = 0; //!< First start, us since admission.
    std::int64_t durUs = 0;   //!< Total duration (summed if merged).
    std::uint64_t count = 1;  //!< Merge count (accumulated spans).
};

/**
 * Collects the spans of one traced request. Created at admission
 * (client-supplied or freshly minted id), carried alongside the
 * request through queues, finished just before the response renders.
 */
class TraceRecorder
{
  public:
    explicit TraceRecorder(std::string id);

    const std::string &id() const { return id_; }
    void setId(std::string id) { id_ = std::move(id); }

    /** Microseconds elapsed since this recorder was created. */
    std::int64_t sinceStartUs() const;

    /** Append a span verbatim. */
    void addSpan(TraceSpan span);

    /**
     * Merge a span by (name, parent): duration sums, count
     * increments, start keeps the minimum. Appends when unseen.
     * For hot spans firing many times per request.
     */
    void accumulate(const std::string &name, const std::string &parent,
                    std::int64_t start_us, std::int64_t dur_us);

    /** Close the trace; total becomes time since creation. */
    void finish();

    /** Close the trace with an explicit total (no clock read). */
    void finish(std::int64_t total_us);

    std::int64_t totalUs() const { return totalUs_; }
    const std::vector<TraceSpan> &spans() const { return spans_; }
    std::vector<TraceSpan> &spans() { return spans_; }

    /** {"id", "total_us", "spans": [...]} (envelope member shape). */
    json::Value toJson() const;

  private:
    std::string id_;
    std::chrono::steady_clock::time_point start_;
    std::int64_t totalUs_ = 0;
    std::vector<TraceSpan> spans_;
};

/** Mint a fresh trace id: 16 hex chars from a process-local PRNG. */
std::string mintTraceId();

/**
 * The executing thread's active recorder, or nullptr when the
 * current request is untraced. Every deep tracing hook checks this
 * first, so the disabled path is one thread-local pointer load.
 */
TraceRecorder *activeTrace();

/** RAII: park @p recorder in the executor's TLS slot for a dispatch. */
class TraceScope
{
  public:
    explicit TraceScope(TraceRecorder *recorder);
    ~TraceScope();

    TraceScope(const TraceScope &) = delete;
    TraceScope &operator=(const TraceScope &) = delete;

  private:
    TraceRecorder *previous_;
};

/**
 * RAII accumulated span against the active trace: measures its own
 * lifetime and calls accumulate() on destruction. A no-op (two
 * loads, no clock read) when no trace is active.
 */
class ScopedSpan
{
  public:
    ScopedSpan(const char *name, const char *parent);
    ~ScopedSpan();

    ScopedSpan(const ScopedSpan &) = delete;
    ScopedSpan &operator=(const ScopedSpan &) = delete;

  private:
    TraceRecorder *recorder_;
    const char *name_;
    const char *parent_;
    std::int64_t startUs_ = 0;
};

/**
 * Bounded per-process store of completed traces: a FIFO ring of the
 * most recent plus a slowlog of the worst by total duration,
 * worst-first. Thread safe.
 */
class TraceRing
{
  public:
    explicit TraceRing(std::size_t ring_capacity = 128,
                       std::size_t slowlog_capacity = 16);

    /** Record a finished trace (copies its json form). */
    void add(const TraceRecorder &recorder);

    std::size_t size() const;

    /**
     * {"captured", "ring_capacity", "slowlog_capacity",
     *  "slowlog": [worst-first trace docs]} — the "slowlog" method
     * result.
     */
    json::Value slowlogJson() const;

  private:
    struct Entry
    {
        std::int64_t totalUs = 0;
        json::Value doc;
    };

    mutable std::mutex mutex_;
    std::size_t ringCapacity_;
    std::size_t slowlogCapacity_;
    std::uint64_t captured_ = 0;
    std::deque<Entry> ring_;
    std::vector<Entry> slowlog_; //!< Sorted worst-first.
};

/**
 * Load-balancer helper: fold a worker's echoed trace into the lb's
 * own recorder. Worker root spans (parent == "") are re-parented
 * under "lb.forward" and worker span offsets are shifted by the
 * forward span's start so the merged timeline shares the lb's
 * admission origin. The worker's trace id is discarded in favour of
 * @p lb (the id the lb minted or propagated). Returns false (leaving
 * @p lb untouched) when @p worker_trace is not a well-formed trace
 * doc.
 */
bool mergeWorkerTrace(TraceRecorder &lb, const json::Value &worker_trace,
                      std::int64_t forward_start_us);

} // namespace obs
} // namespace redqaoa

#endif // REDQAOA_OBS_TRACE_HPP
