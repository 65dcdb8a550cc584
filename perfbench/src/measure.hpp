/**
 * @file
 * The benchmark's own arithmetic and host readers: the fixed-percentile
 * pick, /proc CPU / RSS / steal readers, in-memory spans with self time,
 * and the paired lb-hop subtraction. Everything here is pinned by the
 * self-tests in selftest.cpp, which every benchmark run executes first.
 */

#ifndef PERFBENCH_MEASURE_HPP
#define PERFBENCH_MEASURE_HPP

#include <sys/types.h>

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

/** Monotonic wall clock in seconds. */
double nowSeconds();

/** One nearest-rank percentile pick over a sample. */
struct PercentilePick
{
    double value = 0.0;     //!< The sample at the percentile's rank.
    std::size_t rank = 0;   //!< 1-based rank of value in sorted order.
    std::size_t beyond = 0; //!< Samples strictly after that rank.
};

/**
 * Nearest-rank percentile @p q (0 < q <= 100) of @p samples: the
 * ceil(q/100 * N)-th smallest value. Empty input gives a zero pick.
 */
PercentilePick pickPercentile(std::vector<double> samples, double q);

/** Median (mean of the two middle values for even N; 0 when empty). */
double median(std::vector<double> samples);

/**
 * Indices of the @p keep entries of @p steal with the lowest values,
 * ascending by index; ties go to the earlier part.
 */
std::vector<std::size_t> quietestParts(const std::vector<double> &steal,
                                       std::size_t keep);

/** user+sys CPU seconds of process @p pid (all threads); -1 if gone. */
double processCpuSeconds(pid_t pid);

/** VmHWM (peak resident set) of @p pid in KiB; -1 if unreadable. */
long processPeakRssKib(pid_t pid);

/** Live processes whose parent is @p parent, ascending pid. */
std::vector<pid_t> childProcesses(pid_t parent);

/** user+sys CPU seconds of the calling process so far. */
double selfCpuSeconds();

/** Aggregate "cpu" line of /proc/stat plus the 1-minute load average. */
struct HostSample
{
    std::uint64_t steal = 0; //!< Jiffies stolen by the hypervisor.
    std::uint64_t total = 0; //!< All jiffies on the line.
    double load1 = 0.0;
};

HostSample readHost();

/** Share of CPU time stolen between two host samples (0 when idle). */
double stealShare(const HostSample &before, const HostSample &after);

/** One recorded span: a named interval inside one replayed request. */
struct Span
{
    std::string name;
    double start = 0.0;
    double end = 0.0;
    int parent = -1;  //!< Index of the enclosing span; -1 for a root.
    int request = -1; //!< Replayed request the span belongs to.
};

/**
 * In-memory span list. begin() opens a span under the innermost open
 * span of the same request; end() closes it. Spans are only written
 * out when the run ends.
 */
class Tracer
{
  public:
    int begin(const std::string &name, int request);
    void end(int span);
    /** Record an already-measured interval under @p parent. */
    int add(const std::string &name, double start, double end,
            int parent, int request);

    const std::vector<Span> &spans() const { return spans_; }

    /** Duration of span @p i minus the union of its children. */
    double selfTime(int i) const;

    /** Sum of durations of every span named @p name. */
    double total(const std::string &name) const;
    /** Number of spans named @p name. */
    std::size_t count(const std::string &name) const;
    /** Sum of self times of every span named @p name. */
    double totalSelf(const std::string &name) const;

  private:
    std::vector<Span> spans_;
    std::vector<int> open_; //!< Stack of open span indices.
};

/**
 * Self time of @p parent: its duration minus the part of it covered by
 * the union of @p children intervals (clipped to the parent, overlaps
 * counted once).
 */
double selfTimeOf(const Span &parent, const std::vector<Span> &children);

/**
 * The lb-hop estimate: median over paired samples of
 * through_lb[i] - direct[i]. Pairs are the same request sent both ways
 * back to back, so slow phases of the host cancel within a pair.
 */
double pairedMedianDifference(const std::vector<double> &through,
                              const std::vector<double> &direct);

/** FNV-1a 64-bit hash, chained through @p seed. */
std::uint64_t fnv1a(const std::string &bytes,
                    std::uint64_t seed = 1469598103934665603ULL);

/** SplitMix64 finaliser: mixes (a, b) into one well-spread 64-bit key. */
std::uint64_t mix64(std::uint64_t a, std::uint64_t b);

} // namespace perfbench

#endif // PERFBENCH_MEASURE_HPP
