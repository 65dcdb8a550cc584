#include "selftest.hpp"

#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <cstring>
#include <vector>

#include "measure.hpp"

namespace perfbench {

namespace {

#define EXPECT(cond)                                                           \
    do {                                                                       \
        if (!(cond)) {                                                         \
            failure = std::string(__func__) + ": " #cond;                      \
            return false;                                                      \
        }                                                                      \
    } while (0)

bool
near(double a, double b, double tol)
{
    return std::fabs(a - b) <= tol;
}

bool
percentilePick(std::string &failure)
{
    std::vector<double> hundred;
    for (int i = 100; i >= 1; --i) // Unsorted on purpose.
        hundred.push_back(i);
    PercentilePick p99 = pickPercentile(hundred, 99.0);
    EXPECT(p99.value == 99.0 && p99.rank == 99 && p99.beyond == 1);
    PercentilePick p50 = pickPercentile(hundred, 50.0);
    EXPECT(p50.value == 50.0 && p50.beyond == 50);
    EXPECT(pickPercentile(hundred, 100.0).value == 100.0);
    // p90 of ten samples is the ninth, leaving one beyond it.
    std::vector<double> ten = {3, 1, 4, 1, 5, 9, 2, 6, 5, 3};
    PercentilePick p90 = pickPercentile(ten, 90.0);
    EXPECT(p90.value == 6.0 && p90.rank == 9 && p90.beyond == 1);
    // p75 of 56 samples: rank 42, fourteen beyond.
    std::vector<double> fiftySix(56);
    for (std::size_t i = 0; i < fiftySix.size(); ++i)
        fiftySix[i] = static_cast<double>(i + 1);
    PercentilePick p75 = pickPercentile(fiftySix, 75.0);
    EXPECT(p75.value == 42.0 && p75.beyond == 14);
    EXPECT(pickPercentile({}, 99.0).rank == 0);
    EXPECT(median({4, 1, 3, 2}) == 2.5 && median({5, 1, 3}) == 3.0);
    return true;
}

bool
quietHalf(std::string &failure)
{
    // The five least-stolen of ten parts, in part order; a tie keeps
    // the earlier part.
    std::vector<double> steal = {0.15, 0.0, 0.11, 0.02, 0.004,
                                 0.02, 0.3, 0.0, 0.05, 0.02};
    EXPECT((quietestParts(steal, 5) ==
            std::vector<std::size_t>{1, 3, 4, 5, 7}));
    EXPECT(quietestParts({0.1}, 1) == std::vector<std::size_t>{0});
    EXPECT(quietestParts({0.1, 0.2}, 5).size() == 2);
    return true;
}

/**
 * A child that touches a known amount of memory and burns a known
 * amount of CPU, then waits: the /proc readers must see both.
 */
bool
processReaders(std::string &failure)
{
    constexpr std::size_t kTouchBytes = 48u << 20;
    constexpr double kBurnSeconds = 0.25;
    int ready[2];
    int release[2];
    EXPECT(pipe(ready) == 0 && pipe(release) == 0);
    pid_t child = fork();
    EXPECT(child >= 0);
    if (child == 0) {
        std::vector<char> block(kTouchBytes);
        std::memset(block.data(), 1, block.size());
        volatile double sink = 0.0;
        while (selfCpuSeconds() < kBurnSeconds)
            for (int i = 0; i < 100000; ++i)
                sink = sink + std::sqrt(static_cast<double>(i));
        char byte = static_cast<char>(block[kTouchBytes / 2]);
        (void)!write(ready[1], &byte, 1);
        (void)!read(release[0], &byte, 1);
        _exit(0);
    }
    char byte = 0;
    (void)!read(ready[0], &byte, 1);
    double cpu = processCpuSeconds(child);
    long rssKib = processPeakRssKib(child);
    std::vector<pid_t> kids = childProcesses(getpid());
    (void)!write(release[1], &byte, 1);
    int status = 0;
    waitpid(child, &status, 0);
    for (int fd : {ready[0], ready[1], release[0], release[1]})
        close(fd);
    rusage usage{};
    getrusage(RUSAGE_CHILDREN, &usage);
    double reaped = static_cast<double>(usage.ru_utime.tv_sec) +
                    static_cast<double>(usage.ru_utime.tv_usec) * 1e-6 +
                    static_cast<double>(usage.ru_stime.tv_sec) +
                    static_cast<double>(usage.ru_stime.tv_usec) * 1e-6;

    EXPECT(cpu >= kBurnSeconds - 0.02 && cpu < kBurnSeconds + 0.5);
    // The kernel's own account of the reaped child agrees with /proc.
    EXPECT(near(cpu, reaped, 0.05));
    EXPECT(rssKib >= static_cast<long>(kTouchBytes / 1024));
    EXPECT(rssKib < static_cast<long>(kTouchBytes / 1024) + 64 * 1024);
    EXPECT(std::find(kids.begin(), kids.end(), child) != kids.end());
    EXPECT(processCpuSeconds(child) < 0.0); // Gone once reaped.
    return true;
}

bool
spanSelfTime(std::string &failure)
{
    Span parent{"p", 0.0, 10.0, -1, 0};
    // Children overlap each other and the last one runs past the parent.
    std::vector<Span> children = {{"a", 1.0, 4.0, 0, 0},
                                  {"b", 3.0, 6.0, 0, 0},
                                  {"c", 8.0, 12.0, 0, 0},
                                  {"d", 2.0, 3.0, 0, 0}};
    EXPECT(near(selfTimeOf(parent, children), 3.0, 1e-12));
    EXPECT(near(selfTimeOf(parent, {}), 10.0, 1e-12));

    Tracer tracer;
    int root = tracer.add("root", 0.0, 10.0, -1, 7);
    tracer.add("x", 1.0, 4.0, root, 7);
    tracer.add("y", 3.0, 6.0, root, 7);
    tracer.add("other-request", 0.0, 10.0, -1, 8);
    EXPECT(near(tracer.selfTime(root), 5.0, 1e-12));
    EXPECT(near(tracer.totalSelf("root"), 5.0, 1e-12));
    EXPECT(tracer.count("x") == 1 && near(tracer.total("y"), 3.0, 1e-12));

    // begin() nests under the innermost open span of the same request.
    int outer = tracer.begin("outer", 1);
    int inner = tracer.begin("inner", 1);
    int elsewhere = tracer.begin("elsewhere", 2);
    tracer.end(elsewhere);
    tracer.end(inner);
    tracer.end(outer);
    EXPECT(tracer.spans()[static_cast<std::size_t>(inner)].parent == outer);
    EXPECT(tracer.spans()[static_cast<std::size_t>(elsewhere)].parent ==
           -1);
    EXPECT(tracer.selfTime(outer) >= 0.0);
    return true;
}

bool
hopSubtraction(std::string &failure)
{
    // One outlier pair must not move the paired median.
    EXPECT(near(pairedMedianDifference({5, 6, 7, 100}, {4, 4, 5, 6}), 2.0,
                1e-12));
    // Extra unpaired samples are ignored.
    EXPECT(near(pairedMedianDifference({3, 3, 3}, {1, 2}), 1.5, 1e-12));
    // Pairing matters: medians of each side would give 1, pairs give 0.
    EXPECT(near(pairedMedianDifference({1, 2, 10}, {1, 2, 9}), 0.0, 1e-12));
    return true;
}

bool
hostReaders(std::string &failure)
{
    HostSample a = readHost();
    HostSample b = a;
    b.total += 100;
    b.steal += 25;
    EXPECT(a.total > 0);
    EXPECT(near(stealShare(a, b), 0.25, 1e-12));
    EXPECT(stealShare(a, a) == 0.0);
    return true;
}

#undef EXPECT

} // namespace

bool
runSelfTests(std::string &failure)
{
    return percentilePick(failure) && quietHalf(failure) &&
           processReaders(failure) &&
           spanSelfTime(failure) && hopSubtraction(failure) &&
           hostReaders(failure);
}

} // namespace perfbench
