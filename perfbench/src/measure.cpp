#include "measure.hpp"

#include <dirent.h>
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <sstream>

namespace perfbench {

double
nowSeconds()
{
    using Clock = std::chrono::steady_clock;
    return std::chrono::duration<double>(Clock::now().time_since_epoch())
        .count();
}

PercentilePick
pickPercentile(std::vector<double> samples, double q)
{
    PercentilePick pick;
    if (samples.empty())
        return pick;
    std::sort(samples.begin(), samples.end());
    const double n = static_cast<double>(samples.size());
    auto rank = static_cast<std::size_t>(std::ceil(q / 100.0 * n - 1e-9));
    rank = std::clamp<std::size_t>(rank, 1, samples.size());
    pick.value = samples[rank - 1];
    pick.rank = rank;
    pick.beyond = samples.size() - rank;
    return pick;
}

double
median(std::vector<double> samples)
{
    if (samples.empty())
        return 0.0;
    std::sort(samples.begin(), samples.end());
    std::size_t mid = samples.size() / 2;
    if (samples.size() % 2 == 1)
        return samples[mid];
    return 0.5 * (samples[mid - 1] + samples[mid]);
}

std::vector<std::size_t>
quietestParts(const std::vector<double> &steal, std::size_t keep)
{
    std::vector<std::size_t> order(steal.size());
    for (std::size_t i = 0; i < order.size(); ++i)
        order[i] = i;
    std::stable_sort(order.begin(), order.end(),
                     [&](std::size_t a, std::size_t b) {
                         return steal[a] < steal[b];
                     });
    order.resize(std::min(keep, order.size()));
    std::sort(order.begin(), order.end());
    return order;
}

namespace {

/** Fields after the parenthesised comm of /proc/<pid>/stat. */
bool
statFields(pid_t pid, std::vector<std::string> &fields)
{
    std::ifstream in("/proc/" + std::to_string(pid) + "/stat");
    std::string line;
    if (!std::getline(in, line))
        return false;
    std::size_t close = line.rfind(')');
    if (close == std::string::npos)
        return false;
    std::istringstream rest(line.substr(close + 1));
    fields.clear();
    std::string field;
    while (rest >> field)
        fields.push_back(field);
    // fields[0] is the state (stat field 3).
    return fields.size() > 13;
}

} // namespace

double
processCpuSeconds(pid_t pid)
{
    std::vector<std::string> fields;
    if (!statFields(pid, fields))
        return -1.0;
    // utime and stime are stat fields 14 and 15.
    double ticks = std::strtod(fields[11].c_str(), nullptr) +
                   std::strtod(fields[12].c_str(), nullptr);
    return ticks / static_cast<double>(sysconf(_SC_CLK_TCK));
}

long
processPeakRssKib(pid_t pid)
{
    std::ifstream in("/proc/" + std::to_string(pid) + "/status");
    std::string line;
    while (std::getline(in, line))
        if (line.rfind("VmHWM:", 0) == 0)
            return std::strtol(line.c_str() + 6, nullptr, 10);
    return -1;
}

std::vector<pid_t>
childProcesses(pid_t parent)
{
    std::vector<pid_t> out;
    DIR *dir = opendir("/proc");
    if (!dir)
        return out;
    while (dirent *entry = readdir(dir)) {
        char *end = nullptr;
        long pid = std::strtol(entry->d_name, &end, 10);
        if (end == entry->d_name || *end != '\0')
            continue;
        std::vector<std::string> fields;
        if (!statFields(static_cast<pid_t>(pid), fields))
            continue;
        // fields[1] is the parent pid (stat field 4); skip zombies.
        if (fields[0] != "Z" &&
            std::strtol(fields[1].c_str(), nullptr, 10) == parent)
            out.push_back(static_cast<pid_t>(pid));
    }
    closedir(dir);
    std::sort(out.begin(), out.end());
    return out;
}

double
selfCpuSeconds()
{
    rusage usage{};
    getrusage(RUSAGE_SELF, &usage);
    auto seconds = [](const timeval &tv) {
        return static_cast<double>(tv.tv_sec) +
               static_cast<double>(tv.tv_usec) * 1e-6;
    };
    return seconds(usage.ru_utime) + seconds(usage.ru_stime);
}

HostSample
readHost()
{
    HostSample sample;
    std::ifstream stat("/proc/stat");
    std::string label;
    stat >> label;
    if (label == "cpu") {
        // user nice system idle iowait irq softirq steal guest guest_nice
        for (int i = 0; i < 10; ++i) {
            std::uint64_t v = 0;
            if (!(stat >> v))
                break;
            // guest time is already counted in user/nice.
            if (i < 8)
                sample.total += v;
            if (i == 7)
                sample.steal = v;
        }
    }
    std::ifstream load("/proc/loadavg");
    load >> sample.load1;
    return sample;
}

double
stealShare(const HostSample &before, const HostSample &after)
{
    if (after.total <= before.total)
        return 0.0;
    return static_cast<double>(after.steal - before.steal) /
           static_cast<double>(after.total - before.total);
}

int
Tracer::begin(const std::string &name, int request)
{
    int parent = -1;
    for (auto it = open_.rbegin(); it != open_.rend(); ++it)
        if (spans_[static_cast<std::size_t>(*it)].request == request) {
            parent = *it;
            break;
        }
    Span span;
    span.name = name;
    span.start = nowSeconds();
    span.end = span.start;
    span.parent = parent;
    span.request = request;
    spans_.push_back(std::move(span));
    open_.push_back(static_cast<int>(spans_.size()) - 1);
    return open_.back();
}

void
Tracer::end(int span)
{
    spans_[static_cast<std::size_t>(span)].end = nowSeconds();
    auto it = std::find(open_.begin(), open_.end(), span);
    if (it != open_.end())
        open_.erase(it);
}

int
Tracer::add(const std::string &name, double start, double end, int parent,
            int request)
{
    spans_.push_back(Span{name, start, end, parent, request});
    return static_cast<int>(spans_.size()) - 1;
}

double
Tracer::selfTime(int i) const
{
    std::vector<Span> children;
    for (const Span &s : spans_)
        if (s.parent == i)
            children.push_back(s);
    return selfTimeOf(spans_[static_cast<std::size_t>(i)], children);
}

double
Tracer::total(const std::string &name) const
{
    double sum = 0.0;
    for (const Span &s : spans_)
        if (s.name == name)
            sum += s.end - s.start;
    return sum;
}

std::size_t
Tracer::count(const std::string &name) const
{
    return static_cast<std::size_t>(
        std::count_if(spans_.begin(), spans_.end(),
                      [&](const Span &s) { return s.name == name; }));
}

double
Tracer::totalSelf(const std::string &name) const
{
    double sum = 0.0;
    for (std::size_t i = 0; i < spans_.size(); ++i)
        if (spans_[i].name == name)
            sum += selfTime(static_cast<int>(i));
    return sum;
}

double
selfTimeOf(const Span &parent, const std::vector<Span> &children)
{
    std::vector<std::pair<double, double>> cover;
    for (const Span &c : children) {
        double lo = std::max(c.start, parent.start);
        double hi = std::min(c.end, parent.end);
        if (hi > lo)
            cover.emplace_back(lo, hi);
    }
    std::sort(cover.begin(), cover.end());
    double covered = 0.0;
    double reach = parent.start;
    for (const auto &[lo, hi] : cover) {
        double from = std::max(lo, reach);
        if (hi > from)
            covered += hi - from;
        reach = std::max(reach, hi);
    }
    return (parent.end - parent.start) - covered;
}

double
pairedMedianDifference(const std::vector<double> &through,
                       const std::vector<double> &direct)
{
    std::size_t n = std::min(through.size(), direct.size());
    std::vector<double> diff(n);
    for (std::size_t i = 0; i < n; ++i)
        diff[i] = through[i] - direct[i];
    return median(std::move(diff));
}

std::uint64_t
fnv1a(const std::string &bytes, std::uint64_t seed)
{
    std::uint64_t h = seed;
    for (unsigned char c : bytes) {
        h ^= c;
        h *= 1099511628211ULL;
    }
    return h;
}

std::uint64_t
mix64(std::uint64_t a, std::uint64_t b)
{
    std::uint64_t z = a * 0x9e3779b97f4a7c15ULL + b + 0x632be59bd9b4e019ULL;
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
}

} // namespace perfbench
