#include "obs/trace.hpp"

#include <algorithm>
#include <cstdio>
#include <random>

namespace redqaoa {
namespace obs {

namespace {

thread_local TraceRecorder *t_activeTrace = nullptr;

std::int64_t
elapsedUs(std::chrono::steady_clock::time_point since)
{
    return std::chrono::duration_cast<std::chrono::microseconds>(
               std::chrono::steady_clock::now() - since)
        .count();
}

} // namespace

std::string
mintTraceId()
{
    static std::mutex mutex;
    static std::mt19937_64 rng{std::random_device{}()};
    std::uint64_t bits;
    {
        std::lock_guard<std::mutex> lock(mutex);
        bits = rng();
    }
    char buf[20];
    std::snprintf(buf, sizeof buf, "%016llx",
                  static_cast<unsigned long long>(bits));
    return buf;
}

TraceRecorder::TraceRecorder(std::string id)
    : id_(std::move(id)), start_(std::chrono::steady_clock::now())
{
}

std::int64_t
TraceRecorder::sinceStartUs() const
{
    return elapsedUs(start_);
}

void
TraceRecorder::addSpan(TraceSpan span)
{
    spans_.push_back(std::move(span));
}

void
TraceRecorder::accumulate(const std::string &name,
                          const std::string &parent, std::int64_t start_us,
                          std::int64_t dur_us)
{
    for (TraceSpan &span : spans_) {
        if (span.name == name && span.parent == parent) {
            span.durUs += dur_us;
            span.startUs = std::min(span.startUs, start_us);
            ++span.count;
            return;
        }
    }
    spans_.push_back({name, parent, start_us, dur_us, 1});
}

void
TraceRecorder::finish()
{
    totalUs_ = elapsedUs(start_);
}

void
TraceRecorder::finish(std::int64_t total_us)
{
    totalUs_ = total_us;
}

json::Value
TraceRecorder::toJson() const
{
    json::Value doc = json::Value::object();
    doc["id"] = id_;
    doc["total_us"] = static_cast<double>(totalUs_);
    json::Value spans = json::Value::array();
    for (const TraceSpan &span : spans_) {
        json::Value s = json::Value::object();
        s["name"] = span.name;
        s["parent"] = span.parent;
        s["start_us"] = static_cast<double>(span.startUs);
        s["dur_us"] = static_cast<double>(span.durUs);
        s["count"] = static_cast<double>(span.count);
        spans.push(std::move(s));
    }
    doc["spans"] = std::move(spans);
    return doc;
}

TraceRecorder *
activeTrace()
{
    return t_activeTrace;
}

TraceScope::TraceScope(TraceRecorder *recorder) : previous_(t_activeTrace)
{
    t_activeTrace = recorder;
}

TraceScope::~TraceScope()
{
    t_activeTrace = previous_;
}

ScopedSpan::ScopedSpan(const char *name, const char *parent)
    : recorder_(t_activeTrace), name_(name), parent_(parent)
{
    if (recorder_)
        startUs_ = recorder_->sinceStartUs();
}

ScopedSpan::~ScopedSpan()
{
    if (!recorder_)
        return;
    recorder_->accumulate(name_, parent_, startUs_,
                          recorder_->sinceStartUs() - startUs_);
}

TraceRing::TraceRing(std::size_t ring_capacity, std::size_t slowlog_capacity)
    : ringCapacity_(ring_capacity), slowlogCapacity_(slowlog_capacity)
{
}

void
TraceRing::add(const TraceRecorder &recorder)
{
    Entry entry{recorder.totalUs(), recorder.toJson()};
    std::lock_guard<std::mutex> lock(mutex_);
    ++captured_;
    ring_.push_back(entry);
    while (ring_.size() > ringCapacity_)
        ring_.pop_front();
    // Insertion-sort into the slowlog (worst first); tiny capacity.
    auto pos = std::find_if(slowlog_.begin(), slowlog_.end(),
                            [&](const Entry &e) {
                                return entry.totalUs > e.totalUs;
                            });
    slowlog_.insert(pos, std::move(entry));
    if (slowlog_.size() > slowlogCapacity_)
        slowlog_.pop_back();
}

std::size_t
TraceRing::size() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return ring_.size();
}

json::Value
TraceRing::slowlogJson() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    json::Value doc = json::Value::object();
    doc["captured"] = static_cast<double>(captured_);
    doc["ring_capacity"] = static_cast<double>(ringCapacity_);
    doc["slowlog_capacity"] = static_cast<double>(slowlogCapacity_);
    json::Value worst = json::Value::array();
    for (const Entry &entry : slowlog_)
        worst.push(entry.doc);
    doc["slowlog"] = std::move(worst);
    return doc;
}

bool
mergeWorkerTrace(TraceRecorder &lb, const json::Value &worker_trace,
                 std::int64_t forward_start_us)
{
    if (!worker_trace.isObject())
        return false;
    const json::Value *spans = worker_trace.find("spans");
    if (!spans || !spans->isArray())
        return false;
    for (const json::Value &span : spans->asArray()) {
        if (!span.isObject())
            return false;
        const json::Value *name = span.find("name");
        const json::Value *parent = span.find("parent");
        const json::Value *start = span.find("start_us");
        const json::Value *dur = span.find("dur_us");
        if (!name || !name->isString() || !parent || !parent->isString() ||
            !start || !start->isNumber() || !dur || !dur->isNumber())
            return false;
        TraceSpan merged;
        merged.name = name->asString();
        // Worker roots hang under the lane-forward span so the merged
        // tree reads lb.queue / lb.forward / worker.admission / ....
        merged.parent = parent->asString().empty() ? "lb.forward"
                                                   : parent->asString();
        merged.startUs = static_cast<std::int64_t>(start->asNumber()) +
                         forward_start_us;
        merged.durUs = static_cast<std::int64_t>(dur->asNumber());
        if (const json::Value *count = span.find("count");
            count && count->isNumber())
            merged.count = static_cast<std::uint64_t>(count->asNumber());
        lb.addSpan(std::move(merged));
    }
    return true;
}

} // namespace obs
} // namespace redqaoa
