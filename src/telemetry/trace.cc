#include "telemetry/trace.hh"

#include <algorithm>
#include <chrono>
#include <map>
#include <utility>

#include "util/json.hh"

namespace wavedyn
{

std::uint64_t
telemetryNowUs()
{
    // steady_clock is CLOCK_MONOTONIC on Linux: immune to wall-clock
    // steps, so span durations never go negative.
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::microseconds>(
            std::chrono::steady_clock::now().time_since_epoch())
            .count());
}

struct SpanTracer::ThreadBuf
{
    std::uint32_t tid = 0;
    std::vector<TraceEvent> events;
};

SpanTracer::SpanTracer()
{
    // Process-unique id keying the thread-local buffer cache; never
    // reused, so stale entries for destroyed tracers cannot alias.
    static std::atomic<std::uint64_t> nextId{1};
    tracerId = nextId.fetch_add(1, std::memory_order_relaxed);
}

SpanTracer::~SpanTracer() = default;

SpanTracer::ThreadBuf &
SpanTracer::localBuf()
{
    thread_local std::vector<std::pair<std::uint64_t, ThreadBuf *>>
        cache;
    for (const auto &e : cache)
        if (e.first == tracerId)
            return *e.second;
    std::lock_guard<std::mutex> lock(mu);
    auto buf = std::make_unique<ThreadBuf>();
    buf->tid = nextTid++;
    bufs.push_back(std::move(buf));
    ThreadBuf *b = bufs.back().get();
    cache.emplace_back(tracerId, b);
    return *b;
}

void
SpanTracer::record(TraceEvent ev)
{
    ThreadBuf &buf = localBuf();
    ev.tid = buf.tid;
    buf.events.push_back(std::move(ev));
}

void
SpanTracer::instant(const std::string &name, const std::string &cat,
                    const std::string &argKey, const std::string &argVal)
{
    if (!enabled())
        return;
    TraceEvent ev;
    ev.name = name;
    ev.cat = cat;
    ev.ph = 'i';
    ev.ts = telemetryNowUs();
    ev.argKey = argKey;
    ev.argVal = argVal;
    record(std::move(ev));
}

void
SpanTracer::complete(const std::string &name, const std::string &cat,
                     std::uint64_t ts, std::uint64_t dur,
                     const std::string &argKey, const std::string &argVal)
{
    if (!enabled())
        return;
    TraceEvent ev;
    ev.name = name;
    ev.cat = cat;
    ev.ph = 'X';
    ev.ts = ts;
    ev.dur = dur;
    ev.argKey = argKey;
    ev.argVal = argVal;
    record(std::move(ev));
}

std::vector<TraceEvent>
SpanTracer::events() const
{
    std::lock_guard<std::mutex> lock(mu);
    std::vector<TraceEvent> out;
    for (const auto &buf : bufs)
        out.insert(out.end(), buf->events.begin(), buf->events.end());
    return out;
}

void
SpanTracer::clear()
{
    // Caller must quiesce recording threads first (pool joined);
    // buffers stay registered so tids are stable across clears.
    std::lock_guard<std::mutex> lock(mu);
    for (const auto &buf : bufs)
        buf->events.clear();
}

JsonValue
SpanTracer::toJson(std::uint64_t pid,
                   const std::string &processName) const
{
    std::vector<TraceEvent> evs = events();
    std::stable_sort(evs.begin(), evs.end(),
                     [](const TraceEvent &a, const TraceEvent &b) {
                         if (a.ts != b.ts)
                             return a.ts < b.ts;
                         return a.tid < b.tid;
                     });

    JsonValue arr = JsonValue::array();

    {
        JsonValue meta = JsonValue::object();
        meta.set("ph", "M");
        meta.set("name", "process_name");
        meta.set("pid", pid);
        JsonValue args = JsonValue::object();
        args.set("name", processName);
        meta.set("args", std::move(args));
        arr.push(std::move(meta));
    }
    std::uint32_t tids = 0;
    for (const TraceEvent &ev : evs)
        tids = std::max(tids, ev.tid + 1);
    for (std::uint32_t t = 0; t < tids; ++t) {
        JsonValue meta = JsonValue::object();
        meta.set("ph", "M");
        meta.set("name", "thread_name");
        meta.set("pid", pid);
        meta.set("tid", static_cast<std::uint64_t>(t));
        JsonValue args = JsonValue::object();
        args.set("name", t == 0 ? std::string("orchestration")
                                : "worker-" + std::to_string(t));
        meta.set("args", std::move(args));
        arr.push(std::move(meta));
    }

    for (const TraceEvent &ev : evs) {
        JsonValue e = JsonValue::object();
        e.set("name", ev.name);
        e.set("cat", ev.cat);
        e.set("ph", std::string(1, ev.ph));
        e.set("ts", ev.ts);
        if (ev.ph == 'X')
            e.set("dur", ev.dur);
        if (ev.ph == 'i')
            e.set("s", "t"); // instant scope: thread
        e.set("pid", pid);
        e.set("tid", static_cast<std::uint64_t>(ev.tid));
        if (!ev.argKey.empty()) {
            JsonValue args = JsonValue::object();
            args.set(ev.argKey, ev.argVal);
            e.set("args", std::move(args));
        }
        arr.push(std::move(e));
    }

    JsonValue doc = JsonValue::object();
    doc.set("traceEvents", std::move(arr));
    return doc;
}

ScopedSpan::ScopedSpan(SpanTracer &tracer, std::string name,
                       std::string cat)
    : tracer_(tracer.enabled() ? &tracer : nullptr),
      name_(std::move(name)), cat_(std::move(cat))
{
    if (tracer_ != nullptr)
        start_ = telemetryNowUs();
}

ScopedSpan::~ScopedSpan()
{
    if (tracer_ == nullptr)
        return;
    std::uint64_t end = telemetryNowUs();
    tracer_->complete(name_, cat_, start_,
                      end > start_ ? end - start_ : 0, argKey_, argVal_);
}

void
ScopedSpan::arg(std::string key, std::string value)
{
    argKey_ = std::move(key);
    argVal_ = std::move(value);
}

std::vector<std::string>
validateTraceDoc(const JsonValue &doc)
{
    std::vector<std::string> problems;
    if (!doc.isObject() || doc.find("traceEvents") == nullptr) {
        problems.push_back("document has no traceEvents member");
        return problems;
    }
    const JsonValue &events = doc.at("traceEvents");
    if (!events.isArray()) {
        problems.push_back("traceEvents is not an array");
        return problems;
    }

    struct Span
    {
        std::uint64_t ts = 0;
        std::uint64_t end = 0;
        std::string name;
    };
    // (pid, tid) -> complete spans, for the nesting check.
    std::map<std::pair<std::uint64_t, std::uint64_t>, std::vector<Span>>
        byThread;

    for (std::size_t i = 0; i < events.size(); ++i) {
        const JsonValue &ev = events.at(i);
        std::string where = "event " + std::to_string(i);
        if (!ev.isObject()) {
            problems.push_back(where + ": not an object");
            continue;
        }
        const JsonValue *name = ev.find("name");
        const JsonValue *ph = ev.find("ph");
        if (name == nullptr || !name->isString())
            problems.push_back(where + ": missing string 'name'");
        if (ph == nullptr || !ph->isString()) {
            problems.push_back(where + ": missing string 'ph'");
            continue;
        }
        if (ph->asString() == "M")
            continue; // metadata carries no timestamps
        const JsonValue *ts = ev.find("ts");
        if (ts == nullptr || !ts->isNumber()) {
            problems.push_back(where + ": missing numeric 'ts'");
            continue;
        }
        if (ph->asString() != "X")
            continue;
        const JsonValue *dur = ev.find("dur");
        if (dur == nullptr || !dur->isNumber()) {
            problems.push_back(where + ": complete event missing 'dur'");
            continue;
        }
        const JsonValue *pid = ev.find("pid");
        const JsonValue *tid = ev.find("tid");
        if (pid == nullptr || tid == nullptr || !pid->isNumber() ||
            !tid->isNumber()) {
            problems.push_back(where + ": complete event missing "
                                       "pid/tid");
            continue;
        }
        Span s;
        s.ts = ts->asUint64();
        s.end = s.ts + dur->asUint64();
        s.name = name != nullptr && name->isString() ? name->asString()
                                                     : std::string();
        byThread[{pid->asUint64(), tid->asUint64()}].push_back(
            std::move(s));
    }

    for (auto &entry : byThread) {
        std::vector<Span> &spans = entry.second;
        // Parent-first at equal start: longer span sorts earlier.
        std::sort(spans.begin(), spans.end(),
                  [](const Span &a, const Span &b) {
                      if (a.ts != b.ts)
                          return a.ts < b.ts;
                      return a.end > b.end;
                  });
        std::vector<const Span *> stack;
        for (const Span &s : spans) {
            while (!stack.empty() && stack.back()->end <= s.ts)
                stack.pop_back();
            if (!stack.empty() && s.end > stack.back()->end)
                problems.push_back(
                    "span '" + s.name + "' (pid " +
                    std::to_string(entry.first.first) + " tid " +
                    std::to_string(entry.first.second) +
                    ") overlaps '" + stack.back()->name +
                    "' without nesting");
            stack.push_back(&s);
        }
    }
    return problems;
}

} // namespace wavedyn
