#include "spans.hh"

#include <algorithm>
#include <functional>

namespace perfbench
{

const char *
layerName(Layer layer)
{
    switch (layer) {
      case Layer::Workload:
        return "workload";
      case Layer::Sim:
        return "sim";
      case Layer::Exec:
        return "exec";
      case Layer::Cache:
        return "cache";
      case Layer::Core:
        return "core";
      case Layer::Wavelet:
        return "wavelet";
      case Layer::Mlmodel:
        return "mlmodel";
      case Layer::Dse:
        return "dse";
    }
    return "?";
}

int
SpanLog::threadNumber()
{
    return threadIds
        .emplace(std::this_thread::get_id(),
                 static_cast<int>(threadIds.size()))
        .first->second;
}

int
SpanLog::open(const std::string &name, Layer layer, int crossParent,
              bool probe)
{
    std::int64_t start = nowNs();
    std::lock_guard<std::mutex> lock(mu);
    int thread = threadNumber();
    std::vector<int> &stack = stacks[thread];
    Span s;
    s.name = name;
    s.layer = layer;
    s.parent = stack.empty() ? crossParent : stack.back();
    s.thread = thread;
    s.start = start;
    s.probe = probe || (s.parent >= 0 && log[s.parent].probe);
    log.push_back(std::move(s));
    int id = static_cast<int>(log.size()) - 1;
    stack.push_back(id);
    return id;
}

void
SpanLog::close(int id)
{
    std::int64_t end = nowNs();
    std::lock_guard<std::mutex> lock(mu);
    log[id].end = end;
    std::vector<int> &stack = stacks[log[id].thread];
    if (!stack.empty() && stack.back() == id)
        stack.pop_back();
}

void
SpanLog::addTime(int parent, const std::string &name, Layer layer,
                 std::int64_t ns, bool onWorkers)
{
    std::lock_guard<std::mutex> lock(mu);
    Span s;
    s.name = name;
    s.layer = layer;
    s.parent = parent;
    s.thread = onWorkers ? -1 : log[parent].thread;
    s.start = log[parent].start;
    s.end = s.start + ns;
    s.probe = log[parent].probe;
    log.push_back(std::move(s));
}

std::vector<Span>
SpanLog::spans() const
{
    std::lock_guard<std::mutex> lock(mu);
    return log;
}

Attribution
SpanLog::attribute(int root) const
{
    std::vector<Span> all = spans();
    std::vector<std::vector<int>> children(all.size());
    for (std::size_t i = 0; i < all.size(); ++i)
        if (all[i].parent >= 0)
            children[all[i].parent].push_back(static_cast<int>(i));
    const double jobs = static_cast<double>(std::max<std::size_t>(workers, 1));

    // Per-layer seconds of span i, summing to its wall time minus the
    // probes under it. Same-thread children nest inside their parent;
    // children on other threads ran in parallel with it.
    std::function<std::array<double, kLayerCount>(int)> breakdown =
        [&](int i) {
            std::array<double, kLayerCount> out{};
            const Span &s = all[i];
            double selfWall = s.seconds();
            std::array<double, kLayerCount> busy{};
            double busyTotal = 0.0;
            for (int c : children[i]) {
                const Span &child = all[c];
                if (child.thread == s.thread)
                    selfWall -= child.seconds();
                if (child.probe)
                    continue;
                std::array<double, kLayerCount> part = breakdown(c);
                for (std::size_t l = 0; l < kLayerCount; ++l) {
                    if (child.thread == s.thread) {
                        out[l] += part[l];
                    } else {
                        busy[l] += part[l];
                        busyTotal += part[l];
                    }
                }
            }
            selfWall = std::max(selfWall, 0.0);
            double scale = busyTotal > 0.0
                ? std::min(1.0 / jobs, selfWall / busyTotal)
                : 0.0;
            double spent = 0.0;
            for (std::size_t l = 0; l < kLayerCount; ++l) {
                out[l] += busy[l] * scale;
                spent += busy[l] * scale;
            }
            out[static_cast<std::size_t>(s.layer)] += selfWall - spent;
            return out;
        };

    Attribution a;
    if (root < 0 || root >= static_cast<int>(all.size()))
        return a;
    a.seconds = breakdown(root);
    for (double v : a.seconds)
        a.pathSeconds += v;
    return a;
}

double
SpanLog::total(const std::string &name) const
{
    std::lock_guard<std::mutex> lock(mu);
    double sum = 0.0;
    for (const Span &s : log)
        if (s.name == name)
            sum += s.seconds();
    return sum;
}

} // namespace perfbench
