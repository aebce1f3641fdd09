#include "spans.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <fstream>
#include <memory>
#include <mutex>
#include <stdexcept>
#include <unordered_map>

namespace perfbench {

namespace {

struct ThreadBuffer {
    std::vector<SpanRecord> spans;
    std::vector<std::size_t> open;  ///< indices of open spans, LIFO
    std::uint64_t trace = 0;
};

std::mutex g_mutex;
std::vector<std::unique_ptr<ThreadBuffer>> g_buffers;  // outlive threads
std::atomic<std::uint64_t> g_next_id{1};
std::atomic<std::uint64_t> g_next_trace{1};

ThreadBuffer& local_buffer() {
    thread_local ThreadBuffer* buffer = nullptr;
    if (buffer == nullptr) {
        std::lock_guard<std::mutex> lock(g_mutex);
        g_buffers.push_back(std::make_unique<ThreadBuffer>());
        buffer = g_buffers.back().get();
        buffer->spans.reserve(1 << 14);
    }
    return *buffer;
}

}  // namespace

std::int64_t now_ns() {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

Tracer& Tracer::instance() {
    static Tracer tracer;
    return tracer;
}

std::uint32_t Tracer::intern(const std::string& name) {
    std::lock_guard<std::mutex> lock(g_mutex);
    for (std::size_t i = 0; i < names_.size(); ++i)
        if (names_[i] == name) return static_cast<std::uint32_t>(i);
    names_.push_back(name);
    return static_cast<std::uint32_t>(names_.size() - 1);
}

void Tracer::new_trace() {
    if (enabled_) local_buffer().trace = g_next_trace.fetch_add(1);
}

std::uint64_t Tracer::begin(std::uint32_t name) {
    if (!enabled_) return 0;
    ThreadBuffer& b = local_buffer();
    SpanRecord r;
    r.id = g_next_id.fetch_add(1, std::memory_order_relaxed);
    if (b.open.empty()) {
        r.trace = b.trace;
    } else {
        const SpanRecord& parent = b.spans[b.open.back()];
        r.trace = parent.trace;
        r.parent = parent.id;
    }
    r.name = name;
    r.start_ns = now_ns();
    b.open.push_back(b.spans.size());
    b.spans.push_back(r);
    return r.id;
}

void Tracer::end(std::uint64_t id, double arg) {
    const std::int64_t t = now_ns();
    ThreadBuffer& b = local_buffer();
    if (b.open.empty() || b.spans[b.open.back()].id != id)
        throw std::logic_error("perfbench: spans closed out of order");
    SpanRecord& r = b.spans[b.open.back()];
    r.end_ns = t;
    r.arg = arg;
    b.open.pop_back();
}

std::vector<SpanRecord> Tracer::collect() const {
    std::vector<SpanRecord> all;
    {
        std::lock_guard<std::mutex> lock(g_mutex);
        for (const auto& b : g_buffers)
            all.insert(all.end(), b->spans.begin(), b->spans.end());
    }
    std::sort(all.begin(), all.end(),
              [](const SpanRecord& a, const SpanRecord& b) {
                  return a.trace != b.trace ? a.trace < b.trace
                                            : a.start_ns < b.start_ns;
              });
    return all;
}

void Tracer::clear() {
    std::lock_guard<std::mutex> lock(g_mutex);
    for (const auto& b : g_buffers) b->spans.clear();
}

void Tracer::write_csv(const std::string& path) const {
    std::ofstream out(path);
    if (!out) throw std::runtime_error("perfbench: cannot write " + path);
    out << "trace,span,parent,name,start_ns,end_ns,arg\n";
    for (const SpanRecord& s : collect())
        out << s.trace << ',' << s.id << ',' << s.parent << ','
            << names_[s.name] << ',' << s.start_ns << ',' << s.end_ns << ','
            << s.arg << '\n';
}

std::vector<double> self_times_ns(const std::vector<SpanRecord>& spans) {
    std::unordered_map<std::uint64_t, std::size_t> index;
    index.reserve(spans.size());
    for (std::size_t i = 0; i < spans.size(); ++i) index[spans[i].id] = i;

    std::vector<std::vector<std::size_t>> children(spans.size());
    for (std::size_t i = 0; i < spans.size(); ++i) {
        if (spans[i].parent == 0) continue;
        const auto it = index.find(spans[i].parent);
        if (it != index.end()) children[it->second].push_back(i);
    }

    std::vector<double> self(spans.size());
    for (std::size_t i = 0; i < spans.size(); ++i) {
        const SpanRecord& s = spans[i];
        std::vector<std::pair<std::int64_t, std::int64_t>> iv;
        iv.reserve(children[i].size());
        for (std::size_t c : children[i]) {
            const std::int64_t a = std::max(spans[c].start_ns, s.start_ns);
            const std::int64_t b = std::min(spans[c].end_ns, s.end_ns);
            if (b > a) iv.emplace_back(a, b);
        }
        std::sort(iv.begin(), iv.end());
        double covered = 0.0;
        std::int64_t cur_a = 0, cur_b = 0;
        bool open = false;
        for (const auto& [a, b] : iv) {
            if (open && a <= cur_b) {
                cur_b = std::max(cur_b, b);
                continue;
            }
            if (open) covered += static_cast<double>(cur_b - cur_a);
            cur_a = a;
            cur_b = b;
            open = true;
        }
        if (open) covered += static_cast<double>(cur_b - cur_a);
        self[i] = static_cast<double>(s.end_ns - s.start_ns) - covered;
    }
    return self;
}

std::map<std::string, SpanStats> aggregate(
    const std::vector<SpanRecord>& spans,
    const std::vector<std::string>& names) {
    const std::vector<double> self = self_times_ns(spans);
    std::map<std::string, SpanStats> out;
    for (std::size_t i = 0; i < spans.size(); ++i) {
        SpanStats& st = out[names[spans[i].name]];
        const double d =
            static_cast<double>(spans[i].end_ns - spans[i].start_ns);
        ++st.calls;
        st.busy_ns += d;
        st.self_ns += self[i];
        st.arg_sum += spans[i].arg;
        st.durations_ns.push_back(d);
    }
    return out;
}

double tail_percentile(std::vector<double> samples, double p) {
    if (samples.empty()) return 0.0;
    const std::size_t n = samples.size();
    std::size_t rank = static_cast<std::size_t>(
        std::ceil(p / 100.0 * static_cast<double>(n)));
    rank = std::min(rank, n > 10 ? n - 10 : std::size_t{1});
    rank = std::max<std::size_t>(rank, 1);
    std::nth_element(samples.begin(), samples.begin() + (rank - 1),
                     samples.end());
    return samples[rank - 1];
}

}  // namespace perfbench
