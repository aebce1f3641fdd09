#pragma once

// In-memory span tracing for the benchmark's decorators.
//
// A span is (trace id, span id, parent span id, name, start, end, arg). Each
// thread appends to its own buffer, so recording takes no lock; a span's
// parent is whatever span is open on the same thread when it begins, which
// is how a solver call made inside a scheduler hook nests under the hook.
// Buffers are collected once, after the measured work, and can be flushed to
// a CSV file at exit.

#include <cstddef>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

/// Monotonic host time in nanoseconds.
std::int64_t now_ns();

struct SpanRecord {
    std::uint64_t trace = 0;
    std::uint64_t id = 0;
    std::uint64_t parent = 0;  ///< 0 = root of its trace
    std::uint32_t name = 0;    ///< index into Tracer::names()
    std::int64_t start_ns = 0;
    std::int64_t end_ns = 0;
    /// Name-specific payload: RHS count of a batched solve, 1/0 for whether
    /// an arrival placed its task.
    double arg = 0.0;
};

/// Process-wide span sink. Disabled by default; while disabled every
/// begin/end is a single branch.
class Tracer {
public:
    static Tracer& instance();
    Tracer(const Tracer&) = delete;
    Tracer& operator=(const Tracer&) = delete;

    void enable(bool on) { enabled_ = on; }

    /// Interns @p name (setup paths only; takes a lock).
    std::uint32_t intern(const std::string& name);
    const std::vector<std::string>& names() const { return names_; }

    /// Starts a new trace on the calling thread: spans begun from now on
    /// with no open parent belong to it.
    void new_trace();

    /// Opens a span on the calling thread and returns its id (0 when
    /// disabled). Spans must close in LIFO order per thread.
    std::uint64_t begin(std::uint32_t name);
    void end(std::uint64_t id, double arg = 0.0);

    /// Every span recorded so far, all threads, sorted by (trace, start).
    std::vector<SpanRecord> collect() const;
    void clear();

    /// Writes collect() as CSV: trace,span,parent,name,start_ns,end_ns,arg.
    void write_csv(const std::string& path) const;

private:
    Tracer() = default;
    bool enabled_ = false;
    std::vector<std::string> names_;
};

/// RAII span; inert when tracing is off.
class Span {
public:
    explicit Span(std::uint32_t name)
        : id_(Tracer::instance().begin(name)) {}
    ~Span() {
        if (id_ != 0) Tracer::instance().end(id_, arg_);
    }
    void set_arg(double arg) { arg_ = arg; }
    Span(const Span&) = delete;
    Span& operator=(const Span&) = delete;

private:
    std::uint64_t id_;
    double arg_ = 0.0;
};

/// Per-name aggregate over a span set.
struct SpanStats {
    std::uint64_t calls = 0;
    double busy_ns = 0.0;   ///< sum of span durations
    double self_ns = 0.0;   ///< busy minus the time covered by children
    double arg_sum = 0.0;
    std::vector<double> durations_ns;
};

/// Self time of every span: its duration minus the union of its direct
/// children's intervals (clipped to the span). Indexed like @p spans.
std::vector<double> self_times_ns(const std::vector<SpanRecord>& spans);

/// Aggregates @p spans by name.
std::map<std::string, SpanStats> aggregate(
    const std::vector<SpanRecord>& spans,
    const std::vector<std::string>& names);

/// Nearest-rank percentile @p p (0..100) of @p samples, capped so that at
/// least 10 samples lie beyond the reported one: with n samples the rank is
/// min(ceil(p/100 * n), n - 10), floored at rank 1. Below 11 samples that
/// leaves the minimum. Returns 0 for an empty set. This keeps a p99 over a
/// few hundred samples from reporting a single outlier.
double tail_percentile(std::vector<double> samples, double p);

}  // namespace perfbench
