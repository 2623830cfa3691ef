#pragma once

// In-memory spans around the benchmark's calls into each layer.
//
// Every timing the benchmark needs goes through tracer::time(), which
// measures the call whether or not tracing is on; with tracing on it
// also keeps a span (name, start, end, enclosing span, operation).  The
// spans stay in memory and are written out once, when the run ends, so
// recording never does I/O inside a timed region.

#include <chrono>
#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace perfbench {

using bench_clock = std::chrono::steady_clock;

inline double seconds_between(bench_clock::time_point a,
                              bench_clock::time_point b) {
    return std::chrono::duration<double>(b - a).count();
}

class tracer {
public:
    struct span {
        std::string name;
        std::int64_t start_ns = 0;
        std::int64_t end_ns = 0;
        std::int32_t parent = -1;  ///< enclosing span, -1 at the top
        std::int32_t op = -1;      ///< operation the span belongs to
    };

    explicit tracer(bool enabled)
        : enabled_(enabled), origin_(bench_clock::now()) {}

    bool enabled() const { return enabled_; }

    /// Operation that the following spans belong to (-1: none).
    void set_op(int op) { op_ = op; }

    /// Run fn; return its wall seconds.  With tracing on, record a span
    /// that encloses every span fn records.  A throwing fn still closes
    /// its span before the exception propagates.
    template <class Fn>
    double time(std::string_view name, Fn&& fn) {
        const auto begin = bench_clock::now();
        if (!enabled_) {
            std::forward<Fn>(fn)();
            return seconds_between(begin, bench_clock::now());
        }
        const auto index = static_cast<std::int32_t>(spans_.size());
        spans_.push_back(span{std::string(name), ns_of(begin), 0, open_, op_});
        const std::int32_t outer = open_;
        open_ = index;
        const auto close = [&] {
            const auto end = bench_clock::now();
            spans_[static_cast<std::size_t>(index)].end_ns = ns_of(end);
            open_ = outer;
            return seconds_between(begin, end);
        };
        try {
            std::forward<Fn>(fn)();
        } catch (...) {
            close();
            throw;
        }
        return close();
    }

    const std::vector<span>& spans() const { return spans_; }

    /// Write every span as Chrome trace-event JSON (complete events, one
    /// track), viewable in Perfetto or chrome://tracing.  Defined in
    /// main.cpp beside the other JSON writers.
    void write_json(const std::string& path) const;

private:
    std::int64_t ns_of(bench_clock::time_point t) const {
        return std::chrono::duration_cast<std::chrono::nanoseconds>(t - origin_)
            .count();
    }

    bool enabled_;
    bench_clock::time_point origin_;
    std::vector<span> spans_;
    std::int32_t open_ = -1;
    std::int32_t op_ = -1;
};

/// Named metrics with units, in the order they were set.
class metric_sheet {
public:
    void add(std::string name, double value, std::string unit) {
        entries_.push_back(entry{std::move(name), value, std::move(unit)});
    }

    struct entry {
        std::string name;
        double value = 0.0;
        std::string unit;
    };
    const std::vector<entry>& entries() const { return entries_; }

private:
    std::vector<entry> entries_;
};

}  // namespace perfbench
