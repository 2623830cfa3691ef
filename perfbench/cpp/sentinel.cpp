// Drift sentinel: a fixed pointer chase over a buffer larger than the
// last-level cache.  Every load depends on the previous one and lands on
// a different cache line, so the figure is the machine's loaded memory
// latency.  It moves when neighbours contend for memory and does not move
// when the simulator changes, which tells a drifted set of runs apart
// from a real program change.

#include <sys/mman.h>

#include <algorithm>
#include <cstdint>
#include <cstdlib>
#include <fstream>
#include <memory>
#include <numeric>
#include <random>
#include <string>
#include <vector>

#include "workloads.hpp"

namespace perfbench {

namespace {

/// Written with the chase's last index, so the loop cannot be elided.
volatile std::uint64_t chase_sink;

/// Largest cache size the kernel reports for cpu0, in bytes (0 if none).
std::size_t last_level_cache_bytes() {
    std::size_t largest = 0;
    for (int index = 0; index < 8; ++index) {
        std::ifstream in("/sys/devices/system/cpu/cpu0/cache/index" +
                         std::to_string(index) + "/size");
        std::string text;
        if (!(in >> text) || text.empty()) continue;
        std::size_t value = std::stoull(text);
        if (text.back() == 'K') value <<= 10;
        if (text.back() == 'M') value <<= 20;
        largest = std::max(largest, value);
    }
    return largest;
}

}  // namespace

double memory_latency_ns() {
    constexpr std::size_t line = 64;
    constexpr std::size_t min_bytes = std::size_t{256} << 20;
    constexpr std::size_t max_bytes = std::size_t{768} << 20;
    const std::size_t bytes =
        std::clamp(2 * last_level_cache_bytes(), min_bytes, max_bytes);
    const std::size_t lines = bytes / line;

    // one pointer per cache line, linked into a single random cycle
    // (Sattolo's shuffle) with a fixed seed, so every run chases the
    // same path
    std::vector<std::uint32_t> order(lines);
    std::iota(order.begin(), order.end(), 0u);
    std::mt19937_64 rng(0x5eed);
    for (std::size_t i = lines - 1; i > 0; --i) {
        std::uniform_int_distribution<std::size_t> pick(0, i - 1);
        std::swap(order[i], order[pick(rng)]);
    }
    auto* raw = static_cast<std::uint64_t*>(
        std::aligned_alloc(2u << 20, lines * line));
    const std::unique_ptr<std::uint64_t, decltype(&std::free)> owner(
        raw, &std::free);
    // large pages keep the page walk out of the measured latency
    madvise(raw, lines * line, MADV_HUGEPAGE);
    constexpr std::size_t stride = line / sizeof(std::uint64_t);
    for (std::size_t i = 0; i < lines; ++i) {
        raw[order[i] * stride] = order[(i + 1) % lines];
    }

    constexpr std::size_t hops = 4'000'000;
    std::uint64_t at = order[0];
    for (std::size_t i = 0; i < hops / 4; ++i) at = raw[at * stride];  // warm
    const auto begin = bench_clock::now();
    for (std::size_t i = 0; i < hops; ++i) at = raw[at * stride];
    const double seconds = seconds_between(begin, bench_clock::now());
    chase_sink = at;
    return seconds * 1e9 / static_cast<double>(hops);
}

}  // namespace perfbench
