#include "common.hpp"

#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>
#include <vector>

#include "bench_json.hpp"
#include "harness/scenario_dsl.hpp"

namespace sci::benchutil {

namespace {

std::vector<bench_entry>& bench_results() {
    static std::vector<bench_entry> results;
    return results;
}

/// Entries already in the summary file (written by another bench binary
/// of the same run, or by a previous run).
std::vector<bench_entry> read_existing(const char* path) {
    std::FILE* in = std::fopen(path, "r");
    if (in == nullptr) return {};
    std::string text;
    char chunk[4096];
    std::size_t got = 0;
    while ((got = std::fread(chunk, 1, sizeof chunk, in)) > 0) {
        text.append(chunk, got);
    }
    std::fclose(in);
    return parse_bench_json(text);
}

[[noreturn]] void env_error(const std::string& message) {
    std::fprintf(stderr, "%s\n", message.c_str());
    std::exit(2);
}

/// Value of the environment variable `name`, parsed by
/// harness::parse_checked: `fallback` when unset or empty; a value that
/// does not parse prints the error and exits 2.
template <class T>
T env_value(const char* name, T fallback) {
    const char* v = std::getenv(name);
    if (v == nullptr || *v == '\0') return fallback;
    try {
        return harness::parse_checked<T>(name, v);
    } catch (const std::exception& e) {
        env_error(e.what());
    }
}

void write_bench_json() {
    if (bench_results().empty()) return;
    const char* path = std::getenv("SCI_BENCH_JSON");
    if (path == nullptr || *path == '\0') path = "BENCH_engine.json";
    // merge with what other binaries wrote: dedupe by name (parse already
    // collapses duplicates a pre-dedupe writer left behind), same-name
    // entries replaced by this process's measurement, the rest preserved
    // in file order — so re-running the same binary is idempotent.
    std::vector<bench_entry> results = read_existing(path);
    merge_bench_entries(results, bench_results());
    std::FILE* out = std::fopen(path, "w");
    if (out == nullptr) {
        std::fprintf(stderr, "record_bench: cannot write %s\n", path);
        return;
    }
    const std::string text = render_bench_json(results);
    std::fwrite(text.data(), 1, text.size(), out);
    std::fclose(out);
    std::printf("[bench] wrote %zu result(s) to %s\n", results.size(), path);
}

}  // namespace

void record_bench(std::string_view name, double wall_ms, double samples_per_s) {
    if (bench_results().empty()) std::atexit(write_bench_json);
    // peak RSS is stamped at record time, so every bench entry carries the
    // process high-water mark its measurement actually ran under
    bench_results().push_back(bench_entry{std::string(name), wall_ms,
                                          samples_per_s,
                                          process_peak_rss_mib()});
}

double env_scale() {
    const double scale = env_value("SCI_SCALE", 0.1);
    if (!(scale > 0.0)) {
        env_error("SCI_SCALE: must be positive, got '" +
                  std::string(std::getenv("SCI_SCALE")) + "'");
    }
    return scale;
}

std::uint64_t env_seed() { return env_value<std::uint64_t>("SCI_SEED", 42); }

int env_bench_days() {
    const int days = env_value("SCI_BENCH_DAYS", 0);
    if (days < 0) {
        env_error("SCI_BENCH_DAYS: must be non-negative, got '" +
                  std::string(std::getenv("SCI_BENCH_DAYS")) + "'");
    }
    return days;
}

engine_config default_config() {
    engine_config config;
    config.scenario.scale = env_scale();
    config.scenario.seed = env_seed();
    return config;
}

sim_engine& shared_engine() {
    static std::unique_ptr<sim_engine> engine = [] {
        auto e = std::make_unique<sim_engine>(default_config());
        std::printf("[setup] simulating region at scale %.3f (%zu nodes, %d VMs, seed %llu) ...\n",
                    env_scale(), e->infrastructure().node_count(),
                    e->scn().target_vm_population,
                    static_cast<unsigned long long>(env_seed()));
        std::fflush(stdout);
        e->run();
        std::printf("[setup] done: %llu placements, %llu scrapes\n\n",
                    static_cast<unsigned long long>(e->stats().placements),
                    static_cast<unsigned long long>(e->stats().scrapes));
        return e;
    }();
    return *engine;
}

void print_header(std::string_view artifact, std::string_view paper_claim) {
    std::printf("================================================================\n");
    std::printf("%.*s\n", static_cast<int>(artifact.size()), artifact.data());
    std::printf("paper: %.*s\n", static_cast<int>(paper_claim.size()),
                paper_claim.data());
    std::printf("================================================================\n");
}

}  // namespace sci::benchutil
