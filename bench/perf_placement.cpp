// Microbenchmark (google-benchmark): initial placement — how fast
// place_initial_population fills the fleet at a given scale, one request
// at a time through the conductor's filter/weigh/claim loop.
//
// bm_place_initial's arg is the scale in permille.  Placement runs on the
// event loop's thread whatever the worker count, so there is no thread
// axis.  wall_ms is the engine's own initial_placement_wall_ms —
// placement only, excluding fleet/workload construction and telemetry
// priming — and `setup_ms` on the counter is the whole setup() for
// context.  Results are recorded into BENCH_engine.json (see
// benchutil::record_bench) next to the perf_engine trajectory.

#include <benchmark/benchmark.h>

#include <chrono>
#include <limits>
#include <string>

#include "common.hpp"
#include "core/engine.hpp"

namespace {

void bm_place_initial(benchmark::State& state) {
    const double scale = static_cast<double>(state.range(0)) / 1000.0;
    double best_ms = std::numeric_limits<double>::infinity();
    double placements_per_s = 0.0;
    for (auto _ : state) {
        sci::engine_config config;
        config.scenario.scale = scale;
        config.scenario.seed = 42;
        config.threads = 0;
        sci::sim_engine engine(config);
        const auto begin = std::chrono::steady_clock::now();
        engine.setup();  // places the whole initial population
        const double setup_ms =
            std::chrono::duration<double, std::milli>(
                std::chrono::steady_clock::now() - begin)
                .count();
        const double place_ms = engine.stats().initial_placement_wall_ms;
        if (place_ms < best_ms) {
            best_ms = place_ms;
            placements_per_s =
                static_cast<double>(engine.stats().placements) /
                (place_ms / 1000.0);
        }
        benchmark::DoNotOptimize(engine.stats().placements);
        state.counters["setup_ms"] = setup_ms;
        state.counters["placements"] =
            static_cast<double>(engine.stats().placements);
        state.counters["place_ms"] = place_ms;
        state.counters["placements/s"] = placements_per_s;
    }
    sci::benchutil::record_bench(
        "bm_place_initial/scale=" + std::to_string(state.range(0)) + "m",
        best_ms, placements_per_s);
}

}  // namespace

BENCHMARK(bm_place_initial)->Arg(100)->Arg(250)->Unit(benchmark::kMillisecond);

BENCHMARK_MAIN();
