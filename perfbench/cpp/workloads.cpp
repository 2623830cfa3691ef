#include "workloads.hpp"

#include <algorithm>
#include <chrono>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "core/engine.hpp"
#include "harness/harness.hpp"
#include "harness/invariants.hpp"
#include "harness/scenario_dsl.hpp"
#include "probes.hpp"
#include "rotation.hpp"
#include "sched/conductor.hpp"
#include "simcore/error.hpp"
#include "snapshot/snapshot.hpp"

namespace perfbench {

using namespace sci;

namespace {

// The physics sections of scenarios/retry_storm.scn as shipped, pinned
// here so that an edit to the scenario file does not silently change
// the benchmark's workload.  Scale and seed are overridden per episode.
constexpr std::string_view retry_storm_physics = R"(
[scenario]
name = retry_storm

[engine]
scale = 0.02
seed = 23
daily_churn_fraction = 0.08
gp_cpu_allocation_ratio = 1.0
cross_bb_interval = 21600

[fault]
crash_rate_per_day = 0.25
claim_failure_probability = 0.35
migration_abort_probability = 0.20
ha_max_restart_attempts = 1
crash_repair_time = 14400

[backpressure]
mode = queue
queue_capacity = 64
queue_deadline = 7200
)";

constexpr workload workloads[] = {
    // the paper's figures at the fig/tab binaries' default scale
    {.name = "paper_window",
     .scale = 0.1,
     .episodes = 1,
     .window_end = observation_window,
     .step = days(1),
     .paper_artifacts = true,
     .min_setups = 11,
     .pass_seconds = 15.0},
    // HA, backpressure, cross-BB and claim retries under overload
    {.name = "fault_storm",
     .scale = 0.05,
     .episodes = 3,
     .window_end = observation_window,
     .step = days(1),
     .retry_storm = true,
     .min_setups = 11,
     .pass_seconds = 15.0},
    // the whole region: scheduler-bound setup, a 10x working set and the
    // what-if ablation of the biggest state
    {.name = "full_region",
     .scale = 1.0,
     .episodes = 1,
     .window_end = days(2),
     .checkpoint_at = hours(42),
     .step = hours(1),
     .min_setups = 3,
     .pass_seconds = 30.0},
};

// How often the workload thread moves to its next CPU (see rotation.hpp).
// A move costs the private caches' refill, well under 1% of the interval.
constexpr std::chrono::milliseconds rotation_interval{100};

std::uint64_t derive_seed(std::uint64_t seed, std::uint64_t index) {
    // splitmix64 over (seed, index)
    std::uint64_t z = seed + 0x9E3779B97F4A7C15ull * (index + 1);
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
    return z ^ (z >> 31);
}

engine_config config_for(const workload& w, std::uint64_t seed) {
    engine_config config =
        w.retry_storm ? harness::parse_scenario(retry_storm_physics).config
                      : engine_config{};
    config.scenario.scale = w.scale;
    config.scenario.seed = seed;
    // Serial, whatever SCI_THREADS says.  A threaded window waits at every
    // scrape for its slowest worker, so hypervisor steal on any one busy
    // vCPU stalls all of it (README, "Why serial").
    config.threads = 0u;
    return config;
}

struct fingerprint {
    std::uint64_t events = 0;
    std::uint64_t stats = 0;
    std::size_t event_count = 0;
    bool operator==(const fingerprint&) const = default;
};

fingerprint fingerprint_of(const sim_engine& engine) {
    return {harness::events_fingerprint(engine.events()),
            harness::stats_fingerprint(engine.stats()),
            engine.events().size()};
}

std::string describe(const fingerprint& fp) {
    char text[96];
    std::snprintf(text, sizeof text,
                  "events=%zu events_fp=%016" PRIx64 " stats_fp=%016" PRIx64,
                  fp.event_count, fp.events, fp.stats);
    return text;
}

std::string describe(const std::exception& ex) {
    if (dynamic_cast<const capacity_error*>(&ex) != nullptr) {
        return std::string("capacity_error: ") + ex.what();
    }
    if (dynamic_cast<const error*>(&ex) != nullptr) {
        return std::string("sci::error: ") + ex.what();
    }
    return std::string("std::exception: ") + ex.what();
}

/// VMs held by the HA controller or the backpressure queue: in flight,
/// not dropped.
std::vector<vm_id> in_flight_of(const sim_engine& engine) {
    std::vector<vm_id> out;
    if (const ha_controller* ha = engine.ha(); ha != nullptr) {
        for (const ha_controller::pending_row& row : ha->pending_table()) {
            out.push_back(row.vm);
        }
    }
    if (const backpressure_controller* bp = engine.backpressure();
        bp != nullptr) {
        for (std::size_t i = 0; i < bp->size(); ++i) {
            out.push_back(bp->at(i).vm);
        }
    }
    return out;
}

double median(std::vector<double> values) {
    if (values.empty()) return 0.0;
    std::sort(values.begin(), values.end());
    const std::size_t mid = values.size() / 2;
    return values.size() % 2 == 1 ? values[mid]
                                   : 0.5 * (values[mid - 1] + values[mid]);
}

double ratio(double part, double whole) {
    return whole == 0.0 ? 0.0 : part / whole;
}

double peak_rss_mib() {
    std::ifstream in("/proc/self/status");
    std::string key;
    while (in >> key) {
        if (key == "VmHWM:") {
            double kib = 0.0;
            in >> kib;
            return kib / 1024.0;
        }
        in.ignore(4096, '\n');
    }
    return 0.0;
}

/// What one run accumulates.  Counters of the main engines (not the arms)
/// feed the per-layer sheet.
struct ledger {
    std::vector<double> setup_s;
    std::uint64_t window_samples = 0;
    double window_s = 0.0;
    std::vector<double> day_s;  ///< seconds per simulated day, per step

    /// Sums over the run's ablations; reported per ablation.
    int ablations = 0;
    double capture_s = 0.0, serialize_s = 0.0, deserialize_s = 0.0;
    double fork_s = 0.0, arm_s = 0.0, snapshot_mib = 0.0;

    double check_s = 0.0;
    int checks_failed = 0;

    std::vector<run_stats> stats;  ///< one per main engine
    std::uint64_t events = 0;
    std::uint64_t series = 0;
    std::uint64_t dropped = 0;

    std::vector<double> figures_s, export_s, export_mib;
    std::vector<layer_probe> probes;
};

class runner {
public:
    runner(const workload& w, const run_options& options, tracer& tr)
        : w_(w), options_(options), tr_(tr) {}

    run_report run();

private:
    /// A single-episode workload runs the run's seed itself.
    std::uint64_t episode_seed(int e) const {
        return w_.episodes == 1
                   ? options_.seed
                   : derive_seed(options_.seed, static_cast<std::uint64_t>(e));
    }
    void extra_setup(std::uint64_t seed);
    void episode(std::uint64_t seed);
    /// Advance `engine` in steps from `from` to `until`; returns the wall
    /// seconds spent, with the exception text in `error` if it threw.
    /// `at_step` runs after every step that returned.
    template <class AtStep>
    double advance(sim_engine& engine, sim_time from, sim_time until,
                   std::string& error, AtStep&& at_step);
    /// Takes the checkpoint and frees it once serialized, so that it and
    /// its deserialized copy are never in memory together.
    void ablation(std::optional<snapshot::engine_state> checkpoint,
                  const std::optional<fingerprint>& main_at_end,
                  const std::string& main_error, std::uint64_t seed);
    /// The harness's pure checkers over an engine that ran to `at`; true
    /// if all pass.
    bool check(const sim_engine& engine, sim_time at, const char* what);
    /// Count one operation; a non-empty error fails it.
    void finish_op(const std::string& what, const std::string& error);
    void fill_end_to_end(run_report& report) const;
    void fill_per_layer(run_report& report, int passes) const;

    const workload& w_;
    const run_options& options_;
    tracer& tr_;
    ledger ledger_;
    run_report report_;
    int op_ = 0;
    bool probed_this_pass_ = false;
};

run_report runner::run() {
    const cpu_rotation rotation(rotation_interval);
    const auto begin = bench_clock::now();
    std::printf("[perfbench] workload=%.*s seed=%" PRIu64
                " seconds=%g trace=%d scale=%g cpus=%zu\n",
                static_cast<int>(w_.name.size()), w_.name.data(), options_.seed,
                options_.seconds, tr_.enabled() ? 1 : 0, w_.scale,
                rotation.cpus());
    // Extra set-ups first: they make the setup_s median and warm the
    // allocator before any timed window.
    for (int i = w_.episodes; i < w_.min_setups; ++i) {
        extra_setup(episode_seed(0));
    }
    // A fixed number of passes for the budget, not as many as fit, so
    // that every run with one budget does the same work whatever the
    // machine's speed at the time (the pass count moves peak RSS too).
    const int passes = std::max(
        1, static_cast<int>(std::lround(options_.seconds / w_.pass_seconds)));
    for (int pass = 0; pass < passes; ++pass) {
        probed_this_pass_ = false;
        for (int e = 0; e < w_.episodes; ++e) episode(episode_seed(e));
    }
    std::printf("[perfbench] %d pass(es) in %.3f s; main windows: %" PRIu64
                " samples in %.3f s; %" PRIu64 " CPU moves\n",
                passes, seconds_between(begin, bench_clock::now()),
                ledger_.window_samples, ledger_.window_s, rotation.moves());
    if (ledger_.ablations > 0) {
        // the what-if cost, printed but not an end-to-end metric: it was
        // the benchmark's noisiest figure (README, "End-to-end metrics")
        const ledger& l = ledger_;
        std::printf("[perfbench] ablation_s %.3f s per ablation (capture + "
                    "serialize + deserialize + forks + arms)\n",
                    (l.capture_s + l.serialize_s + l.deserialize_s +
                     l.fork_s + l.arm_s) / l.ablations);
    }
    fill_end_to_end(report_);
    if (tr_.enabled()) fill_per_layer(report_, passes);
    return report_;
}

void runner::extra_setup(std::uint64_t seed) {
    const engine_config config = config_for(w_, seed);
    // the engine outlives the span: teardown is not set-up time
    std::unique_ptr<sim_engine> engine;
    ledger_.setup_s.push_back(tr_.time("setup", [&] {
        engine = std::make_unique<sim_engine>(config);
        engine->setup();
    }));
}

template <class AtStep>
double runner::advance(sim_engine& engine, sim_time from, sim_time until,
                       std::string& error, AtStep&& at_step) {
    double total = 0.0;
    for (sim_time now = from; now < until && error.empty();) {
        const sim_time next = std::min(now + w_.step, until);
        const auto begin = bench_clock::now();
        try {
            tr_.time("core.run_until", [&] { engine.run_until(next); });
        } catch (const std::exception& ex) {
            error = describe(ex);
        }
        const double s = seconds_between(begin, bench_clock::now());
        total += s;
        if (!error.empty()) break;
        ledger_.day_s.push_back(s * static_cast<double>(seconds_per_day) /
                                static_cast<double>(next - now));
        now = next;
        at_step(now);
    }
    return total;
}

void runner::episode(std::uint64_t seed) {
    const engine_config config = config_for(w_, seed);
    const int op = op_;
    tr_.set_op(op);
    std::unique_ptr<sim_engine> engine;
    ledger_.setup_s.push_back(tr_.time("setup", [&] {
        engine = std::make_unique<sim_engine>(config);
        engine->setup();
    }));

    std::optional<snapshot::engine_state> checkpoint;
    double capture_s = 0.0;
    std::string error;
    const double window_s =
        advance(*engine, 0, w_.window_end, error, [&](sim_time now) {
            if (now == w_.checkpoint_at) {
                capture_s = tr_.time("snapshot.capture", [&] {
                    checkpoint = snapshot::capture(*engine);
                });
            }
        });
    // what the ablation's baseline arm must reproduce
    std::optional<fingerprint> at_window_end;
    if (error.empty()) at_window_end = fingerprint_of(*engine);
    ledger_.window_s += window_s;
    ledger_.window_samples += engine->store().total_samples();
    ledger_.stats.push_back(engine->stats());
    ledger_.events += engine->events().size();
    ledger_.series += engine->store().series_count();
    ledger_.dropped += engine->store().dropped_samples();
    const double rss_after_window = peak_rss_mib();

    char what[64];
    std::snprintf(what, sizeof what, "main seed=%" PRIu64, seed);
    std::printf("[op %d] %s window=%.3fs samples=%" PRIu64 " %s\n", op, what,
                window_s, engine->store().total_samples(),
                describe(fingerprint_of(*engine)).c_str());
    const bool ok = error.empty() && check(*engine, w_.window_end, what);
    if (error.empty() && !ok) error = "correctness check failed";
    finish_op(what, error);
    if (ok && w_.paper_artifacts) {
        const artifact_costs costs = build_paper_artifacts(
            *engine, options_.scratch_dir / "export", tr_);
        ledger_.figures_s.push_back(costs.figures_s);
        ledger_.export_s.push_back(costs.export_s);
        ledger_.export_mib.push_back(costs.export_mib);
        std::printf(
            "[op %d]   figures=%.3fs export=%.3fs (%.2f MiB) checksum=%.6g\n",
            op, costs.figures_s, costs.export_s, costs.export_mib,
            costs.checksum);
    }
    // per-layer probes once per pass, on the first episode that finished
    if (tr_.enabled() && ok && !probed_this_pass_) {
        probed_this_pass_ = true;
        ledger_.probes.push_back(probe_layers(*engine, w_.window_end, tr_));
    }
    const double rss_post_window = peak_rss_mib();
    engine.reset();
    // which phase of the episode set the process's peak RSS
    std::printf("[op %d]   VmHWM MiB: window=%.1f post-window=%.1f\n", op,
                rss_after_window, rss_post_window);
    if (checkpoint) {
        ledger_.capture_s += capture_s;
        ablation(std::move(checkpoint), at_window_end, error, seed);
        std::printf("[op %d]   VmHWM MiB: ablation=%.1f\n", op, peak_rss_mib());
    }
}

void runner::ablation(std::optional<snapshot::engine_state> checkpoint,
                      const std::optional<fingerprint>& main_at_end,
                      const std::string& main_error, std::uint64_t seed) {
    std::vector<std::byte> bytes;
    const double serialize_s = tr_.time("snapshot.serialize", [&] {
        bytes = snapshot::serialize(*checkpoint);
    });
    checkpoint.reset();
    snapshot::shared_snapshot shared;
    const double deserialize_s = tr_.time("snapshot.deserialize", [&] {
        shared = snapshot::share(snapshot::deserialize(bytes));
    });
    const double mib = static_cast<double>(bytes.size()) / (1024.0 * 1024.0);
    bytes = {};

    const double base_ratio =
        shared->config.gp_cpu_allocation_ratio_override.value_or(
            default_ratios_for(bb_purpose::general).cpu);
    enum class arm { baseline, drs_off, overcommit };
    double fork_s = 0.0;
    double arm_s = 0.0;
    for (const arm a : {arm::baseline, arm::drs_off, arm::overcommit}) {
        const char* name = a == arm::baseline  ? "baseline"
                           : a == arm::drs_off ? "drs_off"
                                               : "overcommit";
        tr_.set_op(op_);
        std::unique_ptr<sim_engine> fork;
        fork_s += tr_.time("snapshot.fork", [&] {
            fork = snapshot::fork(shared);
            if (a == arm::drs_off) fork->set_drs_enabled(false);
            if (a == arm::overcommit) {
                fork->set_gp_cpu_allocation_ratio(2 * base_ratio);
            }
        });
        std::string error;
        arm_s += tr_.time("snapshot.arm", [&] {
            advance(*fork, w_.checkpoint_at, w_.window_end, error,
                    [](sim_time) {});
        });
        char what[64];
        std::snprintf(what, sizeof what, "arm %s seed=%" PRIu64, name, seed);
        std::printf("[op %d] %s %s\n", op_, what,
                    describe(fingerprint_of(*fork)).c_str());
        const bool ok = error.empty() && check(*fork, w_.window_end, what);
        if (error.empty() && !ok) error = "correctness check failed";
        if (a == arm::baseline) {
            // the baseline arm replays the main engine from the checkpoint
            const bool same = main_at_end
                                  ? ok && fingerprint_of(*fork) == *main_at_end
                                  : error == main_error;
            if (!same) {
                report_.correct = false;
                if (error.empty()) {
                    error = "baseline arm diverged from the main engine";
                }
            }
        }
        finish_op(what, error);
    }
    ++ledger_.ablations;
    ledger_.serialize_s += serialize_s;
    ledger_.deserialize_s += deserialize_s;
    ledger_.fork_s += fork_s;
    ledger_.arm_s += arm_s;
    ledger_.snapshot_mib += mib;
}

bool runner::check(const sim_engine& engine, sim_time at, const char* what) {
    std::vector<harness::invariant_result> results;
    ledger_.check_s += tr_.time("harness.check", [&] {
        results.push_back(harness::check_admission_accounting(
            engine.stats(), engine.events()));
        results.push_back(harness::check_no_silent_drops(
            engine.vms().all(), engine.events(), in_flight_of(engine)));
        harness::conservation_snapshot accounts =
            harness::collect_conservation(engine);
        accounts.t = at;
        results.push_back(harness::check_conservation(accounts));
        if (w_.retry_storm) {
            const backpressure_controller* bp = engine.backpressure();
            results.push_back(
                harness::check_no_blackhole(engine.stats(), engine.events(),
                                            bp != nullptr ? bp->size() : 0));
        }
    });
    bool all = true;
    for (const harness::invariant_result& r : results) {
        if (r.passed) continue;
        all = false;
        ++ledger_.checks_failed;
        report_.correct = false;
        std::printf("[op %d] CHECK FAILED %s: %s: %s\n", op_, what,
                    r.name.c_str(), r.detail.c_str());
    }
    return all;
}

void runner::finish_op(const std::string& what, const std::string& error) {
    ++report_.attempted;
    if (!error.empty()) {
        ++report_.failed;
        std::printf("[op %d] FAILED %s: %s\n", op_, what.c_str(),
                    error.c_str());
    }
    ++op_;
}

void runner::fill_end_to_end(run_report& report) const {
    metric_sheet& m = report.end_to_end;
    m.add("setup_s", median(ledger_.setup_s), "s");
    m.add("samples_per_s",
          static_cast<double>(ledger_.window_samples) / ledger_.window_s,
          "samples/s");
    m.add("peak_rss_mib", peak_rss_mib(), "MiB");
}

void runner::fill_per_layer(run_report& report, int passes) const {
    metric_sheet& m = report.per_layer;
    const double per_pass = 1.0 / passes;
    const auto count = [&](std::uint64_t v) {
        return static_cast<double>(v) * per_pass;
    };
    // per pass: run_stats summed over the main engines
    using rs = run_stats;
    const auto sum = [&](auto rs::*field) {
        double total = 0.0;
        for (const rs& s : ledger_.stats) {
            total += static_cast<double>(s.*field);
        }
        return total * per_pass;
    };

    m.add("core.window_s", ledger_.window_s * per_pass, "s");
    std::vector<double> days = ledger_.day_s;
    std::sort(days.begin(), days.end());
    m.add("core.day_s.p50", median(days), "s");
    // the highest percentile with at least ten steps beyond it
    const std::size_t n = days.size();
    const std::size_t tail_index = n > 10 ? n - 11 : (n > 0 ? n - 1 : 0);
    m.add("core.day_s.tail", n > 0 ? days[tail_index] : 0.0, "s");
    m.add("core.day_s.tail_pct",
          n > 10 ? 100.0 * static_cast<double>(n - 10) / static_cast<double>(n)
                 : 100.0,
          "%");
    m.add("core.day_s.count", static_cast<double>(n), "count");
    m.add("core.scrapes", sum(&rs::scrapes), "count");
    m.add("core.events", count(ledger_.events), "count");

    std::vector<double> demand, active, append, drs_plan, whatif;
    for (const layer_probe& p : ledger_.probes) {
        demand.push_back(p.demand_ns_per_vm);
        active.push_back(static_cast<double>(p.active_vms));
        append.push_back(p.append_ns_per_sample);
        drs_plan.push_back(p.drs_plan_ms_per_pass);
        whatif.push_back(p.whatif_us_per_query);
    }
    m.add("workload.demand_ns_per_vm", median(demand), "ns");
    m.add("workload.active_vms", median(active), "count");

    m.add("telemetry.append_ns_per_sample", median(append), "ns");
    m.add("telemetry.samples", count(ledger_.window_samples), "count");
    m.add("telemetry.series", count(ledger_.series), "count");
    m.add("telemetry.dropped", count(ledger_.dropped), "count");

    m.add("sched.initial_placement_s",
          sum(&rs::initial_placement_wall_ms) / 1e3, "s");
    m.add("sched.churn_placement_s", sum(&rs::churn_placement_wall_ms) / 1e3,
          "s");
    m.add("sched.recovery_placement_s",
          sum(&rs::recovery_placement_wall_ms) / 1e3, "s");
    m.add("sched.whatif_us_per_query", median(whatif), "us");
    m.add("sched.placements", sum(&rs::placements), "count");
    m.add("sched.placement_failures", sum(&rs::placement_failures), "count");
    m.add("sched.retries", sum(&rs::scheduler_retries), "count");
    m.add("sched.spec_hit_ratio.initial",
          ratio(sum(&rs::speculative_placements),
                sum(&rs::speculative_placements) +
                    sum(&rs::speculation_misses)),
          "ratio");
    m.add("sched.spec_hit_ratio.window",
          ratio(sum(&rs::window_speculative_placements),
                sum(&rs::window_speculations)),
          "ratio");
    m.add("sched.spec_hit_ratio.recovery",
          ratio(sum(&rs::recovery_speculative_placements),
                sum(&rs::recovery_speculations)),
          "ratio");
    m.add("sched.spec_invalidated.window",
          sum(&rs::window_speculation_invalidated), "count");
    m.add("sched.spec_invalidated.recovery",
          sum(&rs::recovery_speculation_invalidated), "count");
    m.add("sched.bp_enqueued", sum(&rs::bp_enqueued), "count");
    m.add("sched.bp_queue_placed", sum(&rs::bp_queue_placed), "count");
    m.add("sched.bp_shed",
          sum(&rs::bp_shed_deadline) + sum(&rs::bp_shed_queue_full) +
              sum(&rs::bp_shed_evicted),
          "count");
    std::uint64_t peak_queue = 0;
    for (const rs& s : ledger_.stats) {
        peak_queue = std::max(peak_queue, s.bp_peak_queue_len);
    }
    m.add("sched.bp_peak_queue_len", static_cast<double>(peak_queue), "count");

    m.add("drs.plan_ms_per_pass", median(drs_plan), "ms");
    m.add("drs.migrations", sum(&rs::drs_migrations), "count");
    m.add("drs.migration_aborts", sum(&rs::migration_aborts), "count");

    m.add("rebalancer.cross_bb_moves", sum(&rs::cross_bb_moves), "count");
    m.add("rebalancer.target_hit_ratio",
          ratio(sum(&rs::rebalance_targets_used),
                sum(&rs::rebalance_target_speculations)),
          "ratio");

    m.add("fault.host_crashes", sum(&rs::host_crashes), "count");
    m.add("fault.crash_victims", sum(&rs::crash_victims), "count");
    m.add("fault.ha_restarts", sum(&rs::ha_restarts), "count");
    m.add("fault.ha_restart_failures", sum(&rs::ha_restart_failures), "count");

    const double per_ablation = 1.0 / std::max(ledger_.ablations, 1);
    m.add("snapshot.capture_s", ledger_.capture_s * per_ablation, "s");
    m.add("snapshot.serialize_s", ledger_.serialize_s * per_ablation, "s");
    m.add("snapshot.deserialize_s", ledger_.deserialize_s * per_ablation,
          "s");
    m.add("snapshot.mib", ledger_.snapshot_mib * per_ablation, "MiB");
    m.add("snapshot.fork_s", ledger_.fork_s * per_ablation, "s");
    m.add("snapshot.arm_s", ledger_.arm_s * per_ablation, "s");

    m.add("data.export_s", median(ledger_.export_s), "s");
    m.add("data.export_mib", median(ledger_.export_mib), "MiB");
    m.add("analysis.figures_s", median(ledger_.figures_s), "s");

    m.add("harness.check_s", ledger_.check_s * per_pass, "s");
    m.add("harness.checks_failed", static_cast<double>(ledger_.checks_failed),
          "count");
}

}  // namespace

const workload* find_workload(std::string_view name) {
    for (const workload& w : workloads) {
        if (w.name == name) return &w;
    }
    return nullptr;
}

run_report run_workload(const workload& w, const run_options& options,
                        tracer& tr) {
    return runner(w, options, tr).run();
}

}  // namespace perfbench
