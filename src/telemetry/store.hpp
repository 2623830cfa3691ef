#pragma once

// Time-series store.
//
// Mirrors the production pipeline of Section 4 (Prometheus ingest + Thanos
// long-term downsampling): samples are appended at scrape cadence
// (30–300 s) and compacted *streamingly* into per-hour and per-day
// aggregates.  Analyses read the compacted aggregates; raw samples are
// retained only when the store is configured for it (tests, small runs).
//
// Scale machinery (the full region is 1,800 nodes / 48,000 VMs / 30 days):
//
//   * Ordered batch appends.  A scrape's samples arrive as ONE batch,
//     which is checked once (every series known, none twice) and counted
//     once (all its samples share one timestamp, so the window and seal
//     checks hold for the whole batch), then applied in slices of its own
//     order: `run` hands each worker one contiguous slice.  Each series
//     sees one sample per batch, so per-series order — and with it every
//     running_stats float sum — is identical to appending the batch
//     serially, at any worker count.
//
//   * Sparse aggregates.  A series allocates day/hour slots only for the
//     span it actually lived (offset + grow), not the full window — a
//     2-hour VM costs one day slot, not thirty.
//
//   * Raw-block sealing.  When raw samples are kept, days at or below the
//     seal point are handed to a sink (the streaming dataset writer) and
//     their blocks are freed, keeping raw residency O(compaction horizon)
//     instead of O(window).

#include <cstdint>
#include <functional>
#include <optional>
#include <span>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "infra/ids.hpp"
#include "simcore/stats.hpp"
#include "simcore/thread_pool.hpp"
#include "simcore/time.hpp"
#include "telemetry/labels.hpp"
#include "telemetry/metric.hpp"

namespace sci {

struct series_tag {};
using series_id = strong_id<series_tag>;

/// One raw scrape sample.
struct sample {
    sim_time t;
    double value;
};

struct store_config {
    /// Compaction horizon in days (rows of the Section 5 heatmaps).
    int days = observation_days;
    /// Retain raw samples per series (memory-heavy; tests & small runs).
    bool keep_raw = false;
};

/// Labelled multi-series store with streaming hour/day compaction.
class metric_store {
public:
    explicit metric_store(metric_registry registry, store_config config = {});

    const metric_registry& registry() const { return registry_; }
    const store_config& config() const { return config_; }

    /// Get-or-create the series for (metric, labels).
    series_id open_series(std::string_view metric, label_set labels);

    /// Find an existing series; nullopt if never opened.
    std::optional<series_id> find_series(std::string_view metric,
                                         const label_set& labels) const;

    /// Append one sample.  Samples outside [0, days*86400) are counted as
    /// dropped (they fall outside the observation window) but do not throw.
    void append(series_id id, sim_time t, double value);

    // --- batch append -----------------------------------------------------
    /// One sample of a batch append.
    struct sample_event {
        series_id id;
        double value;
    };
    /// Runs slice work: run(count, fn) must invoke fn over every index in
    /// [0, count), each index once, possibly concurrently on disjoint
    /// contiguous slices (the engine's run_sharded, or apply_shards_inline
    /// for serial callers).
    using sharded_runner =
        std::function<void(std::size_t, const thread_pool::range_fn&)>;
    /// Append one scrape's samples, all taken at `t`.  The batch is
    /// checked before anything is applied: an unknown series, or a series
    /// appearing twice (two slices would race on it), throws
    /// precondition_error and leaves the store untouched.  Then `run`
    /// applies it slice by slice, in batch order within each slice; every
    /// aggregate float sum is byte-identical to appending the batch
    /// serially in order.
    void append_batch(sim_time t, std::span<const sample_event> batch,
                      const sharded_runner& run);
    /// Serial runner: applies the whole batch inline, in order.
    static void apply_shards_inline(std::size_t count,
                                    const thread_pool::range_fn& fn);

    /// Merge a pre-computed day aggregate into a series (Thanos-style
    /// block ingestion; used when importing an exported dataset).
    void merge_daily(series_id id, int day, const running_stats& aggregate);

    std::size_t series_count() const { return series_.size(); }
    std::uint64_t dropped_samples() const { return dropped_; }
    std::uint64_t total_samples() const { return appended_; }

    // --- raw-block sealing -----------------------------------------------
    /// Sink receiving a sealed day's raw samples of one series; after it
    /// returns, the block is freed.  Called in ascending (series, day)
    /// order.
    using raw_sink =
        std::function<void(series_id, int day, std::span<const sample>)>;
    /// Seal every raw day <= `day`: blocks are streamed to `sink` (when
    /// set) and dropped from memory.  Later appends into sealed days are
    /// counted as dropped.  No-op unless keep_raw.
    void seal_raw_through(int day, const raw_sink& sink = {});
    /// Highest sealed day (-1 when nothing was sealed yet).
    int raw_sealed_through() const { return raw_sealed_through_; }
    /// Raw samples currently resident across all series (the streaming
    /// export's bounded-memory invariant; tests assert it shrinks).
    std::size_t raw_resident_samples() const;

    /// Metric definition of a series.
    const metric_def& metric_of(series_id id) const;

    /// Label set of a series.
    const label_set& labels_of(series_id id) const;

    /// All series of a metric, optionally filtered by required label
    /// equalities.
    std::vector<series_id> select(
        std::string_view metric,
        std::span<const std::pair<std::string, std::string>> label_eq = {}) const;

    /// Day aggregate (nullptr when no sample fell into that day — the
    /// "white cells" of the paper's heatmaps).
    const running_stats* daily(series_id id, int day) const;

    /// Hour aggregate for metrics flagged hourly in the registry.
    const running_stats* hourly(series_id id, int hour) const;

    /// Whole-window aggregate of a series (merged over days).
    running_stats window_aggregate(series_id id) const;

    /// Raw samples still resident (empty unless keep_raw; sealed days are
    /// gone — stream them through the seal sink instead).
    std::span<const sample> raw(series_id id) const;

    // --- snapshot support -------------------------------------------------
    /// Read-only view of one series' complete mutable state (metric name
    /// and labels come from metric_of / labels_of).
    struct series_view {
        std::int32_t daily_first;
        std::int32_t hourly_first;
        std::span<const running_stats> daily;
        std::span<const running_stats> hourly;
        std::span<const sample> raw;
    };
    series_view view_of(series_id id) const;

    /// Re-create a series verbatim (sparse aggregates + unsealed raw
    /// block).  Ids are assigned in call order, so restoring rows in
    /// ascending id order reproduces the original assignment exactly —
    /// later open_series calls then resolve to the restored ids.
    series_id restore_series(std::string_view metric, label_set labels,
                             std::int32_t daily_first,
                             std::vector<running_stats> daily,
                             std::int32_t hourly_first,
                             std::vector<running_stats> hourly,
                             std::vector<sample> raw);

    /// Overwrite the ingest counters (total_samples, dropped_samples).
    void restore_sample_counts(std::uint64_t appended, std::uint64_t dropped) {
        appended_ = appended;
        dropped_ = dropped;
    }
    void restore_raw_sealed_through(int day) { raw_sealed_through_ = day; }

private:
    struct series_data {
        std::size_t metric_index;
        bool hourly_metric = false;  ///< hoisted registry flag
        label_set labels;
        // sparse aggregates: slot 0 covers daily_first / hourly_first
        std::int32_t daily_first = -1;
        std::int32_t hourly_first = -1;
        std::vector<running_stats> daily;
        std::vector<running_stats> hourly;
        std::vector<sample> raw;  ///< unsealed samples, time-ascending
    };

    /// Count `n` samples taken at `t`: the day they fall in, or nullopt
    /// when it lies outside the window (dropped, not applied).  Samples
    /// into a sealed day count as dropped from raw.
    std::optional<int> count_samples(sim_time t, std::uint64_t n);
    /// Add one counted sample of `day` to a series' aggregates, and to its
    /// raw block unless the day is sealed.
    void apply_sample(series_data& s, sim_time t, int day, double value);
    const series_data& series_at(series_id id) const;
    running_stats& daily_slot(series_data& s, int day);

    metric_registry registry_;
    store_config config_;
    std::vector<series_data> series_;
    // per metric-index: labels -> series
    std::vector<std::unordered_map<label_set, series_id>> index_;
    /// Per series: the stamp of the last batch that held it (the
    /// once-per-batch check).
    std::vector<std::uint64_t> batch_stamp_;
    std::uint64_t batches_ = 0;
    std::uint64_t appended_ = 0;
    std::uint64_t dropped_ = 0;
    int raw_sealed_through_ = -1;
};

}  // namespace sci
