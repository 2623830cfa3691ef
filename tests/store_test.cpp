// Tests for telemetry/store: streaming day/hour compaction — the Thanos
// equivalent the analyses read from.

#include "telemetry/store.hpp"

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <vector>

#include "simcore/error.hpp"
#include "simcore/thread_pool.hpp"

namespace sci {
namespace {

metric_store make_store(store_config config = {}) {
    return metric_store(metric_registry::standard_catalog(), config);
}

TEST(MetricStoreTest, OpenSeriesIsIdempotent) {
    metric_store store = make_store();
    const series_id a = store.open_series(metric_names::host_memory_usage,
                                          label_set{{"node", "n1"}});
    const series_id b = store.open_series(metric_names::host_memory_usage,
                                          label_set{{"node", "n1"}});
    EXPECT_EQ(a, b);
    EXPECT_EQ(store.series_count(), 1u);
}

TEST(MetricStoreTest, DifferentLabelsDifferentSeries) {
    metric_store store = make_store();
    const series_id a = store.open_series(metric_names::host_memory_usage,
                                          label_set{{"node", "n1"}});
    const series_id b = store.open_series(metric_names::host_memory_usage,
                                          label_set{{"node", "n2"}});
    EXPECT_NE(a, b);
    EXPECT_EQ(store.series_count(), 2u);
}

TEST(MetricStoreTest, SameLabelsDifferentMetricDifferentSeries) {
    metric_store store = make_store();
    const series_id a = store.open_series(metric_names::host_memory_usage,
                                          label_set{{"node", "n1"}});
    const series_id b = store.open_series(metric_names::host_cpu_contention,
                                          label_set{{"node", "n1"}});
    EXPECT_NE(a, b);
}

TEST(MetricStoreTest, UnknownMetricThrows) {
    metric_store store = make_store();
    EXPECT_THROW(store.open_series("no_such_metric", {}), not_found_error);
}

TEST(MetricStoreTest, FindSeries) {
    metric_store store = make_store();
    const label_set labels{{"node", "n1"}};
    EXPECT_FALSE(
        store.find_series(metric_names::host_memory_usage, labels).has_value());
    const series_id id =
        store.open_series(metric_names::host_memory_usage, labels);
    EXPECT_EQ(store.find_series(metric_names::host_memory_usage, labels), id);
    EXPECT_FALSE(store.find_series("no_such_metric", labels).has_value());
}

TEST(MetricStoreTest, DailyAggregationMatchesBruteForce) {
    metric_store store = make_store();
    const series_id id = store.open_series(metric_names::host_memory_usage,
                                           label_set{{"node", "n1"}});
    running_stats expected_day0, expected_day1;
    for (int i = 0; i < 288; ++i) {  // 300 s cadence over one day
        const double v = 40.0 + static_cast<double>(i % 17);
        store.append(id, i * 300, v);
        expected_day0.add(v);
    }
    for (int i = 0; i < 10; ++i) {
        const double v = 90.0 - i;
        store.append(id, seconds_per_day + i * 300, v);
        expected_day1.add(v);
    }
    const running_stats* day0 = store.daily(id, 0);
    ASSERT_NE(day0, nullptr);
    EXPECT_EQ(day0->count(), expected_day0.count());
    EXPECT_DOUBLE_EQ(day0->mean(), expected_day0.mean());
    EXPECT_DOUBLE_EQ(day0->min(), expected_day0.min());
    EXPECT_DOUBLE_EQ(day0->max(), expected_day0.max());
    const running_stats* day1 = store.daily(id, 1);
    ASSERT_NE(day1, nullptr);
    EXPECT_DOUBLE_EQ(day1->mean(), expected_day1.mean());
}

TEST(MetricStoreTest, EmptyDayIsNull) {
    metric_store store = make_store();
    const series_id id = store.open_series(metric_names::host_memory_usage,
                                           label_set{{"node", "n1"}});
    store.append(id, 100, 1.0);
    EXPECT_NE(store.daily(id, 0), nullptr);
    EXPECT_EQ(store.daily(id, 5), nullptr);  // the heatmaps' white cells
}

TEST(MetricStoreTest, DailyRejectsOutOfRangeDay) {
    metric_store store = make_store();
    const series_id id = store.open_series(metric_names::host_memory_usage,
                                           label_set{{"node", "n1"}});
    EXPECT_THROW(store.daily(id, -1), precondition_error);
    EXPECT_THROW(store.daily(id, observation_days), precondition_error);
}

TEST(MetricStoreTest, SamplesOutsideWindowAreDropped) {
    metric_store store = make_store();
    const series_id id = store.open_series(metric_names::host_memory_usage,
                                           label_set{{"node", "n1"}});
    store.append(id, -100, 1.0);                       // before window
    store.append(id, observation_window, 1.0);         // at/after window end
    store.append(id, observation_window + 500, 1.0);
    EXPECT_EQ(store.dropped_samples(), 3u);
    EXPECT_EQ(store.total_samples(), 3u);
    EXPECT_EQ(store.daily(id, 0), nullptr);
    EXPECT_EQ(store.daily(id, observation_days - 1), nullptr);
}

TEST(MetricStoreTest, HourlyOnlyForFlaggedMetrics) {
    metric_store store = make_store();
    const series_id ready = store.open_series(metric_names::host_cpu_ready,
                                              label_set{{"node", "n1"}});
    const series_id mem = store.open_series(metric_names::host_memory_usage,
                                            label_set{{"node", "n1"}});
    store.append(ready, hours(5) + 10, 1234.0);
    store.append(mem, hours(5) + 10, 50.0);

    const running_stats* agg = store.hourly(ready, 5);
    ASSERT_NE(agg, nullptr);
    EXPECT_DOUBLE_EQ(agg->mean(), 1234.0);
    EXPECT_EQ(store.hourly(ready, 6), nullptr);
    EXPECT_THROW(store.hourly(mem, 5), precondition_error);
}

TEST(MetricStoreTest, HourlyIndexSpansWholeWindow) {
    metric_store store = make_store();
    const series_id ready = store.open_series(metric_names::host_cpu_ready,
                                              label_set{{"node", "n1"}});
    const sim_time last_hour_start = observation_window - seconds_per_hour;
    store.append(ready, last_hour_start + 30, 7.0);
    const running_stats* agg = store.hourly(ready, observation_days * 24 - 1);
    ASSERT_NE(agg, nullptr);
    EXPECT_DOUBLE_EQ(agg->mean(), 7.0);
    EXPECT_THROW(store.hourly(ready, observation_days * 24), precondition_error);
}

TEST(MetricStoreTest, RawRetentionToggle) {
    metric_store no_raw = make_store();
    const series_id a = no_raw.open_series(metric_names::host_memory_usage,
                                           label_set{{"node", "n1"}});
    no_raw.append(a, 100, 1.0);
    EXPECT_TRUE(no_raw.raw(a).empty());

    metric_store with_raw = make_store(store_config{.keep_raw = true});
    const series_id b = with_raw.open_series(metric_names::host_memory_usage,
                                             label_set{{"node", "n1"}});
    with_raw.append(b, 100, 1.0);
    with_raw.append(b, 400, 2.0);
    ASSERT_EQ(with_raw.raw(b).size(), 2u);
    EXPECT_EQ(with_raw.raw(b)[0].t, 100);
    EXPECT_DOUBLE_EQ(with_raw.raw(b)[1].value, 2.0);
}

TEST(MetricStoreTest, SelectFiltersByLabels) {
    metric_store store = make_store();
    store.open_series(metric_names::host_memory_usage,
                      label_set{{"node", "n1"}, {"dc", "dc-a"}});
    store.open_series(metric_names::host_memory_usage,
                      label_set{{"node", "n2"}, {"dc", "dc-b"}});
    store.open_series(metric_names::host_memory_usage,
                      label_set{{"node", "n3"}, {"dc", "dc-a"}});

    EXPECT_EQ(store.select(metric_names::host_memory_usage).size(), 3u);
    const std::vector<std::pair<std::string, std::string>> filter{{"dc", "dc-a"}};
    EXPECT_EQ(store.select(metric_names::host_memory_usage, filter).size(), 2u);
    const std::vector<std::pair<std::string, std::string>> none{{"dc", "dc-x"}};
    EXPECT_TRUE(store.select(metric_names::host_memory_usage, none).empty());
    EXPECT_TRUE(store.select("no_such_metric").empty());
}

TEST(MetricStoreTest, SelectReturnsDeterministicOrder) {
    metric_store store = make_store();
    for (int i = 0; i < 50; ++i) {
        store.open_series(metric_names::host_memory_usage,
                          label_set{{"node", "n" + std::to_string(i)}});
    }
    const auto first = store.select(metric_names::host_memory_usage);
    const auto second = store.select(metric_names::host_memory_usage);
    EXPECT_EQ(first, second);
    EXPECT_TRUE(std::is_sorted(first.begin(), first.end()));
}

TEST(MetricStoreTest, WindowAggregateMergesDays) {
    metric_store store = make_store();
    const series_id id = store.open_series(metric_names::host_memory_usage,
                                           label_set{{"node", "n1"}});
    store.append(id, days(0) + 100, 10.0);
    store.append(id, days(3) + 100, 30.0);
    store.append(id, days(29) + 100, 50.0);
    const running_stats total = store.window_aggregate(id);
    EXPECT_EQ(total.count(), 3u);
    EXPECT_DOUBLE_EQ(total.mean(), 30.0);
    EXPECT_DOUBLE_EQ(total.min(), 10.0);
    EXPECT_DOUBLE_EQ(total.max(), 50.0);
}

TEST(MetricStoreTest, MetricAndLabelsOfSeries) {
    metric_store store = make_store();
    const label_set labels{{"vm", "vm-abc"}};
    const series_id id =
        store.open_series(metric_names::vm_cpu_usage_ratio, labels);
    EXPECT_EQ(store.metric_of(id).name, metric_names::vm_cpu_usage_ratio);
    EXPECT_EQ(store.labels_of(id), labels);
}

TEST(MetricStoreTest, AppendRejectsUnknownSeries) {
    metric_store store = make_store();
    EXPECT_THROW(store.append(series_id(0), 0, 1.0), precondition_error);
    EXPECT_THROW(store.append(series_id(), 0, 1.0), precondition_error);
}

TEST(MetricStoreTest, ConfigurableDays) {
    metric_store store = make_store(store_config{.days = 7});
    const series_id id = store.open_series(metric_names::host_memory_usage,
                                           label_set{{"node", "n1"}});
    store.append(id, days(6) + 1, 5.0);
    EXPECT_NE(store.daily(id, 6), nullptr);
    store.append(id, days(7) + 1, 5.0);  // beyond horizon
    EXPECT_EQ(store.dropped_samples(), 1u);
    EXPECT_THROW(store.daily(id, 7), precondition_error);
}

TEST(MetricStoreTest, RejectsNonPositiveDays) {
    EXPECT_THROW(make_store(store_config{.days = 0}), precondition_error);
}

/// Bitwise equality of two aggregates (every Welford accumulator).
void expect_same_aggregate(const running_stats& a, const running_stats& b) {
    const running_stats::exact_state x = a.exact();
    const running_stats::exact_state y = b.exact();
    EXPECT_EQ(x.count, y.count);
    for (const auto& [u, v] : {std::pair{x.sum, y.sum}, std::pair{x.m2, y.m2},
                              std::pair{x.mean, y.mean},
                              std::pair{x.min, y.min},
                              std::pair{x.max, y.max}}) {
        EXPECT_EQ(std::bit_cast<std::uint64_t>(u),
                  std::bit_cast<std::uint64_t>(v));
    }
}

/// Every series' daily and hourly aggregates, raw block and the ingest
/// counters of two stores with the same series ids.
void expect_same_store(const metric_store& a, const metric_store& b) {
    ASSERT_EQ(a.series_count(), b.series_count());
    EXPECT_EQ(a.total_samples(), b.total_samples());
    EXPECT_EQ(a.dropped_samples(), b.dropped_samples());
    for (std::size_t i = 0; i < a.series_count(); ++i) {
        const series_id id(static_cast<std::int32_t>(i));
        const metric_store::series_view x = a.view_of(id);
        const metric_store::series_view y = b.view_of(id);
        EXPECT_EQ(x.daily_first, y.daily_first) << "series " << i;
        EXPECT_EQ(x.hourly_first, y.hourly_first) << "series " << i;
        ASSERT_EQ(x.daily.size(), y.daily.size()) << "series " << i;
        for (std::size_t d = 0; d < x.daily.size(); ++d) {
            expect_same_aggregate(x.daily[d], y.daily[d]);
        }
        ASSERT_EQ(x.hourly.size(), y.hourly.size()) << "series " << i;
        for (std::size_t h = 0; h < x.hourly.size(); ++h) {
            expect_same_aggregate(x.hourly[h], y.hourly[h]);
        }
        ASSERT_EQ(x.raw.size(), y.raw.size()) << "series " << i;
        for (std::size_t r = 0; r < x.raw.size(); ++r) {
            EXPECT_EQ(x.raw[r].t, y.raw[r].t);
            EXPECT_EQ(std::bit_cast<std::uint64_t>(x.raw[r].value),
                      std::bit_cast<std::uint64_t>(y.raw[r].value));
        }
    }
}

TEST(MetricStoreTest, AppendBatchMatchesSerialAppends) {
    // one hourly-compacted and one daily-only metric, raw kept
    const store_config config{.days = 4, .keep_raw = true};
    metric_store serial = make_store(config);
    metric_store inline_batches = make_store(config);
    metric_store pooled_batches = make_store(config);
    std::vector<series_id> ids;
    for (const std::string_view metric :
         {metric_names::host_cpu_ready, metric_names::host_memory_usage}) {
        for (int n = 0; n < 10; ++n) {
            const label_set labels{{"node", "n" + std::to_string(n)}};
            ids.push_back(serial.open_series(metric, labels));
            inline_batches.open_series(metric, labels);
            pooled_batches.open_series(metric, labels);
        }
    }

    thread_pool pool(4);
    const metric_store::sharded_runner pooled =
        [&pool](std::size_t count, const thread_pool::range_fn& fn) {
            pool.parallel_for(0, count, fn);
        };
    std::vector<metric_store::sample_event> batch;
    const auto append_everywhere = [&](sim_time t) {
        for (const metric_store::sample_event& ev : batch) {
            serial.append(ev.id, t, ev.value);
        }
        inline_batches.append_batch(t, batch,
                                    metric_store::apply_shards_inline);
        pooled_batches.append_batch(t, batch, pooled);
    };
    const auto full_batch = [&](int k) {
        batch.clear();
        for (std::size_t i = 0; i < ids.size(); ++i) {
            batch.push_back(
                {ids[i], 50.0 + 40.0 * std::sin(0.7 * static_cast<double>(i) +
                                                0.13 * k)});
        }
    };

    // three days of half-hourly scrapes; each scrape leaves a few series out
    int k = 0;
    for (sim_time t = 0; t < days(3); t += 1800, ++k) {
        full_batch(k);
        std::erase_if(batch, [&](const metric_store::sample_event& ev) {
            return (ev.id.value() + k) % 7 == 0;
        });
        append_everywhere(t);
    }
    // seal day 1, then append into it: aggregates still move, raw is
    // dropped
    serial.seal_raw_through(1);
    inline_batches.seal_raw_through(1);
    pooled_batches.seal_raw_through(1);
    full_batch(k++);
    append_everywhere(days(1) + 1000);
    // an unsealed day keeps raw again; past the window drops the batch
    full_batch(k++);
    append_everywhere(days(3) + 60);
    full_batch(k++);
    append_everywhere(days(4) + 5);

    EXPECT_EQ(serial.dropped_samples(), 2 * ids.size());
    EXPECT_GT(serial.raw_resident_samples(), 0u);
    expect_same_store(serial, inline_batches);
    expect_same_store(serial, pooled_batches);
}

TEST(MetricStoreTest, AppendBatchRejectsARepeatedSeries) {
    metric_store store = make_store();
    const series_id a = store.open_series(metric_names::host_memory_usage,
                                          label_set{{"node", "n1"}});
    const series_id b = store.open_series(metric_names::host_memory_usage,
                                          label_set{{"node", "n2"}});
    const std::vector<metric_store::sample_event> good{{a, 1.0}, {b, 2.0}};
    store.append_batch(100, good, metric_store::apply_shards_inline);

    // a series twice in one batch (two slices could race on it), or an
    // unknown one, rejects the whole batch before anything is applied
    const std::vector<metric_store::sample_event> repeated{
        {a, 3.0}, {b, 4.0}, {a, 5.0}};
    EXPECT_THROW(store.append_batch(400, repeated,
                                    metric_store::apply_shards_inline),
                 precondition_error);
    const std::vector<metric_store::sample_event> unknown{
        {b, 6.0}, {series_id(2), 7.0}};
    EXPECT_THROW(store.append_batch(700, unknown,
                                    metric_store::apply_shards_inline),
                 precondition_error);
    EXPECT_EQ(store.total_samples(), 2u);
    EXPECT_EQ(store.dropped_samples(), 0u);
    ASSERT_NE(store.daily(a, 0), nullptr);
    EXPECT_EQ(store.daily(a, 0)->count(), 1u);
    EXPECT_DOUBLE_EQ(store.daily(a, 0)->max(), 1.0);
    ASSERT_NE(store.daily(b, 0), nullptr);
    EXPECT_EQ(store.daily(b, 0)->count(), 1u);
    EXPECT_DOUBLE_EQ(store.daily(b, 0)->max(), 2.0);

    // the next well-formed batch is taken as usual
    store.append_batch(1000, good, metric_store::apply_shards_inline);
    EXPECT_EQ(store.total_samples(), 4u);
    EXPECT_EQ(store.daily(a, 0)->count(), 2u);
}

}  // namespace
}  // namespace sci
