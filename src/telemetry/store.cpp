#include "telemetry/store.hpp"

#include <algorithm>

#include "simcore/error.hpp"

namespace sci {

metric_store::metric_store(metric_registry registry, store_config config)
    : registry_(std::move(registry)), config_(config) {
    expects(config_.days > 0, "metric_store: days must be positive");
    index_.resize(registry_.size());
}

series_id metric_store::open_series(std::string_view metric, label_set labels) {
    const auto metric_index = registry_.find(metric);
    if (!metric_index.has_value()) {
        throw not_found_error("metric_store::open_series: unknown metric '" +
                              std::string(metric) + "'");
    }
    auto& by_labels = index_[*metric_index];
    const auto it = by_labels.find(labels);
    if (it != by_labels.end()) return it->second;

    const series_id id(static_cast<std::int32_t>(series_.size()));
    series_data data;
    data.metric_index = *metric_index;
    data.hourly_metric = registry_.all()[*metric_index].hourly;
    data.labels = labels;
    // day/hour slots grow sparsely on first append — a series costs
    // nothing until it actually carries samples
    series_.push_back(std::move(data));
    batch_stamp_.push_back(0);
    by_labels.emplace(std::move(labels), id);
    return id;
}

std::optional<series_id> metric_store::find_series(std::string_view metric,
                                                   const label_set& labels) const {
    const auto metric_index = registry_.find(metric);
    if (!metric_index.has_value()) return std::nullopt;
    const auto& by_labels = index_[*metric_index];
    const auto it = by_labels.find(labels);
    if (it == by_labels.end()) return std::nullopt;
    return it->second;
}

running_stats& metric_store::daily_slot(series_data& s, int day) {
    if (s.daily_first < 0) {
        s.daily_first = day;
        s.daily.emplace_back();
        return s.daily.front();
    }
    if (day < s.daily_first) {
        // front growth only happens on out-of-order block ingestion
        // (merge_daily imports); live appends are time-ascending
        s.daily.insert(s.daily.begin(),
                       static_cast<std::size_t>(s.daily_first - day),
                       running_stats{});
        s.daily_first = day;
    } else if (const auto idx = static_cast<std::size_t>(day - s.daily_first);
               idx >= s.daily.size()) {
        s.daily.resize(idx + 1);
    }
    return s.daily[static_cast<std::size_t>(day - s.daily_first)];
}

std::optional<int> metric_store::count_samples(sim_time t, std::uint64_t n) {
    appended_ += n;
    const std::int64_t day = day_index(t);
    if (day < 0 || day >= config_.days) {
        dropped_ += n;  // outside the observation window
        return std::nullopt;
    }
    if (config_.keep_raw && day <= raw_sealed_through_) {
        dropped_ += n;  // raw landed in an already-sealed (exported) day
    }
    return static_cast<int>(day);
}

void metric_store::apply_sample(series_data& s, sim_time t, int day,
                                double value) {
    daily_slot(s, day).add(value);
    if (s.hourly_metric) {
        const auto hour = static_cast<std::int32_t>(t / seconds_per_hour);
        if (s.hourly_first < 0) s.hourly_first = hour;
        expects(hour >= s.hourly_first,
                "metric_store::append: hourly samples must be time-ordered");
        const auto idx = static_cast<std::size_t>(hour - s.hourly_first);
        if (idx >= s.hourly.size()) s.hourly.resize(idx + 1);
        s.hourly[idx].add(value);
    }
    if (config_.keep_raw && day > raw_sealed_through_) {
        s.raw.push_back(sample{t, value});
    }
}

void metric_store::append(series_id id, sim_time t, double value) {
    expects(id.valid() && static_cast<std::size_t>(id.value()) < series_.size(),
            "metric_store::append: unknown series");
    if (const std::optional<int> day = count_samples(t, 1)) {
        apply_sample(series_[static_cast<std::size_t>(id.value())], t, *day,
                     value);
    }
}

void metric_store::apply_shards_inline(std::size_t count,
                                       const thread_pool::range_fn& fn) {
    fn(0, 0, count);
}

void metric_store::append_batch(sim_time t,
                                std::span<const sample_event> batch,
                                const sharded_runner& run) {
    // serial check before anything is applied: every series is known and
    // appears once, so the slices `run` hands out touch disjoint series
    const std::uint64_t stamp = ++batches_;
    for (const sample_event& ev : batch) {
        expects(ev.id.valid() &&
                    static_cast<std::size_t>(ev.id.value()) < series_.size(),
                "metric_store::append_batch: unknown series");
        std::uint64_t& last =
            batch_stamp_[static_cast<std::size_t>(ev.id.value())];
        expects(last != stamp,
                "metric_store::append_batch: a series appears twice in one "
                "batch");
        last = stamp;
    }
    const std::optional<int> day = count_samples(t, batch.size());
    if (!day.has_value()) return;
    run(batch.size(), [&](unsigned, std::size_t lo, std::size_t hi) {
        for (std::size_t i = lo; i < hi; ++i) {
            apply_sample(series_[static_cast<std::size_t>(batch[i].id.value())],
                         t, *day, batch[i].value);
        }
    });
}

void metric_store::merge_daily(series_id id, int day,
                               const running_stats& aggregate) {
    expects(id.valid() && static_cast<std::size_t>(id.value()) < series_.size(),
            "metric_store::merge_daily: unknown series");
    expects(day >= 0 && day < config_.days,
            "metric_store::merge_daily: day out of range");
    series_data& s = series_[static_cast<std::size_t>(id.value())];
    daily_slot(s, day).merge(aggregate);
    appended_ += aggregate.count();
}

void metric_store::seal_raw_through(int day, const raw_sink& sink) {
    if (!config_.keep_raw || day <= raw_sealed_through_) return;
    for (std::size_t i = 0; i < series_.size(); ++i) {
        series_data& s = series_[i];
        if (s.raw.empty()) continue;
        // samples are time-ascending: the sealed range is a prefix
        const auto cut = std::partition_point(
            s.raw.begin(), s.raw.end(),
            [day](const sample& smp) { return day_index(smp.t) <= day; });
        if (cut == s.raw.begin()) continue;
        if (sink) {
            // hand out one contiguous block per sealed day
            auto block_begin = s.raw.begin();
            while (block_begin != cut) {
                const std::int64_t block_day = day_index(block_begin->t);
                const auto block_end = std::partition_point(
                    block_begin, cut, [block_day](const sample& smp) {
                        return day_index(smp.t) == block_day;
                    });
                sink(series_id(static_cast<std::int32_t>(i)),
                     static_cast<int>(block_day),
                     std::span<const sample>(&*block_begin,
                                             static_cast<std::size_t>(
                                                 block_end - block_begin)));
                block_begin = block_end;
            }
        }
        // actually free the block (swap, so capacity goes too)
        std::vector<sample> rest(cut, s.raw.end());
        s.raw.swap(rest);
    }
    raw_sealed_through_ = day;
}

std::size_t metric_store::raw_resident_samples() const {
    std::size_t total = 0;
    for (const series_data& s : series_) total += s.raw.size();
    return total;
}

metric_store::series_view metric_store::view_of(series_id id) const {
    const series_data& s = series_at(id);
    return {s.daily_first, s.hourly_first, s.daily, s.hourly, s.raw};
}

series_id metric_store::restore_series(std::string_view metric,
                                       label_set labels,
                                       std::int32_t daily_first,
                                       std::vector<running_stats> daily,
                                       std::int32_t hourly_first,
                                       std::vector<running_stats> hourly,
                                       std::vector<sample> raw) {
    const series_id id = open_series(metric, std::move(labels));
    series_data& s = series_[static_cast<std::size_t>(id.value())];
    expects(s.daily.empty() && s.hourly.empty() && s.raw.empty(),
            "metric_store::restore_series: series already carries data");
    s.daily_first = daily_first;
    s.daily = std::move(daily);
    s.hourly_first = hourly_first;
    s.hourly = std::move(hourly);
    s.raw = std::move(raw);
    return id;
}

const metric_store::series_data& metric_store::series_at(series_id id) const {
    expects(id.valid() && static_cast<std::size_t>(id.value()) < series_.size(),
            "metric_store: unknown series");
    return series_[static_cast<std::size_t>(id.value())];
}

const metric_def& metric_store::metric_of(series_id id) const {
    return registry_.all()[series_at(id).metric_index];
}

const label_set& metric_store::labels_of(series_id id) const {
    return series_at(id).labels;
}

std::vector<series_id> metric_store::select(
    std::string_view metric,
    std::span<const std::pair<std::string, std::string>> label_eq) const {
    std::vector<series_id> out;
    const auto metric_index = registry_.find(metric);
    if (!metric_index.has_value()) return out;
    for (const auto& [labels, id] : index_[*metric_index]) {
        const bool match = std::all_of(
            label_eq.begin(), label_eq.end(), [&](const auto& kv) {
                return labels.contains(kv.first, kv.second);
            });
        if (match) out.push_back(id);
    }
    // deterministic order regardless of hash-map iteration
    std::sort(out.begin(), out.end());
    return out;
}

const running_stats* metric_store::daily(series_id id, int day) const {
    const series_data& s = series_at(id);
    expects(day >= 0 && day < config_.days, "metric_store::daily: day out of range");
    if (s.daily_first < 0 || day < s.daily_first ||
        static_cast<std::size_t>(day - s.daily_first) >= s.daily.size()) {
        return nullptr;
    }
    const running_stats& agg =
        s.daily[static_cast<std::size_t>(day - s.daily_first)];
    return agg.empty() ? nullptr : &agg;
}

const running_stats* metric_store::hourly(series_id id, int hour) const {
    const series_data& s = series_at(id);
    expects(s.hourly_metric,
            "metric_store::hourly: metric not configured for hourly compaction");
    expects(hour >= 0 && hour < config_.days * 24,
            "metric_store::hourly: hour out of range");
    if (s.hourly_first < 0 || hour < s.hourly_first ||
        static_cast<std::size_t>(hour - s.hourly_first) >= s.hourly.size()) {
        return nullptr;
    }
    const running_stats& agg =
        s.hourly[static_cast<std::size_t>(hour - s.hourly_first)];
    return agg.empty() ? nullptr : &agg;
}

running_stats metric_store::window_aggregate(series_id id) const {
    const series_data& s = series_at(id);
    running_stats total;
    for (const running_stats& day : s.daily) total.merge(day);
    return total;
}

std::span<const sample> metric_store::raw(series_id id) const {
    return series_at(id).raw;
}

}  // namespace sci
