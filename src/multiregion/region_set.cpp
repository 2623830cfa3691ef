#include "multiregion/region_set.hpp"

#include <algorithm>
#include <fstream>
#include <map>
#include <set>
#include <utility>

#include "data/csv.hpp"
#include "simcore/error.hpp"
#include "simcore/rng.hpp"

namespace sci {

std::vector<region_spec> make_region_specs(const engine_config& base,
                                           std::size_t regions) {
    expects(regions > 0, "make_region_specs: need at least one region");
    std::vector<region_spec> specs;
    specs.reserve(regions);
    for (std::size_t r = 0; r < regions; ++r) {
        region_spec spec;
        spec.name = "region" + std::to_string(r);
        spec.config = base;
        spec.config.scenario.seed = derive_region_seed(base.scenario.seed, r);
        specs.push_back(std::move(spec));
    }
    return specs;
}

run_stats merge_run_stats(std::span<const run_stats> per_region) {
    run_stats m;
    for (const run_stats& s : per_region) {
        for_each_field(
            [](const field_info& f, auto& into, const auto& from) {
                into = f.merge == merge_rule::max ? std::max(into, from)
                                                  : into + from;
            },
            m, s);
    }
    return m;
}

namespace {

/// manifest.csv row with the description column read_manifest drops (the
/// combined manifest must reproduce it verbatim).
struct manifest_row {
    std::string metric, subsystem, resource, unit, description;
    std::size_t series_count = 0;
};

std::vector<manifest_row> read_manifest_rows(const std::filesystem::path& dir) {
    std::ifstream f(dir / "manifest.csv");
    if (!f.good()) {
        throw not_found_error("merge_region_exports: missing " +
                              (dir / "manifest.csv").string());
    }
    csv_reader reader(f);
    std::vector<std::string> fields;
    expects(reader.next_row(fields) && fields.size() >= 6,
            "merge_region_exports: malformed manifest header");
    std::vector<manifest_row> out;
    while (reader.next_row(fields)) {
        expects(fields.size() >= 6, "merge_region_exports: malformed row");
        out.push_back(manifest_row{fields[0], fields[1], fields[2], fields[3],
                                   fields[4], std::stoull(fields[5])});
    }
    return out;
}

/// Fleet-wide aggregate of one (metric, day): counts add, means merge
/// count-weighted, extremes take min/max.  Regions merge in region order,
/// so the floating-point accumulation is deterministic.
struct fleet_day {
    std::uint64_t count = 0;
    double weighted_sum = 0.0;
    double min = 0.0;
    double max = 0.0;
};

}  // namespace

dataset_export_report merge_region_exports(
    const std::filesystem::path& dir,
    const std::vector<std::string>& region_names) {
    expects(!region_names.empty(), "merge_region_exports: no regions");

    // Combined manifest: metric order of the first region (every region
    // shares the standard catalog), series counts summed across regions.
    std::vector<manifest_row> combined;
    for (const std::string& name : region_names) {
        for (const manifest_row& row : read_manifest_rows(dir / name)) {
            auto it = std::find_if(
                combined.begin(), combined.end(),
                [&](const manifest_row& c) { return c.metric == row.metric; });
            if (it == combined.end()) {
                combined.push_back(row);
            } else {
                it->series_count += row.series_count;
            }
        }
    }

    std::ofstream manifest_file(dir / "manifest.csv");
    expects(manifest_file.good(),
            "merge_region_exports: cannot create manifest.csv");
    csv_writer manifest(manifest_file);
    manifest.write_row({"metric", "subsystem", "resource", "unit",
                        "description", "series_count"});
    for (const manifest_row& row : combined) {
        manifest.write_row({row.metric, row.subsystem, row.resource, row.unit,
                            row.description, std::to_string(row.series_count)});
    }

    // Fleet-wide daily aggregates: every region's per-series day rows of a
    // metric collapse into one fleet row per (metric, day).
    dataset_export_report report;
    std::ofstream daily_file(dir / "fleet_daily.csv");
    expects(daily_file.good(),
            "merge_region_exports: cannot create fleet_daily.csv");
    csv_writer daily(daily_file);
    daily.write_row({"metric", "day", "count", "mean", "min", "max"});
    for (const manifest_row& metric : combined) {
        if (metric.series_count == 0) continue;
        ++report.metrics_exported;
        report.series_exported += metric.series_count;
        std::map<int, fleet_day> days;
        for (const std::string& name : region_names) {
            std::ifstream f(dir / name / (metric.metric + ".daily.csv"));
            if (!f.good()) continue;  // metric had no series in this region
            csv_reader reader(f);
            std::vector<std::string> fields;
            expects(reader.next_row(fields) && fields.size() >= 5,
                    "merge_region_exports: malformed daily header");
            while (reader.next_row(fields)) {
                expects(fields.size() >= 5,
                        "merge_region_exports: malformed daily row");
                const std::size_t base = fields.size() - 5;
                const int day = std::stoi(fields[base]);
                const std::uint64_t count = std::stoull(fields[base + 1]);
                const double mean = std::stod(fields[base + 2]);
                const double lo = std::stod(fields[base + 3]);
                const double hi = std::stod(fields[base + 4]);
                fleet_day& fd = days[day];
                if (fd.count == 0) {
                    fd.min = lo;
                    fd.max = hi;
                } else {
                    if (lo < fd.min) fd.min = lo;
                    if (hi > fd.max) fd.max = hi;
                }
                fd.count += count;
                fd.weighted_sum += static_cast<double>(count) * mean;
            }
        }
        for (const auto& [day, fd] : days) {
            const double mean =
                fd.count == 0
                    ? 0.0
                    : fd.weighted_sum / static_cast<double>(fd.count);
            daily.write_row({metric.metric, std::to_string(day),
                             std::to_string(fd.count), std::to_string(mean),
                             std::to_string(fd.min), std::to_string(fd.max)});
            ++report.daily_rows;
        }
    }
    return report;
}

region_set::region_set(std::vector<region_spec> specs,
                       std::optional<unsigned> threads)
    : specs_(std::move(specs)),
      pool_(thread_pool::resolve_workers(threads)) {
    expects(!specs_.empty(), "region_set: need at least one region");

    // RNG-stream derivation audit: two regions on one derived master seed
    // would replay each other's streams — "independent regions" silently
    // becomes the same region twice.
    std::set<std::uint64_t> seeds;
    for (const region_spec& spec : specs_) {
        expects(seeds.insert(spec.config.scenario.seed).second,
                "region_set: two regions share a derived master seed");
    }

    engines_.reserve(specs_.size());
    for (const region_spec& spec : specs_) {
        engines_.push_back(std::make_unique<sim_engine>(spec.config));
        engines_.back()->set_shared_pool(&pool_);
    }
}

region_set::region_set(std::vector<region_spec> specs,
                       const engine_builder& build,
                       std::optional<unsigned> threads)
    : specs_(std::move(specs)),
      pool_(thread_pool::resolve_workers(threads)) {
    expects(!specs_.empty(), "region_set: need at least one region");
    expects(static_cast<bool>(build), "region_set: null engine builder");

    std::set<std::uint64_t> seeds;
    for (const region_spec& spec : specs_) {
        expects(seeds.insert(spec.config.scenario.seed).second,
                "region_set: two regions share a derived master seed");
    }

    engines_.reserve(specs_.size());
    for (std::size_t r = 0; r < specs_.size(); ++r) {
        engines_.push_back(build(r, pool_));
        expects(engines_.back() != nullptr && engines_.back()->is_setup(),
                "region_set: engine builder must return a set-up engine");
    }
    // adopted engines carry their own timelines — setup() must not run
    setup_done_ = true;
}

void region_set::setup() {
    if (setup_done_) return;
    setup_done_ = true;
    pool_.run_tasks(engines_.size(),
                    [this](std::size_t r) { engines_[r]->setup(); });
}

void region_set::run() {
    setup();
    pool_.run_tasks(engines_.size(),
                    [this](std::size_t r) { engines_[r]->run(); });
}

void region_set::run_until(sim_time until) {
    setup();
    pool_.run_tasks(engines_.size(),
                    [this, until](std::size_t r) { engines_[r]->run_until(until); });
}

run_stats region_set::merged_stats() const {
    std::vector<run_stats> per_region;
    per_region.reserve(engines_.size());
    for (const auto& engine : engines_) per_region.push_back(engine->stats());
    return merge_run_stats(per_region);
}

std::vector<std::string> region_set::region_names() const {
    std::vector<std::string> names;
    names.reserve(specs_.size());
    for (const region_spec& spec : specs_) names.push_back(spec.name);
    return names;
}

void region_set::enable_streaming_export(const std::filesystem::path& dir) {
    expects(writers_.empty(),
            "region_set::enable_streaming_export: already enabled");
    streaming_dir_ = dir;
    std::filesystem::create_directories(dir);
    writers_.reserve(engines_.size());
    for (std::size_t r = 0; r < engines_.size(); ++r) {
        writers_.push_back(std::make_unique<streaming_dataset_writer>(
            engines_[r]->store(), dir / specs_[r].name));
        engines_[r]->enable_raw_streaming(writers_[r]->sink());
    }
}

region_export_report region_set::finish_streaming_export() {
    expects(!writers_.empty(),
            "region_set::finish_streaming_export: streaming not enabled");
    region_export_report report;
    report.per_region.resize(writers_.size());
    pool_.run_tasks(writers_.size(), [this, &report](std::size_t r) {
        report.per_region[r] = writers_[r]->finish();
    });
    writers_.clear();
    for (const dataset_export_report& r : report.per_region) {
        report.combined.metrics_exported += r.metrics_exported;
        report.combined.series_exported += r.series_exported;
        report.combined.daily_rows += r.daily_rows;
        report.combined.raw_rows += r.raw_rows;
    }
    merge_region_exports(streaming_dir_, region_names());
    return report;
}

region_export_report region_set::export_datasets(
    const std::filesystem::path& dir, const dataset_export_options& options) {
    std::filesystem::create_directories(dir);
    region_export_report report;
    report.per_region.resize(engines_.size());
    pool_.run_tasks(engines_.size(), [&, this](std::size_t r) {
        report.per_region[r] = export_dataset(engines_[r]->store(),
                                              dir / specs_[r].name, options);
    });
    for (const dataset_export_report& r : report.per_region) {
        report.combined.metrics_exported += r.metrics_exported;
        report.combined.series_exported += r.series_exported;
        report.combined.daily_rows += r.daily_rows;
        report.combined.raw_rows += r.raw_rows;
    }
    merge_region_exports(dir, region_names());
    return report;
}

}  // namespace sci
