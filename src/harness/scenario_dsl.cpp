#include "harness/scenario_dsl.hpp"

#include <algorithm>
#include <array>
#include <charconv>
#include <fstream>
#include <limits>
#include <sstream>
#include <type_traits>

#include "simcore/error.hpp"
#include "simcore/rng.hpp"

namespace sci::harness {

namespace {

std::string_view trim(std::string_view s) {
    while (!s.empty() && (s.front() == ' ' || s.front() == '\t')) {
        s.remove_prefix(1);
    }
    while (!s.empty() &&
           (s.back() == ' ' || s.back() == '\t' || s.back() == '\r')) {
        s.remove_suffix(1);
    }
    return s;
}

/// Throws `message`, prefixed with the scenario-file line when there is
/// one (line 0: a value from outside a file, such as a command line).
[[noreturn]] void parse_fail(int line, const std::string& message) {
    if (line == 0) throw error(message);
    throw error("scenario parse: line " + std::to_string(line) + ": " +
                message);
}

template <class T>
constexpr bool is_optional = false;
template <class T>
constexpr bool is_optional<std::optional<T>> = true;

/// Parse `value` into `out`, checked against out's type: integers must
/// fit it (so unsigned members take no sign), doubles must be numbers,
/// bools are true/false and the backpressure mode goes by name.  Errors
/// name the line and the key.
template <class T>
void parse_value(T& out, std::string_view key, std::string_view value,
                 int line) {
    const auto fail = [&](const std::string& expected) {
        parse_fail(line, std::string(key) + ": expected " + expected +
                             ", got '" + std::string(value) + "'");
    };
    if constexpr (is_optional<T>) {
        typename T::value_type inner{};
        parse_value(inner, key, value, line);
        out = inner;
    } else if constexpr (std::is_same_v<T, bool>) {
        if (value != "true" && value != "false") fail("true/false");
        out = value == "true";
    } else if constexpr (std::is_same_v<T, backpressure_mode>) {
        const auto mode = backpressure_mode_from(value);
        if (!mode.has_value()) fail("degrade/queue/shed");
        out = *mode;
    } else {
        // parse into a temporary: a rejected token leaves `out` as it was
        T parsed{};
        const char* end = value.data() + value.size();
        const auto [ptr, ec] = std::from_chars(value.data(), end, parsed);
        if (ec == std::errc{} && ptr == end) {
            out = parsed;
            return;
        }
        if constexpr (std::is_floating_point_v<T>) {
            fail("a number");
        } else {
            fail("an integer in [" +
                 std::to_string(std::numeric_limits<T>::min()) + ", " +
                 std::to_string(std::numeric_limits<T>::max()) + "]");
        }
    }
}

/// `key = value` in canonical form; nothing for an unset optional.
template <class T>
void render_value(std::ostream& out, std::string_view key, const T& value) {
    if constexpr (is_optional<T>) {
        if (value.has_value()) render_value(out, key, *value);
    } else {
        out << key << " = ";
        if constexpr (std::is_same_v<T, bool>) {
            out << (value ? "true" : "false");
        } else if constexpr (std::is_enum_v<T>) {
            out << to_string(value);
        } else if constexpr (std::is_floating_point_v<T>) {
            // shortest decimal that round-trips the double, so rendered
            // files read like hand-written ones and parse back bit-exact
            char buf[32];
            const auto [ptr, ec] = std::to_chars(buf, buf + sizeof(buf), value);
            ensures(ec == std::errc{}, "render_value: to_chars failed");
            out << std::string_view(buf, static_cast<std::size_t>(ptr - buf));
        } else {
            out << value;
        }
        out << "\n";
    }
}

/// The config sections, in canonical order; their keys come from
/// engine_config's field list.
constexpr std::array<std::string_view, 3> config_sections = {
    "engine", "fault", "backpressure"};

}  // namespace

bool set_config_key(engine_config& cfg, std::string_view section,
                    std::string_view key, std::string_view value, int line) {
    bool found = false;
    for_each_field(
        [&](const field_info& f, auto& member) {
            if (f.section == section && f.key == key) {
                parse_value(member, key, value, line);
                found = true;
            }
        },
        cfg);
    return found;
}

template <class T>
T parse_checked(std::string_view what, std::string_view value) {
    T out{};
    parse_value(out, what, value, 0);
    return out;
}
template int parse_checked<int>(std::string_view, std::string_view);
template unsigned parse_checked<unsigned>(std::string_view, std::string_view);
template std::int64_t parse_checked<std::int64_t>(std::string_view,
                                                  std::string_view);
template double parse_checked<double>(std::string_view, std::string_view);

scenario_spec parse_scenario(std::string_view text) {
    scenario_spec spec;
    // current section name ("region" for any [region.N]); empty before the
    // first header
    std::string_view current;
    std::size_t current_region = 0;  // index into spec.regions while parsing
    int line_no = 0;
    std::size_t pos = 0;
    while (pos <= text.size()) {
        const std::size_t eol = text.find('\n', pos);
        std::string_view line = text.substr(
            pos, eol == std::string_view::npos ? text.size() - pos
                                               : eol - pos);
        pos = eol == std::string_view::npos ? text.size() + 1 : eol + 1;
        ++line_no;

        if (const std::size_t hash = line.find('#');
            hash != std::string_view::npos) {
            line = line.substr(0, hash);
        }
        line = trim(line);
        if (line.empty()) continue;

        if (line.front() == '[') {
            if (line.back() != ']') parse_fail(line_no, "unterminated section");
            const std::string_view name = line.substr(1, line.size() - 2);
            if (name.starts_with("region.")) {
                std::size_t index = 0;
                parse_value(index, "region index", name.substr(7), line_no);
                for (const region_override& r : spec.regions) {
                    if (r.index == index) {
                        parse_fail(line_no, "duplicate section '[" +
                                                std::string(name) + "]'");
                    }
                }
                region_override region;
                region.index = index;
                current_region = spec.regions.size();
                spec.regions.push_back(region);
                current = "region";
            } else if (name == "scenario" || name == "invariants" ||
                       name == "snapshot" || name == "replay" ||
                       std::find(config_sections.begin(),
                                 config_sections.end(),
                                 name) != config_sections.end()) {
                current = name;
            } else {
                parse_fail(line_no,
                           "unknown section '" + std::string(name) + "'");
            }
            continue;
        }

        const std::size_t eq = line.find('=');
        if (eq == std::string_view::npos) {
            parse_fail(line_no, "expected 'key = value'");
        }
        const std::string_view key = trim(line.substr(0, eq));
        const std::string_view value = trim(line.substr(eq + 1));
        if (key.empty()) parse_fail(line_no, "empty key");
        if (current.empty()) parse_fail(line_no, "key outside any [section]");

        bool known = true;
        invariant_config& inv = spec.invariants;
        if (current == "scenario") {
            if (key == "name") spec.name = std::string(value);
            else if (key == "description") spec.description = std::string(value);
            else known = false;
        } else if (current == "invariants") {
            if (key == "admission_accounting") {
                parse_value(inv.admission_accounting, key, value, line_no);
            } else if (key == "no_silent_drops") {
                parse_value(inv.no_silent_drops, key, value, line_no);
            } else if (key == "conservation") {
                parse_value(inv.conservation, key, value, line_no);
            } else if (key == "no_blackhole") {
                parse_value(inv.no_blackhole, key, value, line_no);
            } else if (key == "backpressure_stability") {
                parse_value(inv.backpressure_stability, key, value, line_no);
            } else if (key == "flapping_max_moves_per_vm_day") {
                parse_value(inv.flapping_max_moves_per_vm_day, key, value,
                            line_no);
            } else if (key == "imbalance_epsilon") {
                parse_value(inv.imbalance_epsilon, key, value, line_no);
            } else if (key == "recovery_p99_seconds") {
                parse_value(inv.recovery_p99_seconds, key, value, line_no);
            } else if (key == "cross_region_conservation") {
                parse_value(inv.cross_region_conservation, key, value, line_no);
            } else if (key == "restore_bit_identity") {
                parse_value(inv.restore_bit_identity, key, value, line_no);
            } else {
                known = false;
            }
        } else if (current == "snapshot") {
            if (key != "at") {
                known = false;
            } else {
                sim_duration at = 0;
                parse_value(at, key, value, line_no);
                if (at <= 0) {
                    parse_fail(line_no, "snapshot barrier must be positive");
                }
                spec.snapshot_at = at;
            }
        } else if (current == "region") {
            region_override& region = spec.regions[current_region];
            if (key == "name") {
                region.name = std::string(value);
            } else if (key == "scale") {
                parse_value(region.scale, key, value, line_no);
            } else if (key == "seed") {
                parse_value(region.seed, key, value, line_no);
            } else if (key == "daily_churn_fraction") {
                parse_value(region.daily_churn_fraction, key, value, line_no);
            } else if (key == "crash_rate_per_day") {
                parse_value(region.crash_rate_per_day, key, value, line_no);
            } else if (key == "migration_abort_probability") {
                parse_value(region.migration_abort_probability, key, value,
                            line_no);
            } else if (key == "az_outages") {
                parse_value(region.az_outages, key, value, line_no);
            } else if (key == "az_outage_at") {
                parse_value(region.az_outage_at, key, value, line_no);
            } else if (key == "az_outage_repair_time") {
                parse_value(region.az_outage_repair_time, key, value, line_no);
            } else {
                known = false;
            }
        } else if (current == "replay") {
            if (key == "trace") {
                spec.trace = std::filesystem::path(std::string(value));
            } else {
                known = false;
            }
        } else {
            known = set_config_key(spec.config, current, key, value, line_no);
        }
        if (!known) {
            parse_fail(line_no, "unknown [" + std::string(current) + "] key '" +
                                    std::string(key) + "'");
        }
    }
    if (spec.name.empty()) {
        throw error("scenario parse: missing [scenario] name");
    }
    // canonical region order: by index, and the indexes must be exactly
    // 0..K-1 (a gap would silently drop a region the author counted on)
    std::sort(spec.regions.begin(), spec.regions.end(),
              [](const region_override& a, const region_override& b) {
                  return a.index < b.index;
              });
    for (std::size_t r = 0; r < spec.regions.size(); ++r) {
        if (spec.regions[r].index != r) {
            throw error("scenario parse: region indexes must be contiguous "
                        "from 0; missing [region." +
                        std::to_string(r) + "]");
        }
    }
    return spec;
}

std::vector<region_spec> region_specs_of(const scenario_spec& spec) {
    std::vector<region_spec> out;
    if (spec.regions.empty()) {
        out.push_back(region_spec{"region0", spec.config});
        return out;
    }
    out.reserve(spec.regions.size());
    for (const region_override& region : spec.regions) {
        region_spec rs;
        rs.name = region.name.empty()
                      ? "region" + std::to_string(region.index)
                      : region.name;
        rs.config = spec.config;
        rs.config.scenario.seed = region.seed.value_or(
            derive_region_seed(spec.config.scenario.seed, region.index));
        if (region.scale.has_value()) rs.config.scenario.scale = *region.scale;
        if (region.daily_churn_fraction.has_value()) {
            rs.config.population.daily_churn_fraction =
                *region.daily_churn_fraction;
        }
        if (region.crash_rate_per_day.has_value()) {
            rs.config.fault.host_crash_rate_per_day = *region.crash_rate_per_day;
        }
        if (region.migration_abort_probability.has_value()) {
            rs.config.fault.migration_abort_probability =
                *region.migration_abort_probability;
        }
        if (region.az_outages.has_value()) {
            rs.config.fault.az_outages = *region.az_outages;
        }
        if (region.az_outage_at.has_value()) {
            rs.config.fault.az_outage_at = *region.az_outage_at;
        }
        if (region.az_outage_repair_time.has_value()) {
            rs.config.fault.az_outage_repair_time =
                *region.az_outage_repair_time;
        }
        out.push_back(std::move(rs));
    }
    for (std::size_t a = 0; a < out.size(); ++a) {
        for (std::size_t b = a + 1; b < out.size(); ++b) {
            if (out[a].name == out[b].name) {
                throw error("region_specs_of: duplicate region name '" +
                            out[a].name + "'");
            }
        }
    }
    return out;
}

std::string render_scenario(const scenario_spec& spec) {
    const invariant_config& inv = spec.invariants;
    std::ostringstream out;
    out << "[scenario]\n";
    out << "name = " << spec.name << "\n";
    out << "description = " << spec.description << "\n";
    for (const std::string_view section : config_sections) {
        out << "\n[" << section << "]\n";
        for_each_field(
            [&](const field_info& f, const auto& member) {
                if (f.section == section) render_value(out, f.key, member);
            },
            spec.config);
    }
    out << "\n[invariants]\n";
    render_value(out, "admission_accounting", inv.admission_accounting);
    render_value(out, "no_silent_drops", inv.no_silent_drops);
    render_value(out, "conservation", inv.conservation);
    render_value(out, "no_blackhole", inv.no_blackhole);
    render_value(out, "backpressure_stability", inv.backpressure_stability);
    render_value(out, "flapping_max_moves_per_vm_day",
                 inv.flapping_max_moves_per_vm_day);
    render_value(out, "imbalance_epsilon", inv.imbalance_epsilon);
    render_value(out, "recovery_p99_seconds", inv.recovery_p99_seconds);
    render_value(out, "cross_region_conservation",
                 inv.cross_region_conservation);
    render_value(out, "restore_bit_identity", inv.restore_bit_identity);
    if (spec.snapshot_at.has_value()) {
        out << "\n[snapshot]\n";
        render_value(out, "at", spec.snapshot_at);
    }
    for (const region_override& region : spec.regions) {
        out << "\n[region." << region.index << "]\n";
        if (!region.name.empty()) out << "name = " << region.name << "\n";
        render_value(out, "scale", region.scale);
        render_value(out, "seed", region.seed);
        render_value(out, "daily_churn_fraction", region.daily_churn_fraction);
        render_value(out, "crash_rate_per_day", region.crash_rate_per_day);
        render_value(out, "migration_abort_probability",
                     region.migration_abort_probability);
        render_value(out, "az_outages", region.az_outages);
        render_value(out, "az_outage_at", region.az_outage_at);
        render_value(out, "az_outage_repair_time", region.az_outage_repair_time);
    }
    if (!spec.trace.empty()) {
        out << "\n[replay]\n";
        out << "trace = " << spec.trace.generic_string() << "\n";
    }
    return out.str();
}

scenario_spec load_scenario_file(const std::filesystem::path& file) {
    std::ifstream in(file);
    if (!in.good()) {
        throw not_found_error("load_scenario_file: cannot read " +
                              file.string());
    }
    std::ostringstream text;
    text << in.rdbuf();
    scenario_spec spec;
    try {
        spec = parse_scenario(text.str());
    } catch (const error& e) {
        throw error(file.string() + ": " + e.what());
    }
    if (!spec.trace.empty() && spec.trace.is_relative()) {
        spec.trace = file.parent_path() / spec.trace;
    }
    return spec;
}

}  // namespace sci::harness
