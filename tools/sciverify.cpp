// sciverify — the scenario + invariants harness ("physics CI").
//
//   sciverify [options] <scenario.scn | directory>...
//
// Loads every named scenario (directories are scanned for *.scn, sorted
// by filename), runs each through a fresh engine with its invariants
// attached, and prints one JSON summary to stdout — progress and the
// human-readable verdict go to stderr, so `sciverify scenarios/ >
// summary.json` is all CI needs.  Exit code 0 iff every scenario passes
// (all invariants hold and every declared replay trace matches).  A
// scenario that fails to load or throws mid-run is that scenario's failed
// verdict, its error text in the JSON; the scenarios after it still run.
// A bad option value, SCI_BENCH_DAYS or SCI_THREADS exits 2.
//
//   --record          write/refresh replay traces instead of comparing
//   --days N          cap each run to the first N simulated days
//                     (default: the SCI_BENCH_DAYS environment variable,
//                     else the full 30-day observation window)
//   --threads N       worker-thread override (default: SCI_THREADS)
//   --watch           assert the scrape-checkable invariants at every
//                     scrape barrier instead of spot-checking
//
// Replay traces are recorded, not committed: the fingerprints cover
// floating-point history, reproducible per-toolchain but not across
// libm versions.  CI records and replays within one job.

#include <algorithm>
#include <cstdlib>
#include <filesystem>
#include <iostream>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "harness/harness.hpp"
#include "harness/scenario_dsl.hpp"
#include "simcore/thread_pool.hpp"

namespace {

void usage() {
    std::cerr
        << "usage: sciverify [options] <scenario.scn | directory>...\n"
           "  --record      write/refresh replay traces instead of comparing\n"
           "  --days N      cap each run to the first N simulated days\n"
           "                (default: SCI_BENCH_DAYS env, else full window)\n"
           "  --threads N   worker-thread override (default: SCI_THREADS)\n"
           "  --watch       assert scrape-checkable invariants at every\n"
           "                scrape barrier instead of spot-checking\n"
           "\n"
           "Prints a JSON pass/fail summary to stdout; progress goes to\n"
           "stderr.  Exit 0 iff every scenario passes.\n";
}

std::vector<std::filesystem::path> collect_scenarios(
    const std::vector<std::filesystem::path>& inputs) {
    std::vector<std::filesystem::path> files;
    for (const auto& input : inputs) {
        if (std::filesystem::is_directory(input)) {
            std::vector<std::filesystem::path> found;
            for (const auto& entry :
                 std::filesystem::directory_iterator(input)) {
                if (entry.is_regular_file() &&
                    entry.path().extension() == ".scn") {
                    found.push_back(entry.path());
                }
            }
            std::sort(found.begin(), found.end());
            files.insert(files.end(), found.begin(), found.end());
        } else {
            files.push_back(input);
        }
    }
    return files;
}

/// A checked, non-negative option value (see harness::parse_checked); a
/// bad one exits 2, naming where it came from.
template <class T>
T option_value(std::string_view what, const char* token) {
    try {
        const T value = sci::harness::parse_checked<T>(what, token);
        if (std::cmp_greater_equal(value, 0)) return value;
        std::cerr << what << ": must be non-negative, got '" << token
                  << "'\n";
    } catch (const std::exception& e) {
        std::cerr << e.what() << "\n";
    }
    std::exit(2);
}

/// Run one scenario file, printing its verdict to stderr.  A load or run
/// error becomes the scenario's failed outcome.
sci::harness::scenario_outcome verify(const std::filesystem::path& file,
                                      const sci::harness::run_options& options) {
    sci::harness::scenario_outcome outcome;
    outcome.name = file.stem().string();
    try {
        const auto spec = sci::harness::load_scenario_file(file);
        outcome.name = spec.name;
        std::cerr << "running " << spec.name << " ("
                  << spec.invariants.count() << " invariants) ...\n";
        outcome = sci::harness::run_scenario(spec, options);
    } catch (const std::exception& e) {
        std::cerr << "error: " << e.what() << "\n";
        outcome.error = e.what();
        return outcome;
    }
    for (const auto& r : outcome.invariants) {
        std::cerr << "  ["
                  << (r.skipped ? "skip" : (r.passed ? "pass" : "FAIL"))
                  << "] " << r.name << (r.detail.empty() ? "" : ": " + r.detail)
                  << "\n";
    }
    if (outcome.replay != sci::harness::replay_status::none) {
        std::cerr << "  replay: " << to_string(outcome.replay) << " — "
                  << outcome.replay_detail << "\n";
    }
    return outcome;
}

}  // namespace

int main(int argc, char** argv) {
    sci::harness::run_options options;
    std::vector<std::filesystem::path> inputs;
    if (const char* env = std::getenv("SCI_BENCH_DAYS"); env && *env) {
        options.days = option_value<int>("SCI_BENCH_DAYS", env);
    }
    // every engine reads SCI_THREADS (even under --threads), so a bad
    // value is an option error here, not each scenario's failed verdict
    try {
        sci::thread_pool::env_threads();
    } catch (const std::exception& e) {
        std::cerr << e.what() << "\n";
        return 2;
    }
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        const auto next = [&]() -> const char* {
            if (i + 1 >= argc) {
                std::cerr << "missing value for " << arg << "\n";
                std::exit(2);
            }
            return argv[++i];
        };
        if (arg == "--record") {
            options.record_trace = true;
        } else if (arg == "--days") {
            options.days = option_value<int>(arg, next());
        } else if (arg == "--threads") {
            options.threads = option_value<unsigned>(arg, next());
        } else if (arg == "--watch") {
            options.watch = true;
        } else if (arg == "--help" || arg == "-h") {
            usage();
            return 0;
        } else if (!arg.empty() && arg[0] == '-') {
            std::cerr << "unknown option: " << arg << "\n";
            usage();
            return 2;
        } else {
            inputs.emplace_back(arg);
        }
    }
    if (inputs.empty()) {
        usage();
        return 2;
    }

    const auto files = collect_scenarios(inputs);
    if (files.empty()) {
        std::cerr << "no *.scn scenarios found\n";
        return 2;
    }

    std::vector<sci::harness::scenario_outcome> outcomes;
    bool all_passed = true;
    for (const auto& file : files) {
        outcomes.push_back(verify(file, options));
        all_passed = all_passed && outcomes.back().passed();
    }

    std::cout << sci::harness::outcomes_json(outcomes);
    std::cerr << (all_passed ? "all scenarios passed"
                             : "scenario violations detected")
              << " (" << outcomes.size() << " scenarios)\n";
    return all_passed ? 0 : 1;
}
