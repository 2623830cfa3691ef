// perfbench: the repository's benchmark program (one workload per process).
//
//   perfbench workload <name> --seed N --seconds S [--trace-out FILE]
//                      [--scratch DIR]
//   perfbench sentinel
//
// `workload` plays the named workload and prints progress, fingerprints
// and failures, then one JSON line with the operations attempted and
// failed, the correctness verdict and the end-to-end metrics; with
// --trace-out it also keeps spans, prints the per-layer metrics and
// writes the spans to FILE at exit.  `sentinel` prints the drift
// sentinel's memory latency as one JSON line.  perfbench/run.py wraps
// both into the benchmark's command.

#include <cstdio>
#include <cstdlib>
#include <exception>
#include <fstream>
#include <string>
#include <string_view>

#include "trace.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace {

std::string json_string(std::string_view text) {
    std::string out = "\"";
    for (const char c : text) {
        if (c == '"' || c == '\\') {
            out += '\\';
            out += c;
        } else if (static_cast<unsigned char>(c) < 0x20) {
            char esc[8];
            std::snprintf(esc, sizeof esc, "\\u%04x", c);
            out += esc;
        } else {
            out += c;
        }
    }
    return out + "\"";
}

std::string json_number(double v) {
    char text[32];
    std::snprintf(text, sizeof text, "%.17g", v);
    return text;
}

std::string json_sheet(const metric_sheet& sheet) {
    std::string out = "{";
    for (const metric_sheet::entry& e : sheet.entries()) {
        if (out.size() > 1) out += ", ";
        out += json_string(e.name) + ": {\"value\": " + json_number(e.value) +
               ", \"unit\": " + json_string(e.unit) + "}";
    }
    return out + "}";
}

void print_sheet(const char* title, const metric_sheet& sheet) {
    std::printf("[perfbench] %s:\n", title);
    for (const metric_sheet::entry& e : sheet.entries()) {
        std::printf("  %-34s %16.6f %s\n", e.name.c_str(), e.value,
                    e.unit.c_str());
    }
}

int usage() {
    std::fprintf(stderr,
                 "usage: perfbench workload <name> --seed N --seconds S "
                 "[--trace-out FILE] [--scratch DIR]\n"
                 "       perfbench sentinel\n");
    return 2;
}

int run_workload_command(int argc, char** argv) {
    if (argc < 3 || (argc - 3) % 2 != 0) return usage();
    const workload* w = find_workload(argv[2]);
    if (w == nullptr) {
        std::fprintf(stderr, "perfbench: unknown workload '%s'\n", argv[2]);
        return 2;
    }
    run_options options;
    options.scratch_dir = ".bench_build/scratch";
    std::string trace_out;
    for (int i = 3; i + 1 < argc; i += 2) {
        const std::string_view flag = argv[i];
        const char* value = argv[i + 1];
        if (flag == "--seed") {
            options.seed = std::strtoull(value, nullptr, 10);
        } else if (flag == "--seconds") {
            options.seconds = std::atof(value);
        } else if (flag == "--trace-out") {
            trace_out = value;
        } else if (flag == "--scratch") {
            options.scratch_dir = value;
        } else {
            return usage();
        }
    }
    tracer tr(!trace_out.empty());
    const run_report report = run_workload(*w, options, tr);
    print_sheet("end-to-end", report.end_to_end);
    if (tr.enabled()) {
        print_sheet("per-layer", report.per_layer);
        tr.write_json(trace_out);
        std::printf("[perfbench] wrote %zu spans to %s\n", tr.spans().size(),
                    trace_out.c_str());
    }
    std::printf("{\"correct\": %s, \"attempted\": %d, \"failed\": %d, "
                "\"end_to_end\": %s, \"per_layer\": %s}\n",
                report.correct ? "true" : "false", report.attempted,
                report.failed, json_sheet(report.end_to_end).c_str(),
                json_sheet(report.per_layer).c_str());
    return 0;
}

}  // namespace

void tracer::write_json(const std::string& path) const {
    std::ofstream out(path);
    out << "{\"traceEvents\": [\n";
    for (std::size_t i = 0; i < spans_.size(); ++i) {
        const span& s = spans_[i];
        out << (i == 0 ? "" : ",\n") << "{\"name\": " << json_string(s.name)
            << ", \"ph\": \"X\", \"pid\": 1, \"tid\": 1, \"ts\": "
            << json_number(static_cast<double>(s.start_ns) / 1e3)
            << ", \"dur\": "
            << json_number(static_cast<double>(s.end_ns - s.start_ns) / 1e3)
            << ", \"args\": {\"span\": " << i << ", \"parent\": " << s.parent
            << ", \"op\": " << s.op << "}}";
    }
    out << "\n]}\n";
}

}  // namespace perfbench

int main(int argc, char** argv) {
    using namespace perfbench;
    if (argc < 2) return usage();
    const std::string_view command = argv[1];
    try {
        if (command == "workload") return run_workload_command(argc, argv);
        if (command == "sentinel") {
            std::printf("{\"mem_latency_ns\": %s}\n",
                        json_number(memory_latency_ns()).c_str());
            return 0;
        }
    } catch (const std::exception& ex) {
        std::fprintf(stderr, "perfbench: %s\n", ex.what());
        return 1;
    }
    return usage();
}
