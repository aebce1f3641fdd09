// End-to-end benchmark program for the simulator, the campaign engine and
// the advice server. Runs one named workload for a time budget, checks its
// outputs, and prints a single JSON result object as the last line:
//
//   perfbench --workload open256|campaign64|advice_mix --seed N
//             --seconds S --trace 0|1
//   perfbench --selftest
//   perfbench --record-advice SEEDS
//
// The advice server's socket and the span dump go to the working
// directory.
//
// perfbench/run.py builds this program, runs it and turns the result into
// the benchmark's output contract; see perfbench/README.md.

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <map>
#include <string>

#include "host.hpp"
#include "selftest.hpp"
#include "spans.hpp"
#include "workloads.hpp"

namespace {

std::string json_string(const std::string& s) {
    std::string out = "\"";
    for (char c : s) {
        if (c == '"' || c == '\\') out += '\\';
        out += static_cast<unsigned char>(c) < 0x20 ? ' ' : c;
    }
    return out + "\"";
}

std::string json_number(double v) {
    if (!std::isfinite(v)) return "null";
    char buf[32];
    std::snprintf(buf, sizeof buf, "%.17g", v);
    return buf;
}

std::string json_object(const std::map<std::string, double>& m) {
    std::string out = "{";
    for (const auto& [k, v] : m) {
        if (out.size() > 1) out += ", ";
        out += json_string(k) + ": " + json_number(v);
    }
    return out + "}";
}

std::string json_array(const std::vector<std::string>& v) {
    std::string out = "[";
    for (const std::string& s : v) {
        if (out.size() > 1) out += ", ";
        out += json_string(s);
    }
    return out + "]";
}

int usage(const char* why) {
    std::fprintf(stderr,
                 "perfbench: %s\nusage: perfbench --workload "
                 "open256|campaign64|advice_mix --seed N --seconds S "
                 "--trace 0|1 | --selftest | --record-advice SEEDS\n",
                 why);
    return 2;
}

}  // namespace

int main(int argc, char** argv) {
    perfbench::Options options;
    bool have_workload = false;
    for (int i = 1; i < argc; ++i) {
        const std::string flag = argv[i];
        if (flag == "--selftest") return perfbench::run_selftest();
        if (i + 1 >= argc) return usage(("missing value for " + flag).c_str());
        const std::string value = argv[++i];
        if (flag == "--record-advice") {
            return perfbench::record_advice_traffic(
                std::strtoull(value.c_str(), nullptr, 10));
        } else if (flag == "--workload") {
            options.workload = value;
            have_workload = true;
        } else if (flag == "--seed") {
            options.seed = std::strtoull(value.c_str(), nullptr, 10);
        } else if (flag == "--seconds") {
            options.seconds = std::strtod(value.c_str(), nullptr);
        } else if (flag == "--trace") {
            options.trace = value == "1";
        } else {
            return usage(("unknown flag " + flag).c_str());
        }
    }
    if (!have_workload) return usage("--workload is required");
    if (!(options.seconds > 0.0)) return usage("--seconds must be positive");

    perfbench::Tracer::instance().enable(options.trace);
    perfbench::Outcome out;
    try {
        if (options.workload == "open256")
            out = perfbench::run_open256(options);
        else if (options.workload == "campaign64")
            out = perfbench::run_campaign64(options);
        else if (options.workload == "advice_mix")
            out = perfbench::run_advice_mix(options);
        else
            return usage(("unknown workload " + options.workload).c_str());
    } catch (const std::exception& e) {
        std::fprintf(stderr, "perfbench: %s failed: %s\n",
                     options.workload.c_str(), e.what());
        return 1;
    }
    out.end_to_end["peak_rss_mb"] = perfbench::peak_rss_mb();

    for (const std::string& d : out.digests)
        std::printf("digest %s\n", d.c_str());
    for (const std::string& n : out.notes)
        std::fprintf(stderr, "perfbench: %s\n", n.c_str());
    for (const std::string& e : out.errors)
        std::printf("check failed: %s\n", e.c_str());
    std::printf(
        "{\"workload\": %s, \"seed\": %llu, \"trace\": %d, \"correct\": %s, "
        "\"attempted\": %llu, \"failed\": %llu, \"end_to_end\": %s, "
        "\"per_layer\": %s, \"digests\": %s, \"errors\": %s, "
        "\"notes\": %s, \"provenance\": %s}\n",
        json_string(options.workload).c_str(),
        static_cast<unsigned long long>(options.seed), options.trace ? 1 : 0,
        out.correct ? "true" : "false",
        static_cast<unsigned long long>(out.attempted),
        static_cast<unsigned long long>(out.failed),
        json_object(out.end_to_end).c_str(), json_object(out.per_layer).c_str(),
        json_array(out.digests).c_str(), json_array(out.errors).c_str(),
        json_array(out.notes).c_str(), perfbench::provenance_json().c_str());
    return 0;
}
