#include "host.hpp"

#include <sys/resource.h>
#include <unistd.h>

#include <fstream>
#include <sstream>
#include <thread>

#include "linalg/simd.hpp"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif
#ifndef PERFBENCH_COMPILER
#define PERFBENCH_COMPILER "unknown"
#endif

namespace perfbench {

namespace {

std::string cpu_model() {
    std::ifstream in("/proc/cpuinfo");
    std::string line;
    while (std::getline(in, line)) {
        if (line.rfind("model name", 0) != 0) continue;
        const auto colon = line.find(':');
        if (colon == std::string::npos) break;
        std::string model = line.substr(colon + 1);
        model.erase(0, model.find_first_not_of(" \t"));
        return model;
    }
    return "unknown";
}

std::string json_escape(const std::string& s) {
    std::string out;
    for (char c : s) {
        if (c == '"' || c == '\\') out += '\\';
        if (static_cast<unsigned char>(c) >= 0x20) out += c;
    }
    return out;
}

}  // namespace

unsigned online_cpus() {
    const long n = ::sysconf(_SC_NPROCESSORS_ONLN);
    return n > 0 ? static_cast<unsigned>(n) : 1u;
}

std::string provenance_json() {
    std::ostringstream out;
    out << "{\"nproc\": " << online_cpus()
        << ", \"hardware_concurrency\": "
        << std::thread::hardware_concurrency() << ", \"cpu_model\": \""
        << json_escape(cpu_model()) << "\", \"compiler\": \""
        << json_escape(PERFBENCH_COMPILER) << "\", \"build_type\": \""
        << PERFBENCH_BUILD_TYPE << "\", \"simd_tier\": \""
        << hp::linalg::simd::tier_name(hp::linalg::simd::active_tier())
        << "\"}";
    return out.str();
}

double peak_rss_mb() {
    struct rusage usage {};
    ::getrusage(RUSAGE_SELF, &usage);
    return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

}  // namespace perfbench
