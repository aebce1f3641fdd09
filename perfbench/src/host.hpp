#pragma once

#include <string>

namespace perfbench {

/// Host and build provenance as a one-line JSON object: online CPUs,
/// std::thread::hardware_concurrency, CPU model, compiler, build type and
/// SIMD dispatch tier. The source revision is added by run.py.
std::string provenance_json();

/// Online CPU count (sysconf), at least 1.
unsigned online_cpus();

/// Peak resident set size of this process so far, in MiB.
double peak_rss_mb();

}  // namespace perfbench
