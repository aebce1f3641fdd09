#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "sim/types.hpp"

namespace perfbench {

struct Options {
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;
};

/// What one workload run measured and checked.
struct Outcome {
    bool correct = true;
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    std::map<std::string, double> end_to_end;
    std::map<std::string, double> per_layer;  ///< traced runs only
    /// "<label> <hex>" digests of the simulated/served outputs.
    std::vector<std::string> digests;
    std::vector<std::string> errors;  ///< first few check failures
    std::vector<std::string> notes;   ///< phase timings, sample counts
};

Outcome run_open256(const Options& options);
Outcome run_campaign64(const Options& options);
Outcome run_advice_mix(const Options& options);

/// Records the HotPotato arrival calls of one open256 run and one
/// campaign64 pass (HotPotato only) for each of seeds 1..@p seeds and
/// prints the shares the advice_mix stream is built from: calls per config,
/// calls per run, and how often and how far back a call re-offers a pending
/// task. Returns 0.
int record_advice_traffic(std::size_t seeds);

/// Every SimResult field (tasks, aggregates, trace samples, resilience
/// stats) as raw bytes; equal bytes mean bit-identical results.
std::string serialize(const hp::sim::SimResult& result);

}  // namespace perfbench
