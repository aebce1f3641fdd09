#include "core/certify.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace hp::core {

TauLadder::TauLadder(std::vector<double> rungs_s,
                     std::size_t samples_per_epoch)
    : rungs_s_(std::move(rungs_s)), samples_per_epoch_(samples_per_epoch) {
    if (rungs_s_.empty())
        throw std::invalid_argument("tau ladder: no rungs");
    for (double tau : rungs_s_)
        if (!std::isfinite(tau) || tau <= 0.0)
            throw std::invalid_argument(
                "tau ladder: rungs must be finite and positive");
    if (!std::is_sorted(rungs_s_.begin(), rungs_s_.end()))
        throw std::invalid_argument("tau ladder: rungs must be ascending");
    if (samples_per_epoch_ == 0)
        throw std::invalid_argument(
            "tau ladder: samples_per_epoch must be positive");
}

std::size_t TauLadder::nearest(double tau_s) const {
    std::size_t best = 0;
    for (std::size_t i = 1; i < rungs_s_.size(); ++i)
        if (std::abs(rungs_s_[i] - tau_s) < std::abs(rungs_s_[best] - tau_s))
            best = i;
    return best;
}

void idle_ring_specs(const std::vector<arch::AmdRing>& rings, double idle_w,
                     std::vector<RotationRingSpec>& specs) {
    specs.resize(rings.size());
    for (std::size_t r = 0; r < rings.size(); ++r) {
        specs[r].cores = rings[r].cores;
        specs[r].slot_power_w.assign(rings[r].cores.size(), idle_w);
    }
}

void scatter_static_power(const std::vector<RotationRingSpec>& rings,
                          double idle_w, double* core_power,
                          std::size_t cores) {
    for (std::size_t i = 0; i < cores; ++i) core_power[i] = idle_w;
    for (const RotationRingSpec& ring : rings)
        for (std::size_t j = 0; j < ring.cores.size(); ++j)
            core_power[ring.cores[j]] = ring.slot_power_w[j];
}

}  // namespace hp::core
