#pragma once

#include <cstddef>
#include <memory_resource>
#include <vector>

#include "linalg/matrix.hpp"
#include "linalg/vector.hpp"
#include "thermal/solver.hpp"
#include "thermal/workspace.hpp"

namespace hp::core {

/// One rotation ring handed to the peak-temperature analysis: the cores in
/// cycle order and the power of each slot's occupant (idle slots carry the
/// idle power). At every rotation epoch the occupant of slot j moves to slot
/// j+1 (mod size).
struct RotationRingSpec {
    std::vector<std::size_t> cores;
    std::vector<double> slot_power_w;
};

/// Caller-owned scratch for PeakTemperatureAnalyzer queries.
///
/// Every run-time query takes one of these; after the first (sizing) call
/// the query runs without heap allocations — the modal y/z arrays,
/// geometric e^{λτ} tables and per-ring delta vectors are all reused.
/// Buffer lists only ever grow, so alternating between rings of different
/// sizes does not re-allocate. A workspace may be reused across
/// analyzers/models (buffers re-size on demand) but must not be shared
/// between threads; the analyzer itself stays immutable and shareable.
class PeakWorkspace {
public:
    PeakWorkspace() = default;

    /// All buffers (present and future) allocate from @p mr — the campaign
    /// worker's node-local arena. The outer list spines stay on the heap
    /// (a handful of pointers); every double buffer, including the embedded
    /// ThermalWorkspace, lives on the resource. Placement never affects
    /// query results, only locality.
    explicit PeakWorkspace(std::pmr::memory_resource* mr)
        : mr_(mr),
          coeff_(mr),
          zs_batch_(mr),
          resp_batch_(mr),
          core_max_(mr),
          t_idle_(mr),
          core_power_(mr),
          node_power_(mr),
          extra_batch_(mr),
          batch_node_power_(mr),
          batch_steady_(mr),
          ek_(mr),
          ek_pow_(mr),
          qfrac_(mr),
          qpow_(mr),
          thermal_(mr) {}

    /// Resource newly-grown buffers are carved from (default resource when
    /// the workspace was default-constructed).
    std::pmr::memory_resource* resource() const { return mr_; }

private:
    friend class PeakTemperatureAnalyzer;
    std::pmr::memory_resource* mr_ = std::pmr::get_default_resource();
    std::vector<linalg::Vector> y_;         ///< modal epoch targets β·P_f
    std::vector<linalg::Vector> z_;         ///< periodic boundary solution
    std::vector<linalg::Vector> eks_frac_;  ///< intra-epoch decay factors
    std::vector<linalg::Vector> deltas_;    ///< per-epoch node power deltas
    linalg::Vector coeff_;                  ///< (1-e^{λτ})/(1-e^{λδτ})
    std::pmr::vector<double> zs_batch_;     ///< RHS-major modal samples
    std::pmr::vector<double> resp_batch_;   ///< RHS-major projected responses
    linalg::Vector core_max_;
    linalg::Vector t_idle_;
    linalg::Vector core_power_;
    linalg::Vector node_power_;
    std::pmr::vector<double> extra_batch_;  ///< per-τ-rung response maxima
    std::pmr::vector<double> batch_node_power_;  ///< RHS-major padded cands
    std::pmr::vector<double> batch_steady_;      ///< RHS-major batched solves
    std::pmr::vector<double> ek_;                ///< e^{λ_k τ}
    std::pmr::vector<double> ek_pow_;            ///< e^{λ_k τ g}, g = 0..δ
    // Truncated-backend correction state (untouched on exact backends):
    std::vector<linalg::Vector> cfield_;  ///< per-epoch dropped core fields
    std::vector<linalg::Vector> cstar_;   ///< dropped periodic boundary state
    std::pmr::vector<double> qfrac_;      ///< e^{λ̄ τ s/S}, s = 1..S
    std::pmr::vector<double> qpow_;       ///< e^{λ̄ τ g}, g = 0..δ
    thermal::ThermalWorkspace thermal_;
};

/// Analytical peak temperature of synchronous thread rotations
/// (paper §IV, Algorithm 1).
///
/// Construction performs the design-time phase: it reuses the backend's
/// modal decomposition C = V·diag(λ)·V^{-1} and precomputes the auxiliary
/// matrix β = V^{-1}·B^{-1} together with the ambient offset B^{-1}·T_amb·G
/// (the α/β matrices of Algorithm 1). Run-time queries then solve the
/// periodic steady state in modal space:
///
///   z_k(e) = (1-e^{λ_k τ}) / (1-e^{λ_k δτ}) · Σ_f e^{λ_k τ·((e-f) mod δ)} y_{f,k}
///
/// which is Eq. (10) of the paper — the geometric series of Eq. (9) closed
/// in each eigen-direction — evaluated at every epoch boundary e, maxed per
/// Eq. (11). All eigenvalues are negative (B SPD), so the series converges
/// and the result is a true steady-periodic bound independent of the initial
/// temperature.
///
/// On a truncated backend (mode_count() < node_count()) the retained modes
/// alone would miss tens of Kelvin of quasi-static hotspot content, so every
/// query adds a dropped-cluster correction: the exact quasi-static core
/// response of each epoch, c_f(i) = (B^{-1}P_f)(i) - Σ_{k<K} V(i,k)·y_{f,k}
/// (a sparse direct solve, no eigenmodes), tracked through one representative
/// fast pole λ̄ = cluster_pole() by the same periodic geometric series in
/// scalar form. The residual error is what the backend's error_bound_c()
/// covers. Exact backends skip the correction entirely and reproduce the
/// historical dense results bit for bit.
///
/// Thread safety: immutable after construction. The α/β eigen-tables are
/// built in the constructor and the analysis entry points are const, so one
/// analyzer may serve concurrent campaign workers sharing a
/// campaign::StudySetup: all mutable state lives in the caller's
/// PeakWorkspace, so concurrent queries are safe with one workspace per
/// thread.
class PeakTemperatureAnalyzer {
public:
    /// @p solver (and its thermal model) must outlive the analyzer.
    /// @p idle_power_w is the power of a core without a thread, evaluated
    /// conservatively (leakage at the DTM threshold) by callers.
    PeakTemperatureAnalyzer(const thermal::TransientSolver& solver,
                            double ambient_c, double idle_power_w);

    double ambient_c() const { return ambient_c_; }
    double idle_power_w() const { return idle_power_w_; }

    /// Exact periodic-steady-state node temperatures at the end of each
    /// epoch for an explicit periodic schedule: core_power_per_epoch[f] is
    /// held for @p tau seconds, the whole pattern repeats. Dense and
    /// allocating on purpose: the validation tests use it as the reference
    /// the sampled queries below are checked against.
    std::vector<linalg::Vector> boundary_temperatures(
        const std::vector<linalg::Vector>& core_power_per_epoch,
        double tau) const;

    /// Peak core temperature of the periodic schedule, sampling
    /// @p samples_per_epoch points inside every epoch (the end point plus
    /// interior points — per-node transients are not monotonic, so pure
    /// boundary sampling can shave an interior hump).
    double schedule_peak(const std::vector<linalg::Vector>& core_power_per_epoch,
                         double tau, std::size_t samples_per_epoch,
                         PeakWorkspace& workspace) const;

    /// Steady-state peak core temperature of a static (non-rotating) power
    /// assignment. A non-null @p core_peak_c (core_count() entries,
    /// caller-sized) additionally receives every core's steady-state
    /// temperature; the return value is the max over exactly those entries,
    /// and equals the value returned without a map, bit for bit. The advice
    /// server's responses carry that map.
    double static_peak(const linalg::Vector& core_power,
                       PeakWorkspace& workspace,
                       double* core_peak_c = nullptr) const;

    /// static_peak over @p nrhs candidate core-power vectors in one batched
    /// steady-state solve (the multi-candidate slate of HotPotato's
    /// rotation-off placement scan). @p core_powers is RHS-major — candidate
    /// r occupies [r·core_count(), (r+1)·core_count()). peaks[r] is
    /// bit-identical to static_peak(candidate r, workspace).
    void static_peak_batch(const double* core_powers, std::size_t nrhs,
                           PeakWorkspace& workspace, double* peaks) const;

    /// Peak core temperature with every listed ring rotating synchronously
    /// at interval @p tau and all remaining cores idle — the form the
    /// HotPotato candidate loop evaluates hundreds of times per epoch.
    ///
    /// Rings generally have coprime sizes, so the exact joint schedule only
    /// repeats after lcm(sizes) epochs; instead of materialising that, the
    /// analysis exploits linearity: the response decomposes into an all-idle
    /// baseline plus one independent periodic response per ring, and
    /// per-node maxima are summed (max of sums <= sum of maxima). For a
    /// single occupied ring this is exact at the sample points; for multiple
    /// rings it is a safe upper bound whose slack is the (tiny) cross-ring
    /// ripple correlation.
    ///
    /// A non-null @p core_peak_c (core_count() entries, caller-sized)
    /// receives each core's sampled peak — all-idle baseline plus its summed
    /// per-ring response maxima; the return value is the max over exactly
    /// those sums, and equals the value returned without a map, bit for bit.
    double rotation_peak(const std::vector<RotationRingSpec>& rings,
                         double tau, std::size_t samples_per_epoch,
                         PeakWorkspace& workspace,
                         double* core_peak_c = nullptr) const;

    /// Evaluates rotation_peak for the same ring set at @p tau_count
    /// different rotation intervals in one pass: the all-idle baseline and
    /// every ring's modal epoch targets y_f = β·P_f are τ-independent, so
    /// they are computed once and only the geometric-series evaluation runs
    /// per rung. peaks[t] is bit-identical to
    /// rotation_peak(rings, taus[t], samples_per_epoch, workspace) — the
    /// per-rung operation sequence is unchanged, only shared work is hoisted.
    /// This is the batched slate HotPotato scores when probing its τ ladder.
    void rotation_peak_tau_batch(const std::vector<RotationRingSpec>& rings,
                                 const double* taus, std::size_t tau_count,
                                 std::size_t samples_per_epoch,
                                 PeakWorkspace& workspace,
                                 double* peaks) const;

private:
    /// The ring loop behind both rotation queries: the all-idle baseline
    /// into workspace.t_idle_, then each ring's periodic response maxima at
    /// the @p tau_count rotation intervals @p taus summed into
    /// workspace.extra_batch_ (RHS-major, tau_count × core_count(),
    /// overwritten).
    void ring_responses(const std::vector<RotationRingSpec>& rings,
                        const double* taus, std::size_t tau_count,
                        std::size_t samples_per_epoch,
                        PeakWorkspace& workspace) const;

    /// τ-independent half of a periodic response: fills workspace.y_
    /// with the modal epoch targets y_f = β·P_f. Splitting this out lets
    /// ring_responses evaluate one ring at many rotation intervals without
    /// redoing the (dominant) β projections.
    void build_modal_targets(const linalg::Vector* node_power_per_epoch,
                             std::size_t delta, PeakWorkspace& workspace) const;

    /// τ-dependent half: consumes workspace.y_ (left untouched, so it may be
    /// re-evaluated at another τ) and writes per-core response maxima.
    void evaluate_periodic_max(std::size_t delta, double tau,
                               std::size_t samples_per_epoch,
                               PeakWorkspace& workspace,
                               linalg::Vector& core_max) const;

    const thermal::TransientSolver* solver_;
    double ambient_c_;
    double idle_power_w_;
    std::size_t modes_;              ///< retained mode count K (design-time)
    bool truncated_;                 ///< dropped-cluster corrections active
    double cluster_pole_;            ///< λ̄ of the dropped cluster (< 0)
    linalg::Matrix beta_;            ///< K x N  V^{-1} B^{-1} (design-time)
    linalg::Matrix beta_t_;          ///< β^T: row j = β column j (cache-friendly
                                     ///< accumulation over sparse power vectors)
    linalg::Matrix v_cores_;         ///< V core rows, row-major (i, k) = V(i, k);
                                     ///< the modal→core projection is one matmat
                                     ///< over all boundary/interior samples
    linalg::Matrix quasi_static_map_;  ///< Truncated backends only: row j holds
                                       ///< the per-core dropped-cluster response
                                       ///< to unit power at node j,
                                       ///< Q(j,i) = (B^{-1})(i,j) − Σ_k V(i,k)β(k,j),
                                       ///< so c_f = Σ_j P_f(j)·Q(j,·) is a sparse
                                       ///< gather instead of a banded solve per
                                       ///< epoch. A floorplan constant (B is
                                       ///< symmetric, so B^{-1} core rows come
                                       ///< from `cores` unit-vector solves).
    linalg::Vector ambient_offset_;  ///< B^{-1} T_amb G
};

}  // namespace hp::core
