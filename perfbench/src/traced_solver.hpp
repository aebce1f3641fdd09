#pragma once

// Forwarding thermal::TransientSolver decorator. Every numeric entry point
// forwards to the wrapped backend inside a span named after its operation
// family; metadata getters forward untimed. The wrapped solver answers every
// query, so results are bit-identical to using it directly.

#include <cstdint>
#include <memory>

#include "thermal/solver.hpp"

namespace perfbench {

class TracedSolver final : public hp::thermal::TransientSolver {
public:
    /// @p inner must outlive the decorator.
    explicit TracedSolver(const hp::thermal::TransientSolver& inner);

    const hp::thermal::ThermalModel& model() const override {
        return inner_.model();
    }
    const char* backend_name() const override {
        return inner_.backend_name();
    }
    std::uint64_t backend_signature() const override {
        return inner_.backend_signature();
    }
    bool truncated() const override { return inner_.truncated(); }
    double error_bound_c() const override { return inner_.error_bound_c(); }
    double tolerance_c() const override { return inner_.tolerance_c(); }
    std::size_t mode_count() const override { return inner_.mode_count(); }
    const hp::linalg::Vector& eigenvalues() const override {
        return inner_.eigenvalues();
    }
    const hp::linalg::Matrix& mode_shapes() const override {
        return inner_.mode_shapes();
    }
    hp::linalg::Matrix modal_steady_map() const override;
    double cluster_pole() const override { return inner_.cluster_pole(); }

    hp::linalg::Vector steady_state(const hp::linalg::Vector& node_power,
                                    double ambient_celsius) const override;
    void steady_state_into(const hp::linalg::Vector& node_power,
                           double ambient_celsius,
                           hp::thermal::ThermalWorkspace& workspace,
                           hp::linalg::Vector& out) const override;
    void steady_state_batch_into(const double* node_powers, std::size_t nrhs,
                                 double ambient_celsius,
                                 hp::thermal::ThermalWorkspace& workspace,
                                 double* out) const override;
    hp::linalg::Vector conductance_solve(
        const hp::linalg::Vector& rhs) const override;
    void conductance_solve_into(const hp::linalg::Vector& rhs,
                                hp::thermal::ThermalWorkspace& workspace,
                                hp::linalg::Vector& out) const override;
    void conductance_solve_batch_into(const double* rhs, std::size_t nrhs,
                                      hp::thermal::ThermalWorkspace& workspace,
                                      double* out) const override;

    hp::linalg::Vector apply_exponential(const hp::linalg::Vector& x,
                                         double dt) const override;
    void apply_exponential_into(const hp::linalg::Vector& x, double dt,
                                hp::thermal::ThermalWorkspace& workspace,
                                hp::linalg::Vector& out) const override;
    void apply_exponential_batch_into(const double* xs, std::size_t nrhs,
                                      double dt,
                                      hp::thermal::ThermalWorkspace& workspace,
                                      double* outs) const override;
    hp::linalg::Matrix exponential(double dt) const override;

    hp::linalg::Vector transient(const hp::linalg::Vector& t_init,
                                 const hp::linalg::Vector& node_power,
                                 double ambient_celsius,
                                 double dt) const override;
    void transient_into(const hp::linalg::Vector& t_init,
                        const hp::linalg::Vector& node_power,
                        double ambient_celsius, double dt,
                        hp::thermal::ThermalWorkspace& workspace,
                        hp::linalg::Vector& out) const override;
    void transient_batch_into(const hp::linalg::Vector& t_init,
                              const double* node_powers, std::size_t nrhs,
                              double ambient_celsius, double dt,
                              hp::thermal::ThermalWorkspace& workspace,
                              double* outs) const override;

    double peak_core_temperature(const hp::linalg::Vector& t_init,
                                 const hp::linalg::Vector& node_power,
                                 double ambient_celsius, double dt,
                                 std::size_t samples) const override;
    hp::thermal::Peak peak_core_temperature_exact(
        const hp::linalg::Vector& t_init,
        const hp::linalg::Vector& node_power, double ambient_celsius,
        double dt) const override;

    /// Clones the wrapped backend (undecorated).
    std::unique_ptr<const hp::thermal::TransientSolver> clone_rebound(
        const hp::thermal::ThermalModel& model) const override {
        return inner_.clone_rebound(model);
    }

private:
    const hp::thermal::TransientSolver& inner_;
    std::uint32_t transient_, steady_, steady_batch_, other_;
};

}  // namespace perfbench
