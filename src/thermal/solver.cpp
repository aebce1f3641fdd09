#include "thermal/solver.hpp"

#include <algorithm>
#include <cstdlib>
#include <stdexcept>
#include <string>

#include "thermal/matex.hpp"
#include "thermal/modal_solver.hpp"

namespace hp::thermal {

// ---- Base-class value forms and batch loops -------------------------------

linalg::Vector TransientSolver::steady_state(const linalg::Vector& node_power,
                                             double ambient_celsius) const {
    ThermalWorkspace ws(node_count());
    linalg::Vector out(node_count());
    steady_state_into(node_power, ambient_celsius, ws, out);
    return out;
}

linalg::Vector TransientSolver::conductance_solve(
    const linalg::Vector& rhs) const {
    ThermalWorkspace ws(node_count());
    linalg::Vector out(node_count());
    conductance_solve_into(rhs, ws, out);
    return out;
}

linalg::Vector TransientSolver::apply_exponential(const linalg::Vector& x,
                                                  double dt) const {
    ThermalWorkspace ws(node_count());
    linalg::Vector out(node_count());
    apply_exponential_into(x, dt, ws, out);
    return out;
}

linalg::Vector TransientSolver::transient(const linalg::Vector& t_init,
                                          const linalg::Vector& node_power,
                                          double ambient_celsius,
                                          double dt) const {
    ThermalWorkspace ws(node_count());
    linalg::Vector out(node_count());
    transient_into(t_init, node_power, ambient_celsius, dt, ws, out);
    return out;
}

// Each loop copies RHS r into the workspace's stage-in buffer, runs the
// single kernel into its stage-out buffer and copies the result out. Row r
// of the input is read in full before row r of the output is written, so
// outs == xs is safe, and no single-RHS kernel touches the stage buffers.

void TransientSolver::conductance_solve_batch_into(const double* rhs,
                                                   std::size_t nrhs,
                                                   ThermalWorkspace& workspace,
                                                   double* out) const {
    const std::size_t n = node_count();
    workspace.resize(n);
    linalg::Vector& stage_in = workspace.stage_in(n);
    linalg::Vector& stage_out = workspace.stage_out(n);
    for (std::size_t r = 0; r < nrhs; ++r) {
        std::copy_n(rhs + r * n, n, stage_in.data());
        conductance_solve_into(stage_in, workspace, stage_out);
        std::copy_n(stage_out.data(), n, out + r * n);
    }
}

void TransientSolver::apply_exponential_batch_into(
    const double* xs, std::size_t nrhs, double dt, ThermalWorkspace& workspace,
    double* outs) const {
    const std::size_t n = node_count();
    workspace.resize(n);
    linalg::Vector& stage_in = workspace.stage_in(n);
    linalg::Vector& stage_out = workspace.stage_out(n);
    for (std::size_t r = 0; r < nrhs; ++r) {
        std::copy_n(xs + r * n, n, stage_in.data());
        apply_exponential_into(stage_in, dt, workspace, stage_out);
        std::copy_n(stage_out.data(), n, outs + r * n);
    }
}

void TransientSolver::transient_batch_into(const linalg::Vector& t_init,
                                           const double* node_powers,
                                           std::size_t nrhs,
                                           double ambient_celsius, double dt,
                                           ThermalWorkspace& workspace,
                                           double* outs) const {
    const std::size_t n = node_count();
    workspace.resize(n);
    linalg::Vector& stage_in = workspace.stage_in(n);
    linalg::Vector& stage_out = workspace.stage_out(n);
    for (std::size_t r = 0; r < nrhs; ++r) {
        std::copy_n(node_powers + r * n, n, stage_in.data());
        transient_into(t_init, stage_in, ambient_celsius, dt, workspace,
                       stage_out);
        std::copy_n(stage_out.data(), n, outs + r * n);
    }
}

// ---- Backend selection -----------------------------------------------------

std::string to_string(SolverBackend backend) {
    switch (backend) {
        case SolverBackend::kAuto:
            return "auto";
        case SolverBackend::kDense:
            return "dense";
        case SolverBackend::kModal:
            return "modal";
    }
    return "auto";
}

SolverBackend parse_solver_backend(const std::string& name) {
    if (name == "auto") return SolverBackend::kAuto;
    if (name == "dense") return SolverBackend::kDense;
    if (name == "modal") return SolverBackend::kModal;
    throw std::invalid_argument("unknown solver backend '" + name +
                                "' (expected auto, dense or modal)");
}

std::unique_ptr<const TransientSolver> make_solver(const ThermalModel& model,
                                                   const SolverConfig& config) {
    if (config.tolerance_c <= 0.0)
        throw std::invalid_argument(
            "make_solver: solver tolerance must be positive");
    SolverBackend backend = config.backend;
    if (backend == SolverBackend::kAuto) {
        // Environment override first (CI forces the modal leg this way),
        // then the size rule: dense keeps every existing small-config result
        // bit-identical, modal takes over where O(N^2) steps stop scaling.
        if (const char* env = std::getenv("HOTPOTATO_SOLVER");
            env != nullptr && *env != '\0')
            backend = parse_solver_backend(env);
        else
            backend = model.node_count() <= config.dense_node_threshold
                          ? SolverBackend::kDense
                          : SolverBackend::kModal;
    }
    if (backend == SolverBackend::kModal)
        return std::make_unique<TruncatedModalSolver>(model, config);
    return std::make_unique<MatExSolver>(model);
}

}  // namespace hp::thermal
