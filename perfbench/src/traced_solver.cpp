#include "traced_solver.hpp"

#include "spans.hpp"

namespace perfbench {

using hp::linalg::Matrix;
using hp::linalg::Vector;
using hp::thermal::ThermalWorkspace;

TracedSolver::TracedSolver(const hp::thermal::TransientSolver& inner)
    : inner_(inner),
      transient_(Tracer::instance().intern("thermal.transient")),
      steady_(Tracer::instance().intern("thermal.steady")),
      steady_batch_(Tracer::instance().intern("thermal.steady_batch")),
      other_(Tracer::instance().intern("thermal.other")) {}

Matrix TracedSolver::modal_steady_map() const {
    Span span(other_);
    return inner_.modal_steady_map();
}

Vector TracedSolver::steady_state(const Vector& node_power,
                                  double ambient_celsius) const {
    Span span(steady_);
    return inner_.steady_state(node_power, ambient_celsius);
}

void TracedSolver::steady_state_into(const Vector& node_power,
                                     double ambient_celsius,
                                     ThermalWorkspace& workspace,
                                     Vector& out) const {
    Span span(steady_);
    inner_.steady_state_into(node_power, ambient_celsius, workspace, out);
}

void TracedSolver::steady_state_batch_into(const double* node_powers,
                                           std::size_t nrhs,
                                           double ambient_celsius,
                                           ThermalWorkspace& workspace,
                                           double* out) const {
    Span span(steady_batch_);
    span.set_arg(static_cast<double>(nrhs));
    inner_.steady_state_batch_into(node_powers, nrhs, ambient_celsius,
                                   workspace, out);
}

Vector TracedSolver::conductance_solve(const Vector& rhs) const {
    Span span(other_);
    return inner_.conductance_solve(rhs);
}

void TracedSolver::conductance_solve_into(const Vector& rhs,
                                          ThermalWorkspace& workspace,
                                          Vector& out) const {
    Span span(other_);
    inner_.conductance_solve_into(rhs, workspace, out);
}

void TracedSolver::conductance_solve_batch_into(const double* rhs,
                                                std::size_t nrhs,
                                                ThermalWorkspace& workspace,
                                                double* out) const {
    Span span(other_);
    span.set_arg(static_cast<double>(nrhs));
    inner_.conductance_solve_batch_into(rhs, nrhs, workspace, out);
}

Vector TracedSolver::apply_exponential(const Vector& x, double dt) const {
    Span span(other_);
    return inner_.apply_exponential(x, dt);
}

void TracedSolver::apply_exponential_into(const Vector& x, double dt,
                                          ThermalWorkspace& workspace,
                                          Vector& out) const {
    Span span(other_);
    inner_.apply_exponential_into(x, dt, workspace, out);
}

void TracedSolver::apply_exponential_batch_into(const double* xs,
                                                std::size_t nrhs, double dt,
                                                ThermalWorkspace& workspace,
                                                double* outs) const {
    Span span(other_);
    span.set_arg(static_cast<double>(nrhs));
    inner_.apply_exponential_batch_into(xs, nrhs, dt, workspace, outs);
}

Matrix TracedSolver::exponential(double dt) const {
    Span span(other_);
    return inner_.exponential(dt);
}

Vector TracedSolver::transient(const Vector& t_init, const Vector& node_power,
                               double ambient_celsius, double dt) const {
    Span span(transient_);
    return inner_.transient(t_init, node_power, ambient_celsius, dt);
}

void TracedSolver::transient_into(const Vector& t_init,
                                  const Vector& node_power,
                                  double ambient_celsius, double dt,
                                  ThermalWorkspace& workspace,
                                  Vector& out) const {
    Span span(transient_);
    inner_.transient_into(t_init, node_power, ambient_celsius, dt, workspace,
                          out);
}

void TracedSolver::transient_batch_into(const Vector& t_init,
                                        const double* node_powers,
                                        std::size_t nrhs,
                                        double ambient_celsius, double dt,
                                        ThermalWorkspace& workspace,
                                        double* outs) const {
    Span span(transient_);
    span.set_arg(static_cast<double>(nrhs));
    inner_.transient_batch_into(t_init, node_powers, nrhs, ambient_celsius,
                                dt, workspace, outs);
}

double TracedSolver::peak_core_temperature(const Vector& t_init,
                                           const Vector& node_power,
                                           double ambient_celsius, double dt,
                                           std::size_t samples) const {
    Span span(other_);
    return inner_.peak_core_temperature(t_init, node_power, ambient_celsius,
                                        dt, samples);
}

hp::thermal::Peak TracedSolver::peak_core_temperature_exact(
    const Vector& t_init, const Vector& node_power, double ambient_celsius,
    double dt) const {
    Span span(other_);
    return inner_.peak_core_temperature_exact(t_init, node_power,
                                              ambient_celsius, dt);
}

}  // namespace perfbench
