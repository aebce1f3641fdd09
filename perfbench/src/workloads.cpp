#include "workloads.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <exception>
#include <memory>
#include <mutex>
#include <numeric>
#include <optional>
#include <random>
#include <sstream>
#include <thread>
#include <unistd.h>

#include "campaign/campaign.hpp"
#include "core/hotpotato.hpp"
#include "host.hpp"
#include "obs/recorder.hpp"
#include "sched/pcmig.hpp"
#include "server/client.hpp"
#include "server/server.hpp"
#include "spans.hpp"
#include "traced_scheduler.hpp"
#include "traced_solver.hpp"
#include "workload/generator.hpp"

namespace perfbench {

namespace {

using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point t) {
    return std::chrono::duration<double>(Clock::now() - t).count();
}

/// Set-up is timed in two rounds, one before and one after the measured
/// work, so setup_s (the median of both) spans the whole run rather than
/// one moment of the host's speed. Each round repeats the set-up at least
/// 3 times and until 1 s has passed (at most 100 times), so a cheap set-up
/// gets enough repeats to be steady.
bool more_setups(const std::vector<double>& times, std::size_t round_start) {
    const double total = std::accumulate(times.begin() + round_start,
                                         times.end(), 0.0);
    const std::size_t done = times.size() - round_start;
    return done < 3 || (total < 1.0 && done < 100);
}

/// Times one round of @p build() calls (see more_setups) into @p times.
template <typename Build>
void setup_round(std::vector<double>& times, Build build) {
    const std::size_t round_start = times.size();
    while (more_setups(times, round_start)) {
        const auto t = std::chrono::steady_clock::now();
        build();
        times.push_back(std::chrono::duration<double>(
                            std::chrono::steady_clock::now() - t)
                            .count());
    }
}

/// Number of units a run measures: @p seconds of work at @p unit_s host
/// seconds per unit, at least one. It depends on the time budget only, not
/// on how fast the code runs, so every run of a seed measures the same
/// units.
std::size_t unit_count(double seconds, double unit_s) {
    return std::max<std::size_t>(
        1, static_cast<std::size_t>(std::llround(seconds / unit_s)));
}

double median(std::vector<double> v) {
    if (v.empty()) return 0.0;
    std::sort(v.begin(), v.end());
    const std::size_t n = v.size();
    return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double mean(const std::vector<double>& v) {
    return v.empty() ? 0.0
                     : std::accumulate(v.begin(), v.end(), 0.0) /
                           static_cast<double>(v.size());
}

double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

/// Uniform double in [0, 1) from a 64-bit engine, independent of the
/// standard library's distribution implementation.
double unit(std::mt19937_64& rng) {
    return static_cast<double>(rng() >> 11) * 0x1.0p-53;
}

/// Runs fn(0) .. fn(n-1) on n threads, joins them all, then rethrows the
/// first exception any of them raised.
template <typename Fn>
void on_threads(std::size_t n, Fn fn) {
    std::mutex mutex;
    std::exception_ptr error;
    std::vector<std::thread> threads;
    for (std::size_t w = 0; w < n; ++w)
        threads.emplace_back([&, w] {
            try {
                fn(w);
            } catch (...) {
                std::lock_guard<std::mutex> lock(mutex);
                if (!error) error = std::current_exception();
            }
        });
    for (auto& t : threads) t.join();
    if (error) std::rethrow_exception(error);
}

const SpanStats& stat(const std::map<std::string, SpanStats>& stats,
                      const std::string& name) {
    static const SpanStats empty;
    const auto it = stats.find(name);
    return it == stats.end() ? empty : it->second;
}

void fail(Outcome& out, const std::string& what) {
    ++out.failed;
    out.correct = false;
    if (out.errors.size() < 8) out.errors.push_back(what);
}

std::uint64_t counter(const hp::obs::MetricsSnapshot& snap,
                      const std::string& name) {
    for (const auto& c : snap.counters)
        if (c.name == name) return c.value;
    return 0;
}

/// Placement-advice metrics of the two simulation workloads: HotPotato's
/// Algorithm-1-certified placements at task arrival, counted per placed
/// thread (rate over the wall time, latency per thread of a decision).
void decision_metrics(const DecisionLog& log, double wall_s, Outcome& out) {
    out.end_to_end["advice_qps"] =
        ratio(static_cast<double>(log.threads_placed), wall_s);
    out.end_to_end["advice_p50_ms"] =
        tail_percentile(log.per_thread_ns, 50.0) / 1e6;
    out.end_to_end["advice_p99_ms"] =
        tail_percentile(log.per_thread_ns, 99.0) / 1e6;
}

/// Per-layer numbers of the core, sched and sim layers from the spans of
/// the scheduler decorator, plus the thermal layer when the run went
/// through the solver decorator (@p thermal_traced).
void simulation_layers(bool thermal_traced, Outcome& out) {
    const Tracer& tracer = Tracer::instance();
    const std::vector<SpanRecord> spans = tracer.collect();
    const auto stats = aggregate(spans, tracer.names());
    const auto get = [&](const std::string& name) -> const SpanStats& {
        return stat(stats, name);
    };
    auto& m = out.per_layer;
    m["trace.spans"] = static_cast<double>(spans.size());

    if (thermal_traced) {
        const SpanStats& tr = get("thermal.transient");
        const SpanStats& st = get("thermal.steady");
        const SpanStats& sb = get("thermal.steady_batch");
        const SpanStats& ot = get("thermal.other");
        m["thermal.transient.calls"] = static_cast<double>(tr.calls);
        m["thermal.transient.busy_ms"] = tr.busy_ns / 1e6;
        m["thermal.steady.calls"] = static_cast<double>(st.calls);
        m["thermal.steady.busy_ms"] = st.busy_ns / 1e6;
        m["thermal.steady_batch.calls"] = static_cast<double>(sb.calls);
        m["thermal.steady_batch.rhs"] = sb.arg_sum;
        m["thermal.batch_rhs_mean"] =
            ratio(sb.arg_sum, static_cast<double>(sb.calls));
        m["thermal.batched_rhs_share"] =
            ratio(sb.arg_sum, sb.arg_sum + static_cast<double>(st.calls));
        m["thermal.other.calls"] = static_cast<double>(ot.calls);
        m["thermal.other.busy_ms"] = ot.busy_ns / 1e6;
    }

    const SpanStats& arr = get("core.arrival");
    m["core.arrival.calls"] = static_cast<double>(arr.calls);
    m["core.arrival.placed_ratio"] =
        ratio(arr.arg_sum, static_cast<double>(arr.calls));
    m["core.arrival.busy_ms"] = arr.busy_ns / 1e6;
    m["core.arrival.self_ms"] = arr.self_ns / 1e6;
    m["core.arrival.p50_ms"] = tail_percentile(arr.durations_ns, 50) / 1e6;
    m["core.arrival.p99_ms"] = tail_percentile(arr.durations_ns, 99) / 1e6;
    const SpanStats& ep = get("core.epoch");
    m["core.epoch.calls"] = static_cast<double>(ep.calls);
    m["core.epoch.busy_ms"] = ep.busy_ns / 1e6;
    m["core.epoch.p99_ms"] = tail_percentile(ep.durations_ns, 99) / 1e6;
    m["core.finish.busy_ms"] = get("core.finish").busy_ns / 1e6;
    m["core.step.busy_ms"] = get("core.step").busy_ns / 1e6;
    m["sched.pcmig.epoch.busy_ms"] = get("sched.pcmig.epoch").busy_ns / 1e6;
    m["sched.pcmig.arrival.busy_ms"] =
        get("sched.pcmig.arrival").busy_ns / 1e6;

    // Host time between consecutive on_step calls of one simulation.
    std::vector<double> gaps;
    std::uint64_t steps = 0;
    std::uint64_t trace = 0;
    std::int64_t last = -1;
    const auto is_step = [&](std::uint32_t name) {
        const std::string& n = tracer.names()[name];
        return n == "core.step" || n == "sched.pcmig.step";
    };
    for (const SpanRecord& s : spans) {
        if (!is_step(s.name)) continue;
        ++steps;
        if (s.trace == trace && last >= 0)
            gaps.push_back(static_cast<double>(s.start_ns - last));
        trace = s.trace;
        last = s.start_ns;
    }
    m["sim.steps"] = static_cast<double>(steps);
    m["sim.step.p50_us"] = tail_percentile(gaps, 50) / 1e3;
    m["sim.step.p99_us"] = tail_percentile(gaps, 99) / 1e3;
    m["sim.self_ms"] = get("sim.run").self_ns / 1e6;
    m["sim.run.busy_ms"] = get("sim.run").busy_ns / 1e6;
}

void trace_copies(Outcome& out) {
    for (const char* name : {"ms_per_step", "runs_per_s", "advice_qps"})
        out.per_layer[std::string("trace.") + name] = out.end_to_end[name];
}

void finish_trace(const Options& options, Outcome& out) {
    if (!options.trace) return;
    trace_copies(out);
    Tracer::instance().write_csv("spans-" + options.workload + ".csv");
}

/// Seed of the @p index-th unit of a run seeded with @p seed (splitmix64 of
/// the pair), so units are decorrelated but reproducible.
std::uint64_t sub_seed(std::uint64_t seed, std::uint64_t index) {
    std::uint64_t z = seed * 0x9E3779B97F4A7C15ull + index + 1;
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
    return z ^ (z >> 31);
}

/// 64-bit FNV-1a of a byte sequence fed in pieces, so a long output is
/// hashed without first being joined into one buffer.
struct Fnv1a {
    std::uint64_t h = 1469598103934665603ull;

    template <typename Bytes>
    void add(const Bytes& bytes) {
        for (unsigned char c : bytes) {
            h ^= c;
            h *= 1099511628211ull;
        }
    }

    std::string hex() const {
        char buf[17];
        std::snprintf(buf, sizeof buf, "%016llx",
                      static_cast<unsigned long long>(h));
        return buf;
    }
};

/// 64-bit FNV-1a, printed as 16 hex digits.
std::string fnv1a_hex(const std::string& bytes) {
    Fnv1a f;
    f.add(bytes);
    return f.hex();
}

}  // namespace

std::string serialize(const hp::sim::SimResult& r) {
    std::string out;
    const auto put = [&out](const auto& v) {
        out.append(reinterpret_cast<const char*>(&v), sizeof v);
    };
    const auto put_vec = [&](const std::vector<double>& v) {
        put(v.size());
        for (double x : v) put(x);
    };
    put(r.tasks.size());
    for (const auto& t : r.tasks) {
        put(t.id);
        out += t.benchmark;
        out += '\0';
        put(t.threads);
        put(t.arrival_s);
        put(t.start_s);
        put(t.finish_s);
        put(t.energy_j);
    }
    put(r.all_finished);
    put(r.makespan_s);
    put(r.simulated_time_s);
    put(r.peak_temperature_c);
    put(r.dtm_throttled_s);
    put(r.dtm_triggers);
    put(r.migrations);
    put(r.total_energy_j);
    put(r.idle_energy_j);
    put(r.trace.size());
    for (const auto& s : r.trace) {
        put(s.time_s);
        put_vec(s.core_temperature_c);
        put_vec(s.core_power_w);
        put_vec(s.core_frequency_hz);
        put(s.max_core_temperature_c);
    }
    const auto& res = r.resilience;
    put(res.faults_injected);
    put(res.core_failures);
    put(res.sensor_faults);
    put(res.rotation_aborts);
    put(res.threads_replaced);
    put(res.threads_stranded);
    put(res.watchdog_triggers);
    put(res.watchdog_throttled_s);
    put(res.worst_recovery_s);
    put(res.thermal_violation_s);
    put(res.peak_during_fault_c);
    put(res.untrusted_sensor_samples);
    put(res.fault_log.size());
    return out;
}

// ---------------------------------------------------------------- open256

namespace {

/// The ROADMAP's open-system run: `--rows 16 --cols 16 --rate 2000
/// --tasks 40 --max-threads 16`, cut at 20 ms of simulated time. Arrivals
/// outpace completions, so the chip fills and pending tasks are re-offered.
constexpr std::size_t kOpenTasks = 40;
constexpr double kOpenRate = 2000.0;
constexpr double kOpenSimTime = 0.02;
/// Host seconds of one open256 run on a 4-vCPU Xeon host (~45 ms/step).
constexpr double kOpenUnitSeconds = 9.0;

hp::campaign::StudySetup open_setup() {
    return hp::campaign::StudySetup::paper_256core(
        hp::thermal::SolverConfig::modal());
}

hp::sim::SimConfig open_config() {
    hp::sim::SimConfig config;
    config.max_sim_time_s = kOpenSimTime;
    return config;
}

/// One open256 simulation of @p seed under a decorated HotPotato.
hp::sim::SimResult open_unit(const hp::campaign::StudySetup& setup,
                             const hp::thermal::TransientSolver& solver,
                             std::uint64_t seed, DecisionLog* decisions,
                             ArrivalLog* arrivals,
                             hp::obs::Recorder* recorder) {
    hp::sim::Simulator simulator(setup.chip(), setup.model(), solver,
                                 open_config(), {}, {}, nullptr, recorder);
    simulator.add_tasks(
        hp::workload::poisson_mix(kOpenTasks, kOpenRate, 2, 16, seed));
    TracedScheduler scheduler(std::make_unique<hp::core::HotPotatoScheduler>(),
                              "core", decisions, arrivals);
    return simulator.run(scheduler);
}

}  // namespace

Outcome run_open256(const Options& options) {
    Outcome out;
    std::vector<double> setup_times;
    std::optional<hp::campaign::StudySetup> setup;
    setup_round(setup_times, [&] { setup = open_setup(); });
    const TracedSolver traced_solver(setup->solver());
    const hp::thermal::TransientSolver& solver =
        options.trace ? static_cast<const hp::thermal::TransientSolver&>(
                            traced_solver)
                      : setup->solver();

    const hp::sim::SimConfig config = open_config();
    DecisionLog decisions;
    double wall_s = 0.0;
    std::uint64_t steps = 0, alg1 = 0, hits = 0, misses = 0;
    const std::size_t units = unit_count(options.seconds, kOpenUnitSeconds);
    for (std::uint64_t i = 0; i < units; ++i) {
        std::optional<hp::obs::Recorder> recorder;
        if (options.trace) recorder.emplace();
        ++out.attempted;
        hp::sim::SimResult result;
        const auto t = Clock::now();
        try {
            result = open_unit(*setup, solver, sub_seed(options.seed, i),
                               &decisions, nullptr,
                               recorder ? &*recorder : nullptr);
        } catch (const std::exception& e) {
            wall_s += seconds_since(t);
            fail(out, std::string("open256 run threw: ") + e.what());
            continue;
        }
        wall_s += seconds_since(t);
        steps += static_cast<std::uint64_t>(
            std::llround(result.simulated_time_s / config.micro_step_s));
        if (!result.all_finished &&
            result.simulated_time_s < config.max_sim_time_s - 1e-12)
            fail(out, "open256 run stopped early");
        if (result.peak_temperature_c > config.t_dtm_c)
            fail(out, "open256 peak " +
                          std::to_string(result.peak_temperature_c) +
                          " C exceeds T_DTM");
        out.digests.push_back("open256/sim" + std::to_string(i) + " " +
                              fnv1a_hex(serialize(result)));
        if (recorder) {
            const hp::obs::MetricsSnapshot snap = recorder->snapshot();
            alg1 += counter(snap, "hotpotato.alg1_evals");
            hits += counter(snap, "hotpotato.peak_cache_hits");
            misses += counter(snap, "hotpotato.peak_cache_misses");
        }
    }
    setup_round(setup_times, [] { (void)open_setup(); });
    out.end_to_end["setup_s"] = median(setup_times);
    out.end_to_end["ms_per_step"] =
        ratio(wall_s * 1e3, static_cast<double>(steps));
    out.end_to_end["runs_per_s"] =
        ratio(static_cast<double>(out.attempted), wall_s);
    decision_metrics(decisions, wall_s, out);
    out.notes.push_back("open256 runs " + std::to_string(out.attempted) +
                        ", steps " + std::to_string(steps) + ", placements " +
                        std::to_string(decisions.per_thread_ns.size()) +
                        ", setups " + std::to_string(setup_times.size()));

    if (options.trace) {
        simulation_layers(true, out);
        out.per_layer["core.alg1_evals"] = static_cast<double>(alg1);
        out.per_layer["core.cache_hit_ratio"] =
            ratio(static_cast<double>(hits), static_cast<double>(hits + misses));
        out.per_layer["setup.solver_ms.paper_256core"] =
            median(setup_times) * 1e3;
    }
    finish_trace(options, out);
    return out;
}

// ------------------------------------------------------------- campaign64

namespace {

/// The paper's Fig. 4(b) grid: 20-task PARSEC Poisson mixes at six arrival
/// rates, HotPotato vs PCMig, each run to completion.
const std::vector<double> kFig4bRates = {10, 25, 50, 100, 200, 400};
constexpr std::size_t kCampaignJobs = 2;
/// Host seconds of one 12-run pass on a 4-vCPU Xeon host (~5.5 runs/s).
constexpr double kPassSeconds = 2.2;

hp::campaign::StudySetup campaign_setup() {
    return hp::campaign::StudySetup::paper_64core(
        hp::thermal::SolverConfig::dense());
}

hp::sim::SimConfig campaign_config() {
    hp::sim::SimConfig config;
    config.max_sim_time_s = 30.0;
    return config;
}

/// One campaign64 pass: the Fig. 4(b) grid at one seed, with PCMig left
/// out when @p with_pcmig is false.
hp::campaign::CampaignResult campaign_pass(
    const hp::campaign::StudySetup& setup, std::uint64_t seed, bool observe,
    bool with_pcmig, DecisionLog* decisions, ArrivalLog* arrivals) {
    hp::campaign::CampaignSpec spec(setup, campaign_config());
    if (with_pcmig)
        spec.add_scheduler("PCMig", [] {
            return std::make_unique<TracedScheduler>(
                std::make_unique<hp::sched::PcMigScheduler>(), "sched.pcmig",
                nullptr);
        });
    spec.add_scheduler("HotPotato", [decisions, arrivals] {
        return std::make_unique<TracedScheduler>(
            std::make_unique<hp::core::HotPotatoScheduler>(), "core",
            decisions, arrivals);
    });
    for (double rate : kFig4bRates)
        spec.add_workload("poisson-" + std::to_string(static_cast<int>(rate)),
                          [rate](std::uint64_t s) {
                              return hp::workload::poisson_mix(20, rate, 2, 8,
                                                               s);
                          });
    spec.add_seed(seed);
    hp::campaign::CampaignOptions copts;
    copts.jobs = kCampaignJobs;
    copts.observe = observe;
    return hp::campaign::run_campaign(spec, copts);
}

}  // namespace

Outcome run_campaign64(const Options& options) {
    Outcome out;
    std::vector<double> setup_times;
    std::optional<hp::campaign::StudySetup> setup;
    setup_round(setup_times, [&] { setup = campaign_setup(); });

    DecisionLog decisions;
    const hp::sim::SimConfig config = campaign_config();
    double wall_s = 0.0, busy_s = 0.0, idle_s = 0.0;
    std::uint64_t steps = 0, retries = 0, alg1 = 0, hits = 0, misses = 0;
    std::vector<double> run_ms;
    const std::size_t passes = unit_count(options.seconds, kPassSeconds);
    for (std::uint64_t rep = 0; rep < passes; ++rep) {
        const hp::campaign::CampaignResult result =
            campaign_pass(*setup, sub_seed(options.seed, rep), options.trace,
                          true, &decisions, nullptr);
        wall_s += result.summary.wall_time_s;
        busy_s += result.summary.total_run_time_s;
        idle_s += static_cast<double>(result.summary.jobs) *
                      result.summary.wall_time_s -
                  result.summary.total_run_time_s;
        retries += result.summary.total_retries;
        for (const auto& r : result.records) {
            ++out.attempted;
            run_ms.push_back(r.wall_time_s * 1e3);
            steps += static_cast<std::uint64_t>(std::llround(
                r.result.simulated_time_s / config.micro_step_s));
            if (r.failed)
                fail(out, "campaign64 " + hp::campaign::to_string(r.key) +
                              " failed: " + r.error);
            else if (!r.result.all_finished)
                fail(out, "campaign64 " + hp::campaign::to_string(r.key) +
                              " did not finish");
            alg1 += counter(r.metrics, "hotpotato.alg1_evals");
            hits += counter(r.metrics, "hotpotato.peak_cache_hits");
            misses += counter(r.metrics, "hotpotato.peak_cache_misses");
        }
        std::ostringstream csv;
        hp::campaign::write_csv(csv, result.records);
        out.digests.push_back("campaign64/rep" + std::to_string(rep) + " " +
                              fnv1a_hex(csv.str()));
    }
    setup_round(setup_times, [] { (void)campaign_setup(); });
    out.end_to_end["setup_s"] = median(setup_times);
    out.end_to_end["runs_per_s"] =
        ratio(static_cast<double>(out.attempted), wall_s);
    out.end_to_end["ms_per_step"] =
        ratio(busy_s * 1e3, static_cast<double>(steps));
    decision_metrics(decisions, wall_s, out);
    out.notes.push_back("campaign64 records " +
                        std::to_string(out.attempted) + ", steps " +
                        std::to_string(steps) + ", placements " +
                        std::to_string(decisions.per_thread_ns.size()) +
                        ", setups " + std::to_string(setup_times.size()));

    if (options.trace) {
        simulation_layers(false, out);
        auto& m = out.per_layer;
        m["core.alg1_evals"] = static_cast<double>(alg1);
        m["core.cache_hit_ratio"] =
            ratio(static_cast<double>(hits), static_cast<double>(hits + misses));
        m["campaign.runs"] = static_cast<double>(out.attempted);
        m["campaign.failed"] = static_cast<double>(out.failed);
        m["campaign.retries"] = static_cast<double>(retries);
        m["campaign.run.p50_ms"] = tail_percentile(run_ms, 50);
        m["campaign.run.p90_ms"] = tail_percentile(run_ms, 90);
        m["campaign.busy_ms"] = busy_s * 1e3;
        m["campaign.idle_ms"] = idle_s * 1e3;
        m["campaign.pool_utilization"] = ratio(busy_s, busy_s + idle_s);
        m["campaign.overhead_ms"] = busy_s * 1e3 - m["sim.run.busy_ms"];
        m["setup.solver_ms.paper_64core"] = median(setup_times) * 1e3;
    }
    finish_trace(options, out);
    return out;
}

// ---------------------------------------------------------- advice traffic

int record_advice_traffic(std::size_t seeds) {
    // The HotPotato arrival calls of one open256 run and one campaign64
    // pass (HotPotato half) per seed: one advice request per call.
    ArrivalLog log;
    const hp::campaign::StudySetup open = open_setup();
    const hp::campaign::StudySetup campaign = campaign_setup();
    for (std::uint64_t seed = 1; seed <= seeds; ++seed) {
        open_unit(open, open.solver(), sub_seed(seed, 0), nullptr, &log,
                  nullptr);
        campaign_pass(campaign, sub_seed(seed, 0), false, false, nullptr,
                      &log);
    }
    std::map<std::size_t, std::vector<const ArrivalRun*>> by_cores;
    for (const ArrivalRun& run : log.runs) by_cores[run.cores].push_back(&run);
    std::size_t all_calls = 0;
    for (const ArrivalRun& run : log.runs) all_calls += run.calls.size();
    std::printf("advice traffic of %zu seeds: %zu runs, %zu calls\n", seeds,
                log.runs.size(), all_calls);
    for (const auto& [cores, runs] : by_cores) {
        std::size_t calls = 0, reoffers = 0, placed = 0;
        std::vector<double> distance;
        for (const ArrivalRun* run : runs) {
            std::map<hp::sim::TaskId, std::size_t> last;
            for (std::size_t k = 0; k < run->calls.size(); ++k) {
                const ArrivalCall& call = run->calls[k];
                ++calls;
                placed += call.placed;
                const auto it = last.find(call.task);
                if (it != last.end()) {
                    ++reoffers;
                    distance.push_back(static_cast<double>(k - it->second));
                }
                last[call.task] = k;
            }
        }
        std::printf(
            "%zu cores: runs %zu (share %.4f), calls %zu (share %.4f), "
            "calls/run %.2f, placed %.4f, re-offers %.4f, re-offer "
            "distance p50 %.0f p90 %.0f max %.0f\n",
            cores, runs.size(),
            ratio(static_cast<double>(runs.size()),
                  static_cast<double>(log.runs.size())),
            calls,
            ratio(static_cast<double>(calls), static_cast<double>(all_calls)),
            ratio(static_cast<double>(calls),
                  static_cast<double>(runs.size())),
            ratio(static_cast<double>(placed), static_cast<double>(calls)),
            ratio(static_cast<double>(reoffers), static_cast<double>(calls)),
            tail_percentile(distance, 50), tail_percentile(distance, 90),
            distance.empty()
                ? 0.0
                : *std::max_element(distance.begin(), distance.end()));
    }
    return 0;
}

// ------------------------------------------------------------- advice_mix

namespace {

const char* const kConfigs[] = {"paper_64core", "paper_256core"};
/// One closed-loop client and one server worker: on a few shared vCPUs,
/// two clients with two workers made the client figures follow the other
/// tenants' load about twice as closely (parallel 256-core misses contend
/// for cache and memory bandwidth, and more threads wait for a vCPU).
constexpr std::size_t kConnections = 1;      ///< closed-loop clients
constexpr std::size_t kServerThreads = 1;    ///< server worker pool

/// The stream replays the traffic of a HotPotato that asks the server at
/// every task arrival, as `perfbench --record-advice 8` records it from the
/// benchmark's own simulations (one open256 run and the HotPotato half of
/// one campaign64 pass per seed). A session is one simulated run on one
/// connection; a re-offer of a pending task repeats an earlier request of
/// its session exactly, 1..max_distance requests back.
struct Traffic {
    std::size_t calls_per_run;
    double reoffer_share;
    std::size_t max_distance;
};
/// Sessions come in blocks of one recorded seed's runs: 6 campaign64 runs
/// on 64 cores and 1 open256 run on 256 cores, in a random order.
constexpr std::size_t kBlockSessions = 7;
constexpr Traffic kTraffic[2] = {
    {66, 0.70, 8},   // paper_64core: campaign64 HotPotato runs
    {46, 0.23, 11},  // paper_256core: open256 runs
};
/// examples/advice_client.cpp sends one of its three requests with this
/// explicit τ grid; fresh requests here carry it at the same share.
constexpr double kTauGridShare = 1.0 / 3.0;
const std::vector<double> kTauGrid = {0.5e-3, 1e-3, 2e-3};
/// Stream length per second of budget. On a 4-CPU Xeon host the stream is
/// served in about 0.9 of the budget, so every run serves all of it; a
/// slower server may take up to kDeadlineFactor times the budget.
constexpr double kRequestsPerSecond = 1000.0;
constexpr double kDeadlineFactor = 4.0;

struct Stream {
    std::vector<hp::server::AdviceRequest> requests;
    std::vector<std::size_t> original;  ///< index of the fresh request
    std::vector<std::size_t> sessions;  ///< session starts, then the end
};

Stream make_stream(std::uint64_t seed, std::size_t length) {
    std::mt19937_64 rng(seed);
    Stream s;
    std::size_t big_session = 0;
    for (std::size_t n = 0; s.requests.size() < length; ++n) {
        if (n % kBlockSessions == 0)
            big_session = static_cast<std::size_t>(
                unit(rng) * static_cast<double>(kBlockSessions));
        s.sessions.push_back(s.requests.size());
        const std::size_t c = n % kBlockSessions == big_session ? 1 : 0;
        const Traffic& traffic = kTraffic[c];
        for (std::size_t k = 0;
             k < traffic.calls_per_run && s.requests.size() < length; ++k) {
            const std::size_t i = s.requests.size();
            if (k > 0 && unit(rng) < traffic.reoffer_share) {
                const std::size_t back =
                    1 + static_cast<std::size_t>(
                            unit(rng) * static_cast<double>(std::min(
                                            k, traffic.max_distance)));
                s.requests.push_back(s.requests[i - back]);
                s.original.push_back(s.original[i - back]);
                continue;
            }
            hp::server::AdviceRequest r;
            r.config = kConfigs[c];
            const std::size_t cores = c == 0 ? 64 : 256;
            const std::size_t threads =
                2 + static_cast<std::size_t>(
                        unit(rng) * static_cast<double>(cores / 2 - 1));
            for (std::size_t t = 0; t < threads; ++t)
                r.thread_power_w.push_back(0.5 + 5.5 * unit(rng));
            if (unit(rng) < kTauGridShare) r.tau_grid_s = kTauGrid;
            s.requests.push_back(std::move(r));
            s.original.push_back(i);
        }
    }
    s.sessions.push_back(s.requests.size());
    return s;
}

/// Response payload bytes (the frame minus its 8-byte header), as
/// AdviceClient::raw_query returns them.
std::vector<std::uint8_t> payload(const hp::server::AdviceResponse& r) {
    std::vector<std::uint8_t> frame;
    hp::server::encode_response(r, frame);
    return {frame.begin() + 8, frame.end()};
}

std::size_t config_index(const std::string& tag) {
    return tag == kConfigs[0] ? 0 : 1;
}

}  // namespace

Outcome run_advice_mix(const Options& options) {
    Outcome out;
    const std::string socket_path =
        "advice-" + std::to_string(::getpid()) + ".sock";
    hp::server::ServerConfig server_config;
    server_config.socket_path = socket_path;
    server_config.threads = kServerThreads;
    server_config.configs = {kConfigs[0], kConfigs[1]};

    std::vector<double> setup_times, solver_times[2];
    std::vector<std::unique_ptr<hp::server::AdviceBundle>> bundles(2);
    std::unique_ptr<hp::server::AdviceServer> server;
    const auto build = [&] {
        server.reset();
        for (std::size_t c = 0; c < 2; ++c) {
            const auto ts = Clock::now();
            hp::campaign::StudySetup study =
                hp::campaign::StudySetup::by_name(kConfigs[c]);
            solver_times[c].push_back(seconds_since(ts));
            bundles[c] = std::make_unique<hp::server::AdviceBundle>(
                std::move(study), server_config.defaults);
        }
        server = std::make_unique<hp::server::AdviceServer>(server_config);
    };
    setup_round(setup_times, build);

    // Inputs and the cache-off reference, before any timing. The reference
    // is untimed, so it uses every online CPU (up to 4).
    const auto reference_start = Clock::now();
    const std::size_t length = static_cast<std::size_t>(
        std::ceil(kRequestsPerSecond * options.seconds));
    const Stream stream = make_stream(options.seed, length);
    std::vector<std::vector<std::uint8_t>> reference(length);
    {
        const std::size_t n_workers = std::min(4u, online_cpus());
        on_threads(n_workers, [&](std::size_t w) {
            for (std::size_t c = 0; c < 2; ++c) {
                std::vector<std::size_t> idx;
                std::vector<hp::server::AdviceRequest> batch;
                for (std::size_t i = w; i < length; i += n_workers)
                    if (stream.original[i] == i &&
                        config_index(stream.requests[i].config) == c) {
                        idx.push_back(i);
                        batch.push_back(stream.requests[i]);
                    }
                // Small batches keep the transient answers (and so the
                // peak RSS) independent of how the stream splits.
                for (std::size_t k0 = 0; k0 < idx.size(); k0 += 32) {
                    const std::size_t k1 = std::min(idx.size(), k0 + 32);
                    const auto answers = hp::server::advise_batch(
                        *bundles[c], {batch.begin() + k0, batch.begin() + k1});
                    for (std::size_t k = k0; k < k1; ++k)
                        reference[idx[k]] = payload(answers[k - k0]);
                }
            }
        });
    }
    // Hashed piece by piece: joined, the reference bytes (tens of MB)
    // would set the peak RSS by where their total falls against the
    // buffer's growth steps.
    Fnv1a all_reference;
    for (std::size_t i = 0; i < length; ++i)
        all_reference.add(reference[stream.original[i]]);
    out.digests.push_back("advice_mix/reference" + std::to_string(length) +
                          " " + all_reference.hex());
    out.notes.push_back("advice_mix reference_s " +
                        std::to_string(seconds_since(reference_start)));

    // Closed loop: each client takes the next session from a shared
    // cursor, connects, sends the session's requests one after the other
    // and disconnects.
    std::vector<double> latency_ns(length, -1.0);
    std::vector<std::uint8_t> ok(length, 0);
    const std::size_t n_sessions = stream.sessions.size() - 1;
    std::atomic<std::size_t> next_session{0};
    std::atomic<std::size_t> sessions_done{0};
    std::atomic<std::size_t> transport_errors{0};
    const auto start = Clock::now();
    const auto deadline =
        start + std::chrono::duration_cast<Clock::duration>(
                    std::chrono::duration<double>(kDeadlineFactor *
                                                  options.seconds));
    on_threads(kConnections, [&](std::size_t) {
        for (;;) {
            const std::size_t session = next_session.fetch_add(1);
            if (session >= n_sessions || Clock::now() >= deadline) return;
            std::optional<hp::server::AdviceClient> client;
            try {
                client.emplace(socket_path);
            } catch (const std::exception&) {
                transport_errors.fetch_add(1);
                return;
            }
            bool complete = true;
            for (std::size_t i = stream.sessions[session];
                 i < stream.sessions[session + 1]; ++i) {
                if (Clock::now() >= deadline) return;
                const std::int64_t t0 = now_ns();
                try {
                    const auto bytes =
                        client->raw_query(stream.requests[i]);
                    latency_ns[i] = static_cast<double>(now_ns() - t0);
                    ok[i] = bytes == reference[stream.original[i]];
                } catch (const std::exception&) {
                    latency_ns[i] = static_cast<double>(now_ns() - t0);
                    transport_errors.fetch_add(1);
                    complete = false;
                    break;
                }
            }
            if (complete) sessions_done.fetch_add(1);
        }
    });
    const double wall_s = seconds_since(start);
    out.notes.push_back("advice_mix measure_s " + std::to_string(wall_s));
    std::vector<double> served;
    for (std::size_t i = 0; i < length; ++i) {
        if (latency_ns[i] < 0.0) continue;
        ++out.attempted;
        served.push_back(latency_ns[i]);
        if (!ok[i])
            fail(out, "advice_mix request " + std::to_string(i) +
                          " differs from the cache-off reference");
    }
    if (out.attempted == 0) fail(out, "advice_mix served no request");
    if (transport_errors.load() != 0)
        fail(out, "advice_mix: " + std::to_string(transport_errors.load()) +
                      " transport errors");

    // Client-side figures over every served request of the run.
    auto& e = out.end_to_end;
    e["advice_qps"] = ratio(static_cast<double>(served.size()), wall_s);
    e["advice_p50_ms"] = tail_percentile(served, 50) / 1e6;
    e["advice_p99_ms"] = tail_percentile(served, 99) / 1e6;
    e["ms_per_step"] = mean(served) / 1e6;
    e["runs_per_s"] =
        ratio(static_cast<double>(sessions_done.load()), wall_s);
    out.notes.push_back("advice_mix sessions " +
                        std::to_string(sessions_done.load()) + " of " +
                        std::to_string(n_sessions) + ", requests " +
                        std::to_string(served.size()) + " of " +
                        std::to_string(length));

    const hp::obs::MetricsSnapshot server_metrics = server->metrics();
    server->stop();
    setup_round(setup_times, build);
    server.reset();
    out.end_to_end["setup_s"] = median(setup_times);
    out.notes.push_back("advice_mix setups " +
                        std::to_string(setup_times.size()));

    if (options.trace) {
        auto& m = out.per_layer;
        const double hits = static_cast<double>(
            counter(server_metrics, "server.cache_hits"));
        const double misses = static_cast<double>(
            counter(server_metrics, "server.cache_misses"));
        m["server.requests"] = static_cast<double>(
            counter(server_metrics, "server.requests"));
        m["server.errors"] = static_cast<double>(
            counter(server_metrics, "server.errors.protocol") +
            counter(server_metrics, "server.errors.request"));
        m["server.cache_hit_ratio"] = ratio(hits, hits + misses);

        // In-process replay of the served requests, split over the same
        // number of threads as the server, with the server's cache
        // settings: decode, advise and encode timed separately.
        Tracer& tracer = Tracer::instance();
        const std::uint32_t s_request = tracer.intern("server.request");
        const std::uint32_t s_decode = tracer.intern("server.decode");
        const std::uint32_t s_encode = tracer.intern("server.encode");
        const std::uint32_t s_advise[2] = {
            tracer.intern("server.advise.64"),
            tracer.intern("server.advise.256")};
        std::vector<hp::core::ConcurrentPeakCache> caches(2);
        for (std::size_t c = 0; c < 2; ++c)
            caches[c].configure(server_config.cache_entries,
                                bundles[c]->max_key_words());
        std::vector<double> service_ns(length, 0.0);
        std::atomic<std::size_t> replay_mismatch{0};
        on_threads(kServerThreads, [&](std::size_t w) {
            hp::server::AdviceScratch scratch;
            std::vector<std::uint8_t> frame, response;
            for (std::size_t i = w; i < length; i += kServerThreads) {
                if (latency_ns[i] < 0.0) continue;
                frame.clear();
                hp::server::encode_request(stream.requests[i], frame);
                tracer.new_trace();
                const std::int64_t t0 = now_ns();
                {
                    Span request_span(s_request);
                    hp::server::AdviceRequest request;
                    {
                        Span span(s_decode);
                        request = hp::server::decode_request(
                            frame.data() + 8, frame.size() - 8);
                    }
                    const std::size_t c = config_index(request.config);
                    hp::server::AdviceResponse answer;
                    {
                        Span span(s_advise[c]);
                        answer = hp::server::advise(*bundles[c], request,
                                                    scratch, &caches[c]);
                    }
                    response.clear();
                    {
                        Span span(s_encode);
                        hp::server::encode_response(answer, response);
                    }
                }
                service_ns[i] = static_cast<double>(now_ns() - t0);
                if (!std::equal(response.begin() + 8, response.end(),
                                reference[stream.original[i]].begin(),
                                reference[stream.original[i]].end()))
                    replay_mismatch.fetch_add(1);
            }
        });
        if (replay_mismatch.load() != 0)
            fail(out, "advice_mix replay differs from the reference");

        const auto stats = aggregate(tracer.collect(), tracer.names());
        const auto get = [&](const std::string& name) -> const SpanStats& {
            return stat(stats, name);
        };
        const SpanStats& dec = get("server.decode");
        const SpanStats& enc = get("server.encode");
        m["server.decode_us"] =
            ratio(dec.busy_ns, static_cast<double>(dec.calls)) / 1e3;
        m["server.encode_us"] =
            ratio(enc.busy_ns, static_cast<double>(enc.calls)) / 1e3;
        for (const char* size : {"64", "256"}) {
            const SpanStats& a = get(std::string("server.advise.") + size);
            m[std::string("server.advise.") + size + ".p50_us"] =
                tail_percentile(a.durations_ns, 50) / 1e3;
            m[std::string("server.advise.") + size + ".p99_us"] =
                tail_percentile(a.durations_ns, 99) / 1e3;
        }
        double wait_ns = 0.0;
        for (std::size_t i = 0; i < length; ++i)
            if (latency_ns[i] >= 0.0) wait_ns += latency_ns[i] - service_ns[i];
        m["server.wait_ms"] =
            ratio(wait_ns, static_cast<double>(served.size())) / 1e6;
        m["trace.spans"] = static_cast<double>(tracer.collect().size());
        m["setup.solver_ms.paper_64core"] = median(solver_times[0]) * 1e3;
        m["setup.solver_ms.paper_256core"] = median(solver_times[1]) * 1e3;
    }
    finish_trace(options, out);
    return out;
}

}  // namespace perfbench
