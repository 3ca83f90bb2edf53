/**
 * @file
 * mc-pst: the paper's evaluation infrastructure, in process. Set-up
 * compiles the Table-1 suite on Q20, a 27-qubit Clifford circuit on
 * Falcon-27 and the Table-3 kernels on Q5 (all vqa+vqm) and builds
 * their noise models. The timed region then runs rounds of PST
 * estimates ("jobs"): Bernoulli fault injection on the Table-1
 * suite, outcome-checked Pauli-frame trials on the Clifford circuits
 * of widths 20 and 27, and dense trials on the Q5 kernels. Engine
 * construction is inside every job, as users pay it on every run.
 *
 * pst_geomean is the geometric mean of the closed-form PST of the
 * set-up's compiled circuits: like the serve workloads, it reads the
 * analytic PST of the mappings the workload compiled. The Monte-Carlo
 * estimates are checked against it and reported in the detail.
 */
#include <unistd.h>

#include <cmath>

#include "bench_util.hpp"
#include "calibration/synthetic.hpp"
#include "common.hpp"
#include "common/rng.hpp"
#include "core/compile_cache.hpp"
#include "obs/trace.hpp"
#include "sim/parallel_fault_sim.hpp"
#include "sim/pauli_frame.hpp"
#include "topology/layouts.hpp"
#include "workloads/workloads.hpp"

namespace vaqbench
{

namespace
{

constexpr std::size_t kThreads = 4;
constexpr int kSetups = 5;
constexpr std::size_t kBernoulliTrials = 200'000;
constexpr std::size_t kFrameTrials = 16'384;
constexpr std::size_t kDenseTrials = 8'192;
/** A Bernoulli estimate must lie within this many standard errors of
 *  its closed form, tested exactly: see binomialTail(). */
constexpr double kStderrTolerance = 5.0;

/** One machine with its calibration and noise model. NoiseModel
 *  holds references, so a Machine never moves (kept behind
 *  unique_ptr). */
struct Machine
{
    topology::CouplingGraph graph;
    calibration::Snapshot snapshot;
    sim::NoiseModel model;

    Machine(topology::CouplingGraph graph_in,
            calibration::Snapshot snapshot_in)
        : graph(std::move(graph_in)),
          snapshot(std::move(snapshot_in)),
          model(graph, snapshot)
    {}
};

/** A compiled circuit and the engine it is estimated with. */
struct Job
{
    std::string name;
    const Machine *machine = nullptr;
    circuit::Circuit physical = circuit::Circuit(1);
    /** Bernoulli (fault injection) or an outcome-checked engine. */
    bool bernoulli = false;
    sim::SimEngine engine = sim::SimEngine::Dense;
    std::size_t trials = 0;
    double closedForm = 0.0;
};

struct Setup
{
    std::unique_ptr<Machine> q20, falcon, q5;
    std::vector<Job> jobs;
};

std::unique_ptr<Machine>
syntheticMachine(topology::CouplingGraph graph)
{
    calibration::Snapshot snapshot =
        calibration::SyntheticSource(graph, calibration::SyntheticParams{},
                                     bench::kArchiveSeed)
            .nextCycle();
    return std::make_unique<Machine>(std::move(graph), std::move(snapshot));
}

circuit::Circuit
compileOn(const circuit::Circuit &logical, const Machine &machine,
          RunResult &run, const std::string &name)
{
    core::CompileRequest request;
    request.policy = core::PolicySpec{.name = "vqa+vqm"};
    const core::CompileResult result = core::compileCircuit(
        logical, request, machine.graph, machine.snapshot);
    if (result.status != core::JobStatus::Ok)
        run.fail("mc-pst set-up could not compile " + name);
    return result.mapped.physical;
}

Setup
buildSetup(RunResult &run)
{
    // Each set-up starts cold: no shared matrices or plans survive.
    core::invalidatePathCaches();
    Setup setup;
    setup.q20 = syntheticMachine(topology::ibmQ20Tokyo());
    setup.falcon = syntheticMachine(topology::ibmFalcon27());
    const topology::CouplingGraph q5 = topology::ibmQ5Tenerife();
    setup.q5 = std::make_unique<Machine>(q5, bench::paperEraTenerife(q5));

    for (workloads::Workload &w :
         workloads::standardSuite(setup.q20->graph)) {
        Job job;
        job.name = w.name;
        job.machine = setup.q20.get();
        job.physical = compileOn(w.circuit, *setup.q20, run, w.name);
        job.bernoulli = true;
        job.trials = kBernoulliTrials;
        setup.jobs.push_back(std::move(job));
    }
    // Clifford circuits of widths 20 (bv-20 as mapped on Q20) and 27.
    for (const auto &[name, machine, logical] :
         {std::tuple{std::string("bv-20"), setup.q20.get(),
                     workloads::bernsteinVazirani(20)},
          std::tuple{std::string("bv-27"), setup.falcon.get(),
                     workloads::bernsteinVazirani(27)}}) {
        Job job;
        job.name = name + "/frame";
        job.machine = machine;
        job.physical = compileOn(logical, *machine, run, name);
        job.engine = sim::SimEngine::PauliFrame;
        job.trials = kFrameTrials;
        setup.jobs.push_back(std::move(job));
    }
    for (workloads::Workload &w : workloads::q5Suite()) {
        Job job;
        job.name = w.name + "/dense";
        job.machine = setup.q5.get();
        job.physical = compileOn(w.circuit, *setup.q5, run, w.name);
        job.engine = sim::SimEngine::Dense;
        job.trials = kDenseTrials;
        setup.jobs.push_back(std::move(job));
    }
    for (Job &job : setup.jobs)
        job.closedForm = sim::analyticPst(job.physical, job.machine->model);
    return setup;
}

/** Under Binomial(n, p), the probability of a count at least as far
 *  from the mean as k, on k's side: P(X >= k) for k above the mean,
 *  P(X <= k) below it. Exact, so it holds where n * p is tiny (qft-14
 *  expects ~0.1 successes) and a normal approximation does not. */
double
binomialTail(std::size_t n, double p, std::size_t k)
{
    if (p <= 0.0)
        return k == 0 ? 1.0 : 0.0;
    if (p >= 1.0)
        return k == n ? 1.0 : 0.0;
    const auto nd = static_cast<double>(n);
    const auto kd = static_cast<double>(k);
    const bool upper = kd >= nd * p;
    const double odds = p / (1.0 - p);
    // P(X = k), then step away from the mean until the terms vanish.
    double term = std::exp(std::lgamma(nd + 1.0) - std::lgamma(kd + 1.0) -
                           std::lgamma(nd - kd + 1.0) + kd * std::log(p) +
                           (nd - kd) * std::log1p(-p));
    double tail = 0.0;
    for (std::size_t i = k; term > 0.0 && term >= tail * 1e-17;) {
        tail += term;
        if (upper ? i == n : i == 0)
            break;
        const auto id = static_cast<double>(i);
        if (upper) {
            term *= (nd - id) / (id + 1.0) * odds;
            ++i;
        } else {
            term *= id / ((nd - id + 1.0) * odds);
            --i;
        }
    }
    return std::min(tail, 1.0);
}

/** Per-engine tallies of the timed region. */
struct EngineTotals
{
    double bernoulliS = 0.0, frameS = 0.0, denseS = 0.0;
    double bernoulliTrials = 0.0, frameTrials = 0.0, denseTrials = 0.0;
    /** Latencies of each job across rounds, ms. */
    std::vector<std::vector<double>> jobMs;
};

/** Run one round of jobs; appends each job's latency and (round 0)
 *  its PST estimate. */
void
runRound(const Setup &setup, sim::ParallelFaultSim &pool,
         std::uint64_t seed, std::size_t round, RunResult &run,
         std::vector<double> &latencies, std::vector<double> &psts,
         EngineTotals &totals)
{
    totals.jobMs.resize(setup.jobs.size());
    for (std::size_t j = 0; j < setup.jobs.size(); ++j) {
        const Job &job = setup.jobs[j];
        const std::uint64_t jobSeed = mix64(seed + round * 1000 + j);
        const auto start = Clock::now();
        std::size_t trials = 0;
        double pst = 0.0;
        if (job.bernoulli) {
            sim::ParallelFaultSimOptions options;
            options.trials = job.trials;
            options.seed = jobSeed;
            const sim::FaultSimResult result =
                pool.run(job.physical, job.machine->model, options);
            trials = result.trials;
            pst = result.pst;
            // Successes are Binomial(trials, closed form): the
            // estimate fails when its tail is rarer than a 5-stderr
            // normal one.
            if (binomialTail(result.trials, job.closedForm,
                             result.successes) <
                0.5 * std::erfc(kStderrTolerance / std::sqrt(2.0)))
                run.fail(job.name + ": Bernoulli estimate outside " +
                         "5 stderr of its closed form");
        } else {
            sim::OutcomeSimOptions options;
            options.trials = job.trials;
            options.seed = jobSeed;
            options.engine = job.engine;
            const sim::OutcomeSimResult result = pool.runOutcomeChecked(
                job.physical, job.machine->model, options);
            trials = result.trials;
            pst = result.pst;
            if (job.engine == sim::SimEngine::PauliFrame &&
                !result.framePath)
                run.fail(job.name + ": frame engine fell back: " +
                         result.fallbackReason);
        }
        const double seconds = secondsSince(start);
        latencies.push_back(seconds * 1e3);
        totals.jobMs[j].push_back(seconds * 1e3);
        if (trials != job.trials)
            run.fail(job.name + ": engine ran " + std::to_string(trials) +
                     " trials, asked " + std::to_string(job.trials));
        if (!(pst >= 0.0 && pst <= 1.0))
            run.fail(job.name + ": PST estimate out of [0, 1]");
        // The Table-1 suite's Bernoulli PSTs reach ~1e-6 (qft-14),
        // where a round reads 0 successes; the detail's Monte-Carlo
        // geomean covers the outcome-checked jobs only.
        if (round == 0 && !job.bernoulli)
            psts.push_back(pst);
        const auto t = static_cast<double>(trials);
        if (job.bernoulli) {
            totals.bernoulliS += seconds;
            totals.bernoulliTrials += t;
        } else if (job.engine == sim::SimEngine::PauliFrame) {
            totals.frameS += seconds;
            totals.frameTrials += t;
        } else {
            totals.denseS += seconds;
            totals.denseTrials += t;
        }
    }
}

/** Timed rounds: until `seconds` passed (at least `minRounds`), or
 *  exactly `minRounds` when seconds is 0. Returns the wall time. */
double
runRounds(const Setup &setup, std::uint64_t seed, double seconds,
          std::size_t minRounds, RunResult &run,
          std::vector<double> &latencies, std::vector<double> &psts,
          EngineTotals &totals, std::size_t &rounds)
{
    const auto start = Clock::now();
    sim::ParallelFaultSim pool(kThreads);
    rounds = 0;
    while (rounds < minRounds || secondsSince(start) < seconds) {
        runRound(setup, pool, seed, rounds, run, latencies, psts, totals);
        ++rounds;
    }
    return secondsSince(start);
}

} // namespace

RunResult
runMcPst(const Options &options)
{
    RunResult run;
    std::vector<double> setups;
    Setup setup;
    for (int i = 0; i < kSetups; ++i) {
        const auto start = Clock::now();
        setup = buildSetup(run);
        setups.push_back(secondsSince(start));
    }

    std::vector<double> latencies, psts;
    EngineTotals totals;
    std::size_t rounds = 0;
    const double wall = runRounds(setup, options.seed, options.seconds, 1,
                                  run, latencies, psts, totals, rounds);

    run.attempted = latencies.size();
    run.failed = 0;
    run.metric("setup_s", median(setups), "s");
    run.metric("req_per_s", static_cast<double>(latencies.size()) / wall,
               "1/s");
    run.metric("latency_p50_ms", quantile(latencies, 0.5), "ms");
    run.metric("latency_p95_ms", quantile(latencies, 0.95), "ms");
    std::vector<double> closedForms;
    for (const Job &job : setup.jobs)
        closedForms.push_back(job.closedForm);
    run.metric("pst_geomean", geomean(closedForms), "pst");
    run.metric("peak_rss_mb", peakRssMb(getpid()), "MiB");
    run.detail.set("outcome_checked_pst_geomean",
                   json::Value::number(geomean(psts)));
    run.detail.set("bernoulli_trials_per_s",
                   json::Value::number(totals.bernoulliTrials /
                                       totals.bernoulliS));
    run.detail.set("frame_trials_per_s",
                   json::Value::number(totals.frameTrials / totals.frameS));
    run.detail.set("dense_trials_per_s",
                   json::Value::number(totals.denseTrials / totals.denseS));
    run.detail.set("rounds", json::Value::number(rounds));
    json::Value byJob = json::Value::object();
    for (std::size_t j = 0; j < setup.jobs.size(); ++j)
        byJob.set(setup.jobs[j].name,
                  json::Value::number(median(totals.jobMs[j])));
    run.detail.set("latency_p50_ms_by_job", std::move(byJob));
    run.detail.set("jobs_per_round", json::Value::number(setup.jobs.size()));
    run.detail.set("latency_samples",
                   json::Value::number(latencies.size()));
    run.detail.set("latency_p25_ms",
                   json::Value::number(quantile(latencies, 0.25)));
    run.detail.set("latency_p75_ms",
                   json::Value::number(quantile(latencies, 0.75)));
    run.detail.set("setup_samples", json::Value::number(setups.size()));
    return run;
}

void
traceMcPst(const Options &options, RunResult &run, Layers &layers)
{
    Setup setup = buildSetup(run);
    std::vector<double> latencies, psts;
    EngineTotals plainTotals, totals;
    std::size_t rounds = 0, tracedRounds = 0;

    obs::setEnabled(false);
    const double plainWall =
        runRounds(setup, options.seed, options.seconds * 0.4, 1, run,
                  latencies, psts, plainTotals, rounds);

    obs::setEnabled(true);
    obs::Registry::global().reset();
    obs::clearTrace();
    latencies.clear();
    psts.clear();
    const double wall = runRounds(setup, options.seed, 0.0, rounds, run,
                                  latencies, psts, totals, tracedRounds);
    const obs::MetricsSnapshot metrics = obs::Registry::global().snapshot();
    obs::setEnabled(false);
    run.attempted = latencies.size();

    layers["trace.overhead_frac"] = wall / plainWall - 1.0;
    layers["sim.bernoulli.busy_s"] = totals.bernoulliS;
    layers["sim.bernoulli.trials"] = totals.bernoulliTrials;
    layers["sim.dense.busy_s"] = totals.denseS;
    layers["sim.dense.trials"] = totals.denseTrials;
    layers["sim.frame.fallbacks"] = counter(metrics, "sim.frame.fallbacks");

    // Replays outside the timed rounds: the closed form on every job,
    // and the frame engine's construction and per-shot cost split.
    double analyticS = 0.0;
    for (const Job &job : setup.jobs) {
        const auto start = Clock::now();
        const double pst = sim::analyticPst(job.physical, job.machine->model);
        analyticS += secondsSince(start);
        if (pst != job.closedForm)
            run.fail(job.name + ": closed form is not deterministic");
    }
    layers["sim.analytic.busy_s"] = analyticS;
    double shots = 0.0, shotSeconds = 0.0;
    for (const Job &job : setup.jobs) {
        if (job.engine != sim::SimEngine::PauliFrame || job.bernoulli)
            continue;
        auto start = Clock::now();
        const sim::PauliFrameSim engine(job.physical, job.machine->model);
        const double constructMs = msSince(start);
        layers[job.physical.numQubits() == 27
                   ? "sim.frame.construct_ms.w27"
                   : "sim.frame.construct_ms.w20"] = constructMs;
        Rng rng(mix64(options.seed));
        start = Clock::now();
        for (std::size_t i = 0; i < job.trials; ++i)
            engine.runShot(rng);
        shotSeconds += secondsSince(start);
        shots += static_cast<double>(job.trials);
    }
    layers["sim.frame.shots_per_s"] = shots / shotSeconds;
}

} // namespace vaqbench
