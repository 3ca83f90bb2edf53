/**
 * @file
 * serve-drift: an open loop at a fixed offered rate (seeded Poisson
 * arrivals) resubmitting a working set of small kernels under a
 * seeded baseline/vqm/vqa+vqm mix, with a calibration rollover (the
 * next cycle of the synthetic archive, as CSV) every
 * kRolloverEvery requests. Most requests are store serves: exact
 * hits, plus touched-set delta reuse after a rollover; the mapper
 * runs only for misses after a rollover.
 */
#include <sstream>

#include "bench_util.hpp"
#include "calibration/csv_io.hpp"
#include "calibration/synthetic.hpp"
#include "circuit/qasm.hpp"
#include "common.hpp"
#include "core/compile_cache.hpp"
#include "common/error.hpp"
#include "obs/trace.hpp"
#include "topology/layouts.hpp"

namespace vaqbench
{

namespace
{

constexpr std::size_t kSenders = 4;
/** Offered rate, requests/s: about half the closed-loop capacity of
 *  this mix (657 and 776 req/s on two seeds, 4-core 2.1 GHz x86-64)
 *  on the commit that introduced the benchmark. Fixed: never
 *  re-tuned per commit. */
constexpr double kOfferedRate = 350.0;
/** vaqd launches (each primed) per run; setup_s is their median. */
constexpr int kSetups = 9;
/** Latency percentiles are taken per window of two epochs (each
 *  with its post-rollover misses; 15 samples beyond the window's
 *  p95) and reported as the median window, so a stretch of a run
 *  slowed by something outside the program moves them less. */
constexpr std::size_t kLatencyWindow = 2 * kRolloverEvery;

/** Everything the serve-drift load sends, built from the seed. */
struct ServeInputs
{
    topology::CouplingGraph q20 = topology::ibmQ20Tokyo();
    std::vector<ServeEvent> events;
    std::vector<double> at;
    /** bodies[kernel * policies + policy]. */
    std::vector<StreamRequest> requests;
    /** Rollover CSV bodies; csv[e] starts epoch e (csv[0] unused:
     *  epoch 0 is vaqd's start snapshot). */
    std::vector<std::string> csv;
    /** Snapshot of each epoch as the daemon holds it. */
    std::vector<calibration::Snapshot> snapshots;

    ServeInputs(std::uint64_t seed, double seconds)
        : events(serveSchedule(seed, kOfferedRate, seconds))
    {
        const auto kernels = serveWorkingSet();
        const auto &policies = servePolicies();
        for (const auto &[name, circuit] : kernels) {
            for (const std::string &policy : policies) {
                StreamRequest request;
                request.label = name + "/" + policy;
                request.policy = policy;
                const std::string qasm = circuit::toQasm(circuit);
                request.body = compileBody(qasm, policy, "serve", false);
                request.logical = circuit::fromQasm(qasm);
                requests.push_back(std::move(request));
            }
        }
        for (const ServeEvent &event : events)
            at.push_back(event.at);
        const std::size_t epochs = std::max<std::size_t>(
            1, (events.size() + kRolloverEvery - 1) / kRolloverEvery);
        require(epochs <= bench::kArchiveCycles,
                "serve-drift needs more epochs than the archive holds");
        csv = archiveCsv(q20, epochs);
        snapshots.push_back(
            calibration::SyntheticSource(
                q20, calibration::SyntheticParams{}, bench::kArchiveSeed)
                .nextCycle());
        for (std::size_t e = 1; e < csv.size(); ++e)
            snapshots.push_back(calibration::fromCsv(csv[e], q20));
    }

    const StreamRequest &request(const ServeEvent &event) const
    {
        return requests[event.kernel * servePolicies().size() +
                        event.policy];
    }

    /** Serialized stream: schedule, bodies and calibration bytes. */
    std::string bytes() const
    {
        std::ostringstream out;
        out.precision(17);
        for (const ServeEvent &event : events)
            out << event.at << ' ' << request(event).body << '\n';
        for (const std::string &text : csv)
            out << text;
        return out.str();
    }
};

/** Regenerate the inputs from the same arguments and compare bytes;
 *  returns their digest. */
std::string
selfCheck(std::uint64_t seed, double seconds, const ServeInputs &inputs,
          RunResult &run)
{
    const std::string bytes = inputs.bytes();
    if (ServeInputs(seed, seconds).bytes() != bytes)
        run.fail("serve-drift stream is not a function of the seed");
    return digest(bytes);
}

/** Send every (kernel, policy) once so the store holds the working
 *  set; false when any request failed. */
bool
prime(int port, const ServeInputs &inputs)
{
    const LoadResult load = closedLoop(
        port, kSenders, 0.0, inputs.requests.size(),
        inputs.requests.size(),
        [&inputs](std::size_t i) { return inputs.requests[i].body; });
    for (const Outcome &outcome : load.outcomes) {
        if (outcome.response.status != 200)
            return false;
    }
    return true;
}

/** Open loop with rollovers against `port`; rollover client times
 *  go to `rolloverMs`. */
LoadResult
drive(int port, const ServeInputs &inputs, RunResult &run,
      std::vector<double> &rolloverMs)
{
    return openLoop(
        port, kSenders, inputs.at, kRolloverEvery,
        [&inputs](std::size_t i) {
            return inputs.request(inputs.events[i]).body;
        },
        [&](std::size_t epoch) {
            const auto start = Clock::now();
            const service::HttpResponse response =
                exchange(port, "POST", "/v1/calibration",
                         inputs.csv[epoch], "text/csv");
            rolloverMs.push_back(msSince(start));
            if (response.status != 200) {
                run.fail("calibration rollover " + std::to_string(epoch) +
                         " answered " + std::to_string(response.status) +
                         ": " + response.body);
            }
        });
}

} // namespace

RunResult
runServeDrift(const Options &options)
{
    RunResult run;
    const ServeInputs inputs(options.seed, options.seconds);
    run.detail.set("stream_digest",
                   json::Value::string(
                       selfCheck(options.seed, options.seconds, inputs, run)));

    std::vector<double> setups;
    std::unique_ptr<Daemon> daemon;
    for (int i = 0; i < kSetups; ++i) {
        daemon.reset();
        const auto start = Clock::now();
        daemon = std::make_unique<Daemon>(
            options.vaqd,
            vaqdArgs(freshDir(options, "store")),
            options.tmpDir);
        if (!prime(daemon->port(), inputs))
            run.fail("priming the working set failed");
        setups.push_back(secondsSince(start));
    }

    std::vector<double> rolloverMs;
    const LoadResult load = drive(daemon->port(), inputs, run, rolloverMs);
    const double rss = peakRssMb(daemon->pid());
    if (!daemon->stop())
        run.fail("vaqd did not shut down cleanly");

    Tally tally;
    std::vector<double> latencies, late, psts;
    std::int64_t fromStore = 0, viaDelta = 0;
    for (const Outcome &outcome : load.outcomes) {
        tally.add(outcome.response.status);
        latencies.push_back(outcome.latencyMs);
        late.push_back(outcome.lateMs);
        const StreamRequest &request =
            inputs.request(inputs.events[outcome.index]);
        const Checked checked = checkResponse(
            outcome.response, request.logical, inputs.q20,
            inputs.snapshots[outcome.epoch], run, nullptr);
        if (!checked.ok)
            continue;
        psts.push_back(checked.pst);
        fromStore += checked.fromStore ? 1 : 0;
        viaDelta += checked.viaDelta ? 1 : 0;
    }

    run.attempted = tally.attempted;
    run.failed = tally.failed();
    run.metric("setup_s", median(setups), "s");
    run.metric("req_per_s",
               static_cast<double>(tally.ok) / load.wallSeconds, "1/s");
    run.metric("latency_p50_ms",
               windowedQuantile(latencies, kLatencyWindow, 0.5), "ms");
    run.metric("latency_p95_ms",
               windowedQuantile(latencies, kLatencyWindow, 0.95), "ms");
    run.metric("pst_geomean", geomean(psts), "pst");
    run.metric("peak_rss_mb", rss, "MiB");
    run.detail.set("latency_p50_ms_pooled",
                   json::Value::number(quantile(latencies, 0.5)));
    run.detail.set("latency_p95_ms_pooled",
                   json::Value::number(quantile(latencies, 0.95)));
    json::Value byEpoch = json::Value::array();
    for (std::size_t first = 0; first < latencies.size();
         first += kLatencyWindow) {
        const std::size_t last =
            std::min(first + kLatencyWindow, latencies.size());
        byEpoch.push(json::Value::number(quantile(
            std::vector<double>(latencies.begin() + first,
                                latencies.begin() + last),
            0.95)));
    }
    run.detail.set("latency_p95_ms_by_window", std::move(byEpoch));
    run.detail.set("requests", tally.toJson());
    run.detail.set("offered_rate", json::Value::number(kOfferedRate));
    run.detail.set("latency_samples",
                   json::Value::number(latencies.size()));
    run.detail.set("latency_p25_ms",
                   json::Value::number(quantile(latencies, 0.25)));
    run.detail.set("latency_p75_ms",
                   json::Value::number(quantile(latencies, 0.75)));
    run.detail.set("late_p95_ms", json::Value::number(quantile(late, 0.95)));
    run.detail.set("rollovers", json::Value::number(rolloverMs.size()));
    run.detail.set("rollover_ms_median",
                   json::Value::number(median(rolloverMs)));
    run.detail.set("served_from_store", json::Value::number(fromStore));
    run.detail.set("served_via_delta", json::Value::number(viaDelta));
    run.detail.set("setup_samples", json::Value::number(setups.size()));
    run.detail.set("vaqd_flags", json::Value::string(vaqdFlags()));
    return run;
}

void
traceServeDrift(const Options &options, RunResult &run, Layers &layers)
{
    // Both passes replay the first 40% of the run's schedule (a
    // prefix of the same Poisson stream).
    const double seconds = options.seconds * 0.4;
    const ServeInputs inputs(options.seed, seconds);
    selfCheck(options.seed, seconds, inputs, run);
    run.detail.set("offered_rate", json::Value::number(kOfferedRate));
    obs::setEnabled(true);

    double plainP50 = 0.0;
    {
        InProcessDaemon daemon(freshDir(options, "store"), false);
        if (!prime(daemon.port(), inputs))
            run.fail("priming the working set failed");
        std::vector<double> rolloverMs;
        const LoadResult plain =
            drive(daemon.port(), inputs, run, rolloverMs);
        std::vector<double> latencies;
        for (const Outcome &outcome : plain.outcomes)
            latencies.push_back(outcome.latencyMs);
        plainP50 = median(latencies);
    }
    core::invalidatePathCaches();

    InProcessDaemon daemon(freshDir(options, "store"), true);
    if (!prime(daemon.port(), inputs))
        run.fail("priming the working set failed");
    obs::Registry::global().reset();
    obs::clearTrace();
    std::vector<double> rolloverMs;
    const LoadResult load = drive(daemon.port(), inputs, run, rolloverMs);
    const obs::MetricsSnapshot metrics = obs::Registry::global().snapshot();

    std::vector<double> latencies, late;
    for (const Outcome &outcome : load.outcomes) {
        latencies.push_back(outcome.latencyMs);
        late.push_back(outcome.lateMs);
    }
    layers["trace.overhead_frac"] = median(latencies) / plainP50 - 1.0;
    layers["loadgen.late_ms.p95"] = quantile(late, 0.95);

    std::vector<double> fromCsvMs, sanitizeMs, matrixMs;
    for (std::size_t e = 0; e < inputs.snapshots.size(); ++e) {
        if (e > 0) {
            auto start = Clock::now();
            const calibration::Snapshot parsed =
                calibration::fromCsv(inputs.csv[e], inputs.q20);
            fromCsvMs.push_back(msSince(start));
            start = Clock::now();
            core::inspectSnapshot(parsed, inputs.q20,
                                  core::CalibrationHandling::Sanitize);
            sanitizeMs.push_back(msSince(start));
        }
        matrixMs.push_back(
            matrixBuildMs(inputs.q20, inputs.snapshots[e]));
    }
    layers["calibration.fromcsv_ms"] = median(fromCsvMs);
    layers["calibration.sanitize_ms"] = median(sanitizeMs);
    layers["calibration.rollover_ms"] = median(rolloverMs);
    layers["calibration.rollovers"] =
        static_cast<double>(rolloverMs.size());
    layers["graph.matrix_build_ms"] = median(matrixMs);

    serveLayers(
        load,
        [&](const Outcome &outcome) {
            const StreamRequest &request =
                inputs.request(inputs.events[outcome.index]);
            return SentRequest{&request.body, &request.logical,
                               &request.policy,
                               &inputs.snapshots[outcome.epoch]};
        },
        daemon, metrics, options, run, layers);
}

} // namespace vaqbench
