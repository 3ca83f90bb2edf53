/**
 * @file
 * compile-cold: a closed loop of four clients, each waiting for its
 * reply, sending distinct Table-1-family circuits to vaqd. Every
 * store and plan-cache lookup misses, so the mapper does nearly all
 * the work and the store sees one record per compile.
 */
#include "bench_util.hpp"
#include "calibration/csv_io.hpp"
#include "calibration/synthetic.hpp"
#include "common.hpp"
#include "core/compile_cache.hpp"
#include "obs/trace.hpp"
#include "topology/layouts.hpp"

namespace vaqbench
{

namespace
{

constexpr std::size_t kClients = 4;
/** vaqd launches per run; setup_s is their median. */
constexpr int kSetups = 25;
/** Every run issues at least the fixed prefix, and pst_geomean and
 *  peak_rss_mb are taken over exactly it. */
constexpr std::size_t kMinRequests = kColdPrefix;
/** Requests the traced run resubmits as store hits. */
constexpr std::size_t kResubmit = 64;

/** Lazily built stream, shared by the client threads. */
class ColdStream
{
  public:
    ColdStream(const topology::CouplingGraph &q20, std::uint64_t seed)
        : _q20(q20), _seed(seed)
    {}

    std::string body(std::size_t index)
    {
        StreamRequest request = coldRequest(_q20, _seed, index);
        std::string body = request.body;
        const std::lock_guard<std::mutex> lock(_mutex);
        _requests.emplace(index, std::move(request));
        return body;
    }

    /** A request body() already built (not thread-safe against
     *  concurrent body() calls: use after the load). */
    const StreamRequest &at(std::size_t index) const
    {
        return _requests.at(index);
    }

  private:
    const topology::CouplingGraph &_q20;
    std::uint64_t _seed;
    std::mutex _mutex;
    std::map<std::size_t, StreamRequest> _requests;
};

/** Byte-identical regeneration of the fixed prefix and the start of
 *  the seeded tail; returns the digest of those bodies. */
std::string
selfCheck(const topology::CouplingGraph &q20, std::uint64_t seed,
          RunResult &run)
{
    std::string first, second;
    for (std::size_t i = 0; i < kColdPrefix + 28; ++i) {
        first += coldRequest(q20, seed, i).body;
        second += coldRequest(q20, seed, i).body;
    }
    if (first != second)
        run.fail("compile-cold stream is not a function of the seed");
    return digest(first);
}

calibration::Snapshot
startSnapshot(const topology::CouplingGraph &q20)
{
    return calibration::SyntheticSource(q20, calibration::SyntheticParams{},
                                        bench::kArchiveSeed)
        .nextCycle();
}

} // namespace

RunResult
runCompileCold(const Options &options)
{
    RunResult run;
    const topology::CouplingGraph q20 = topology::ibmQ20Tokyo();
    run.detail.set("stream_digest",
                   json::Value::string(selfCheck(q20, options.seed, run)));

    std::vector<double> setups;
    std::unique_ptr<Daemon> daemon;
    for (int i = 0; i < kSetups; ++i) {
        daemon.reset();
        daemon = std::make_unique<Daemon>(
            options.vaqd,
            vaqdArgs(freshDir(options, "store")),
            options.tmpDir);
        setups.push_back(daemon->setupSeconds());
    }

    ColdStream stream(q20, options.seed);
    // The daemon's peak RSS grows with the records it holds, so it is
    // read at the kMinRequests-th completion, not after a run whose
    // length depends on throughput.
    double rss = 0.0;
    const pid_t pid = daemon->pid();
    const LoadResult load = closedLoop(
        daemon->port(), kClients, options.seconds, kMinRequests,
        std::numeric_limits<std::size_t>::max(),
        [&stream](std::size_t i) { return stream.body(i); },
        [&rss, pid](std::size_t completed) {
            if (completed == kMinRequests)
                rss = peakRssMb(pid);
        });
    if (!daemon->stop())
        run.fail("vaqd did not shut down cleanly");

    const calibration::Snapshot snapshot = startSnapshot(q20);
    Tally tally;
    std::vector<double> latencies, psts;
    std::map<std::string, std::vector<double>> familyPsts, familyMs;
    for (const Outcome &outcome : load.outcomes) {
        tally.add(outcome.response.status);
        latencies.push_back(outcome.latencyMs);
        const StreamRequest &request = stream.at(outcome.index);
        familyMs[request.label].push_back(outcome.latencyMs);
        const Checked checked = checkResponse(
            outcome.response, request.logical, q20, snapshot, run, nullptr);
        if (checked.ok && checked.fromStore)
            run.fail("distinct request served from the store");
        if (checked.ok && outcome.index < kMinRequests) {
            psts.push_back(checked.pst);
            familyPsts[request.label].push_back(checked.pst);
        }
    }
    if (psts.size() != kMinRequests)
        run.fail("fewer than the fixed PST prefix succeeded");

    run.attempted = tally.attempted;
    run.failed = tally.failed();
    run.metric("setup_s", median(setups), "s");
    run.metric("req_per_s",
               static_cast<double>(tally.ok) / load.wallSeconds, "1/s");
    run.metric("latency_p50_ms", quantile(latencies, 0.5), "ms");
    run.metric("latency_p95_ms", quantile(latencies, 0.95), "ms");
    run.metric("pst_geomean", geomean(psts), "pst");
    run.metric("peak_rss_mb", rss, "MiB");
    run.detail.set("requests", tally.toJson());
    run.detail.set("latency_samples",
                   json::Value::number(latencies.size()));
    run.detail.set("latency_p25_ms",
                   json::Value::number(quantile(latencies, 0.25)));
    run.detail.set("latency_p75_ms",
                   json::Value::number(quantile(latencies, 0.75)));
    run.detail.set("setup_samples", json::Value::number(setups.size()));
    run.detail.set("vaqd_flags", json::Value::string(vaqdFlags()));
    run.detail.set("clients", json::Value::number(kClients));
    json::Value byFamily = json::Value::object();
    for (const auto &[family, values] : familyPsts)
        byFamily.set(family, json::Value::number(geomean(values)));
    run.detail.set("pst_geomean_by_family", std::move(byFamily));
    json::Value msByFamily = json::Value::object();
    for (const auto &[family, values] : familyMs)
        msByFamily.set(family, json::Value::number(median(values)));
    run.detail.set("latency_p50_ms_by_family", std::move(msByFamily));
    return run;
}

void
traceCompileCold(const Options &options, RunResult &run, Layers &layers)
{
    const topology::CouplingGraph q20 = topology::ibmQ20Tokyo();
    selfCheck(q20, options.seed, run);
    obs::setEnabled(true);

    // Untraced pass: vaqd's stack as deployed (telemetry on, plain
    // handler). The traced pass then replays the same requests.
    double plainWall = 0.0;
    std::size_t count = 0;
    {
        InProcessDaemon daemon(freshDir(options, "store"), false);
        ColdStream stream(q20, options.seed);
        const LoadResult plain = closedLoop(
            daemon.port(), kClients, options.seconds * 0.4, 1,
            std::numeric_limits<std::size_t>::max(),
            [&stream](std::size_t i) { return stream.body(i); });
        plainWall = plain.wallSeconds;
        count = plain.outcomes.size();
    }
    core::invalidatePathCaches();
    obs::Registry::global().reset();
    obs::clearTrace();

    InProcessDaemon daemon(freshDir(options, "store"), true);
    ColdStream stream(q20, options.seed);
    LoadResult load = closedLoop(
        daemon.port(), kClients, 0.0, count, count,
        [&stream](std::size_t i) { return stream.body(i); });
    layers["trace.overhead_frac"] = load.wallSeconds / plainWall - 1.0;

    // Epilogue on the same daemon, so the serve path's layers are
    // traced on this workload too: resubmit the head of the stream
    // (exact store hits), then roll the calibration over once to the
    // archive's next cycle.
    const std::size_t resubmit = std::min<std::size_t>(count, kResubmit);
    const LoadResult hits = closedLoop(
        daemon.port(), kClients, 0.0, resubmit, resubmit,
        [&stream](std::size_t i) { return stream.body(i); });
    load.outcomes.insert(load.outcomes.end(), hits.outcomes.begin(),
                         hits.outcomes.end());
    const obs::MetricsSnapshot metrics = obs::Registry::global().snapshot();
    for (const Outcome &outcome : hits.outcomes) {
        if (outcome.response.status == 200 &&
            !core::compileResultFromJson(
                 json::Cursor(json::parse(outcome.response.body, "response")))
                 .fromStore)
            run.fail("resubmitted request was not served from the store");
    }

    const std::string csv = archiveCsv(q20, 2)[1];
    auto start = Clock::now();
    const service::HttpResponse rolled =
        exchange(daemon.port(), "POST", "/v1/calibration", csv, "text/csv");
    layers["calibration.rollover_ms"] = msSince(start);
    layers["calibration.rollovers"] = 1.0;
    if (rolled.status != 200)
        run.fail("calibration rollover answered " +
                 std::to_string(rolled.status));
    start = Clock::now();
    const calibration::Snapshot next = calibration::fromCsv(csv, q20);
    layers["calibration.fromcsv_ms"] = msSince(start);
    start = Clock::now();
    core::inspectSnapshot(next, q20, core::CalibrationHandling::Sanitize);
    layers["calibration.sanitize_ms"] = msSince(start);

    const calibration::Snapshot snapshot = startSnapshot(q20);
    layers["graph.matrix_build_ms"] =
        median({matrixBuildMs(q20, snapshot), matrixBuildMs(q20, next)});
    serveLayers(
        load,
        [&](const Outcome &outcome) {
            const StreamRequest &request = stream.at(outcome.index);
            return SentRequest{&request.body, &request.logical,
                               &request.policy, &snapshot};
        },
        daemon, metrics, options, run, layers);
}

} // namespace vaqbench
