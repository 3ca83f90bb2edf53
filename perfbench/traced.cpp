#include <filesystem>
#include <stdexcept>

#include "analysis/dataflow.hpp"
#include "analysis/sensitivity.hpp"
#include "bench_util.hpp"
#include "calibration/synthetic.hpp"
#include "common.hpp"
#include "core/compile_cache.hpp"
#include "graph/reliability_matrix.hpp"
#include "store/adapter.hpp"
#include "topology/layouts.hpp"

namespace vaqbench
{

namespace
{

/** Every per-layer metric with its unit, in report order. The same
 *  names, with a direction, are the per_layer list of
 *  BENCHMARK.json; layers.json says what each should move. */
const std::vector<std::pair<std::string, std::string>> kLayerMetrics = {
    {"service.http_self_ms.p50", "ms"},
    {"service.handle_ms.p50", "ms"},
    {"service.refused_429", "count"},
    {"service.shed_503", "count"},
    {"decode.busy_s", "s"},
    {"decode.bytes_in", "bytes"},
    {"encode.busy_s", "s"},
    {"encode.bytes_out", "bytes"},
    {"calibration.fromcsv_ms", "ms"},
    {"calibration.sanitize_ms", "ms"},
    {"calibration.rollover_ms", "ms"},
    {"calibration.rollovers", "count"},
    {"graph.matrix_build_ms", "ms"},
    {"cache.matrix.hit_frac", "ratio"},
    {"core.compile_ms.p50", "ms"},
    {"core.compile.busy_s", "s"},
    {"core.allocate.busy_s", "s"},
    {"core.route.busy_s", "s"},
    {"core.score.busy_s", "s"},
    {"core.portfolio_configs", "count"},
    {"core.swaps_inserted", "count"},
    {"core.fallback_rungs", "count"},
    {"cache.plan.hit_frac", "ratio"},
    {"analysis.lint.busy_s", "s"},
    {"analysis.diagnostics", "count"},
    {"analysis.sensitivity_ms.p50", "ms"},
    {"store.lookup_us.p50", "us"},
    {"store.exact_hits", "count"},
    {"store.delta_reuse", "count"},
    {"store.misses", "count"},
    {"store.hit_frac", "ratio"},
    {"store.record.busy_s", "s"},
    {"store.writes", "count"},
    {"sim.bernoulli.busy_s", "s"},
    {"sim.bernoulli.trials", "count"},
    {"sim.frame.construct_ms.w20", "ms"},
    {"sim.frame.construct_ms.w27", "ms"},
    {"sim.frame.shots_per_s", "1/s"},
    {"sim.frame.fallbacks", "count"},
    {"sim.dense.busy_s", "s"},
    {"sim.dense.trials", "count"},
    {"sim.analytic.busy_s", "s"},
    {"loadgen.late_ms.p95", "ms"},
    {"share.mapper", "ratio"},
    {"share.store_sensitivity", "ratio"},
    {"trace.overhead_frac", "ratio"},
};

} // namespace

InProcessDaemon::InProcessDaemon(const std::string &storeDir, bool timed)
    : _machine(topology::ibmQ20Tokyo())
{
    // vaqd's run() with its default flags: synthetic seed 7, four
    // workers, queue depth 64, two retries, telemetry on.
    calibration::Snapshot snapshot =
        calibration::SyntheticSource(_machine,
                                     calibration::SyntheticParams{},
                                     bench::kArchiveSeed)
            .nextCycle();
    store::StoreOptions storeOptions;
    storeOptions.directory = storeDir;
    _store = std::make_unique<store::ArtifactStore>(storeOptions);
    service::ServiceOptions serviceOptions;
    serviceOptions.compile.telemetryEnabled = true;
    _service = std::make_unique<service::CompileService>(
        _machine, std::move(snapshot), serviceOptions, _store.get());
    core::makeMapper(core::PolicySpec{.name = "vqa+vqm"});

    service::HttpServerOptions httpOptions;
    service::HttpHandler handler;
    if (timed) {
        handler = [this](const service::HttpRequest &request) {
            const auto start = Clock::now();
            service::HttpResponse response = _service->handle(request);
            const auto ns =
                std::chrono::duration_cast<std::chrono::nanoseconds>(
                    Clock::now() - start)
                    .count();
            response.headers.emplace_back("X-Bench-Handle-Ns",
                                          std::to_string(ns));
            return response;
        };
    } else {
        handler = [this](const service::HttpRequest &request) {
            return _service->handle(request);
        };
    }
    _server = std::make_unique<service::HttpServer>(httpOptions,
                                                    std::move(handler));
}

InProcessDaemon::~InProcessDaemon()
{
    _server->stop();
}

int
InProcessDaemon::port() const
{
    return _server->port();
}

double
handleMs(const service::HttpResponse &response)
{
    const std::string *ns = response.header("X-Bench-Handle-Ns");
    return ns == nullptr ? 0.0 : std::stod(*ns) * 1e-6;
}

Layers::Layers()
{
    for (const auto &[name, unit] : kLayerMetrics)
        _values[name] = 0.0;
}

double &
Layers::operator[](const std::string &name)
{
    const auto it = _values.find(name);
    if (it == _values.end())
        throw std::logic_error("undeclared layer metric " + name);
    return it->second;
}

void
Layers::emit(RunResult &run) const
{
    for (const auto &[name, unit] : kLayerMetrics)
        run.metric(name, _values.at(name), unit);
}

void
serveLayers(const LoadResult &load,
            const std::function<SentRequest(const Outcome &)> &sent,
            InProcessDaemon &daemon, const obs::MetricsSnapshot &metrics,
            const Options &options, RunResult &run, Layers &layers)
{
    const topology::CouplingGraph &machine = daemon.machine();
    store::StoreOptions scratchOptions;
    scratchOptions.directory = freshDir(options, "record-replay");
    store::ArtifactStore scratch(scratchOptions);
    std::map<std::string, std::unique_ptr<store::ArtifactCacheAdapter>>
        adapters, recorders;
    const auto adapter = [&](auto &table, store::ArtifactStore &store,
                             const std::string &policy) -> auto & {
        auto &slot = table[policy];
        if (!slot) {
            slot = std::make_unique<store::ArtifactCacheAdapter>(
                store, machine, core::PolicySpec{.name = policy});
        }
        return *slot;
    };

    Tally tally;
    std::vector<double> httpSelf, handle, compileMs, sensitivityMs,
        lookupUs;
    double decodeS = 0.0, encodeS = 0.0, recordS = 0.0, analyticS = 0.0;
    double bytesIn = 0.0, bytesOut = 0.0, swaps = 0.0, rungs = 0.0;
    for (const Outcome &outcome : load.outcomes) {
        tally.add(outcome.response.status);
        const SentRequest request = sent(outcome);
        bytesIn += static_cast<double>(request.body->size());
        auto start = Clock::now();
        core::compileRequestFromJson(
            json::Cursor(json::parse(*request.body, "request")));
        decodeS += secondsSince(start);
        if (outcome.response.status != 200)
            continue;
        const double handled = handleMs(outcome.response);
        handle.push_back(handled);
        httpSelf.push_back(outcome.exchangeMs - handled);
        bytesOut += static_cast<double>(outcome.response.body.size());

        const Checked checked =
            checkResponse(outcome.response, *request.logical, machine,
                          *request.snapshot, run, &analyticS);
        if (!checked.ok)
            continue;
        const core::CompileResult &result = checked.result;
        start = Clock::now();
        const std::string encoded = json::write(core::toJson(result));
        encodeS += secondsSince(start);
        swaps += static_cast<double>(result.mapped.insertedSwaps);
        // The replayed lookup finds what the daemon's did. A store
        // serve looks up the daemon's store, which holds the record
        // it was served from. A fresh compile looks up the scratch
        // store before its own record is written there, so it misses
        // as it did in the daemon.
        store::ArtifactCacheAdapter &lookupAdapter =
            result.fromStore
                ? adapter(adapters, daemon.store(), *request.policy)
                : adapter(recorders, scratch, *request.policy);
        start = Clock::now();
        lookupAdapter.lookup(*request.logical, *request.snapshot);
        lookupUs.push_back(msSince(start) * 1e3);
        if (!result.fromStore) {
            compileMs.push_back(result.compileMs);
            rungs += static_cast<double>(std::max(0, result.attempts - 1));
            start = Clock::now();
            lookupAdapter.record(*request.logical, *request.snapshot,
                                 result);
            recordS += secondsSince(start);
        }

        start = Clock::now();
        const analysis::DataflowAnalysis dataflow(
            result.mapped.physical, request.snapshot->durations);
        analysis::analyzeSensitivity(dataflow, machine, *request.snapshot);
        sensitivityMs.push_back(msSince(start));
    }

    layers["service.http_self_ms.p50"] = median(httpSelf);
    layers["service.handle_ms.p50"] = median(handle);
    layers["service.refused_429"] = static_cast<double>(tally.refused429);
    layers["service.shed_503"] = static_cast<double>(tally.shed503);
    layers["decode.busy_s"] = decodeS;
    layers["decode.bytes_in"] = bytesIn;
    layers["encode.busy_s"] = encodeS;
    layers["encode.bytes_out"] = bytesOut;

    const double matrixHits = counter(metrics, "cache.matrix.hits");
    const double matrixMisses = counter(metrics, "cache.matrix.misses");
    layers["cache.matrix.hit_frac"] =
        matrixHits / std::max(1.0, matrixHits + matrixMisses);
    layers["core.compile_ms.p50"] = median(compileMs);
    double compileBusy = 0.0;
    for (const double ms : compileMs)
        compileBusy += ms * 1e-3;
    layers["core.compile.busy_s"] = compileBusy;
    const double allocate = histogramSum(metrics, "mapper.allocate.seconds");
    const double route = histogramSum(metrics, "mapper.route.seconds");
    const double score = histogramSum(metrics, "mapper.score.seconds");
    layers["core.allocate.busy_s"] = allocate;
    layers["core.route.busy_s"] = route;
    layers["core.score.busy_s"] = score;
    layers["core.portfolio_configs"] =
        histogramCount(metrics, "mapper.allocate.seconds");
    layers["core.swaps_inserted"] = swaps;
    layers["core.fallback_rungs"] = rungs;
    const double planHits = counter(metrics, "cache.plan.hits");
    const double planMisses = counter(metrics, "cache.plan.misses");
    layers["cache.plan.hit_frac"] =
        planHits / std::max(1.0, planHits + planMisses);
    layers["analysis.lint.busy_s"] =
        histogramSum(metrics, "analysis.lint.seconds");
    layers["analysis.diagnostics"] =
        counter(metrics, "analysis.diagnostics.emitted");
    layers["analysis.sensitivity_ms.p50"] = median(sensitivityMs);

    const double hits = counter(metrics, "store.hits");
    const double delta = counter(metrics, "store.delta_reuse");
    const double misses = counter(metrics, "store.misses");
    layers["store.lookup_us.p50"] = median(lookupUs);
    layers["store.exact_hits"] =
        hits - delta - counter(metrics, "store.bound_serves");
    layers["store.delta_reuse"] = delta;
    layers["store.misses"] = misses;
    layers["store.hit_frac"] = hits / std::max(1.0, hits + misses);
    layers["store.record.busy_s"] = recordS;
    layers["store.writes"] =
        static_cast<double>(daemon.store().stats().writes);
    layers["sim.analytic.busy_s"] = analyticS;

    double handleBusyMs = 0.0, lookupBusyUs = 0.0, sensitivityBusyMs = 0.0;
    for (const double ms : handle)
        handleBusyMs += ms;
    for (const double us : lookupUs)
        lookupBusyUs += us;
    for (const double ms : sensitivityMs)
        sensitivityBusyMs += ms;
    const double handleBusyS = std::max(1e-9, handleBusyMs * 1e-3);
    layers["share.mapper"] = (allocate + route + score) / handleBusyS;
    layers["share.store_sensitivity"] =
        (lookupBusyUs * 1e-6 + sensitivityBusyMs * 1e-3) / handleBusyS;

    run.attempted += tally.attempted;
    run.failed += tally.failed();
    run.detail.set("requests", tally.toJson());
}

double
matrixBuildMs(const topology::CouplingGraph &machine,
              const calibration::Snapshot &snapshot)
{
    const auto start = Clock::now();
    const graph::ReliabilityMatrix matrix(
        core::reliabilityCostGraph(machine, snapshot));
    return msSince(start);
}

double
histogramSum(const obs::MetricsSnapshot &snapshot, const std::string &name)
{
    const auto it = snapshot.histograms.find(name);
    return it == snapshot.histograms.end() ? 0.0 : it->second.sum;
}

double
histogramCount(const obs::MetricsSnapshot &snapshot,
               const std::string &name)
{
    const auto it = snapshot.histograms.find(name);
    return it == snapshot.histograms.end()
               ? 0.0
               : static_cast<double>(it->second.count);
}

double
counter(const obs::MetricsSnapshot &snapshot, const std::string &name)
{
    const auto it = snapshot.counters.find(name);
    return it == snapshot.counters.end()
               ? 0.0
               : static_cast<double>(it->second);
}

std::string
freshDir(const Options &options, const std::string &name)
{
    static int made = 0;
    const std::filesystem::path dir = std::filesystem::path(options.tmpDir) /
                                      (name + "-" + std::to_string(made++));
    std::filesystem::remove_all(dir);
    std::filesystem::create_directories(dir);
    return dir.string();
}

} // namespace vaqbench
