/**
 * @file
 * vaqbench — the libvaq benchmark runner. perfbench/run.py builds it
 * and calls it once per run:
 *
 *   vaqbench --workload compile-cold|serve-drift|mc-pst --seed N
 *            --seconds S --trace 0|1 --vaqd PATH --tmp DIR
 *
 * It prints one JSON object as its last line: the verdict of the
 * output checks, request counts, every metric with its unit and a
 * detail block. With --trace 0 the metrics are the end-to-end ones
 * (serve workloads drive a vaqd child); with --trace 1 the run
 * replays the workload in process and reports the per-layer table.
 * Exit status: 0 when the run completed (the checks' verdict is in
 * the JSON), 2 on a usage error, 3 when the run could not complete.
 */
#include <cmath>
#include <condition_variable>
#include <cstdlib>
#include <exception>
#include <filesystem>
#include <iostream>
#include <thread>

#include "common.hpp"
#include "common/strings.hpp"

namespace
{

using namespace vaqbench;

/** A run must end well inside the 180 s a caller allows it. */
constexpr double kWatchdogSeconds = 170.0;

Options
parseArgs(int argc, char **argv)
{
    Options options;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (i + 1 >= argc)
            throw std::invalid_argument(arg + " needs a value");
        const std::string value = argv[++i];
        if (arg == "--workload")
            options.workload = value;
        else if (arg == "--seed")
            options.seed = vaq::parseSize(value);
        else if (arg == "--seconds")
            options.seconds = vaq::parseDouble(value);
        else if (arg == "--trace")
            options.trace = value == "1";
        else if (arg == "--vaqd")
            options.vaqd = value;
        else if (arg == "--tmp")
            options.tmpDir = value;
        else
            throw std::invalid_argument("unknown flag " + arg);
    }
    if (options.workload != "compile-cold" &&
        options.workload != "serve-drift" && options.workload != "mc-pst")
        throw std::invalid_argument("unknown workload '" +
                                    options.workload + "'");
    if (options.tmpDir.empty())
        throw std::invalid_argument("--tmp is required");
    if (!options.trace && options.workload != "mc-pst" &&
        options.vaqd.empty())
        throw std::invalid_argument("--vaqd is required");
    return options;
}

RunResult
runWorkload(const Options &options)
{
    if (!options.trace) {
        if (options.workload == "compile-cold")
            return runCompileCold(options);
        if (options.workload == "serve-drift")
            return runServeDrift(options);
        return runMcPst(options);
    }
    RunResult run;
    Layers layers;
    if (options.workload == "compile-cold")
        traceCompileCold(options, run, layers);
    else if (options.workload == "serve-drift")
        traceServeDrift(options, run, layers);
    else
        traceMcPst(options, run, layers);
    layers.emit(run);
    return run;
}

vaq::json::Value
toJson(const RunResult &run)
{
    using vaq::json::Value;
    Value out = Value::object();
    out.set("correct", Value::boolean(run.correct));
    out.set("attempted",
            Value::number(static_cast<std::int64_t>(run.attempted)));
    out.set("failed", Value::number(static_cast<std::int64_t>(run.failed)));
    Value metrics = Value::object();
    for (const auto &[name, entry] : run.metrics) {
        Value metric = Value::object();
        // A latency quantile that lands on a failed request is +inf;
        // JSON has no infinity, so it reads as 1e9.
        metric.set("value", Value::number(std::isfinite(entry.first)
                                              ? entry.first
                                              : 1e9));
        metric.set("unit", Value::string(entry.second));
        metrics.set(name, std::move(metric));
    }
    out.set("metrics", std::move(metrics));
    out.set("detail", run.detail);
    Value failures = Value::array();
    for (const std::string &why : run.failures)
        failures.push(Value::string(why));
    out.set("failures", std::move(failures));
    return out;
}

} // namespace

int
main(int argc, char **argv)
{
    Options options;
    try {
        options = parseArgs(argc, argv);
    } catch (const std::exception &e) {
        std::cerr << "vaqbench: " << e.what() << "\n";
        return 2;
    }

    // Watchdog: a hung exchange must not outlive the caller's limit.
    std::mutex mutex;
    std::condition_variable done;
    bool finished = false;
    std::thread watchdog([&] {
        std::unique_lock<std::mutex> lock(mutex);
        if (!done.wait_for(lock,
                           std::chrono::duration<double>(kWatchdogSeconds),
                           [&] { return finished; })) {
            std::cerr << "vaqbench: run exceeded " << kWatchdogSeconds
                      << " s\n";
            Daemon::killAll();
            std::_Exit(3);
        }
    });

    int status = 0;
    try {
        std::filesystem::create_directories(options.tmpDir);
        const RunResult run = runWorkload(options);
        std::cout << vaq::json::write(toJson(run)) << std::endl;
    } catch (const std::exception &e) {
        std::cerr << "vaqbench: " << e.what() << "\n";
        status = 3;
    }
    {
        const std::lock_guard<std::mutex> lock(mutex);
        finished = true;
    }
    done.notify_all();
    watchdog.join();
    return status;
}
