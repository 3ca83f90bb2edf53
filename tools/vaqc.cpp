/**
 * @file
 * vaqc — the libvaq command-line compiler.
 *
 * Reads an OpenQASM 2.0 program, compiles it for a machine with a
 * chosen policy against calibration data (a CSV export or a seeded
 * synthetic snapshot), and writes the routed program back as QASM
 * together with a reliability report.
 *
 * Usage:
 *   vaqc --qasm prog.qasm [--machine q20|q5|falcon27|line:N|
 *        ring:N|grid:RxC] [--policy baseline|vqm|vqm4|vqa|
 *        vqa+vqm|native] [--calibration cal.csv |
 *        --synthetic-seed N] [--mah K] [--optimize]
 *        [--out mapped.qasm] [--trials N] [--threads N]
 *        [--target-stderr X] [--sim-engine auto|dense|frame]
 *        [--no-path-cache] [--metrics-out FILE]
 *        [--trace-out FILE] [--metrics-format json|csv|prom]
 *
 * Batch mode compiles every --qasm program (the flag repeats)
 * against several consecutive calibration cycles concurrently:
 *   vaqc --batch --qasm a.qasm --qasm b.qasm [--batch-cycles N]
 *        [--threads N] [--fail-fast] [--max-retries N]
 *        [--job-deadline-ms X] ...
 *
 * Lint mode runs the static analysis rules (analysis/linter.hpp)
 * without compiling:
 *   vaqc lint prog.qasm [--machine NAME] [--calibration FILE |
 *        --synthetic-seed N] [--physical]
 *        [--lint-format text|json|sarif] [--lint-out FILE]
 *        [--lint-disable RULE] [--lint-only RULE]
 *        [--lint-fail-on error|warning|never]
 * `--lint` runs the same pre-compile pass inside a compile or
 * batch run.
 *
 * Sens mode derives the closed-form drift-sensitivity profile of a
 * compiled mapping and certifies a staleness bound against a
 * drifted calibration cycle (analysis/sensitivity.hpp):
 *   vaqc sens prog.qasm [--machine NAME] [--policy NAME]
 *        [--synthetic-seed N] [--drift-cycles N]
 *        [--staleness-tol X] [--sens-format text|json|sarif]
 *        [--sens-out FILE]
 *
 * Exit codes map to the error taxonomy (common/error.hpp):
 *   0 success, 1 lint findings at/above --lint-fail-on, 2 usage,
 *   3 calibration, 4 compile/routing, 5 timeout, 6 internal. A
 *   batch with contained job failures exits with the first failed
 *   job's code.
 *
 * Example:
 *   vaqc --qasm bell.qasm --machine q5 --policy vqa+vqm \
 *        --synthetic-seed 7 --out bell.mapped.qasm
 */
#include <chrono>
#include <cmath>
#include <fstream>
#include <iostream>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "analysis/dataflow.hpp"
#include "analysis/linter.hpp"
#include "analysis/sens_report.hpp"
#include "analysis/sensitivity.hpp"
#include "analysis/staleness.hpp"
#include "calibration/csv_io.hpp"
#include "calibration/synthetic.hpp"
#include "circuit/lower.hpp"
#include "circuit/optimizer.hpp"
#include "circuit/qasm.hpp"
#include "common/cancellation.hpp"
#include "common/error.hpp"
#include "common/strings.hpp"
#include "common/table.hpp"
#include "core/batch_compiler.hpp"
#include "core/compile_cache.hpp"
#include "core/compile_request.hpp"
#include "core/mapper.hpp"
#include "core/explain.hpp"
#include "core/verify.hpp"
#include "obs/export.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "sim/parallel_fault_sim.hpp"
#include "store/adapter.hpp"
#include "store/artifact_store.hpp"
#include "topology/layouts.hpp"

namespace
{

using namespace vaq;

struct Options
{
    std::vector<std::string> qasmPaths;
    std::string machine = "q20";
    std::string policy = "vqa+vqm";
    std::string calibrationPath;
    std::string outPath;
    std::string metricsOut;
    std::string traceOut;
    std::string metricsFormat = "json";
    std::uint64_t syntheticSeed = 7;
    int mah = core::kUnlimitedHops;
    std::size_t trials = 100000;
    std::size_t threads = 0;
    double targetStderr = 0.0;
    /** --sim-engine value; empty = legacy Bernoulli report only. */
    std::string simEngine;
    std::size_t batchCycles = 4;
    int maxRetries = 2;
    double jobDeadlineMs = 0.0;
    bool failFast = false;
    bool batch = false;
    bool lintMode = false; ///< `vaqc lint ...` subcommand
    bool sensMode = false; ///< `vaqc sens ...` subcommand
    bool lint = false;     ///< --lint during compile / batch
    /** `vaqc sens`: synthetic calibration cycles to advance past
     *  the baseline before assessing staleness. */
    std::size_t driftCycles = 1;
    /** --staleness-tol: the certified |delta logPST| bound the
     *  artifact store reuses within (0 without the flag) and the
     *  `vaqc sens` verdict threshold (1e-3 without the flag). */
    std::optional<double> stalenessTol;
    std::string sensFormat = "text";
    std::string sensOut;
    bool lintPhysical = false;
    std::string lintFormat = "text";
    std::string lintOut;
    std::vector<std::string> lintDisable;
    std::vector<std::string> lintOnly;
    std::string lintFailOn = "error";
    std::string storeDir;
    bool storeStats = false;
    bool noPathCache = false;
    bool optimize = false;
    bool lower = false;
    bool verify = false;
    bool explain = false;
    bool help = false;
};

void
printUsage()
{
    std::cout <<
        "vaqc -- variability-aware quantum circuit compiler\n"
        "\n"
        "  --qasm FILE          input OpenQASM 2.0 program "
        "(required; repeat for --batch)\n"
        "  --batch              compile every program against "
        "consecutive calibration\n"
        "                       cycles concurrently and print a "
        "batch report\n"
        "  --batch-cycles N     calibration cycles in the batch "
        "(default 4; synthetic only)\n"
        "  --fail-fast          abort the batch on the first job "
        "failure (legacy\n"
        "                       behavior: no retries, no "
        "calibration quarantine)\n"
        "  --max-retries N      policy-degradation retries per "
        "failed job (default 2:\n"
        "                       vqa+vqm -> vqm -> baseline)\n"
        "  --job-deadline-ms X  per-attempt compile deadline in "
        "milliseconds\n"
        "                       (default 0 = unbounded)\n"
        "  --no-path-cache      disable the shared reliability-"
        "path caches and recompute\n"
        "                       all routes per compile\n"
        "  --store-dir DIR      persistent compile-artifact store: "
        "reuse prior results\n"
        "                       keyed on (circuit, calibration, "
        "machine, policy) content,\n"
        "                       incl. reuse across "
        "calibration cycles; fresh\n"
        "                       compiles are recorded into DIR\n"
        "  --staleness-tol X    serve a stored mapping across "
        "cycles when its certified\n"
        "                       |dlogPST| bound is <= X "
        "(default 0: unchanged PST only)\n"
        "  --store-stats        print artifact-store counters "
        "after the run\n"
        "  --machine NAME       q20 (default) | q5 | falcon27 | "
        "line:N | ring:N | grid:RxC\n"
        "  --policy NAME        baseline | vqm | vqm4 | vqa | "
        "vqa+vqm (default) | native\n"
        "  --calibration FILE   calibration CSV (see "
        "calibration/csv_io.hpp)\n"
        "  --synthetic-seed N   seed for synthetic calibration "
        "(default 7; used when no CSV)\n"
        "  --mah K              hop budget for variation-aware "
        "detours (default unlimited)\n"
        "  --optimize           run the peephole optimizer on the "
        "result\n"
        "  --verify             verify the compilation "
        "(executability, layout, semantics)\n"
        "  --lower              lower the result to the native "
        "{U3, CX} basis\n"
        "  --explain            print placement/link-usage "
        "rationale\n"
        "  --trials N           Monte-Carlo trials for the report "
        "(default 100000)\n"
        "  --threads N          simulator worker threads (default "
        "0 = one per core)\n"
        "  --target-stderr X    stop the Monte-Carlo run early "
        "once the PST\n"
        "                       standard error drops to X "
        "(default 0 = run all trials)\n"
        "  --sim-engine E       also run an outcome-checked "
        "Monte-Carlo report with\n"
        "                       the chosen per-trial engine: auto "
        "(Pauli-frame fast\n"
        "                       path on Clifford-only programs, "
        "dense otherwise) |\n"
        "                       dense | frame\n"
        "  --out FILE           write the mapped program as QASM\n"
        "  --metrics-out FILE   write pipeline metrics (cache "
        "hit ratios, stage\n"
        "                       latencies, portfolio winners) "
        "after the run\n"
        "  --metrics-format F   metrics file format: json "
        "(default) | csv | prom\n"
        "  --trace-out FILE     write the span trace (nested "
        "stage timings) as JSON\n"
        "  --help               this text\n"
        "\n"
        "lint mode: vaqc lint prog.qasm [flags]\n"
        "  --lint               also run the pre-compile lint "
        "pass during compile/batch\n"
        "  --physical           treat the program as already "
        "mapped (operands are\n"
        "                       physical qubits; enables the "
        "machine-side rules)\n"
        "  --lint-format F      report format: text (default) | "
        "json | sarif\n"
        "  --lint-out FILE      write the report to FILE instead "
        "of stdout\n"
        "  --lint-disable RULE  skip a rule by id or name "
        "(repeatable)\n"
        "  --lint-only RULE     run only the named rules "
        "(repeatable)\n"
        "  --lint-fail-on T     exit 1 at/above threshold: error "
        "(default) | warning | never\n"
        "\n"
        "sens mode: vaqc sens prog.qasm [flags]\n"
        "  compile against a baseline calibration, derive the "
        "closed-form logPST\n"
        "  sensitivity profile, and certify a staleness bound "
        "against a drifted\n"
        "  cycle; exit 1 when the bound exceeds --staleness-tol\n"
        "  --drift-cycles N     synthetic cycles between baseline "
        "and 'today'\n"
        "                       (default 1; 0 = profile only, no "
        "verdict)\n"
        "  --staleness-tol X    certified |dlogPST| reuse "
        "threshold (default 1e-3)\n"
        "  --sens-format F      report format: text (default) | "
        "json | sarif\n"
        "                       (sarif runs the VL011-VL013 "
        "sensitivity rules)\n"
        "  --sens-out FILE      write the report to FILE instead "
        "of stdout\n";
}

Options
parseArgs(int argc, char **argv)
{
    Options options;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        auto next = [&](const char *flag) -> std::string {
            require(i + 1 < argc,
                    std::string(flag) + " needs a value");
            return argv[++i];
        };
        if (arg == "lint" && i == 1)
            options.lintMode = true;
        else if (arg == "sens" && i == 1)
            options.sensMode = true;
        else if (arg == "--drift-cycles")
            options.driftCycles =
                parseSize(next("--drift-cycles"));
        else if (arg == "--staleness-tol")
            options.stalenessTol =
                parseDouble(next("--staleness-tol"));
        else if (arg == "--sens-format")
            options.sensFormat = next("--sens-format");
        else if (arg == "--sens-out")
            options.sensOut = next("--sens-out");
        else if (arg == "--qasm")
            options.qasmPaths.push_back(next("--qasm"));
        else if (arg == "--lint")
            options.lint = true;
        else if (arg == "--physical")
            options.lintPhysical = true;
        else if (arg == "--lint-format")
            options.lintFormat = next("--lint-format");
        else if (arg == "--lint-out")
            options.lintOut = next("--lint-out");
        else if (arg == "--lint-disable")
            options.lintDisable.push_back(next("--lint-disable"));
        else if (arg == "--lint-only")
            options.lintOnly.push_back(next("--lint-only"));
        else if (arg == "--lint-fail-on")
            options.lintFailOn = next("--lint-fail-on");
        else if ((options.lintMode || options.sensMode) &&
                 !startsWith(arg, "--"))
            options.qasmPaths.push_back(arg);
        else if (arg == "--batch")
            options.batch = true;
        else if (arg == "--batch-cycles")
            options.batchCycles =
                parseSize(next("--batch-cycles"));
        else if (arg == "--fail-fast")
            options.failFast = true;
        else if (arg == "--max-retries")
            options.maxRetries = static_cast<int>(
                parseSize(next("--max-retries")));
        else if (arg == "--job-deadline-ms")
            options.jobDeadlineMs =
                parseDouble(next("--job-deadline-ms"));
        else if (arg == "--store-dir")
            options.storeDir = next("--store-dir");
        else if (arg == "--store-stats")
            options.storeStats = true;
        else if (arg == "--no-path-cache")
            options.noPathCache = true;
        else if (arg == "--machine")
            options.machine = next("--machine");
        else if (arg == "--policy")
            options.policy = next("--policy");
        else if (arg == "--calibration")
            options.calibrationPath = next("--calibration");
        else if (arg == "--synthetic-seed")
            options.syntheticSeed =
                parseSize(next("--synthetic-seed"));
        else if (arg == "--mah")
            options.mah =
                static_cast<int>(parseSize(next("--mah")));
        else if (arg == "--trials")
            options.trials = parseSize(next("--trials"));
        else if (arg == "--threads")
            options.threads = parseSize(next("--threads"));
        else if (arg == "--target-stderr")
            options.targetStderr =
                parseDouble(next("--target-stderr"));
        else if (arg == "--sim-engine") {
            options.simEngine = next("--sim-engine");
            // Reject bad spellings at parse time (usage error).
            sim::simEngineFromName(options.simEngine);
        }
        else if (arg == "--optimize")
            options.optimize = true;
        else if (arg == "--lower")
            options.lower = true;
        else if (arg == "--explain")
            options.explain = true;
        else if (arg == "--verify")
            options.verify = true;
        else if (arg == "--out")
            options.outPath = next("--out");
        else if (arg == "--metrics-out")
            options.metricsOut = next("--metrics-out");
        else if (arg == "--trace-out")
            options.traceOut = next("--trace-out");
        else if (arg == "--metrics-format")
            options.metricsFormat = next("--metrics-format");
        else if (arg == "--help" || arg == "-h")
            options.help = true;
        else
            throw VaqError("unknown flag: " + arg);
    }
    return options;
}

topology::CouplingGraph
machineByName(const std::string &name)
{
    if (name == "q20")
        return topology::ibmQ20Tokyo();
    if (name == "q5")
        return topology::ibmQ5Tenerife();
    if (name == "falcon27")
        return topology::ibmFalcon27();
    if (startsWith(name, "line:"))
        return topology::linear(
            static_cast<int>(parseSize(name.substr(5))));
    if (startsWith(name, "ring:"))
        return topology::ring(
            static_cast<int>(parseSize(name.substr(5))));
    if (startsWith(name, "grid:")) {
        const auto dims = split(name.substr(5), 'x');
        require(dims.size() == 2, "grid needs RxC");
        return topology::grid(
            static_cast<int>(parseSize(dims[0])),
            static_cast<int>(parseSize(dims[1])));
    }
    throw VaqError("unknown machine: " + name);
}

/**
 * CLI policy name -> registry PolicySpec. Shared by the mapper
 * construction and the artifact-store key derivation so stored
 * records are addressed by exactly the spec that compiled them.
 */
core::PolicySpec
policySpecByName(const std::string &name, int mah)
{
    // "vqm4" is CLI shorthand for the paper's hop-limited VQM;
    // everything else goes to the registry as-is ("native" maps to
    // the registry's "random" alias with the historical seed).
    if (name == "vqm4")
        return {.name = "vqm", .mah = 4};
    if (name == "native")
        return {.name = "random", .seed = 1};
    return {.name = name, .mah = mah};
}

core::Mapper
policyByName(const std::string &name, int mah)
{
    return core::makeMapper(policySpecByName(name, mah));
}

/** The documented exit-code map over the error taxonomy. */
int
exitCodeFor(ErrorCategory category)
{
    switch (category) {
    case ErrorCategory::Usage:
        return 2;
    case ErrorCategory::Calibration:
        return 3;
    case ErrorCategory::Routing:
    case ErrorCategory::Compile:
        return 4;
    case ErrorCategory::Timeout:
        return 5;
    case ErrorCategory::Internal:
        return 6;
    }
    return 6;
}

/** Per-compile options derived from the command line. */
core::CompileOptions
compileOptionsFor(const Options &options)
{
    core::CompileOptions compile;
    compile.cacheEnabled = !options.noPathCache;
    compile.telemetryEnabled = obs::enabled();
    compile.threads = options.threads;
    if (!options.simEngine.empty())
        compile.simEngine = sim::simEngineFromName(options.simEngine);
    return compile;
}

/** Write --metrics-out / --trace-out files once the run is done. */
void
exportTelemetry(const Options &options)
{
    if (!options.metricsOut.empty()) {
        const obs::MetricsSnapshot snap =
            obs::Registry::global().snapshot();
        std::string text;
        if (options.metricsFormat == "json")
            text = obs::exportJson(snap);
        else if (options.metricsFormat == "csv")
            text = obs::exportCsv(snap);
        else if (options.metricsFormat == "prom")
            text = obs::exportPrometheus(snap);
        else
            throw VaqError("unknown --metrics-format: " +
                           options.metricsFormat +
                           " (json | csv | prom)");
        writeFile(options.metricsOut, text);
        std::cout << "metrics   : " << options.metricsOut << " ("
                  << options.metricsFormat << ")\n";
    }
    if (!options.traceOut.empty()) {
        writeFile(options.traceOut,
                  obs::exportTraceJson(obs::drainTrace()));
        std::cout << "trace     : " << options.traceOut << "\n";
    }
}

/** Open the artifact store when --store-dir / --store-stats asks
 *  for one (--store-stats alone runs a memory-only store). */
std::unique_ptr<store::ArtifactStore>
openArtifactStore(const Options &options)
{
    if (options.storeDir.empty() && !options.storeStats)
        return nullptr;
    store::StoreOptions storeOptions;
    storeOptions.directory = options.storeDir;
    storeOptions.stalenessTol = options.stalenessTol.value_or(0.0);
    return std::make_unique<store::ArtifactStore>(storeOptions);
}

/** The --store-stats summary line. */
void
printStoreStats(const store::ArtifactStore &artifacts)
{
    const store::StoreStats s = artifacts.stats();
    std::cout << "store     : " << s.exactHits << " exact hits, "
              << s.deltaReuse << " delta reuse, " << s.boundReuse
              << " bound reuse, " << s.misses
              << " misses, " << s.writes << " writes ("
              << s.entries << " entries, " << s.warmLoaded
              << " warm-loaded, " << s.corruptRecords
              << " corrupt skipped, " << s.evictions
              << " evicted)\n";
}

circuit::ParsedQasm
loadQasmWithLines(const std::string &path)
{
    std::ifstream in(path);
    require(static_cast<bool>(in), "cannot open " + path);
    std::ostringstream text;
    text << in.rdbuf();
    return circuit::parseQasm(text.str(), path);
}

circuit::Circuit
loadQasm(const std::string &path)
{
    return loadQasmWithLines(path).circuit;
}

/** Linter configuration shared by lint mode, --lint and --batch. */
analysis::LintOptions
lintOptionsFor(const Options &options)
{
    analysis::LintOptions lint;
    lint.disabled = options.lintDisable;
    lint.enabledOnly = options.lintOnly;
    lint.failOn = analysis::failOnFromName(options.lintFailOn);
    return lint;
}

/** Render a report in --lint-format to --lint-out or stdout. */
void
emitLintReport(const Options &options,
               const analysis::LintReport &report)
{
    std::string text;
    if (options.lintFormat == "text")
        text = analysis::renderText(report);
    else if (options.lintFormat == "json")
        text = analysis::renderJson(report);
    else if (options.lintFormat == "sarif")
        text = analysis::renderSarif(report);
    else
        throw VaqError("unknown --lint-format: " +
                       options.lintFormat +
                       " (text | json | sarif)");
    if (options.lintOut.empty()) {
        std::cout << text;
        if (!text.empty() && text.back() != '\n')
            std::cout << "\n";
    } else {
        writeFile(options.lintOut, text);
        std::cout << "lint      : " << options.lintOut << " ("
                  << options.lintFormat << ", "
                  << report.summary() << ")\n";
    }
}

/**
 * Lint mode: run the analysis rules over one program against the
 * chosen machine/calibration, no compilation. Exit 0 when clean (or
 * below the --lint-fail-on threshold), 1 otherwise.
 */
int
runLint(const Options &options)
{
    require(options.qasmPaths.size() == 1,
            "vaqc lint takes exactly one program");
    const std::string &qasmPath = options.qasmPaths.front();
    const circuit::ParsedQasm parsed = loadQasmWithLines(qasmPath);

    const topology::CouplingGraph machine =
        machineByName(options.machine);
    const calibration::Snapshot snapshot =
        options.calibrationPath.empty()
            ? calibration::SyntheticSource(
                  machine, calibration::SyntheticParams{},
                  options.syntheticSeed)
                  .nextCycle()
            : calibration::loadCsv(options.calibrationPath,
                                   machine);

    const analysis::Linter linter(lintOptionsFor(options));
    analysis::LintInput input;
    input.circuit = &parsed.circuit;
    input.physical = options.lintPhysical;
    input.graph = &machine;
    input.snapshot = &snapshot;
    input.gateLines = &parsed.gateLines;
    input.artifact = qasmPath;
    const analysis::LintReport report = linter.run(input);

    emitLintReport(options, report);
    return report.shouldFail(linter.options().failOn) ? 1 : 0;
}

/**
 * Sens mode: compile against a baseline calibration, derive the
 * closed-form logPST sensitivity profile (analysis/sensitivity.hpp)
 * and certify a staleness bound against a drifted cycle — no
 * recompile, no simulation. Exit 1 when the certified bound exceeds
 * --staleness-tol (mirrors the store's reuse verdict); 0 otherwise.
 */
int
runSens(const Options &options)
{
    require(options.qasmPaths.size() == 1,
            "vaqc sens takes exactly one program");
    const std::string &qasmPath = options.qasmPaths.front();
    const circuit::ParsedQasm parsed = loadQasmWithLines(qasmPath);

    const topology::CouplingGraph machine =
        machineByName(options.machine);

    // Baseline + drifted calibration. A CSV has no series to drift
    // over (profile only); synthetic runs emit the baseline cycle
    // and then --drift-cycles more, the last being "today".
    std::vector<calibration::Snapshot> cycles;
    if (options.calibrationPath.empty()) {
        calibration::SyntheticSource source(
            machine, calibration::SyntheticParams{},
            options.syntheticSeed);
        cycles.push_back(source.nextCycle());
        for (std::size_t i = 0; i < options.driftCycles; ++i)
            cycles.push_back(source.nextCycle());
    } else {
        cycles.push_back(
            calibration::loadCsv(options.calibrationPath, machine));
    }
    const calibration::Snapshot &baseline = cycles.front();
    const calibration::Snapshot &current = cycles.back();

    // Compile against the baseline through the canonical pipeline
    // (same entry point as run(); Trust + no retries).
    const core::Mapper mapper =
        policyByName(options.policy, options.mah);
    core::CompileRequest request;
    request.policy = policySpecByName(options.policy, options.mah);
    request.options = compileOptionsFor(options);
    request.maxRetries = 0;
    request.calibration = core::CalibrationHandling::Trust;
    request.scoreResult = false;
    core::CompileContext context;
    context.mapper = &mapper;
    const core::CompileResult compiled = core::compileCircuit(
        parsed.circuit, request, machine, baseline, context);
    if (!compiled.ok())
        throw VaqError(compiled.error, compiled.errorCategory);

    const analysis::DataflowAnalysis dataflow(
        compiled.mapped.physical, baseline.durations);
    analysis::SensReport report;
    report.artifact = qasmPath;
    const double stalenessTol = options.stalenessTol.value_or(1e-3);
    report.stalenessTol = stalenessTol;
    report.profile =
        analysis::analyzeSensitivity(dataflow, machine, baseline);
    if (cycles.size() > 1) {
        report.hasAssessment = true;
        report.assessment =
            analysis::assessStaleness(report.profile, current);
    }

    // Historical per-link error std-dev over the generated cycles
    // (feeds the VL012 fragile-placement rule in sarif form).
    std::vector<double> linkVariance;
    if (cycles.size() > 1) {
        linkVariance.resize(machine.linkCount(), 0.0);
        for (std::size_t l = 0; l < machine.linkCount(); ++l) {
            double mean = 0.0;
            for (const calibration::Snapshot &cycle : cycles)
                mean += cycle.linkError(l);
            mean /= static_cast<double>(cycles.size());
            double var = 0.0;
            for (const calibration::Snapshot &cycle : cycles) {
                const double d = cycle.linkError(l) - mean;
                var += d * d;
            }
            linkVariance[l] = std::sqrt(
                var / static_cast<double>(cycles.size()));
        }
    }

    std::string text;
    if (options.sensFormat == "text") {
        text = analysis::renderSensText(report);
    } else if (options.sensFormat == "json") {
        text = analysis::renderSensJson(report);
    } else if (options.sensFormat == "sarif") {
        analysis::LintOptions lintOptions =
            lintOptionsFor(options);
        lintOptions.enabledOnly = {"VL011", "VL012", "VL013"};
        lintOptions.params.stalenessTol = stalenessTol;
        const analysis::Linter linter(lintOptions);
        analysis::LintInput input;
        input.circuit = &compiled.mapped.physical;
        input.physical = true;
        input.graph = &machine;
        input.snapshot = &current;
        input.baselineSnapshot =
            cycles.size() > 1 ? &baseline : nullptr;
        input.linkVariance =
            linkVariance.empty() ? nullptr : &linkVariance;
        input.artifact = qasmPath;
        text = analysis::renderSarif(linter.run(input));
    } else {
        throw VaqError("unknown --sens-format: " +
                       options.sensFormat +
                       " (text | json | sarif)");
    }
    if (options.sensOut.empty()) {
        std::cout << text;
        if (!text.empty() && text.back() != '\n')
            std::cout << "\n";
    } else {
        writeFile(options.sensOut, text);
        std::cout << "sens      : " << options.sensOut << " ("
                  << options.sensFormat << ")\n";
    }
    return report.hasAssessment &&
                   !report.assessment.within(stalenessTol)
               ? 1
               : 0;
}

/**
 * Batch mode: all programs x `batchCycles` consecutive calibration
 * cycles through the concurrent batch compiler, with a per-job
 * table and a throughput/cache summary.
 */
int
runBatch(const Options &options)
{
    const topology::CouplingGraph machine =
        machineByName(options.machine);

    std::vector<circuit::Circuit> circuits;
    circuits.reserve(options.qasmPaths.size());
    for (const std::string &path : options.qasmPaths)
        circuits.push_back(loadQasm(path));

    std::vector<calibration::Snapshot> snapshots;
    if (!options.calibrationPath.empty()) {
        snapshots.push_back(
            calibration::loadCsv(options.calibrationPath,
                                 machine));
    } else {
        require(options.batchCycles > 0,
                "--batch-cycles must be positive");
        calibration::SyntheticSource source(
            machine, calibration::SyntheticParams{},
            options.syntheticSeed);
        for (std::size_t c = 0; c < options.batchCycles; ++c)
            snapshots.push_back(source.nextCycle());
    }

    const core::Mapper mapper =
        policyByName(options.policy, options.mah);
    core::BatchOptions batchOptions;
    batchOptions.compile = compileOptionsFor(options);
    batchOptions.failFast = options.failFast;
    batchOptions.maxRetries = options.maxRetries;
    batchOptions.jobDeadlineMs = options.jobDeadlineMs;
    batchOptions.lint = options.lint;
    if (options.lint)
        batchOptions.lintOptions = lintOptionsFor(options);
    const std::unique_ptr<store::ArtifactStore> artifacts =
        openArtifactStore(options);
    std::unique_ptr<store::ArtifactCacheAdapter> artifactCache;
    if (artifacts != nullptr) {
        artifactCache =
            std::make_unique<store::ArtifactCacheAdapter>(
                *artifacts, machine,
                policySpecByName(options.policy, options.mah));
        batchOptions.artifactCache = artifactCache.get();
    }
    core::BatchCompiler compiler(mapper, machine, batchOptions);

    const auto t0 = std::chrono::steady_clock::now();
    const std::vector<core::BatchResult> results =
        compiler.compileAll(circuits, snapshots);
    const double seconds =
        std::chrono::duration<double>(
            std::chrono::steady_clock::now() - t0)
            .count();

    std::cout << "machine   : " << machine.name() << " ("
              << machine.numQubits() << " qubits, "
              << machine.linkCount() << " links)\n";
    std::cout << "policy    : " << mapper.name() << "\n";
    std::cout << "batch     : " << circuits.size()
              << " programs x " << snapshots.size()
              << " cycles = " << results.size() << " jobs on "
              << compiler.threadCount() << " threads\n\n";

    TextTable table({"program", "cycle", "status", "policy",
                     "swaps", "analytic-pst"});
    std::size_t okJobs = 0, degradedJobs = 0, failedJobs = 0,
                timedOutJobs = 0;
    std::optional<ErrorCategory> firstFailure;
    for (const core::BatchResult &r : results) {
        const bool usable = r.ok();
        table.addRow(
            {options.qasmPaths[r.circuit],
             std::to_string(r.snapshot),
             core::jobStatusName(r.status),
             usable ? r.policyUsed : std::string("-"),
             usable ? std::to_string(r.mapped.insertedSwaps)
                    : std::string("-"),
             usable ? formatDouble(r.analyticPst, 5)
                    : std::string("-")});
        switch (r.status) {
        case core::JobStatus::Ok:
            ++okJobs;
            break;
        case core::JobStatus::Degraded:
            ++degradedJobs;
            break;
        case core::JobStatus::Failed:
            ++failedJobs;
            break;
        case core::JobStatus::TimedOut:
            ++timedOutJobs;
            break;
        }
        if (!usable && !firstFailure.has_value())
            firstFailure = r.errorCategory;
    }
    std::cout << table.render() << "\n";

    std::cout << "jobs      : " << okJobs << " ok, "
              << degradedJobs << " degraded, " << failedJobs
              << " failed, " << timedOutJobs << " timed-out\n";
    if (options.lint) {
        std::size_t preErrors = 0, preWarnings = 0,
                    postErrors = 0, postWarnings = 0;
        for (const core::BatchResult &r : results) {
            preErrors += r.lintErrors;
            preWarnings += r.lintWarnings;
            postErrors += r.mappedLintErrors;
            postWarnings += r.mappedLintWarnings;
        }
        std::cout << "lint      : pre-compile " << preErrors
                  << " errors / " << preWarnings
                  << " warnings, mapped " << postErrors
                  << " errors / " << postWarnings
                  << " warnings\n";
    }
    for (const core::BatchResult &r : results) {
        if (r.status == core::JobStatus::Failed ||
            r.status == core::JobStatus::TimedOut) {
            std::cout << "  " << core::jobStatusName(r.status)
                      << "  " << options.qasmPaths[r.circuit]
                      << " x cycle " << r.snapshot << " ("
                      << errorCategoryName(r.errorCategory)
                      << "): " << r.error << "\n";
        } else if (r.status == core::JobStatus::Degraded &&
                   !r.note.empty()) {
            std::cout << "  degraded  "
                      << options.qasmPaths[r.circuit]
                      << " x cycle " << r.snapshot << ": "
                      << r.note << "\n";
        }
    }

    std::cout << "elapsed   : " << formatDouble(seconds, 3)
              << " s (" << formatDouble(
                     static_cast<double>(results.size()) /
                         seconds, 1)
              << " jobs/s)\n";
    const core::PathCacheStats stats = core::pathCacheStats();
    std::cout << "caches    : matrix " << stats.matrixHits
              << " hits / " << stats.matrixMisses
              << " misses, plans " << stats.planHits
              << " hits / " << stats.planMisses << " misses"
              << (options.noPathCache ? " (disabled)" : "")
              << "\n";
    if (artifacts != nullptr) {
        printStoreStats(*artifacts);
        if (options.failFast)
            std::cout << "            (artifact store is ignored "
                         "under --fail-fast)\n";
    }
    // Contained job failures still signal through the exit code.
    return firstFailure.has_value() ? exitCodeFor(*firstFailure)
                                    : 0;
}

int
run(const Options &options)
{
    require(!options.qasmPaths.empty(),
            "--qasm is required (see --help)");
    require(options.qasmPaths.size() == 1,
            "multiple --qasm programs need --batch");

    // Program.
    const std::string &qasmPath = options.qasmPaths.front();
    const circuit::ParsedQasm parsed =
        loadQasmWithLines(qasmPath);
    const circuit::Circuit &logical = parsed.circuit;

    // Machine + calibration.
    const topology::CouplingGraph machine =
        machineByName(options.machine);
    calibration::Snapshot snapshot =
        options.calibrationPath.empty()
            ? calibration::SyntheticSource(
                  machine, calibration::SyntheticParams{},
                  options.syntheticSeed)
                  .nextCycle()
            : calibration::loadCsv(options.calibrationPath,
                                   machine);

    // Pre-compile lint gate: findings at/above --lint-fail-on stop
    // the run before any compile work.
    if (options.lint) {
        const analysis::Linter linter(lintOptionsFor(options));
        analysis::LintInput input;
        input.circuit = &logical;
        input.graph = &machine;
        input.snapshot = &snapshot;
        input.gateLines = &parsed.gateLines;
        input.artifact = qasmPath;
        const analysis::LintReport report = linter.run(input);
        if (!report.diagnostics.empty() ||
            !options.lintOut.empty())
            emitLintReport(options, report);
        if (report.shouldFail(linter.options().failOn)) {
            std::cerr << "vaqc: lint failed: " << report.summary()
                      << "\n";
            return 1;
        }
    }

    // Compile.
    const core::Mapper mapper =
        policyByName(options.policy, options.mah);
    // --job-deadline-ms also bounds the single-program compile; an
    // expired deadline surfaces as a TimeoutError (exit code 5).
    // The scope holds a pointer, so the token must outlive it.
    const CancellationToken deadlineToken =
        options.jobDeadlineMs > 0.0
            ? CancellationToken::withDeadline(options.jobDeadlineMs)
            : CancellationToken();
    const CancellationScope deadline(deadlineToken);

    // The artifact store replaces only the compile step here:
    // verify/optimize/lower and the Monte-Carlo report still run on
    // a stored mapping, so a hit and a fresh compile print the same
    // report shape.
    const std::unique_ptr<store::ArtifactStore> artifacts =
        openArtifactStore(options);
    std::unique_ptr<store::ArtifactCacheAdapter> artifactCache;
    if (artifacts != nullptr) {
        artifactCache =
            std::make_unique<store::ArtifactCacheAdapter>(
                *artifacts, machine,
                policySpecByName(options.policy, options.mah));
    }

    // Single compiles go through the same unified entry point as
    // the batch compiler and the vaqd daemon. Trust + no retries +
    // no scoring is exactly the historical vaqc pipeline (the
    // Monte-Carlo report below computes the analytic PST itself);
    // the deadline stays with the ambient scope above so it also
    // bounds the simulation.
    core::CompileRequest request;
    request.policy = policySpecByName(options.policy, options.mah);
    request.options = compileOptionsFor(options);
    request.maxRetries = 0;
    request.calibration = core::CalibrationHandling::Trust;
    request.scoreResult = false;
    core::CompileContext context;
    context.mapper = &mapper;
    context.artifactCache = artifactCache.get();
    core::CompileResult compiled =
        core::compileCircuit(logical, request, machine, snapshot,
                             context);
    // Containment off: vaqc reports single-compile failures through
    // the exception exit path, category and message intact.
    if (!compiled.ok())
        throw VaqError(compiled.error, compiled.errorCategory);
    if (artifactCache != nullptr && !compiled.fromStore)
        artifactCache->record(logical, snapshot, compiled);
    core::MappedCircuit mapped = std::move(compiled.mapped);

    if (options.verify) {
        const core::VerificationReport report =
            core::verifyMapping(mapped, logical, machine);
        if (!report.ok()) {
            std::cerr << "vaqc: VERIFICATION FAILED: "
                      << report.failure << "\n";
            return exitCodeFor(ErrorCategory::Compile);
        }
        std::cout << "verified  : executable, layout-consistent, "
                  << (report.semanticsChecked
                          ? "semantics exact"
                          : "semantics skipped (machine too "
                            "wide)")
                  << "\n";
    }

    if (options.optimize) {
        circuit::OptimizerStats stats;
        mapped.physical =
            circuit::optimize(mapped.physical, &stats);
        std::cout << "optimizer removed " << stats.removedGates()
                  << " gates (" << stats.cancelledPairs
                  << " cancelled pairs, " << stats.fusedRotations
                  << " fused rotations)\n";
    }

    if (options.lower) {
        circuit::LowerStats stats;
        mapped.physical =
            circuit::toNativeBasis(mapped.physical, &stats);
        std::cout << "lowered   : " << stats.loweredOneQubit
                  << " 1q gates -> u3, " << stats.loweredCz
                  << " cz -> cx, " << stats.loweredSwaps
                  << " swap -> 3cx\n";
    }

    // Report.
    const sim::NoiseModel model(machine, snapshot);
    sim::ParallelFaultSimOptions simOptions;
    simOptions.trials = options.trials;
    simOptions.threads = options.threads;
    simOptions.targetStderr = options.targetStderr;
    const auto result = sim::runFaultInjectionParallel(
        mapped.physical, model, simOptions);

    std::cout << "program   : " << qasmPath << " ("
              << logical.numQubits() << " qubits, "
              << logical.instructionCount()
              << " instructions)\n";
    std::cout << "machine   : " << machine.name() << " ("
              << machine.numQubits() << " qubits, "
              << machine.linkCount() << " links)\n";
    std::cout << "policy    : " << mapper.name() << "\n";
    if (artifacts != nullptr) {
        std::cout << "store     : "
                  << (compiled.fromStore
                          ? compiled.viaDelta ? "delta-reuse hit"
                                              : "exact hit"
                          : "miss (result recorded)")
                  << "\n";
        if (options.storeStats)
            printStoreStats(*artifacts);
    }
    std::cout << "swaps     : " << mapped.insertedSwaps << "\n";
    std::cout << "layout    : ";
    for (int q = 0; q < logical.numQubits(); ++q)
        std::cout << (q ? " " : "") << mapped.initial.phys(q);
    std::cout << "\n";
    std::cout << "PST       : " << formatDouble(result.pst, 5)
              << " +/- " << formatDouble(result.stderrPst, 5)
              << " (analytic "
              << formatDouble(result.analyticPst, 5) << ", "
              << result.trials << " trials)\n";

    if (!options.simEngine.empty()) {
        sim::OutcomeSimOptions oOptions;
        oOptions.trials = options.trials;
        oOptions.threads = options.threads;
        oOptions.targetStderr = options.targetStderr;
        oOptions.engine = sim::simEngineFromName(options.simEngine);
        try {
            const sim::OutcomeSimResult checked =
                sim::runOutcomeCheckedParallel(mapped.physical,
                                               model, oOptions);
            std::cout << "sim-engine: "
                      << (checked.framePath ? "frame" : "dense")
                      << " (" << checked.gates.clifford
                      << " clifford, " << checked.gates.nonClifford
                      << " non-clifford gates";
            if (!checked.framePath &&
                !checked.fallbackReason.empty())
                std::cout << "; fallback: "
                          << checked.fallbackReason;
            std::cout << ")\n";
            std::cout << "PST (mc)  : "
                      << formatDouble(checked.pst, 5) << " +/- "
                      << formatDouble(checked.stderrPst, 5)
                      << " (outcome-checked, " << checked.trials
                      << " trials)\n";
        } catch (const VaqError &e) {
            // The outcome-checked report is additive: a program it
            // cannot check (non-Clifford and too wide for the dense
            // fallback, no measurements, an accept set covering most
            // outcomes) degrades to a note, not a failure.
            std::cout << "sim-engine: skipped (" << e.message()
                      << ")\n";
        }
    }

    if (options.explain) {
        std::cout << "\n"
                  << core::explainMapping(mapped, machine,
                                          snapshot);
    }

    if (!options.outPath.empty()) {
        writeFile(options.outPath,
                  circuit::toQasm(mapped.physical));
        std::cout << "wrote     : " << options.outPath << "\n";
    }
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    Options options;
    // Failure exits still owe the operator whatever telemetry the
    // run accumulated: a timed-out or failed compile is exactly the
    // run whose stage latencies and counters get inspected. Swallow
    // secondary export errors (e.g. a bad --metrics-format was the
    // primary failure already).
    const auto flushTelemetry = [&options]() {
        try {
            exportTelemetry(options);
        } catch (...) { // NOLINT(bugprone-empty-catch)
        }
    };
    try {
        options = parseArgs(argc, argv);
        if (options.help || argc == 1) {
            printUsage();
            return 0;
        }
        if (!options.metricsOut.empty() ||
            !options.traceOut.empty())
            obs::setEnabled(true);
        int code = 0;
        if (options.lintMode) {
            code = runLint(options);
        } else if (options.sensMode) {
            code = runSens(options);
        } else if (options.batch) {
            require(!options.qasmPaths.empty(),
                    "--batch needs at least one --qasm program");
            code = runBatch(options);
        } else {
            code = run(options);
        }
        exportTelemetry(options);
        return code;
    } catch (const VaqError &e) {
        flushTelemetry();
        // One line, category-tagged, exit code from the taxonomy.
        std::cerr << "vaqc: "
                  << errorCategoryName(e.category())
                  << " error: " << e.what() << "\n";
        return exitCodeFor(e.category());
    } catch (const VaqInternalError &e) {
        flushTelemetry();
        std::cerr << "vaqc: internal error (please report): "
                  << e.what() << "\n";
        return exitCodeFor(ErrorCategory::Internal);
    } catch (const std::exception &e) {
        flushTelemetry();
        std::cerr << "vaqc: unexpected error: " << e.what()
                  << "\n";
        return exitCodeFor(ErrorCategory::Internal);
    }
}
