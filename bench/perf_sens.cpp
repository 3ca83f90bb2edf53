/**
 * @file
 * Certified-staleness store bench: warm-replay hit rate and serve
 * latency of the artifact store under a --staleness-tol sweep. At
 * tol = 0 the store serves only artifacts whose certified bound is
 * exactly 0 (nothing the PST estimate reads has moved).
 *
 * Scenario: a Q20 machine republishes calibration every cycle. Every
 * cycle re-measures T2 on every qubit (bound-neutral: T2 never enters
 * the PerOp closed form), most other parameters drift by fractions
 * of a percent on part of the machine, and occasionally a link takes
 * a real jump. A positive tolerance also serves the small-drift
 * cycles — |delta logPST| certified within tolerance — with the
 * exact analytic PST shift, where tol = 0 recompiles.
 *
 *   perf_sens                  # the sweep table + acceptance verdict
 *   perf_sens --epochs 24 --seed 11
 *
 * Exit status 1 when the acceptance gate fails (hit rate under
 * --staleness-tol=1e-3 must strictly beat tol = 0).
 */
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "calibration/snapshot.hpp"
#include "calibration/synthetic.hpp"
#include "circuit/circuit.hpp"
#include "common/rng.hpp"
#include "core/compile_request.hpp"
#include "store/adapter.hpp"
#include "store/artifact_store.hpp"
#include "workloads/workloads.hpp"

namespace
{

using namespace vaq;
using Clock = std::chrono::steady_clock;

struct BenchConfig
{
    std::size_t epochs = 16;
    std::uint64_t seed = bench::kArchiveSeed;
};

std::vector<circuit::Circuit>
sensWorkload()
{
    std::vector<circuit::Circuit> circuits;
    circuits.push_back(workloads::ghz(6));
    circuits.push_back(workloads::bernsteinVazirani(8));
    circuits.push_back(workloads::qft(5));
    circuits.push_back(workloads::grover(3, 5));
    circuits.push_back(workloads::deutschJozsa(6, true, 5));
    circuits.push_back(workloads::adder(2, 1, 2));
    return circuits;
}

double
clampTo(double v, double lo, double hi)
{
    return v < lo ? lo : (v > hi ? hi : v);
}

/**
 * The drift series: epoch 0 is one synthetic calibration cycle;
 * every later epoch re-rolls T2 everywhere (bound-neutral: T2 never
 * enters the PerOp closed form), drifts a random subset of the
 * other parameters by small relative amounts, and occasionally
 * jumps one link hard enough that no tolerance certifies it.
 */
std::vector<calibration::Snapshot>
driftSeries(const topology::CouplingGraph &machine,
            const BenchConfig &config)
{
    calibration::SyntheticSource source(
        machine, calibration::SyntheticParams{}, config.seed);
    std::vector<calibration::Snapshot> epochs;
    epochs.push_back(source.nextCycle());

    Rng rng(config.seed * 1315423911ULL + 3);
    for (std::size_t e = 1; e < config.epochs; ++e) {
        calibration::Snapshot snap = epochs.back();
        for (int q = 0; q < snap.numQubits(); ++q) {
            auto &cal = snap.qubit(q);
            // T2 is re-measured every cycle.
            cal.t2Us = clampTo(cal.t2Us * (1.0 + rng.gauss(0, 0.05)),
                               3.0, 120.0);
            if (rng.bernoulli(0.35)) {
                const double rel = rng.uniform(-2e-3, 2e-3);
                cal.error1q =
                    clampTo(cal.error1q * (1.0 + rel), 1e-4, 0.04);
                cal.readoutError = clampTo(
                    cal.readoutError * (1.0 + rel), 0.005, 0.12);
                cal.t1Us =
                    clampTo(cal.t1Us * (1.0 - rel), 5.0, 220.0);
            }
        }
        for (std::size_t l = 0; l < snap.numLinks(); ++l) {
            double err = snap.linkError(l);
            if (rng.bernoulli(0.04))
                err *= 1.5; // a real excursion: always recompile
            else if (rng.bernoulli(0.35))
                err *= 1.0 + rng.uniform(-2e-3, 2e-3);
            snap.setLinkError(l, clampTo(err, 0.005, 0.25));
        }
        epochs.push_back(std::move(snap));
    }
    return epochs;
}

struct SweepRow
{
    double tol = 0.0;
    std::size_t lookups = 0;
    std::size_t exactHits = 0;
    std::size_t deltaHits = 0;
    std::size_t boundHits = 0;
    std::size_t recompiles = 0;
    double serveMs = 0.0;   ///< total wall ms of served lookups
    double compileMs = 0.0; ///< total wall ms of recompiles

    std::size_t hits() const
    {
        return exactHits + deltaHits + boundHits;
    }
    double hitRate() const
    {
        return lookups == 0 ? 0.0
                            : static_cast<double>(hits()) /
                                  static_cast<double>(lookups);
    }
};

SweepRow
replay(const topology::CouplingGraph &machine,
       const std::vector<circuit::Circuit> &circuits,
       const std::vector<calibration::Snapshot> &epochs, double tol)
{
    store::StoreOptions options; // memory-only store
    options.stalenessTol = tol;
    store::ArtifactStore artifactStore(options);
    const core::PolicySpec spec{.name = "vqm"};
    store::ArtifactCacheAdapter adapter(artifactStore, machine,
                                        spec);

    core::CompileRequest request;
    request.policy = spec;
    request.calibration = core::CalibrationHandling::Trust;
    request.maxRetries = 0;
    core::CompileContext context;
    context.artifactCache = &adapter;

    SweepRow row;
    row.tol = tol;
    for (std::size_t e = 0; e < epochs.size(); ++e) {
        for (const circuit::Circuit &logical : circuits) {
            const auto start = Clock::now();
            const core::CompileResult result = core::compileCircuit(
                logical, request, machine, epochs[e], context);
            const double ms =
                std::chrono::duration<double, std::milli>(
                    Clock::now() - start)
                    .count();
            if (!result.ok()) {
                std::fprintf(stderr,
                             "compile failed at epoch %zu: %s\n", e,
                             result.error.c_str());
                std::exit(2);
            }
            if (e == 0) {
                // Warm epoch: populate the store, count nothing.
                adapter.record(logical, epochs[e], result);
                continue;
            }
            ++row.lookups;
            if (result.fromStore) {
                row.serveMs += ms;
                if (result.boundReuse)
                    ++row.boundHits;
                else if (result.viaDelta)
                    ++row.deltaHits;
                else
                    ++row.exactHits;
            } else {
                row.compileMs += ms;
                ++row.recompiles;
                adapter.record(logical, epochs[e], result);
            }
        }
    }
    return row;
}

} // namespace

int
main(int argc, char **argv)
{
    BenchConfig config;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        const auto next = [&]() -> const char * {
            if (i + 1 >= argc) {
                std::fprintf(stderr, "%s needs a value\n",
                             arg.c_str());
                std::exit(2);
            }
            return argv[++i];
        };
        if (arg == "--epochs") {
            config.epochs = std::strtoull(next(), nullptr, 10);
        } else if (arg == "--seed") {
            config.seed = std::strtoull(next(), nullptr, 10);
        } else {
            std::fprintf(stderr, "usage: perf_sens [--epochs N] "
                                 "[--seed S]\n");
            return 2;
        }
    }
    if (config.epochs < 2) {
        std::fprintf(stderr, "--epochs must be >= 2\n");
        return 2;
    }

    bench::printHeader(
        "perf_sens", "certified staleness bounds (vaq_sens)",
        "Store warm-replay hit rate under a --staleness-tol sweep "
        "vs bound-0 reuse (tol = 0)");

    const topology::CouplingGraph machine =
        topology::ibmQ20Tokyo();
    const std::vector<circuit::Circuit> circuits = sensWorkload();
    const std::vector<calibration::Snapshot> epochs =
        driftSeries(machine, config);

    std::printf("# %zu circuits x %zu replay epochs, seed=%llu\n",
                circuits.size(), config.epochs - 1,
                static_cast<unsigned long long>(config.seed));
    std::printf("%-12s %8s %7s %7s %7s %10s %9s %11s %11s\n",
                "tol", "lookups", "exact", "delta", "bound",
                "recompile", "hit-rate", "serve-ms", "compile-ms");

    const double tols[] = {0.0, 1e-4, 1e-3, 1e-2};
    SweepRow boundZero;
    SweepRow certified;
    for (double tol : tols) {
        const SweepRow row = replay(machine, circuits, epochs, tol);
        std::printf("%-12g %8zu %7zu %7zu %7zu %10zu %8.1f%% "
                    "%11.3f %11.3f\n",
                    row.tol, row.lookups, row.exactHits,
                    row.deltaHits, row.boundHits, row.recompiles,
                    100.0 * row.hitRate(),
                    row.hits() ? row.serveMs /
                                     static_cast<double>(row.hits())
                               : 0.0,
                    row.recompiles
                        ? row.compileMs /
                              static_cast<double>(row.recompiles)
                        : 0.0);
        if (row.tol == 0.0)
            boundZero = row;
        if (row.tol == 1e-3)
            certified = row;
    }

    const bool pass = certified.hitRate() > boundZero.hitRate();
    std::printf("\n# acceptance: hit-rate(tol=1e-3) %.1f%% %s "
                "hit-rate(tol=0) %.1f%% -> %s\n",
                100.0 * certified.hitRate(),
                pass ? ">" : "<=", 100.0 * boundZero.hitRate(),
                pass ? "PASS" : "FAIL");
    return pass ? 0 : 1;
}
