#include "sim/parallel_fault_sim.hpp"

#include <algorithm>
#include <bit>
#include <chrono>
#include <map>
#include <optional>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "sim/noise_script.hpp"

namespace vaq::sim
{

using circuit::Circuit;

namespace
{

/**
 * Chunks per adaptive wave. A fixed constant (not a function of the
 * thread count) so the adaptive stopping point is identical no
 * matter how many workers execute the wave.
 */
constexpr std::size_t kAdaptiveWaveChunks = 8;

/**
 * One value per 64-byte cache line. Workers write their chunk's RNG
 * stream and output on every trial; packed contiguously, neighbouring
 * chunks would share lines and every write would bounce them between
 * cores (false sharing).
 */
template <typename T>
struct alignas(64) CacheLinePadded
{
    T value;
};

} // namespace

ParallelFaultSim::ParallelFaultSim(std::size_t threads)
    : _pool(threads)
{
}

FaultSimResult
ParallelFaultSim::run(const Circuit &physical, const NoiseModel &model,
                      const ParallelFaultSimOptions &options)
{
    require(options.trials > 0, "need at least one trial");
    require(options.chunkTrials > 0,
            "chunkTrials must be positive");
    require(options.targetStderr >= 0.0,
            "targetStderr must be non-negative");
    checkExecutable(physical, model);

    const bool telemetry = obs::enabled();
    obs::Span runSpan("sim.run", telemetry);
    const auto runStart = std::chrono::steady_clock::now();

    const std::vector<double> probs =
        detail::collectErrorProbs(physical, model);

    const std::size_t numChunks =
        (options.trials + options.chunkTrials - 1) /
        options.chunkTrials;
    const bool adaptive = options.targetStderr > 0.0;
    const std::size_t waveChunks =
        adaptive ? kAdaptiveWaveChunks : numChunks;

    // One independent stream per chunk, derived sequentially from
    // the master seed in chunk order: the stream layout is a pure
    // function of (seed, trials, chunkTrials).
    Rng master(options.seed);

    detail::TrialTally total;
    std::vector<CacheLinePadded<Rng>> streams;
    std::vector<CacheLinePadded<detail::TrialTally>> tallies;
    for (std::size_t first = 0; first < numChunks;
         first += waveChunks) {
        const std::size_t count =
            std::min(waveChunks, numChunks - first);

        streams.clear();
        streams.reserve(count);
        for (std::size_t i = 0; i < count; ++i)
            streams.push_back({master.split()});

        tallies.assign(count, {});
        _pool.parallelFor(count, [&](std::size_t i) {
            obs::ScopedTimer chunkTimer("sim.chunk.seconds",
                                        telemetry);
            const std::size_t begin =
                (first + i) * options.chunkTrials;
            const std::size_t n = std::min(
                options.chunkTrials, options.trials - begin);
            tallies[i].value =
                detail::simulateChunk(probs, n, streams[i].value);
        });

        // Reduce in chunk order — the merge sequence, like the
        // streams, never depends on which worker ran which chunk.
        for (const auto &t : tallies)
            total.merge(t.value);

        if (adaptive &&
            detail::pstStandardError(total.successes,
                                     total.trials) <=
                options.targetStderr) {
            break;
        }
    }

    if (telemetry) {
        obs::count("sim.trials.total", total.trials);
        const double seconds =
            std::chrono::duration<double>(
                std::chrono::steady_clock::now() - runStart)
                .count();
        if (seconds > 0.0)
            obs::gaugeSet("sim.trials_per_sec",
                          static_cast<double>(total.trials) /
                              seconds);
    }
    return detail::resultFromTally(
        total, detail::productSuccessProb(probs));
}

OutcomeSimResult
ParallelFaultSim::runOutcomeChecked(const Circuit &physical,
                                    const NoiseModel &model,
                                    const OutcomeSimOptions &options)
{
    require(options.trials > 0, "need at least one trial");
    require(options.chunkTrials > 0, "chunkTrials must be positive");
    require(options.targetStderr >= 0.0,
            "targetStderr must be non-negative");
    checkExecutable(physical, model);

    const bool telemetry = obs::enabled();
    obs::Span runSpan("sim.outcome_run", telemetry);
    const auto runStart = std::chrono::steady_clock::now();

    TrajectoryOptions trajectory;
    trajectory.shots = options.trials;
    trajectory.seed = options.seed;
    trajectory.readoutNoise = options.readoutNoise;
    trajectory.crosstalk = options.crosstalk;

    OutcomeSimResult result;

    // Engine resolution: Auto/PauliFrame build the frame engine and
    // take its fast path when the circuit qualifies; a frame
    // fallback's runShot() is a dense trajectory shot over the
    // engine's own NoiseScript. Only Dense compiles a script here.
    std::optional<PauliFrameSim> frame;
    if (options.engine != SimEngine::Dense) {
        frame.emplace(physical, model, trajectory);
        result.gates = frame->gateCounts();
        result.framePath = frame->framePath();
        if (!result.framePath) {
            // An explicit frame request must not silently downgrade
            // to the (much slower, differently-scaling) dense path;
            // only Auto is allowed to fall back.
            require(options.engine != SimEngine::PauliFrame,
                    "frame engine requested but circuit does not "
                    "qualify: " + frame->fallbackReason());
            result.fallbackReason = frame->fallbackReason();
        }
    } else {
        result.gates = countCliffordGates(physical);
    }

    const std::uint64_t mask = measuredMaskOf(physical);
    require(mask != 0, "program measures no qubits");

    // Ideal accept set. The frame path reads it off the stabilizer
    // support (projection onto the measured bits is itself affine);
    // the dense path enumerates it densely. Both enforce the same
    // meaningfulness rule: acceptance may cover at most half the
    // outcome space.
    AffineSupport acceptSupport;
    std::vector<std::uint64_t> acceptList;
    if (result.framePath) {
        acceptSupport = frame->idealSupport().masked(mask);
        const int measured = std::popcount(mask);
        require(static_cast<int>(acceptSupport.dimension()) + 1 <=
                        measured ||
                    measured == 1,
                "accept set covers most of the outcome space; "
                "output-checked PST is not meaningful here");
    } else {
        acceptList = idealOutcomes(physical);
    }
    const auto accepts = [&](std::uint64_t outcome) {
        if (result.framePath)
            return acceptSupport.contains(outcome);
        return std::binary_search(acceptList.begin(),
                                  acceptList.end(), outcome);
    };

    NoiseScript denseScript;
    if (!frame)
        denseScript =
            NoiseScript::compile(physical, model, trajectory);

    const std::size_t numChunks =
        (options.trials + options.chunkTrials - 1) /
        options.chunkTrials;
    const bool adaptive = options.targetStderr > 0.0;
    const std::size_t waveChunks =
        adaptive ? kAdaptiveWaveChunks : numChunks;

    struct ChunkOutput
    {
        detail::TrialTally tally;
        std::map<std::uint64_t, std::size_t> counts;
    };

    Rng master(options.seed);
    detail::TrialTally total;
    ShotCounts histogram;
    histogram.measuredMask = mask;
    std::vector<CacheLinePadded<Rng>> streams;
    std::vector<CacheLinePadded<ChunkOutput>> outputs;
    for (std::size_t first = 0; first < numChunks;
         first += waveChunks) {
        const std::size_t count =
            std::min(waveChunks, numChunks - first);

        streams.clear();
        streams.reserve(count);
        for (std::size_t i = 0; i < count; ++i)
            streams.push_back({master.split()});

        outputs.assign(count, {});
        _pool.parallelFor(count, [&](std::size_t i) {
            obs::ScopedTimer chunkTimer("sim.chunk.seconds",
                                        telemetry);
            const std::size_t begin =
                (first + i) * options.chunkTrials;
            const std::size_t n = std::min(
                options.chunkTrials, options.trials - begin);
            Rng &rng = streams[i].value;
            ChunkOutput &out = outputs[i].value;
            for (std::size_t t = 0; t < n; ++t) {
                const std::uint64_t outcome =
                    frame ? frame->runShot(rng)
                          : denseTrajectoryShot(physical,
                                                denseScript, rng);
                ++out.counts[outcome];
                const bool ok = accepts(outcome);
                ++out.tally.trials;
                out.tally.successes += ok ? 1 : 0;
                out.tally.indicator.add(ok ? 1.0 : 0.0);
            }
        });

        // Reduce in chunk order (thread-count invariant).
        for (const auto &padded : outputs) {
            const ChunkOutput &out = padded.value;
            total.merge(out.tally);
            for (const auto &[outcome, n] : out.counts)
                histogram.counts[outcome] += n;
        }

        if (adaptive &&
            detail::pstStandardError(total.successes,
                                     total.trials) <=
                options.targetStderr) {
            break;
        }
    }

    histogram.shots = total.trials;
    result.trials = total.trials;
    result.successes = total.successes;
    result.pst = static_cast<double>(total.successes) /
                 static_cast<double>(total.trials);
    result.stderrPst =
        detail::pstStandardError(total.successes, total.trials);
    result.counts = std::move(histogram);

    if (telemetry) {
        obs::count("sim.trials.total", total.trials);
        if (result.framePath)
            obs::count("sim.frame.trials", total.trials);
        const double seconds =
            std::chrono::duration<double>(
                std::chrono::steady_clock::now() - runStart)
                .count();
        if (seconds > 0.0)
            obs::gaugeSet("sim.trials_per_sec",
                          static_cast<double>(total.trials) /
                              seconds);
    }
    return result;
}

std::vector<FaultSimResult>
ParallelFaultSim::runBatch(std::span<const Circuit> physicals,
                           const NoiseModel &model,
                           const ParallelFaultSimOptions &options)
{
    std::vector<FaultSimResult> results;
    results.reserve(physicals.size());
    for (const Circuit &physical : physicals)
        results.push_back(run(physical, model, options));
    return results;
}

FaultSimResult
runFaultInjectionParallel(const Circuit &physical,
                          const NoiseModel &model,
                          const ParallelFaultSimOptions &options)
{
    ParallelFaultSim engine(options.threads);
    return engine.run(physical, model, options);
}

OutcomeSimResult
runOutcomeCheckedParallel(const Circuit &physical,
                          const NoiseModel &model,
                          const OutcomeSimOptions &options)
{
    ParallelFaultSim engine(options.threads);
    return engine.runOutcomeChecked(physical, model, options);
}

std::vector<FaultSimResult>
runFaultInjectionBatch(std::span<const Circuit> physicals,
                       const NoiseModel &model,
                       const ParallelFaultSimOptions &options)
{
    ParallelFaultSim engine(options.threads);
    return engine.runBatch(physicals, model, options);
}

} // namespace vaq::sim
