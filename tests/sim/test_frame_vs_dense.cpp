/**
 * @file
 * Cross-validation harness: the Pauli-frame fast path against the
 * dense trajectory engine.
 *
 * The contract has three tiers, each asserted here:
 *  - per-trial *bit-exact* agreement at matched seeds, from 3 up to
 *    20 qubits: both engines consume the same NoiseScript stream,
 *    and both pick the floor(r * 2^k)-th ascending element of the
 *    frame-shifted ideal support (the dense engine by its float
 *    subtraction walk, the frame engine off the stabilizer tableau),
 *    so they could only differ were r within float rounding of a
 *    multiple of 2^-k;
 *  - statistical (Wilson-interval) agreement of the histogram runs
 *    of the two engines;
 *  - exact fallback equivalence on non-Clifford circuits, where the
 *    frame engine *is* the dense engine.
 * The outcome-checked parallel runs on both engines must in
 * addition be bit-identical across thread counts (this file runs
 * under the sanitizer `parallel` leg).
 */
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <vector>

#include "clifford_corpus.hpp"
#include "common/error.hpp"
#include "common/rng.hpp"
#include "sim/noise_model.hpp"
#include "sim/noise_script.hpp"
#include "sim/parallel_fault_sim.hpp"
#include "sim/pauli_frame.hpp"
#include "sim/trajectory_sim.hpp"
#include "test_support.hpp"
#include "topology/layouts.hpp"
#include "workloads/workloads.hpp"

namespace vaq::sim
{
namespace
{

using circuit::Circuit;

/** Wilson score interval of a binomial proportion. */
struct Interval
{
    double lo = 0.0;
    double hi = 1.0;
};

Interval
wilson(std::size_t successes, std::size_t trials, double z)
{
    const double n = static_cast<double>(trials);
    const double p = static_cast<double>(successes) / n;
    const double z2 = z * z;
    const double denom = 1.0 + z2 / n;
    const double center = (p + z2 / (2.0 * n)) / denom;
    const double half =
        z *
        std::sqrt(p * (1.0 - p) / n + z2 / (4.0 * n * n)) /
        denom;
    return {center - half, center + half};
}

bool
overlaps(const Interval &a, const Interval &b)
{
    return a.lo <= b.hi && b.lo <= a.hi;
}

/**
 * Assert per-trial bit-exact agreement between the frame fast path
 * and the dense engine over `trials` matched-seed trials.
 */
void
expectBitExact(const Circuit &physical, const NoiseModel &model,
               const TrajectoryOptions &trajectory,
               std::size_t trials)
{
    const PauliFrameSim sim(physical, model, trajectory);
    ASSERT_TRUE(sim.framePath()) << sim.fallbackReason();

    const NoiseScript script =
        NoiseScript::compile(physical, model, trajectory);
    Rng frameRng(trajectory.seed);
    Rng denseRng(trajectory.seed);
    for (std::size_t t = 0; t < trials; ++t) {
        const std::uint64_t frameOutcome = sim.runShot(frameRng);
        const std::uint64_t denseOutcome =
            denseTrajectoryShot(physical, script, denseRng);
        ASSERT_EQ(frameOutcome, denseOutcome) << "trial " << t;
    }
}

TEST(FrameVsDense, BitExactPerTrialOnCliffordWorkloads)
{
    TrajectoryOptions trajectory;
    trajectory.seed = 101;
    {
        const auto graph = topology::fullyConnected(5);
        const auto snap = test::uniformSnapshot(graph);
        const NoiseModel model(graph, snap);
        expectBitExact(workloads::ghz(5), model, trajectory, 3000);
        expectBitExact(workloads::bernsteinVazirani(5), model,
                       trajectory, 3000);
        expectBitExact(
            workloads::deutschJozsa(5, true, 0b0101), model,
            trajectory, 3000);
    }
    {
        const auto graph = topology::fullyConnected(3);
        const auto snap = test::uniformSnapshot(graph);
        const NoiseModel model(graph, snap);
        expectBitExact(workloads::triSwap(), model, trajectory,
                       3000);
    }
    // 13-20 qubits. A dense shot costs O(gates * 2^n) here, hence
    // the smaller trial counts. The random circuit gives the output
    // draw a multi-element support to index.
    {
        const auto graph = topology::fullyConnected(16);
        const auto snap = test::uniformSnapshot(graph);
        const NoiseModel model(graph, snap);
        expectBitExact(workloads::ghz(16), model, trajectory, 400);
        Rng corpusRng(16);
        expectBitExact(
            test::randomCliffordCircuit(graph, 48, corpusRng, 10),
            model, trajectory, 60);
    }
    {
        const auto graph = topology::fullyConnected(20);
        const auto snap = test::uniformSnapshot(graph);
        const NoiseModel model(graph, snap);
        expectBitExact(workloads::bernsteinVazirani(20), model,
                       trajectory, 6);
    }
}

TEST(FrameVsDense, BitExactPerTrialOnRandomCorpus)
{
    const std::vector<topology::CouplingGraph> machines = {
        topology::ibmQ5Tenerife(), topology::grid(3, 4)};
    for (const auto &graph : machines) {
        const auto snap = test::uniformSnapshot(graph);
        const NoiseModel model(graph, snap);
        for (std::uint64_t seed = 1; seed <= 5; ++seed) {
            Rng corpusRng(seed);
            const Circuit c =
                test::randomCliffordCircuit(graph, 80, corpusRng);
            TrajectoryOptions trajectory;
            trajectory.seed = 1000 + seed;
            expectBitExact(c, model, trajectory, 1200);
        }
    }
}

TEST(FrameVsDense, BitExactWithCrosstalkAndNoReadout)
{
    // Crosstalk adds spectator Bernoulli draws per two-qubit gate;
    // readoutNoise=false removes the trailing per-qubit draws. The
    // stream contract must hold under both toggles.
    const auto graph = topology::ibmQ5Tenerife();
    const auto snap = test::uniformSnapshot(graph);
    const NoiseModel model(graph, snap);
    Rng corpusRng(9);
    const Circuit c =
        test::randomCliffordCircuit(graph, 60, corpusRng);

    TrajectoryOptions trajectory;
    trajectory.seed = 77;
    trajectory.crosstalk = 0.5;
    expectBitExact(c, model, trajectory, 1500);

    trajectory.crosstalk = 0.0;
    trajectory.readoutNoise = false;
    expectBitExact(c, model, trajectory, 1500);
}

TEST(FrameVsDense, TableauReferenceAgreesWithinWilsonInterval)
{
    // The histogram runs of the two engines (PauliFrameSim::run and
    // TrajectorySimulator::run) must give PST estimates that agree
    // statistically.
    const auto graph = topology::ibmQ5Tenerife();
    const auto snap = test::uniformSnapshot(graph);
    const NoiseModel model(graph, snap);
    Rng corpusRng(13);
    const Circuit c =
        test::randomCliffordCircuit(graph, 60, corpusRng, 4);

    const std::size_t trials = 40'000;
    TrajectoryOptions trajectory;
    trajectory.shots = trials;
    trajectory.seed = 5;

    const PauliFrameSim sim(c, model, trajectory);
    ASSERT_TRUE(sim.framePath());

    const std::vector<std::uint64_t> accept = idealOutcomes(c);
    const double framePst =
        pstFromCounts(sim.run(), accept);

    TrajectorySimulator dense(model, trajectory);
    const double densePst = pstFromCounts(dense.run(c), accept);

    const auto frameSuccesses = static_cast<std::size_t>(
        std::llround(framePst * static_cast<double>(trials)));
    const auto denseSuccesses = static_cast<std::size_t>(
        std::llround(densePst * static_cast<double>(trials)));
    EXPECT_TRUE(overlaps(wilson(frameSuccesses, trials, 4.0),
                         wilson(denseSuccesses, trials, 4.0)))
        << "frame " << framePst << " vs dense " << densePst;
}

TEST(FrameVsDense, FallbackCircuitsMatchDenseEngineBitExactly)
{
    // Non-Clifford programs: the Auto engine must report the dense
    // fallback and produce exactly the dense engine's results —
    // same successes, same trials, same outcome histogram.
    struct Case
    {
        Circuit circuit;
        int width;
    };
    std::vector<Case> cases;
    // GHZ dressed with a T gate: T|0> = |0> exactly, so the ideal
    // accept set stays {0000, 1111}, but the program is non-Clifford
    // and must take the dense fallback. (qft would not work here:
    // its ideal output on |0..0> is uniform, which idealOutcomes
    // rejects as a meaningless accept set.)
    {
        Circuit dressed(4);
        dressed.t(0).h(0).cx(0, 1).cx(1, 2).cx(2, 3).tdg(3);
        dressed.measureAll();
        cases.push_back({dressed, 4});
    }
    cases.push_back({workloads::adder(1, 1, 1), 4});
    for (const Case &fallbackCase : cases) {
        const auto graph =
            topology::fullyConnected(fallbackCase.width);
        const auto snap = test::uniformSnapshot(graph);
        const NoiseModel model(graph, snap);

        OutcomeSimOptions options;
        options.trials = 20'000;
        options.chunkTrials = 2048;
        options.threads = 2;

        options.engine = SimEngine::Auto;
        const OutcomeSimResult automatic =
            runOutcomeCheckedParallel(fallbackCase.circuit, model,
                                      options);
        EXPECT_FALSE(automatic.framePath);
        EXPECT_NE(
            automatic.fallbackReason.find("non-Clifford"),
            std::string::npos)
            << automatic.fallbackReason;
        EXPECT_GT(automatic.gates.nonClifford, 0u);

        options.engine = SimEngine::Dense;
        const OutcomeSimResult dense = runOutcomeCheckedParallel(
            fallbackCase.circuit, model, options);
        EXPECT_TRUE(dense.fallbackReason.empty());

        EXPECT_EQ(automatic.trials, dense.trials);
        EXPECT_EQ(automatic.successes, dense.successes);
        EXPECT_EQ(automatic.counts.counts, dense.counts.counts);
    }
}

TEST(FrameVsDense, EnginesAgreeBitExactlyThroughOutcomeChecked)
{
    // On a Clifford circuit the frame and dense engines must
    // produce identical outcome-checked results — not just equal
    // PST, the full per-outcome histogram.
    const auto graph = topology::ibmQ5Tenerife();
    const auto snap = test::uniformSnapshot(graph);
    const NoiseModel model(graph, snap);
    Rng corpusRng(21);
    const Circuit c =
        test::randomCliffordCircuit(graph, 70, corpusRng, 4);

    OutcomeSimOptions options;
    options.trials = 30'000;
    options.chunkTrials = 1024;

    options.engine = SimEngine::PauliFrame;
    const OutcomeSimResult frameResult =
        runOutcomeCheckedParallel(c, model, options);
    EXPECT_TRUE(frameResult.framePath);

    options.engine = SimEngine::Dense;
    const OutcomeSimResult denseResult =
        runOutcomeCheckedParallel(c, model, options);
    EXPECT_FALSE(denseResult.framePath);

    EXPECT_EQ(frameResult.trials, denseResult.trials);
    EXPECT_EQ(frameResult.successes, denseResult.successes);
    EXPECT_EQ(frameResult.counts.counts,
              denseResult.counts.counts);
    EXPECT_DOUBLE_EQ(frameResult.pst, denseResult.pst);
}

TEST(FrameVsDense, OutcomeCheckedBitIdenticalAcrossThreadCounts)
{
    const auto graph = topology::ibmQ5Tenerife();
    const auto snap = test::uniformSnapshot(graph);
    const NoiseModel model(graph, snap);
    Rng corpusRng(33);
    const Circuit c =
        test::randomCliffordCircuit(graph, 70, corpusRng, 4);

    for (const SimEngine engine :
         {SimEngine::PauliFrame, SimEngine::Dense}) {
        OutcomeSimOptions options;
        options.trials = 40'000;
        options.chunkTrials = 1024;
        options.engine = engine;

        const OutcomeSimResult one =
            ParallelFaultSim(1).runOutcomeChecked(c, model,
                                                  options);
        const OutcomeSimResult four =
            ParallelFaultSim(4).runOutcomeChecked(c, model,
                                                  options);
        const OutcomeSimResult eight =
            ParallelFaultSim(8).runOutcomeChecked(c, model,
                                                  options);

        EXPECT_EQ(one.trials, options.trials);
        EXPECT_EQ(one.successes, four.successes);
        EXPECT_EQ(one.successes, eight.successes);
        EXPECT_EQ(one.counts.counts, four.counts.counts);
        EXPECT_EQ(one.counts.counts, eight.counts.counts);
        EXPECT_DOUBLE_EQ(one.pst, eight.pst);
        EXPECT_DOUBLE_EQ(one.stderrPst, eight.stderrPst);
    }
}

TEST(FrameVsDense, AdaptiveStopIsThreadCountInvariant)
{
    const auto graph = topology::ibmQ5Tenerife();
    const auto snap = test::uniformSnapshot(graph);
    const NoiseModel model(graph, snap);
    Rng corpusRng(45);
    const Circuit c =
        test::randomCliffordCircuit(graph, 70, corpusRng, 4);

    OutcomeSimOptions options;
    options.trials = 1'000'000;
    options.chunkTrials = 1000;
    options.targetStderr = 0.004;
    options.engine = SimEngine::PauliFrame;

    const OutcomeSimResult one =
        ParallelFaultSim(1).runOutcomeChecked(c, model, options);
    const OutcomeSimResult eight =
        ParallelFaultSim(8).runOutcomeChecked(c, model, options);
    EXPECT_LT(one.trials, options.trials);
    EXPECT_LE(one.stderrPst, options.targetStderr);
    EXPECT_EQ(one.trials, eight.trials);
    EXPECT_EQ(one.successes, eight.successes);
}

TEST(FrameVsDense, OptionsAndContractsValidated)
{
    const auto graph = topology::ibmQ5Tenerife();
    const auto snap = test::uniformSnapshot(graph);
    const NoiseModel model(graph, snap);
    Circuit measured(5);
    measured.h(0).cx(0, 1).measureAll();

    OutcomeSimOptions options;
    options.trials = 0;
    EXPECT_THROW(
        runOutcomeCheckedParallel(measured, model, options),
        VaqError);
    options.trials = 100;
    options.chunkTrials = 0;
    EXPECT_THROW(
        runOutcomeCheckedParallel(measured, model, options),
        VaqError);

    // A program measuring nothing has no outcome to check.
    Circuit unmeasured(5);
    unmeasured.h(0).cx(0, 1);
    EXPECT_THROW(
        runOutcomeCheckedParallel(unmeasured, model, {}), VaqError);

    // A uniform accept set (H on every measured qubit) covers the
    // whole outcome space; "success" is meaningless there, on both
    // engines.
    Circuit uniform(5);
    uniform.h(0).h(1).h(2).h(3).h(4).measureAll();
    for (const SimEngine engine :
         {SimEngine::PauliFrame, SimEngine::Dense}) {
        OutcomeSimOptions uniformOptions;
        uniformOptions.engine = engine;
        EXPECT_THROW(runOutcomeCheckedParallel(uniform, model,
                                               uniformOptions),
                     VaqError);
    }

    // Explicitly requesting the frame engine on a circuit it cannot
    // run is an error, never a silent downgrade to dense; Auto is
    // the spelling that may fall back.
    Circuit nonClifford(5);
    nonClifford.h(0).t(0).cx(0, 1).measureAll();
    OutcomeSimOptions forced;
    forced.trials = 100;
    forced.engine = SimEngine::PauliFrame;
    EXPECT_THROW(
        runOutcomeCheckedParallel(nonClifford, model, forced),
        VaqError);
    forced.engine = SimEngine::Auto;
    const OutcomeSimResult fallback =
        runOutcomeCheckedParallel(nonClifford, model, forced);
    EXPECT_FALSE(fallback.framePath);
    EXPECT_EQ(fallback.trials, 100u);
}

} // namespace
} // namespace vaq::sim
