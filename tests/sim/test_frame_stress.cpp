/**
 * @file
 * Randomized seeded Clifford stress corpus for the Pauli-frame
 * engine: widths from 5 up to Falcon-27, repeated-run and
 * thread-count determinism, and seed sensitivity. At 27 qubits a
 * dense trajectory trial is ~2 GiB of state; only the frame path
 * makes these widths testable at all, which is the point of the
 * fast path.
 */
#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "clifford_corpus.hpp"
#include "common/rng.hpp"
#include "sim/noise_model.hpp"
#include "sim/parallel_fault_sim.hpp"
#include "sim/pauli_frame.hpp"
#include "test_support.hpp"
#include "topology/layouts.hpp"

namespace vaq::sim
{
namespace
{

using circuit::Circuit;

std::vector<topology::CouplingGraph>
stressMachines()
{
    return {topology::ibmQ5Tenerife(), topology::grid(3, 3),
            topology::grid(4, 4),      topology::ibmQ20Tokyo(),
            topology::ibmFalcon27()};
}

TEST(FrameStress, FramePathCoversAllWidths)
{
    for (const auto &graph : stressMachines()) {
        const auto snap = test::uniformSnapshot(graph);
        const NoiseModel model(graph, snap);
        for (std::uint64_t seed = 1; seed <= 3; ++seed) {
            Rng corpusRng(seed * 97);
            const Circuit c = test::randomCliffordCircuit(
                graph, graph.numQubits() * 8, corpusRng);

            TrajectoryOptions trajectory;
            trajectory.shots = 2000;
            trajectory.seed = seed;
            const PauliFrameSim sim(c, model, trajectory);
            ASSERT_TRUE(sim.framePath())
                << graph.numQubits() << " qubits, seed " << seed
                << ": " << sim.fallbackReason();
            EXPECT_EQ(sim.gateCounts().nonClifford, 0u);

            const ShotCounts counts = sim.run();
            EXPECT_EQ(counts.shots, 2000u);
            for (const auto &[outcome, count] : counts.counts)
                EXPECT_EQ(outcome & ~sim.measuredMask(), 0u);
        }
    }
}

TEST(FrameStress, WideCircuitsUseTableauReference)
{
    // At 27 qubits, where a dense state is ~2 GiB, the engine must
    // still take the frame path and sample the tableau's support.
    const auto graph = topology::ibmFalcon27();
    const auto snap = test::uniformSnapshot(graph);
    const NoiseModel model(graph, snap);
    Rng corpusRng(7);
    const Circuit c =
        test::randomCliffordCircuit(graph, 200, corpusRng);
    const PauliFrameSim sim(c, model);
    ASSERT_TRUE(sim.framePath());
    EXPECT_EQ(sim.measuredMask(), (1ULL << 27) - 1);
}

TEST(FrameStress, RepeatedRunsAreDeterministic)
{
    for (const auto &graph : stressMachines()) {
        const auto snap = test::uniformSnapshot(graph);
        const NoiseModel model(graph, snap);
        Rng corpusRng(11);
        const Circuit c = test::randomCliffordCircuit(
            graph, graph.numQubits() * 6, corpusRng);

        TrajectoryOptions trajectory;
        trajectory.shots = 4000;
        trajectory.seed = 3;
        const PauliFrameSim sim(c, model, trajectory);
        ASSERT_TRUE(sim.framePath());
        const ShotCounts a = sim.run();
        const ShotCounts b = sim.run();
        EXPECT_EQ(a.counts, b.counts);

        TrajectoryOptions reseeded = trajectory;
        reseeded.seed = 4;
        const ShotCounts other =
            PauliFrameSim(c, model, reseeded).run();
        EXPECT_NE(a.counts, other.counts)
            << "different seeds should explore different "
               "trajectories";
    }
}

TEST(FrameStress, OutcomeCheckedThreadInvariantAtFalconScale)
{
    const auto graph = topology::ibmFalcon27();
    const auto snap = test::uniformSnapshot(graph);
    const NoiseModel model(graph, snap);
    // Support dimension capped at 8 so the accept set stays
    // meaningful against 27 measured bits.
    Rng corpusRng(19);
    const Circuit c =
        test::randomCliffordCircuit(graph, 200, corpusRng, 8);

    OutcomeSimOptions options;
    options.trials = 30'000;
    options.chunkTrials = 1024;
    options.engine = SimEngine::PauliFrame;

    const OutcomeSimResult one =
        ParallelFaultSim(1).runOutcomeChecked(c, model, options);
    const OutcomeSimResult eight =
        ParallelFaultSim(8).runOutcomeChecked(c, model, options);
    EXPECT_TRUE(one.framePath);
    EXPECT_EQ(one.trials, options.trials);
    EXPECT_EQ(one.successes, eight.successes);
    EXPECT_EQ(one.counts.counts, eight.counts.counts);
    EXPECT_GT(one.pst, 0.0);
    EXPECT_LT(one.pst, 1.0);
}

TEST(FrameStress, RunShotIsReentrantAcrossIndependentStreams)
{
    // Two interleaved consumers with their own Rng streams must see
    // exactly what two sequential consumers see — runShot() is
    // const and carries no hidden per-call state.
    const auto graph = topology::ibmQ20Tokyo();
    const auto snap = test::uniformSnapshot(graph);
    const NoiseModel model(graph, snap);
    Rng corpusRng(29);
    const Circuit c =
        test::randomCliffordCircuit(graph, 120, corpusRng);
    const PauliFrameSim sim(c, model);
    ASSERT_TRUE(sim.framePath());

    std::vector<std::uint64_t> sequentialA, sequentialB;
    {
        Rng a(1), b(2);
        for (int t = 0; t < 600; ++t)
            sequentialA.push_back(sim.runShot(a));
        for (int t = 0; t < 600; ++t)
            sequentialB.push_back(sim.runShot(b));
    }
    {
        Rng a(1), b(2);
        for (int t = 0; t < 600; ++t) {
            EXPECT_EQ(sim.runShot(a), sequentialA[t]);
            EXPECT_EQ(sim.runShot(b), sequentialB[t]);
        }
    }
}

} // namespace
} // namespace vaq::sim
