/**
 * @file
 * Parity of the store's one reuse rule with the touched-set
 * predicate it replaced, over the 104-cycle synthetic calibration
 * archive (the corpus of the staleness soundness suite,
 * tests/analysis/test_staleness.cpp). For every (circuit,
 * epoch-pair) the predicate calls reusable, a tolerance-0 store
 * holding the epoch-i artifact serves the epoch-j lookup at bound 0,
 * unshifted, with the stored mapping and PST bit for bit.
 *
 * Consecutive synthetic cycles redraw every parameter, so the raw
 * archive alone rarely satisfies the predicate; each pair is also
 * replayed as a sparse rollover — epoch j with the artifact's
 * touched hardware still at its epoch-i values — which always does.
 */
#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <vector>

#include "calibration/synthetic.hpp"
#include "core/mapper.hpp"
#include "sim/fault_sim.hpp"
#include "sim/noise_model.hpp"
#include "store/artifact_store.hpp"
#include "store_test_support.hpp"
#include "workloads/workloads.hpp"

namespace vaq::store
{
namespace
{

/** `now` with the profile's touched qubits and links reset to their
 *  `baseline` values. */
calibration::Snapshot
keepTouched(calibration::Snapshot now,
            const calibration::Snapshot &baseline,
            const analysis::SensitivityProfile &profile)
{
    for (const analysis::QubitSensitivity &q : profile.qubits)
        now.qubit(q.qubit) = baseline.qubit(q.qubit);
    for (const analysis::LinkSensitivity &l : profile.links)
        now.setLinkError(l.link, baseline.linkError(l.link));
    return now;
}

std::uint64_t
bits(double value)
{
    return std::bit_cast<std::uint64_t>(value);
}

TEST(ReuseParity, TouchedSetReuseIsServedAtBoundZero)
{
    const topology::CouplingGraph q20 = topology::ibmQ20Tokyo();
    calibration::SyntheticSource source(q20, {}, 7);
    const std::vector<calibration::Snapshot> epochs =
        source.series(104).snapshots();
    const core::PolicySpec spec{.name = "vqm"};
    const core::Mapper mapper = core::makeMapper(spec);

    std::size_t archivePairs = 0;
    std::size_t reusable = 0;
    for (const circuit::Circuit &logical :
         {workloads::ghz(6), workloads::qft(5),
          workloads::bernsteinVazirani(8)}) {
        const core::MappedCircuit mapped =
            mapper.map(logical, q20, epochs.front());
        for (std::size_t i = 0; i < epochs.size(); ++i) {
            const sim::NoiseModel model(q20, epochs[i],
                                        sim::CoherenceMode::PerOp);
            const CompileArtifact stored = makeArtifact(
                mapped, sim::analyticPst(mapped.physical, model), 0,
                0, q20, epochs[i]);
            ArtifactStore store(StoreOptions{});
            store.put(makeArtifactKey(logical, q20, epochs[i], spec),
                      stored);
            for (std::size_t j = 0; j < epochs.size(); ++j) {
                if (j == i)
                    continue;
                const calibration::Snapshot sparse = keepTouched(
                    epochs[j], epochs[i], stored.profile);
                for (const calibration::Snapshot *now :
                     {&epochs[j], &sparse}) {
                    if (!test::touchedSetReusable(stored.profile,
                                                  epochs[i], *now))
                        continue;
                    ++reusable;
                    archivePairs += now == &epochs[j] ? 1 : 0;
                    DeltaServeInfo info;
                    const auto hit = store.getOrDelta(
                        makeArtifactKey(logical, q20, *now, spec),
                        *now, info);
                    ASSERT_TRUE(hit.has_value())
                        << "epochs " << i << " -> " << j;
                    EXPECT_FALSE(info.boundReuse);
                    EXPECT_EQ(info.stalenessBound, 0.0);
                    EXPECT_EQ(bits(hit->analyticPst),
                              bits(stored.analyticPst));
                    EXPECT_EQ(hit->physical, stored.physical);
                    EXPECT_EQ(hit->initialLayout,
                              stored.initialLayout);
                    EXPECT_EQ(hit->finalLayout, stored.finalLayout);
                }
            }
            EXPECT_EQ(store.stats().boundReuse, 0u);
            EXPECT_EQ(store.stats().misses, 0u);
        }
    }
    // Every sparse rollover is reusable; the raw archive adds any
    // pair whose touched values happen to repeat.
    EXPECT_EQ(reusable - archivePairs, 3u * 104u * 103u);
}

} // namespace
} // namespace vaq::store
