/**
 * @file
 * Compile-artifact record tests: keys, bit-exact serialization
 * round-trips, the corruption-tolerance contract (any damage is a
 * miss, never a throw), touched-set extraction and the reuse rule
 * (the certified staleness bound of the stored profile).
 */
#include "store/artifact.hpp"

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <limits>

#include "analysis/staleness.hpp"
#include "circuit/qasm.hpp"
#include "core/mapper.hpp"
#include "store_test_support.hpp"

namespace vaq::store
{
namespace
{

/** One real compile to build artifacts from. */
struct Compiled
{
    topology::CouplingGraph graph = topology::linear(6);
    calibration::Snapshot snapshot = test::uniformSnapshot(graph);
    circuit::Circuit logical = test::storeTestCircuit(3);
    core::PolicySpec spec{.name = "vqa+vqm"};
    core::MappedCircuit mapped;

    Compiled()
        : mapped(core::makeMapper(spec).compile(logical, graph,
                                                snapshot))
    {
        // Distinct per-qubit values so dependency comparisons can
        // tell qubits apart.
        for (int q = 0; q < graph.numQubits(); ++q)
            snapshot.qubit(q).readoutError = 0.01 + 0.001 * q;
        mapped = core::makeMapper(spec).compile(logical, graph,
                                                snapshot);
    }

    ArtifactKey key() const
    {
        return makeArtifactKey(logical, graph, snapshot, spec);
    }

    CompileArtifact artifact(double pst = 0.875) const
    {
        return makeArtifact(mapped, pst, 1, 2, graph, snapshot);
    }
};

TEST(ArtifactKey, CoversAllFourAxes)
{
    const Compiled c;
    const ArtifactKey key = c.key();
    ArtifactKey other = key;
    EXPECT_EQ(key.combined(), other.combined());

    other.circuitHash ^= 1;
    EXPECT_NE(key.combined(), other.combined());
    other = key;
    other.snapshotHash ^= 1;
    EXPECT_NE(key.combined(), other.combined());
    // The snapshot axis is excluded from the delta-scan base.
    EXPECT_EQ(key.baseHash(), other.baseHash());
    other = key;
    other.topologyHash ^= 1;
    EXPECT_NE(key.combined(), other.combined());
    EXPECT_NE(key.baseHash(), other.baseHash());
    other = key;
    other.policyHash ^= 1;
    EXPECT_NE(key.combined(), other.combined());
    EXPECT_NE(key.baseHash(), other.baseHash());
}

TEST(ArtifactKey, PolicySpecHashSeparatesSpecs)
{
    const std::uint64_t base =
        policySpecHash({.name = "vqa+vqm"});
    EXPECT_NE(base, policySpecHash({.name = "vqm"}));
    EXPECT_NE(base, policySpecHash({.name = "vqa+vqm", .mah = 4}));
    EXPECT_NE(base, policySpecHash({.name = "vqa+vqm", .seed = 1}));
    EXPECT_EQ(base, policySpecHash({.name = "vqa+vqm"}));
}

TEST(Artifact, RoundTripsBitExactly)
{
    const Compiled c;
    // Exercise doubles QASM-style decimal formatting would mangle:
    // a PST with no short decimal form plus signed-zero params.
    CompileArtifact artifact = c.artifact(0.1 + 0.2);
    const ArtifactKey key = c.key();

    const std::string text = serializeArtifact(key, artifact);
    const auto parsed = parseArtifact(text);
    ASSERT_TRUE(parsed.has_value());
    EXPECT_EQ(parsed->first, key);

    const CompileArtifact &back = parsed->second;
    EXPECT_EQ(back.numProgQubits, artifact.numProgQubits);
    EXPECT_EQ(back.numPhysQubits, artifact.numPhysQubits);
    EXPECT_EQ(back.physical, artifact.physical);
    EXPECT_EQ(back.initialLayout, artifact.initialLayout);
    EXPECT_EQ(back.finalLayout, artifact.finalLayout);
    EXPECT_EQ(back.insertedSwaps, artifact.insertedSwaps);
    EXPECT_EQ(back.policyUsed, artifact.policyUsed);
    EXPECT_EQ(std::bit_cast<std::uint64_t>(back.analyticPst),
              std::bit_cast<std::uint64_t>(artifact.analyticPst));
    EXPECT_EQ(back.mappedLintErrors, 1u);
    EXPECT_EQ(back.mappedLintWarnings, 2u);
    // The profile round-trips: every recorded field re-serializes
    // to the same bytes, and the derived ones rebuild bit-exactly.
    EXPECT_EQ(serializeArtifact(key, back), text);
    EXPECT_EQ(back.profile.opCount, artifact.profile.opCount);
    EXPECT_EQ(std::bit_cast<std::uint64_t>(back.profile.logPst),
              std::bit_cast<std::uint64_t>(artifact.profile.logPst));

    // And the reconstructed MappedCircuit matches the original.
    const core::MappedCircuit rebuilt = toMapped(back);
    EXPECT_EQ(circuit::toQasm(rebuilt.physical),
              circuit::toQasm(c.mapped.physical));
    EXPECT_EQ(rebuilt.initial, c.mapped.initial);
    EXPECT_EQ(rebuilt.final, c.mapped.final);
    EXPECT_EQ(rebuilt.insertedSwaps, c.mapped.insertedSwaps);
    EXPECT_EQ(rebuilt.policyName, c.mapped.policyName);
}

TEST(Artifact, ParameterizedAnglesSurviveExactly)
{
    // formatDouble(x, 12) in the QASM writer is lossy; the record
    // format must not be. Use an angle with a long binary tail.
    const double angle = std::nextafter(0.1234567890123456, 1.0);
    Compiled c;
    circuit::Circuit withAngle(c.mapped.physical.numQubits());
    withAngle.rz(0, angle);
    withAngle.measure(0);
    core::MappedCircuit mapped(1, c.mapped.physical.numQubits());
    mapped.physical = withAngle;
    mapped.initial.assign(0, 0);
    mapped.final.assign(0, 0);
    const CompileArtifact artifact =
        makeArtifact(mapped, 0.0, 0, 0, c.graph, c.snapshot);
    const auto parsed =
        parseArtifact(serializeArtifact(c.key(), artifact));
    ASSERT_TRUE(parsed.has_value());
    const double back = parsed->second.physical.gates()[0].param;
    EXPECT_EQ(std::bit_cast<std::uint64_t>(back),
              std::bit_cast<std::uint64_t>(angle));
}

TEST(Artifact, TruncationIsAMissAtEveryLength)
{
    const Compiled c;
    const std::string text =
        serializeArtifact(c.key(), c.artifact());
    for (std::size_t len = 0; len < text.size();
         len += std::max<std::size_t>(1, text.size() / 97)) {
        const auto parsed = parseArtifact(text.substr(0, len));
        EXPECT_FALSE(parsed.has_value())
            << "truncated to " << len << " of " << text.size();
    }
    EXPECT_TRUE(parseArtifact(text).has_value());
}

TEST(Artifact, ByteCorruptionNeverThrowsAndNeverLies)
{
    const Compiled c;
    const CompileArtifact original = c.artifact();
    const std::string text = serializeArtifact(c.key(), original);
    for (std::size_t i = 0; i < text.size(); ++i) {
        std::string damaged = text;
        damaged[i] ^= 0x01;
        // Contract: a damaged record may only ever degrade to a
        // miss — or, if the damage is semantically invisible
        // (e.g. a whitespace byte), parse to the identical record.
        const auto parsed = parseArtifact(damaged);
        if (parsed.has_value()) {
            EXPECT_EQ(parsed->first, c.key()) << "byte " << i;
            EXPECT_EQ(parsed->second.physical, original.physical)
                << "byte " << i;
        }
    }
}

TEST(Artifact, GarbageInputsAreMisses)
{
    EXPECT_FALSE(parseArtifact("").has_value());
    EXPECT_FALSE(parseArtifact("not a record").has_value());
    EXPECT_FALSE(parseArtifact("vaqart 1\n").has_value());
    EXPECT_FALSE(
        parseArtifact(std::string(4096, '\xff')).has_value());
}

TEST(Artifact, VersionSkewIsAMiss)
{
    // A future-version record must load as a miss, not a crash. The
    // damaged version also breaks the checksum, so additionally
    // verify against a record whose checksum is recomputed: bump
    // the version digit and re-serialize through the public API by
    // checking the constant is what the format writes.
    const Compiled c;
    std::string text = serializeArtifact(c.key(), c.artifact());
    ASSERT_EQ(text.rfind("vaqart 3\n", 0), 0u);
    text[7] = '9';
    EXPECT_FALSE(parseArtifact(text).has_value());
}

TEST(Artifact, TouchedSetsComeFromTheMappedCircuit)
{
    const Compiled c;
    const CompileArtifact artifact = c.artifact();
    // Every touched qubit/link is actually used by the physical
    // circuit, and the 3-qubit program cannot touch all 6 machine
    // qubits without swaps landing everywhere.
    ASSERT_FALSE(artifact.profile.qubits.empty());
    ASSERT_FALSE(artifact.profile.links.empty());
    for (const analysis::QubitSensitivity &q :
         artifact.profile.qubits) {
        bool used = false;
        for (const circuit::Gate &g : c.mapped.physical.gates())
            used = used || g.touches(q.qubit);
        EXPECT_TRUE(used) << "qubit " << q.qubit;
    }
}

/** Touched qubits / links of an artifact's profile. */
std::vector<int>
touchedQubits(const CompileArtifact &artifact)
{
    std::vector<int> qubits;
    for (const analysis::QubitSensitivity &q : artifact.profile.qubits)
        qubits.push_back(q.qubit);
    return qubits;
}

std::vector<std::size_t>
touchedLinks(const CompileArtifact &artifact)
{
    std::vector<std::size_t> links;
    for (const analysis::LinkSensitivity &l : artifact.profile.links)
        links.push_back(l.link);
    return links;
}

TEST(Artifact, ReuseTracksOnlyTouchedHardware)
{
    const Compiled c;
    const CompileArtifact artifact = c.artifact();
    const auto parsed =
        parseArtifact(serializeArtifact(c.key(), artifact));
    ASSERT_TRUE(parsed.has_value());
    // Reusable at tolerance 0: the certified bound of the profile
    // read back from the record is exactly 0.
    const auto reusable = [&](const calibration::Snapshot &snap) {
        return analysis::assessStaleness(parsed->second.profile, snap)
            .within(0.0);
    };
    const std::vector<int> qubits = touchedQubits(artifact);
    const std::vector<std::size_t> links = touchedLinks(artifact);
    EXPECT_TRUE(reusable(c.snapshot));

    // Find an untouched qubit (linear(6) with a 3-qubit program
    // always leaves some) and drift it: still reusable.
    int untouched = -1;
    for (int q = 0; q < c.graph.numQubits(); ++q) {
        if (std::find(qubits.begin(), qubits.end(), q) ==
            qubits.end())
            untouched = q;
    }
    ASSERT_GE(untouched, 0);
    calibration::Snapshot drifted = c.snapshot;
    drifted.qubit(untouched).t1Us *= 0.5;
    drifted.qubit(untouched).readoutError = 0.25;
    EXPECT_TRUE(reusable(drifted));

    // Drift a touched qubit: not reusable.
    calibration::Snapshot touched = c.snapshot;
    touched.qubit(qubits.front()).readoutError = 0.25;
    EXPECT_FALSE(reusable(touched));

    // Drift a touched link: not reusable.
    calibration::Snapshot link = c.snapshot;
    link.setLinkError(links.front(), 0.2);
    EXPECT_FALSE(reusable(link));

    // An untouched link may drift freely.
    std::size_t freeLink = c.graph.linkCount();
    for (std::size_t l = 0; l < c.graph.linkCount(); ++l) {
        if (std::find(links.begin(), links.end(), l) == links.end())
            freeLink = l;
    }
    if (freeLink < c.graph.linkCount()) {
        calibration::Snapshot other = c.snapshot;
        other.setLinkError(freeLink, 0.3);
        EXPECT_TRUE(reusable(other));
    }

    // Gate durations are dependencies too (coherence model).
    calibration::Snapshot slower = c.snapshot;
    slower.durations.twoQubitNs *= 2.0;
    EXPECT_FALSE(reusable(slower));

    // Signed-zero drift is no drift at all.
    calibration::Snapshot zero = c.snapshot;
    zero.setLinkError(links.front(), 0.0);
    CompileArtifact zeroArtifact = artifact;
    zeroArtifact.profile.links.front().error2q = -0.0;
    EXPECT_TRUE(analysis::assessStaleness(zeroArtifact.profile, zero)
                    .within(0.0));
}

TEST(Artifact, StalenessAssessmentFromSerializedProfile)
{
    const Compiled c;
    const CompileArtifact artifact = c.artifact();
    const auto parsed =
        parseArtifact(serializeArtifact(c.key(), artifact));
    ASSERT_TRUE(parsed.has_value());
    const analysis::SensitivityProfile &stored =
        parsed->second.profile;

    // Unchanged snapshot: bound exactly 0.
    {
        const auto assess =
            analysis::assessStaleness(stored, c.snapshot);
        EXPECT_TRUE(assess.certifiable);
        EXPECT_EQ(assess.bound(), 0.0);
    }

    // T2-only recalibration: provably harmless, bound exactly 0 —
    // where the touched-set predicate already gives up.
    {
        calibration::Snapshot t2 = c.snapshot;
        for (int q = 0; q < c.graph.numQubits(); ++q)
            t2.qubit(q).t2Us *= 0.5;
        EXPECT_FALSE(
            test::touchedSetReusable(stored, c.snapshot, t2));
        const auto assess = analysis::assessStaleness(stored, t2);
        EXPECT_TRUE(assess.certifiable);
        EXPECT_EQ(assess.bound(), 0.0);
    }

    // A small touched-parameter drift: finite bound containing the
    // exact shift, and the round-tripped profile assesses to the
    // same certificate bit-for-bit as the in-memory one.
    {
        calibration::Snapshot drifted = c.snapshot;
        drifted.qubit(touchedQubits(artifact).front())
            .readoutError += 1e-5;
        const auto assess =
            analysis::assessStaleness(artifact.profile, drifted);
        EXPECT_TRUE(assess.certifiable);
        EXPECT_TRUE(assess.anyDelta);
        EXPECT_GT(assess.bound(), 0.0);
        EXPECT_LE(std::abs(assess.deltaLogPst), assess.bound());

        const auto reassessed =
            analysis::assessStaleness(stored, drifted);
        EXPECT_EQ(reassessed.bound(), assess.bound());
        EXPECT_EQ(reassessed.deltaLogPst, assess.deltaLogPst);
    }

    // Duration drift voids the certificate.
    {
        calibration::Snapshot slower = c.snapshot;
        slower.durations.measureNs += 10.0;
        EXPECT_FALSE(
            analysis::assessStaleness(stored, slower).certifiable);
    }

    // A profile naming hardware the snapshot does not have (a
    // record from another machine shape) is never certified.
    {
        CompileArtifact bad = parsed->second;
        bad.profile.qubits.back().qubit = c.graph.numQubits();
        EXPECT_FALSE(analysis::assessStaleness(bad.profile,
                                               c.snapshot)
                         .certifiable);
    }
}

} // namespace
} // namespace vaq::store
