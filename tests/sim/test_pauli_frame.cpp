/**
 * @file
 * Property and metamorphic tests of the Pauli-frame machinery:
 * per-gate conjugation tables checked both symbolically and against
 * the dense simulator, frame-algebra identities (SWAP = 3 CX,
 * involutions), the affine-support normal form, and the stabilizer
 * tableau's support cross-checked against exact dense amplitudes.
 */
#include "sim/pauli_frame.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "clifford_corpus.hpp"
#include "common/error.hpp"
#include "common/rng.hpp"
#include "sim/noise_model.hpp"
#include "sim/statevector.hpp"
#include "test_support.hpp"
#include "topology/layouts.hpp"
#include "workloads/workloads.hpp"

namespace vaq::sim
{

/** Equality at vaq::sim scope so gtest's EXPECT_EQ finds it via
 *  argument-dependent lookup. */
static bool
operator==(const PauliFrame &a, const PauliFrame &b)
{
    return a.x == b.x && a.z == b.z;
}

namespace
{

using circuit::Circuit;

PauliFrame
conj(PauliFrame frame, FrameOpKind kind, std::uint64_t m0,
     std::uint64_t m1 = 0)
{
    conjugateFrame(frame, kind, m0, m1);
    return frame;
}

PauliFrame
frameOf(std::uint64_t x, std::uint64_t z)
{
    PauliFrame f;
    f.x = x;
    f.z = z;
    return f;
}

TEST(FrameConjugation, HadamardSwapsXAndZ)
{
    // H X H = Z, H Z H = X, H Y H = -Y (phase dropped).
    EXPECT_EQ(conj(frameOf(1, 0), FrameOpKind::H, 1),
              frameOf(0, 1));
    EXPECT_EQ(conj(frameOf(0, 1), FrameOpKind::H, 1),
              frameOf(1, 0));
    EXPECT_EQ(conj(frameOf(1, 1), FrameOpKind::H, 1),
              frameOf(1, 1));
    // Other qubits untouched.
    EXPECT_EQ(conj(frameOf(0b10, 0b00), FrameOpKind::H, 1),
              frameOf(0b10, 0b00));
}

TEST(FrameConjugation, PhaseGateCyclesXAndY)
{
    // S X Sdg = Y, S Y Sdg = -X, S Z Sdg = Z.
    EXPECT_EQ(conj(frameOf(1, 0), FrameOpKind::S, 1),
              frameOf(1, 1));
    EXPECT_EQ(conj(frameOf(1, 1), FrameOpKind::S, 1),
              frameOf(1, 0));
    EXPECT_EQ(conj(frameOf(0, 1), FrameOpKind::S, 1),
              frameOf(0, 1));
}

TEST(FrameConjugation, CxPropagatesXForwardZBackward)
{
    const std::uint64_t c = 0b01; // control mask
    const std::uint64_t t = 0b10; // target mask
    // X_c -> X_c X_t ; X_t -> X_t ; Z_t -> Z_c Z_t ; Z_c -> Z_c.
    EXPECT_EQ(conj(frameOf(c, 0), FrameOpKind::CX, c, t),
              frameOf(c | t, 0));
    EXPECT_EQ(conj(frameOf(t, 0), FrameOpKind::CX, c, t),
              frameOf(t, 0));
    EXPECT_EQ(conj(frameOf(0, t), FrameOpKind::CX, c, t),
              frameOf(0, c | t));
    EXPECT_EQ(conj(frameOf(0, c), FrameOpKind::CX, c, t),
              frameOf(0, c));
}

TEST(FrameConjugation, CzDressesXWithSpectatorZ)
{
    const std::uint64_t a = 0b01;
    const std::uint64_t b = 0b10;
    // X_a -> X_a Z_b ; X_b -> Z_a X_b ; Z's commute through.
    EXPECT_EQ(conj(frameOf(a, 0), FrameOpKind::CZ, a, b),
              frameOf(a, b));
    EXPECT_EQ(conj(frameOf(b, 0), FrameOpKind::CZ, a, b),
              frameOf(b, a));
    EXPECT_EQ(conj(frameOf(0, a | b), FrameOpKind::CZ, a, b),
              frameOf(0, a | b));
}

TEST(FrameConjugation, SwapExchangesOperandBits)
{
    const std::uint64_t a = 0b001;
    const std::uint64_t b = 0b100;
    EXPECT_EQ(conj(frameOf(a, b), FrameOpKind::Swap, a, b),
              frameOf(b, a));
    // Spectator bit (qubit 1) stays put.
    EXPECT_EQ(
        conj(frameOf(a | 0b010, 0), FrameOpKind::Swap, a, b),
        frameOf(b | 0b010, 0));
}

TEST(FrameConjugation, CliffordInvolutionsFixEveryFrame)
{
    // H, CX, CZ, SWAP are involutions; S squares to Z, which acts
    // trivially on frames — so two applications of any alphabet
    // entry must restore every two-qubit frame.
    Rng rng(7);
    for (int trial = 0; trial < 200; ++trial) {
        const PauliFrame f =
            frameOf(rng.uniformInt(std::uint64_t{4}),
                    rng.uniformInt(std::uint64_t{4}));
        for (const FrameOpKind kind :
             {FrameOpKind::H, FrameOpKind::S, FrameOpKind::CX,
              FrameOpKind::CZ, FrameOpKind::Swap}) {
            PauliFrame twice = f;
            conjugateFrame(twice, kind, 0b01, 0b10);
            conjugateFrame(twice, kind, 0b01, 0b10);
            EXPECT_EQ(twice, f);
        }
    }
}

TEST(FrameConjugation, SwapEqualsThreeCx)
{
    Rng rng(11);
    for (int trial = 0; trial < 200; ++trial) {
        const PauliFrame f =
            frameOf(rng.uniformInt(std::uint64_t{8}),
                    rng.uniformInt(std::uint64_t{8}));
        PauliFrame viaSwap = f;
        conjugateFrame(viaSwap, FrameOpKind::Swap, 0b001, 0b100);
        PauliFrame viaCx = f;
        conjugateFrame(viaCx, FrameOpKind::CX, 0b001, 0b100);
        conjugateFrame(viaCx, FrameOpKind::CX, 0b100, 0b001);
        conjugateFrame(viaCx, FrameOpKind::CX, 0b001, 0b100);
        EXPECT_EQ(viaSwap, viaCx);
    }
}

/** Apply the frame's Pauli word X^x Z^z as dense gates (any global
 *  phase is invisible to fidelity). */
void
applyFrameDense(StateVector &state, const PauliFrame &frame)
{
    Circuit pauli(state.numQubits());
    for (int q = 0; q < state.numQubits(); ++q) {
        const std::uint64_t bit = 1ULL << q;
        if (frame.x & bit)
            pauli.x(static_cast<circuit::Qubit>(q));
        if (frame.z & bit)
            pauli.z(static_cast<circuit::Qubit>(q));
    }
    state.applyUnitaries(pauli);
}

/**
 * The defining identity of conjugation, checked against the dense
 * simulator on a generic (non-stabilizer) state: for every gate G of
 * the frame alphabet and every two-qubit Pauli P,
 * G P |psi> = phase * P' G |psi> with P' = conjugateFrame(P).
 */
TEST(FrameConjugation, MatchesDenseConjugationOnGenericState)
{
    struct AlphabetGate
    {
        Circuit circuit;
        FrameOpKind kind;
    };
    const int n = 3;
    std::vector<AlphabetGate> alphabet;
    {
        Circuit h(n), s(n), sdg(n), cx(n), cz(n), sw(n);
        h.h(0);
        s.s(0);
        sdg.sdg(0);
        cx.cx(0, 1);
        cz.cz(0, 1);
        sw.swap(0, 1);
        alphabet.push_back({h, FrameOpKind::H});
        alphabet.push_back({s, FrameOpKind::S});
        alphabet.push_back({sdg, FrameOpKind::S});
        alphabet.push_back({cx, FrameOpKind::CX});
        alphabet.push_back({cz, FrameOpKind::CZ});
        alphabet.push_back({sw, FrameOpKind::Swap});
    }

    // Generic prep: includes T and RZ gates, so the identity is
    // exercised on a state with no stabilizer structure.
    Rng prepRng(23);
    const Circuit prep = test::randomCircuit(n, 40, prepRng);

    for (const AlphabetGate &g : alphabet) {
        for (std::uint64_t x = 0; x < 4; ++x) {
            for (std::uint64_t z = 0; z < 4; ++z) {
                const PauliFrame f = frameOf(x, z);

                StateVector lhs(n);
                lhs.applyUnitaries(prep);
                applyFrameDense(lhs, f);
                lhs.applyUnitaries(g.circuit);

                StateVector rhs(n);
                rhs.applyUnitaries(prep);
                rhs.applyUnitaries(g.circuit);
                applyFrameDense(rhs, conj(f, g.kind, 0b01, 0b10));

                EXPECT_NEAR(lhs.fidelity(rhs), 1.0, 1e-9)
                    << "kind=" << static_cast<int>(g.kind)
                    << " x=" << x << " z=" << z;
            }
        }
    }
}

TEST(FrameCensus, ClassifiesGateKinds)
{
    EXPECT_TRUE(isCliffordGate(circuit::GateKind::H));
    EXPECT_TRUE(isCliffordGate(circuit::GateKind::S));
    EXPECT_TRUE(isCliffordGate(circuit::GateKind::Sdg));
    EXPECT_TRUE(isCliffordGate(circuit::GateKind::CX));
    EXPECT_TRUE(isCliffordGate(circuit::GateKind::CZ));
    EXPECT_TRUE(isCliffordGate(circuit::GateKind::SWAP));
    EXPECT_TRUE(isCliffordGate(circuit::GateKind::MEASURE));
    EXPECT_TRUE(isCliffordGate(circuit::GateKind::BARRIER));
    EXPECT_FALSE(isCliffordGate(circuit::GateKind::T));
    EXPECT_FALSE(isCliffordGate(circuit::GateKind::Tdg));
    EXPECT_FALSE(isCliffordGate(circuit::GateKind::RZ));
    EXPECT_FALSE(isCliffordGate(circuit::GateKind::U3));

    Circuit c(2);
    c.h(0).cx(0, 1).t(1).rz(0, 0.5).swap(0, 1).measureAll();
    const FrameCounts counts = countCliffordGates(c);
    EXPECT_EQ(counts.clifford, 3u);
    EXPECT_EQ(counts.nonClifford, 2u);
}

TEST(AffineSupportTest, NormalFormAndMembership)
{
    // offset 0b111 + span{0b110, 0b011}: 4 elements
    // {111, 001, 100, 010}.
    const AffineSupport s = AffineSupport::fromVectors(
        0b111, {0b110, 0b011});
    EXPECT_EQ(s.dimension(), 2u);
    for (const std::uint64_t e : {0b111u, 0b001u, 0b100u, 0b010u})
        EXPECT_TRUE(s.contains(e)) << e;
    for (const std::uint64_t e : {0b000u, 0b011u, 0b101u, 0b110u})
        EXPECT_FALSE(s.contains(e)) << e;
    // Canonical offset is zero at every pivot, so it is the smallest
    // element of the coset.
    EXPECT_EQ(s.elementAt(0, s.offset), 0b001u);
}

TEST(AffineSupportTest, ElementAtEnumeratesAscending)
{
    Rng rng(31);
    for (int trial = 0; trial < 50; ++trial) {
        std::vector<std::uint64_t> vectors;
        const int count =
            1 + static_cast<int>(rng.uniformInt(std::uint64_t{5}));
        for (int i = 0; i < count; ++i)
            vectors.push_back(
                rng.uniformInt(std::uint64_t{1} << 12));
        const std::uint64_t offset =
            rng.uniformInt(std::uint64_t{1} << 12);
        const AffineSupport s =
            AffineSupport::fromVectors(offset, vectors);

        const std::uint64_t size = 1ULL << s.dimension();
        std::uint64_t previous = 0;
        for (std::uint64_t m = 0; m < size; ++m) {
            const std::uint64_t e = s.elementAt(m, s.offset);
            EXPECT_TRUE(s.contains(e));
            EXPECT_TRUE(s.contains(e ^ 0)); // exercise const path
            if (m > 0) {
                EXPECT_LT(previous, e)
                    << "elementAt must walk ascending";
            }
            previous = e;
        }
        // The original offset is a member of its own coset.
        EXPECT_TRUE(s.contains(offset));
    }
}

TEST(AffineSupportTest, ShiftedCosetEnumeratesShiftedElements)
{
    Rng rng(37);
    for (int trial = 0; trial < 50; ++trial) {
        const AffineSupport s = AffineSupport::fromVectors(
            rng.uniformInt(std::uint64_t{1} << 10),
            {rng.uniformInt(std::uint64_t{1} << 10),
             rng.uniformInt(std::uint64_t{1} << 10),
             rng.uniformInt(std::uint64_t{1} << 10)});
        const std::uint64_t shift =
            rng.uniformInt(std::uint64_t{1} << 10);
        const std::uint64_t off = s.shiftedOffset(shift);

        // {elementAt(m, off)} must equal {e ^ shift : e in s}.
        const std::uint64_t size = 1ULL << s.dimension();
        for (std::uint64_t m = 0; m < size; ++m)
            EXPECT_TRUE(s.contains(s.elementAt(m, off) ^ shift));
    }
}

TEST(AffineSupportTest, MaskedProjectionIsExact)
{
    Rng rng(41);
    for (int trial = 0; trial < 50; ++trial) {
        const AffineSupport s = AffineSupport::fromVectors(
            rng.uniformInt(std::uint64_t{1} << 8),
            {rng.uniformInt(std::uint64_t{1} << 8),
             rng.uniformInt(std::uint64_t{1} << 8),
             rng.uniformInt(std::uint64_t{1} << 8)});
        const std::uint64_t mask =
            rng.uniformInt(std::uint64_t{1} << 8);
        const AffineSupport projected = s.masked(mask);

        // Forward: every masked element projects into the image.
        for (std::uint64_t m = 0; m < (1ULL << s.dimension()); ++m)
            EXPECT_TRUE(projected.contains(
                s.elementAt(m, s.offset) & mask));
        // Backward: the image is no bigger than the masked set.
        std::vector<std::uint64_t> image;
        for (std::uint64_t m = 0; m < (1ULL << s.dimension()); ++m)
            image.push_back(s.elementAt(m, s.offset) & mask);
        std::sort(image.begin(), image.end());
        image.erase(std::unique(image.begin(), image.end()),
                    image.end());
        EXPECT_EQ(image.size(), 1ULL << projected.dimension());
    }
}

TEST(StabilizerTableauTest, KnownStateSupports)
{
    {
        // GHZ-4: support {0000, 1111}.
        Circuit c(4);
        c.h(0).cx(0, 1).cx(1, 2).cx(2, 3);
        StabilizerTableau tab(4);
        tab.applyUnitaries(c);
        const AffineSupport s = tab.support();
        EXPECT_EQ(s.dimension(), 1u);
        EXPECT_TRUE(s.contains(0b0000));
        EXPECT_TRUE(s.contains(0b1111));
        EXPECT_FALSE(s.contains(0b0001));
    }
    {
        // X then CX: the deterministic |11> state.
        Circuit c(2);
        c.x(0).cx(0, 1);
        StabilizerTableau tab(2);
        tab.applyUnitaries(c);
        const AffineSupport s = tab.support();
        EXPECT_EQ(s.dimension(), 0u);
        EXPECT_TRUE(s.contains(0b11));
        EXPECT_FALSE(s.contains(0b00));
    }
    {
        // S and Z change phases only: |+>|1> support unchanged.
        Circuit c(2);
        c.h(0).s(0).z(0).x(1).sdg(1);
        StabilizerTableau tab(2);
        tab.applyUnitaries(c);
        const AffineSupport s = tab.support();
        EXPECT_EQ(s.dimension(), 1u);
        EXPECT_TRUE(s.contains(0b10));
        EXPECT_TRUE(s.contains(0b11));
    }
}

TEST(StabilizerTableauTest, RejectsNonCliffordGates)
{
    StabilizerTableau tab(2);
    Circuit c(2);
    c.t(0);
    EXPECT_THROW(tab.applyUnitaries(c), VaqError);
}

/**
 * The tableau support must match exact dense amplitudes on random
 * Clifford circuits: a basis state has non-negligible probability
 * iff it lies in the affine support, and every support element
 * carries the uniform weight 2^-k.
 */
TEST(StabilizerTableauTest, SupportMatchesDenseOnRandomCorpus)
{
    const std::vector<topology::CouplingGraph> machines = {
        topology::ibmQ5Tenerife(), topology::grid(3, 4)};
    for (const auto &graph : machines) {
        for (std::uint64_t seed = 1; seed <= 6; ++seed) {
            Rng rng(seed);
            const Circuit c =
                test::randomCliffordCircuit(graph, 60, rng);

            StabilizerTableau tab(graph.numQubits());
            tab.applyUnitaries(c);
            const AffineSupport support = tab.support();

            StateVector state(graph.numQubits());
            state.applyUnitaries(c);
            const double uniform =
                1.0 / static_cast<double>(
                          1ULL << support.dimension());
            for (std::uint64_t b = 0; b < state.dimension(); ++b) {
                const double p = state.probability(b);
                if (support.contains(b))
                    EXPECT_NEAR(p, uniform, 1e-9)
                        << "seed=" << seed << " basis=" << b;
                else
                    EXPECT_LT(p, 1e-9)
                        << "seed=" << seed << " basis=" << b;
            }
        }
    }
}

TEST(PauliFrameSimTest, NonCliffordCircuitFallsBack)
{
    const auto graph = topology::ibmQ5Tenerife();
    const auto snap = test::uniformSnapshot(graph);
    const NoiseModel model(graph, snap);
    Circuit c(5);
    c.h(0).t(0).cx(0, 1).measureAll();
    const PauliFrameSim sim(c, model);
    EXPECT_FALSE(sim.framePath());
    EXPECT_NE(sim.fallbackReason().find("non-Clifford"),
              std::string::npos);
    EXPECT_EQ(sim.gateCounts().nonClifford, 1u);
    EXPECT_THROW(sim.idealSupport(), VaqError);
    // Fallback trials still run (dense path).
    Rng rng(5);
    const std::uint64_t outcome = sim.runShot(rng);
    EXPECT_EQ(outcome & ~sim.measuredMask(), 0u);
}

TEST(PauliFrameSimTest, NoiselessFrameTrialsStayInIdealSupport)
{
    const auto graph = topology::ibmQ5Tenerife();
    // Zero error rates: the frame must stay the identity, so every
    // outcome is an ideal-support element.
    const auto perfect =
        test::uniformSnapshot(graph, 0.0, 0.0, 0.0);
    const NoiseModel model(graph, perfect, CoherenceMode::None);
    Circuit c(5);
    c.h(0).cx(0, 1).cx(1, 2).swap(2, 3).cx(3, 4).measureAll();
    const PauliFrameSim sim(c, model);
    ASSERT_TRUE(sim.framePath());
    const AffineSupport masked =
        sim.idealSupport().masked(sim.measuredMask());
    Rng rng(17);
    for (int trial = 0; trial < 500; ++trial)
        EXPECT_TRUE(masked.contains(sim.runShot(rng)));
}

TEST(PauliFrameSimTest, RunMatchesShotCountAndMask)
{
    const auto graph = topology::ibmQ5Tenerife();
    const auto snap = test::uniformSnapshot(graph);
    const NoiseModel model(graph, snap);
    const Circuit c = [] {
        Circuit b(5);
        b.h(0).cx(0, 1).cx(1, 2).measureAll();
        return b;
    }();
    TrajectoryOptions trajectory;
    trajectory.shots = 2000;
    const PauliFrameSim sim(c, model, trajectory);
    const ShotCounts counts = sim.run();
    EXPECT_EQ(counts.shots, 2000u);
    EXPECT_EQ(counts.measuredMask, sim.measuredMask());
    std::size_t total = 0;
    for (const auto &[outcome, count] : counts.counts) {
        EXPECT_EQ(outcome & ~counts.measuredMask, 0u);
        total += count;
    }
    EXPECT_EQ(total, counts.shots);
}

} // namespace
} // namespace vaq::sim
