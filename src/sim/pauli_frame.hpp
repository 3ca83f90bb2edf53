/**
 * @file
 * Stochastic Pauli-frame fast path for Monte-Carlo fault injection.
 *
 * A trajectory trial interleaves random Pauli injections with the
 * circuit's gates. When every gate is Clifford, the noisy state
 * never needs amplitudes: it stays P |psi_ideal> for some Pauli P,
 * and P — the *frame* — is tracked as two packed uint64 bitmasks
 * (X and Z components, bit q = qubit q). Conjugating the frame
 * through a Clifford gate is a couple of bit operations, so a trial
 * costs O(gates) instead of O(gates * 2^n), unlocking PST estimation
 * at Falcon-27 scale.
 *
 * The frame path agrees with the dense engine per trial at matched
 * seeds, not merely statistically:
 *  - both engines consume randomness through the same NoiseScript
 *    samplers, so the injected Paulis and their order are identical;
 *  - interleaved Pauli injections commute through the dense engine's
 *    float arithmetic exactly (Clifford matrices only permute,
 *    negate, multiply by +/-i and butterfly amplitudes; IEEE
 *    addition is commutative, negation exact, std::norm invariant
 *    under those phases), so the dense noisy probability vector is
 *    the ideal one XOR-permuted by the frame's X mask, bitwise;
 *  - the ideal state is a stabilizer state, whose support is an
 *    affine subspace offset ^ span(basis) of dimension k with
 *    uniform 2^-k outcome probabilities (StabilizerTableau). The
 *    dense sampler's subtraction walk over the shifted support picks
 *    its floor(r * 2^k)-th ascending element; the frame path picks
 *    the same element directly off the tableau, in O(k).
 * The two picks can differ only when the shot's uniform r lies
 * within float rounding of a multiple of 2^-k.
 *
 * Circuits containing non-Clifford gates fall back to the dense
 * trajectory shot (same NoiseScript, same stream), counted in
 * sim.frame.fallbacks.
 */
#ifndef VAQ_SIM_PAULI_FRAME_HPP
#define VAQ_SIM_PAULI_FRAME_HPP

#include <cstdint>
#include <string>
#include <vector>

#include "circuit/circuit.hpp"
#include "common/rng.hpp"
#include "sim/noise_model.hpp"
#include "sim/noise_script.hpp"
#include "sim/trajectory_sim.hpp"

namespace vaq::sim
{

/** True for gates the frame conjugates exactly: the Clifford
 *  unitaries I/X/Y/Z/H/S/Sdg/CX/CZ/SWAP plus the MEASURE/BARRIER
 *  pseudo-ops. */
bool isCliffordGate(circuit::GateKind kind);

/** Clifford / non-Clifford census of a circuit's unitary gates. */
struct FrameCounts
{
    std::size_t clifford = 0;
    std::size_t nonClifford = 0;
};

FrameCounts countCliffordGates(const circuit::Circuit &circuit);

/**
 * The Pauli frame: the accumulated error operator X^x Z^z (up to a
 * global phase, which never affects outcomes).
 */
struct PauliFrame
{
    std::uint64_t x = 0;
    std::uint64_t z = 0;

    /** Multiply an injected Pauli into the frame. */
    void
    inject(circuit::Qubit q, PauliKind pauli)
    {
        const std::uint64_t bit = 1ULL << q;
        if (pauli != PauliKind::Z)
            x ^= bit;
        if (pauli != PauliKind::X)
            z ^= bit;
    }
};

/** Frame conjugation alphabet. Pauli gates and I conjugate every
 *  Pauli to itself up to phase, hence None. */
enum class FrameOpKind : std::uint8_t
{
    None,
    H,
    S, ///< S and Sdg act identically on frames (phases differ only)
    CX,
    CZ,
    Swap,
};

/**
 * Precompiled Clifford gate stream in structure-of-arrays layout:
 * one entry per NoiseScript op (same indexing), operands as
 * single-bit masks.
 */
struct FrameStream
{
    std::vector<FrameOpKind> kind;
    std::vector<std::uint64_t> m0;
    std::vector<std::uint64_t> m1;

    std::size_t size() const { return kind.size(); }
};

/** Conjugate the frame through one Clifford gate: f -> G f G^dag. */
void conjugateFrame(PauliFrame &frame, FrameOpKind kind,
                    std::uint64_t m0, std::uint64_t m1);

/**
 * Affine support of a stabilizer state: the set
 * { offset ^ (c . basis) } with `basis` in reduced row-echelon form,
 * pivots strictly descending, and `offset` zero at every pivot. In
 * that normal form the numeric order of elements equals the
 * lexicographic order of coefficient words, so the m-th smallest
 * element is O(k) to index.
 */
struct AffineSupport
{
    std::uint64_t offset = 0;
    std::vector<std::uint64_t> basis;

    /** log2 of the support size. */
    std::size_t dimension() const { return basis.size(); }

    /** Membership test. */
    bool contains(std::uint64_t value) const;

    /** Canonical offset of the XOR-shifted coset (support ^ shift):
     *  same basis, new offset. */
    std::uint64_t shiftedOffset(std::uint64_t shift) const;

    /** m-th smallest element of (off ^ span(basis)) for a canonical
     *  `off`; m in [0, 2^k). */
    std::uint64_t elementAt(std::uint64_t m, std::uint64_t off) const;

    /** Projection onto the masked bits — itself an affine
     *  subspace. */
    AffineSupport masked(std::uint64_t mask) const;

    /** Normalize (offset, spanning vectors) into canonical form. */
    static AffineSupport fromVectors(
        std::uint64_t offset,
        const std::vector<std::uint64_t> &vectors);
};

/**
 * Aaronson-Gottesman stabilizer tableau over <= 64 qubits: n
 * generator rows, each a sign bit plus packed X/Z bitmasks. Yields
 * the exact ideal support every frame-path shot samples from.
 */
class StabilizerTableau
{
  public:
    /** Stabilizers of |0...0>: +Z_i. */
    explicit StabilizerTableau(int num_qubits);

    int numQubits() const { return _numQubits; }

    /** Conjugate the generators through one Clifford unitary
     *  (throws VaqError on non-Clifford gates). */
    void apply(const circuit::Gate &gate);

    /** Apply every unitary gate of a circuit. */
    void applyUnitaries(const circuit::Circuit &circuit);

    /** Exact support of the stabilized state. */
    AffineSupport support() const;

  private:
    struct Row
    {
        std::uint64_t x = 0;
        std::uint64_t z = 0;
        std::uint8_t r = 0; ///< sign exponent: (-1)^r
    };

    /** dst := src * dst (stabilizer elements commute, so the order
     *  is immaterial); Aaronson-Gottesman phase bookkeeping. */
    static void rowMult(Row &dst, const Row &src);

    int _numQubits;
    std::vector<Row> _rows;
};

/**
 * The per-trial engine. Construction classifies the circuit, builds
 * the frame stream and the ideal support from a stabilizer tableau;
 * each trial is then O(gates + k). The referenced circuit and model
 * must outlive the engine. runShot() is const and safe to call
 * concurrently with distinct Rng streams.
 */
class PauliFrameSim
{
  public:
    /** `trajectory` (shot count, seed, readout/crosstalk toggles)
     *  is shared with the dense engine so streams match. */
    PauliFrameSim(const circuit::Circuit &physical,
                  const NoiseModel &model,
                  const TrajectoryOptions &trajectory = {});

    /** True when trials run on the frame fast path. */
    bool framePath() const { return _framePath; }

    /** Why the engine fell back to dense trials ("" on the frame
     *  path). */
    const std::string &fallbackReason() const
    {
        return _fallbackReason;
    }

    const FrameCounts &gateCounts() const { return _counts; }

    std::uint64_t measuredMask() const
    {
        return _script.measuredMask;
    }

    /**
     * Exact full-register support of the ideal state (frame path
     * only; throws VaqError on the fallback path, where no tableau
     * exists).
     */
    const AffineSupport &idealSupport() const;

    /**
     * Run one trial off `rng`, returning the masked outcome. On the
     * frame path this consumes the RNG stream exactly as a dense
     * trajectory shot does; on the fallback path it *is* a dense
     * trajectory shot.
     */
    std::uint64_t runShot(Rng &rng) const;

    /** TrajectorySimulator-compatible histogram run:
     *  trajectory.shots trials from a fresh Rng(trajectory.seed). */
    ShotCounts run() const;

  private:
    std::uint64_t sampleIdeal(Rng &rng, std::uint64_t frameX) const;

    const circuit::Circuit &_physical;
    TrajectoryOptions _trajectory;
    NoiseScript _script;
    FrameCounts _counts;
    bool _framePath = false;
    std::string _fallbackReason;
    FrameStream _stream;
    AffineSupport _support;
};

} // namespace vaq::sim

#endif // VAQ_SIM_PAULI_FRAME_HPP
