#include "sim/pauli_frame.hpp"

#include <algorithm>
#include <bit>
#include <cmath>

#include "common/error.hpp"
#include "obs/metrics.hpp"
#include "sim/fault_sim.hpp"

namespace vaq::sim
{

using circuit::Circuit;
using circuit::Gate;
using circuit::GateKind;
using circuit::Qubit;

bool
isCliffordGate(GateKind kind)
{
    switch (kind) {
      case GateKind::I:
      case GateKind::X:
      case GateKind::Y:
      case GateKind::Z:
      case GateKind::H:
      case GateKind::S:
      case GateKind::Sdg:
      case GateKind::CX:
      case GateKind::CZ:
      case GateKind::SWAP:
      case GateKind::MEASURE:
      case GateKind::BARRIER:
        return true;
      case GateKind::T:
      case GateKind::Tdg:
      case GateKind::RX:
      case GateKind::RY:
      case GateKind::RZ:
      case GateKind::U3:
        return false;
    }
    VAQ_ASSERT(false, "unhandled gate kind");
    return false;
}

FrameCounts
countCliffordGates(const Circuit &circuit)
{
    FrameCounts counts;
    for (const Gate &g : circuit.gates()) {
        if (g.kind == GateKind::MEASURE ||
            g.kind == GateKind::BARRIER) {
            continue;
        }
        if (isCliffordGate(g.kind))
            ++counts.clifford;
        else
            ++counts.nonClifford;
    }
    return counts;
}

void
conjugateFrame(PauliFrame &frame, FrameOpKind kind, std::uint64_t m0,
               std::uint64_t m1)
{
    switch (kind) {
      case FrameOpKind::None:
        return;
      case FrameOpKind::H: {
        // H swaps the X and Z components on the operand.
        const bool xb = frame.x & m0;
        const bool zb = frame.z & m0;
        if (xb != zb) {
            frame.x ^= m0;
            frame.z ^= m0;
        }
        return;
      }
      case FrameOpKind::S:
        // S X S^dag = Y (and Sdg X S = -Y): an X component grows a
        // Z component; Z components pass through.
        if (frame.x & m0)
            frame.z ^= m0;
        return;
      case FrameOpKind::CX:
        // X on the control copies onto the target; Z on the target
        // copies onto the control.
        if (frame.x & m0)
            frame.x ^= m1;
        if (frame.z & m1)
            frame.z ^= m0;
        return;
      case FrameOpKind::CZ:
        // X on either operand grows a Z on the other.
        if (frame.x & m0)
            frame.z ^= m1;
        if (frame.x & m1)
            frame.z ^= m0;
        return;
      case FrameOpKind::Swap: {
        const bool xa = frame.x & m0;
        const bool xb = frame.x & m1;
        if (xa != xb)
            frame.x ^= m0 | m1;
        const bool za = frame.z & m0;
        const bool zb = frame.z & m1;
        if (za != zb)
            frame.z ^= m0 | m1;
        return;
      }
    }
    VAQ_ASSERT(false, "unhandled frame op");
}

bool
AffineSupport::contains(std::uint64_t value) const
{
    std::uint64_t t = value ^ offset;
    for (std::uint64_t v : basis) {
        const int p = std::bit_width(v) - 1;
        if ((t >> p) & 1)
            t ^= v;
    }
    return t == 0;
}

std::uint64_t
AffineSupport::shiftedOffset(std::uint64_t shift) const
{
    std::uint64_t off = offset ^ shift;
    for (std::uint64_t v : basis) {
        const int p = std::bit_width(v) - 1;
        if ((off >> p) & 1)
            off ^= v;
    }
    return off;
}

std::uint64_t
AffineSupport::elementAt(std::uint64_t m, std::uint64_t off) const
{
    // Pivots descend, so coefficient word order == numeric order:
    // bit (k-1-j) of m selects basis[j].
    const std::size_t k = basis.size();
    std::uint64_t element = off;
    for (std::size_t j = 0; j < k; ++j) {
        if ((m >> (k - 1 - j)) & 1)
            element ^= basis[j];
    }
    return element;
}

AffineSupport
AffineSupport::masked(std::uint64_t mask) const
{
    std::vector<std::uint64_t> vectors;
    vectors.reserve(basis.size());
    for (std::uint64_t v : basis)
        vectors.push_back(v & mask);
    return fromVectors(offset & mask, vectors);
}

AffineSupport
AffineSupport::fromVectors(std::uint64_t offset,
                           const std::vector<std::uint64_t> &vectors)
{
    std::uint64_t slot[64] = {};
    for (std::uint64_t v : vectors) {
        while (v != 0) {
            const int b = std::bit_width(v) - 1;
            if (slot[b] == 0) {
                slot[b] = v;
                break;
            }
            v ^= slot[b];
        }
    }
    // Reduce to RREF: clear every pivot column from the other rows.
    for (int b = 0; b < 64; ++b) {
        if (slot[b] == 0)
            continue;
        for (int b2 = b + 1; b2 < 64; ++b2) {
            if (slot[b2] != 0 && ((slot[b2] >> b) & 1))
                slot[b2] ^= slot[b];
        }
    }
    AffineSupport support;
    for (int b = 63; b >= 0; --b) {
        if (slot[b] != 0) {
            support.basis.push_back(slot[b]);
            if ((offset >> b) & 1)
                offset ^= slot[b];
        }
    }
    support.offset = offset;
    return support;
}

StabilizerTableau::StabilizerTableau(int num_qubits)
    : _numQubits(num_qubits)
{
    require(num_qubits >= 1 && num_qubits <= 64,
            "stabilizer tableau supports 1..64 qubits");
    _rows.resize(static_cast<std::size_t>(num_qubits));
    for (int q = 0; q < num_qubits; ++q)
        _rows[static_cast<std::size_t>(q)].z = 1ULL << q;
}

void
StabilizerTableau::rowMult(Row &dst, const Row &src)
{
    // Aaronson-Gottesman phase bookkeeping: i-exponent contribution
    // of multiplying the single-qubit factors, summed mod 4.
    int sum = 2 * (dst.r + src.r);
    std::uint64_t active = src.x | src.z;
    while (active != 0) {
        const int q = std::countr_zero(active);
        active &= active - 1;
        const int x1 = static_cast<int>((src.x >> q) & 1);
        const int z1 = static_cast<int>((src.z >> q) & 1);
        const int x2 = static_cast<int>((dst.x >> q) & 1);
        const int z2 = static_cast<int>((dst.z >> q) & 1);
        if (x1 != 0 && z1 != 0)
            sum += z2 - x2;
        else if (x1 != 0)
            sum += z2 * (2 * x2 - 1);
        else
            sum += x2 * (1 - 2 * z2);
    }
    sum = ((sum % 4) + 4) % 4;
    VAQ_ASSERT(sum == 0 || sum == 2,
               "stabilizer generators must commute");
    dst.r = sum == 2 ? 1 : 0;
    dst.x ^= src.x;
    dst.z ^= src.z;
}

void
StabilizerTableau::apply(const Gate &gate)
{
    require(gate.isUnitary(),
            "cannot apply measure/barrier to a tableau");
    require(isCliffordGate(gate.kind),
            "tableau supports Clifford gates only, got " +
                circuit::gateName(gate.kind));

    const auto h = [&](Qubit q) {
        const std::uint64_t bit = 1ULL << q;
        for (Row &row : _rows) {
            const bool xb = row.x & bit;
            const bool zb = row.z & bit;
            row.r ^= static_cast<std::uint8_t>(xb && zb);
            if (xb != zb) {
                row.x ^= bit;
                row.z ^= bit;
            }
        }
    };
    const auto cx = [&](Qubit c, Qubit t) {
        const std::uint64_t cbit = 1ULL << c;
        const std::uint64_t tbit = 1ULL << t;
        for (Row &row : _rows) {
            const bool xc = row.x & cbit;
            const bool zc = row.z & cbit;
            const bool xt = row.x & tbit;
            const bool zt = row.z & tbit;
            row.r ^= static_cast<std::uint8_t>(xc && zt &&
                                               (xt == zc));
            if (xc)
                row.x ^= tbit;
            if (zt)
                row.z ^= cbit;
        }
    };

    const std::uint64_t bit = 1ULL << gate.q0;
    switch (gate.kind) {
      case GateKind::I:
        return;
      case GateKind::X:
        for (Row &row : _rows)
            row.r ^= static_cast<std::uint8_t>((row.z >> gate.q0) & 1);
        return;
      case GateKind::Y:
        for (Row &row : _rows) {
            row.r ^= static_cast<std::uint8_t>(
                ((row.x ^ row.z) >> gate.q0) & 1);
        }
        return;
      case GateKind::Z:
        for (Row &row : _rows)
            row.r ^= static_cast<std::uint8_t>((row.x >> gate.q0) & 1);
        return;
      case GateKind::H:
        h(gate.q0);
        return;
      case GateKind::S:
        for (Row &row : _rows) {
            const bool xb = row.x & bit;
            const bool zb = row.z & bit;
            row.r ^= static_cast<std::uint8_t>(xb && zb);
            if (xb)
                row.z ^= bit;
        }
        return;
      case GateKind::Sdg:
        for (Row &row : _rows) {
            const bool xb = row.x & bit;
            const bool zb = row.z & bit;
            row.r ^= static_cast<std::uint8_t>(xb && !zb);
            if (xb)
                row.z ^= bit;
        }
        return;
      case GateKind::CX:
        cx(gate.q0, gate.q1);
        return;
      case GateKind::CZ:
        // CZ = (I x H) CX (I x H), composed from exact updates.
        h(gate.q1);
        cx(gate.q0, gate.q1);
        h(gate.q1);
        return;
      case GateKind::SWAP: {
        const std::uint64_t abit = 1ULL << gate.q0;
        const std::uint64_t bbit = 1ULL << gate.q1;
        for (Row &row : _rows) {
            const bool xa = row.x & abit;
            const bool xb2 = row.x & bbit;
            if (xa != xb2)
                row.x ^= abit | bbit;
            const bool za = row.z & abit;
            const bool zb2 = row.z & bbit;
            if (za != zb2)
                row.z ^= abit | bbit;
        }
        return;
      }
      default:
        break;
    }
    VAQ_ASSERT(false, "unhandled Clifford gate in tableau");
}

void
StabilizerTableau::applyUnitaries(const Circuit &circuit)
{
    require(circuit.numQubits() <= _numQubits,
            "circuit wider than tableau");
    for (const Gate &gate : circuit.gates()) {
        if (gate.isUnitary())
            apply(gate);
    }
}

AffineSupport
StabilizerTableau::support() const
{
    std::vector<Row> rows = _rows;
    std::vector<char> used(rows.size(), 0);

    // Row-reduce the X parts, high bit to low. Used pivot rows are
    // reduced too (i != pivot), so the X basis ends in RREF.
    std::vector<std::size_t> xPivotRows;
    for (int b = _numQubits - 1; b >= 0; --b) {
        std::size_t pivot = rows.size();
        for (std::size_t i = 0; i < rows.size(); ++i) {
            if (!used[i] && ((rows[i].x >> b) & 1)) {
                pivot = i;
                break;
            }
        }
        if (pivot == rows.size())
            continue;
        for (std::size_t i = 0; i < rows.size(); ++i) {
            if (i != pivot && ((rows[i].x >> b) & 1))
                rowMult(rows[i], rows[pivot]);
        }
        used[pivot] = 1;
        xPivotRows.push_back(pivot);
    }

    // The remaining rows are Z-only: each is a parity constraint
    // z . s = r on every support element s. Reduce them to RREF over
    // the Z parts (signs updated through rowMult) so the offset can
    // be read off pivot-by-pivot.
    std::vector<std::size_t> rest;
    for (std::size_t i = 0; i < rows.size(); ++i) {
        if (!used[i]) {
            VAQ_ASSERT(rows[i].x == 0,
                       "unpivoted row with X component");
            rest.push_back(i);
        }
    }
    std::vector<char> zUsed(rest.size(), 0);
    std::vector<std::size_t> zPivotRow(
        static_cast<std::size_t>(_numQubits), rest.size());
    for (int b = _numQubits - 1; b >= 0; --b) {
        std::size_t pivot = rest.size();
        for (std::size_t i = 0; i < rest.size(); ++i) {
            if (!zUsed[i] && ((rows[rest[i]].z >> b) & 1)) {
                pivot = i;
                break;
            }
        }
        if (pivot == rest.size())
            continue;
        for (std::size_t i = 0; i < rest.size(); ++i) {
            if (i != pivot && ((rows[rest[i]].z >> b) & 1))
                rowMult(rows[rest[i]], rows[rest[pivot]]);
        }
        zUsed[pivot] = 1;
        zPivotRow[static_cast<std::size_t>(b)] = pivot;
    }
    for (std::size_t i = 0; i < rest.size(); ++i) {
        VAQ_ASSERT(zUsed[i],
                   "dependent generator rows in stabilizer tableau");
    }
    // Read the offset bits only once elimination has finished: a
    // pivot row picked at a high bit is still reduced (and its sign
    // flipped) by lower-bit pivots afterwards, so its r is not final
    // at selection time.
    std::uint64_t offset = 0;
    for (int b = 0; b < _numQubits; ++b) {
        const std::size_t pivot = zPivotRow[static_cast<std::size_t>(b)];
        if (pivot != rest.size() && rows[rest[pivot]].r != 0)
            offset |= 1ULL << b;
    }

    // Canonicalize the offset against the X basis (every basis
    // vector satisfies the Z constraints — generators commute — so
    // the reduced offset is still a support element).
    AffineSupport support;
    support.basis.reserve(xPivotRows.size());
    for (std::size_t idx : xPivotRows)
        support.basis.push_back(rows[idx].x);
    for (std::uint64_t v : support.basis) {
        const int p = std::bit_width(v) - 1;
        if ((offset >> p) & 1)
            offset ^= v;
    }
    support.offset = offset;
    return support;
}

PauliFrameSim::PauliFrameSim(const Circuit &physical,
                             const NoiseModel &model,
                             const TrajectoryOptions &trajectory)
    : _physical(physical), _trajectory(trajectory),
      _script(NoiseScript::compile(physical, model, trajectory))
{
    require(trajectory.shots > 0, "need at least one shot");
    checkExecutable(physical, model);
    _counts = countCliffordGates(physical);

    const bool telemetry = obs::enabled();
    if (telemetry) {
        obs::count("sim.frame.clifford_gates", _counts.clifford);
        obs::count("sim.frame.nonclifford_gates",
                   _counts.nonClifford);
    }

    if (_counts.nonClifford > 0) {
        _fallbackReason = std::to_string(_counts.nonClifford) +
                          " non-Clifford gate(s)";
    } else if (physical.numQubits() > 64) {
        _fallbackReason = "circuit wider than 64 qubits";
    }
    if (!_fallbackReason.empty()) {
        if (telemetry)
            obs::count("sim.frame.fallbacks");
        return;
    }
    _framePath = true;

    const auto &gates = physical.gates();
    _stream.kind.reserve(_script.ops.size());
    _stream.m0.reserve(_script.ops.size());
    _stream.m1.reserve(_script.ops.size());
    for (const ScriptOp &op : _script.ops) {
        const Gate &g = gates[op.gateIndex];
        FrameOpKind kind = FrameOpKind::None;
        switch (g.kind) {
          case GateKind::H:
            kind = FrameOpKind::H;
            break;
          case GateKind::S:
          case GateKind::Sdg:
            kind = FrameOpKind::S;
            break;
          case GateKind::CX:
            kind = FrameOpKind::CX;
            break;
          case GateKind::CZ:
            kind = FrameOpKind::CZ;
            break;
          case GateKind::SWAP:
            kind = FrameOpKind::Swap;
            break;
          default:
            kind = FrameOpKind::None;
            break;
        }
        _stream.kind.push_back(kind);
        _stream.m0.push_back(1ULL << g.q0);
        _stream.m1.push_back(g.isTwoQubit() ? (1ULL << g.q1) : 0);
    }

    StabilizerTableau tableau(physical.numQubits());
    tableau.applyUnitaries(physical);
    _support = tableau.support();
}

const AffineSupport &
PauliFrameSim::idealSupport() const
{
    require(_framePath,
            "no stabilizer support on the dense fallback path");
    return _support;
}

std::uint64_t
PauliFrameSim::sampleIdeal(Rng &rng, std::uint64_t frameX) const
{
    // Outcomes are uniform over the shifted support: the dense
    // sampler's subtraction walk lands on its floor(r * 2^k)-th
    // ascending element, which elementAt() indexes directly.
    const double r = rng.uniform();
    const std::size_t k = _support.dimension();
    std::uint64_t m = 0;
    if (k > 0) {
        m = static_cast<std::uint64_t>(
            std::ldexp(r, static_cast<int>(k)));
        const std::uint64_t last =
            k >= 64 ? ~0ULL : (1ULL << k) - 1;
        m = std::min(m, last);
    }
    return _support.elementAt(m, _support.shiftedOffset(frameX));
}

std::uint64_t
PauliFrameSim::runShot(Rng &rng) const
{
    if (!_framePath)
        return denseTrajectoryShot(_physical, _script, rng);

    PauliFrame frame;
    for (std::size_t i = 0; i < _stream.size(); ++i) {
        conjugateFrame(frame, _stream.kind[i], _stream.m0[i],
                       _stream.m1[i]);
        sampleOpNoise(_script.ops[i], _script, rng,
                      [&](Qubit q, PauliKind pauli) {
                          frame.inject(q, pauli);
                      });
    }
    const std::uint64_t outcome =
        sampleIdeal(rng, frame.x) & _script.measuredMask;
    return applyReadoutNoise(_script, outcome, rng);
}

ShotCounts
PauliFrameSim::run() const
{
    require(_script.measuredMask != 0,
            "program measures no qubits");
    ShotCounts result;
    result.shots = _trajectory.shots;
    result.measuredMask = _script.measuredMask;
    Rng rng(_trajectory.seed);
    for (std::size_t shot = 0; shot < result.shots; ++shot)
        ++result.counts[runShot(rng)];
    if (_framePath && obs::enabled())
        obs::count("sim.frame.trials", result.shots);
    return result;
}

} // namespace vaq::sim
