#include "analysis/sensitivity.hpp"

#include <cmath>
#include <map>

#include "common/error.hpp"

namespace vaq::analysis
{

namespace
{

using circuit::Gate;
using circuit::GateKind;

/** Gate duration under the profile's durations — must mirror
 *  sim::NoiseModel::opDurationNs exactly (a SWAP is 3 CNOTs). */
double
gateDurationNs(const Gate &gate,
               const calibration::GateDurations &d)
{
    switch (gate.kind) {
      case GateKind::BARRIER:
        return 0.0;
      case GateKind::MEASURE:
        return d.measureNs;
      case GateKind::CX:
      case GateKind::CZ:
        return d.twoQubitNs;
      case GateKind::SWAP:
        return 3.0 * d.twoQubitNs;
      default:
        return d.oneQubitNs;
    }
}

} // namespace

double
QubitSensitivity::dError1q() const
{
    return -oneQubitGates / (1.0 - error1q);
}

double
QubitSensitivity::dReadout() const
{
    return -measurements / (1.0 - readoutError);
}

double
QubitSensitivity::dT1Us() const
{
    return busyNs / (1000.0 * t1Us * t1Us);
}

double
QubitSensitivity::contribution() const
{
    double mass = busyNs / (1000.0 * t1Us);
    if (oneQubitGates > 0.0)
        mass += -oneQubitGates * std::log1p(-error1q);
    if (measurements > 0.0)
        mass += -measurements * std::log1p(-readoutError);
    return mass;
}

double
LinkSensitivity::dError2q() const
{
    return -effectiveGates / (1.0 - error2q);
}

double
LinkSensitivity::contribution() const
{
    return -effectiveGates * std::log1p(-error2q);
}

double
SensitivityProfile::pst() const
{
    return std::exp(logPst);
}

double
SensitivityProfile::totalMass() const
{
    double mass = 0.0;
    for (const QubitSensitivity &q : qubits)
        mass += q.contribution();
    for (const LinkSensitivity &l : links)
        mass += l.contribution();
    return mass;
}

SensitivityProfile
analyzeSensitivity(const DataflowAnalysis &dataflow,
                   const topology::CouplingGraph &graph,
                   const calibration::Snapshot &snapshot)
{
    const circuit::Circuit &circuit = dataflow.circuit();
    require(circuit.numQubits() <= graph.numQubits() &&
                snapshot.numQubits() == graph.numQubits() &&
                snapshot.numLinks() == graph.linkCount(),
            "sensitivity analysis needs a physical circuit on a "
            "machine the snapshot covers");

    SensitivityProfile profile;
    profile.durations = snapshot.durations;

    // Per-qubit counts from the def/use chains: every non-barrier
    // gate in a qubit's chain charges its duration to that qubit's
    // T1 exposure; 1q unitaries and measurements also carry a gate
    // error on the qubit itself.
    for (int q = 0; q < circuit.numQubits(); ++q) {
        const QubitChain &chain = dataflow.chain(q);
        if (!chain.touched())
            continue;
        QubitSensitivity record;
        record.qubit = q;
        const calibration::QubitCalibration &cal = snapshot.qubit(q);
        record.error1q = cal.error1q;
        record.readoutError = cal.readoutError;
        record.t1Us = cal.t1Us;
        for (const std::size_t idx : chain.touches) {
            const Gate &gate = circuit.gates()[idx];
            record.busyNs += gateDurationNs(gate, profile.durations);
            if (gate.kind == GateKind::MEASURE)
                record.measurements += 1.0;
            else if (gate.isUnitary() && !gate.isTwoQubit())
                record.oneQubitGates += 1.0;
        }
        profile.qubits.push_back(record);
    }

    // Per-link effective gate counts from one walk of the gate list
    // (chains would see each two-qubit gate twice).
    std::map<std::size_t, double> linkGates;
    for (const Gate &gate : circuit.gates()) {
        if (gate.kind != GateKind::BARRIER)
            ++profile.opCount;
        if (!gate.isTwoQubit())
            continue;
        require(graph.coupled(gate.q0, gate.q1),
                "sensitivity analysis found a two-qubit gate on an "
                "uncoupled pair; the circuit is not executable");
        const std::size_t link = graph.linkIndex(gate.q0, gate.q1);
        linkGates[link] +=
            gate.kind == GateKind::SWAP ? 3.0 : 1.0;
    }
    for (const auto &[link, eff] : linkGates) {
        LinkSensitivity record;
        record.link = link;
        const topology::Link &ends = graph.links()[link];
        record.q0 = ends.a;
        record.q1 = ends.b;
        record.effectiveGates = eff;
        record.error2q = snapshot.linkError(link);
        profile.links.push_back(record);
    }

    profile.logPst = closedFormLogPst(profile);
    return profile;
}

double
closedFormLogPst(const SensitivityProfile &profile)
{
    // log1p keeps the small-error regime exact; a dead parameter
    // (error rate 1) yields -inf, matching the product form's exact
    // zero.
    double logPst = 0.0;
    for (const QubitSensitivity &q : profile.qubits) {
        if (q.oneQubitGates > 0.0)
            logPst += q.oneQubitGates * std::log1p(-q.error1q);
        if (q.measurements > 0.0)
            logPst += q.measurements * std::log1p(-q.readoutError);
        logPst -= q.busyNs / (1000.0 * q.t1Us);
    }
    for (const LinkSensitivity &l : profile.links)
        logPst += l.effectiveGates * std::log1p(-l.error2q);
    return logPst;
}

} // namespace vaq::analysis
