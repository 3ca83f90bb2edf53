#include "core/explain.hpp"

#include <algorithm>
#include <cmath>
#include <map>
#include <sstream>

#include "common/strings.hpp"
#include "common/table.hpp"
#include "sim/noise_model.hpp"

namespace vaq::core
{

using circuit::Gate;
using circuit::GateKind;

PstBreakdown
pstBreakdown(const MappedCircuit &mapped,
             const topology::CouplingGraph &graph,
             const calibration::Snapshot &snapshot)
{
    const sim::NoiseModel model(graph, snapshot);
    PstBreakdown out;
    for (const Gate &g : mapped.physical.gates()) {
        if (g.kind == GateKind::BARRIER)
            continue;
        const double op = model.opErrorProb(g);
        if (g.isTwoQubit())
            out.twoQubit *= 1.0 - op;
        else if (g.kind == GateKind::MEASURE)
            out.readout *= 1.0 - op;
        else
            out.oneQubit *= 1.0 - op;
        out.coherence *= 1.0 - model.coherenceErrorProb(g);
    }
    return out;
}

std::string
explainMapping(const MappedCircuit &mapped,
               const topology::CouplingGraph &graph,
               const calibration::Snapshot &snapshot)
{
    std::ostringstream oss;
    oss << "=== mapping report (" << mapped.policyName << " on "
        << graph.name() << ") ===\n\n";

    // --- Placement. ---
    TextTable placement({"program qubit", "initial phys",
                         "final phys", "readout err", "T1 (us)"});
    for (int q = 0; q < mapped.initial.numProg(); ++q) {
        const int p0 = mapped.initial.phys(q);
        const auto &cal = snapshot.qubit(p0);
        placement.addRow({std::to_string(q), std::to_string(p0),
                          std::to_string(mapped.final.phys(q)),
                          formatDouble(cal.readoutError, 3),
                          formatDouble(cal.t1Us, 1)});
    }
    oss << placement.render() << "\n";

    // --- Link usage. ---
    std::map<std::size_t, std::size_t> cnotEquivalents;
    for (const Gate &g : mapped.physical.gates()) {
        if (!g.isTwoQubit())
            continue;
        const std::size_t link = graph.linkIndex(g.q0, g.q1);
        cnotEquivalents[link] +=
            g.kind == GateKind::SWAP ? 3 : 1;
    }
    std::vector<std::pair<std::size_t, std::size_t>> usage(
        cnotEquivalents.begin(), cnotEquivalents.end());
    std::sort(usage.begin(), usage.end(),
              [](const auto &a, const auto &b) {
                  return a.second > b.second;
              });

    TextTable links({"link", "2q error", "CNOT-equivalents",
                     "expected loss"});
    for (const auto &[link, count] : usage) {
        const auto &ends = graph.links()[link];
        const double e = snapshot.linkError(link);
        const double loss =
            1.0 - std::pow(1.0 - e,
                           static_cast<double>(count));
        std::string name = "Q";
        name += std::to_string(ends.a);
        name += "-Q";
        name += std::to_string(ends.b);
        links.addRow({name, formatDouble(e, 3), std::to_string(count),
                      formatDouble(loss, 3)});
    }
    oss << links.render() << "\n";

    // --- Attribution. ---
    const PstBreakdown breakdown =
        pstBreakdown(mapped, graph, snapshot);
    oss << "inserted SWAPs : " << mapped.insertedSwaps << "\n";
    oss << "PST estimate   : "
        << formatDouble(breakdown.total(), 5) << "\n";
    oss << "  2q gates     : "
        << formatDouble(breakdown.twoQubit, 5) << "\n";
    oss << "  1q gates     : "
        << formatDouble(breakdown.oneQubit, 5) << "\n";
    oss << "  readout      : "
        << formatDouble(breakdown.readout, 5) << "\n";
    oss << "  coherence    : "
        << formatDouble(breakdown.coherence, 5) << "\n";
    return oss.str();
}

} // namespace vaq::core
