#include "core/explain.hpp"

#include <gtest/gtest.h>

#include "common/rng.hpp"
#include "core/mapper.hpp"
#include "sim/fault_sim.hpp"
#include "test_support.hpp"
#include "topology/layouts.hpp"
#include "workloads/workloads.hpp"

namespace vaq::core
{
namespace
{

class ExplainTest : public ::testing::Test
{
  protected:
    ExplainTest()
        : graph(topology::ibmQ5Tenerife()), rng(71),
          snap(test::randomSnapshot(graph, rng)),
          mapped(makeMapper({.name = "vqa+vqm"}).map(
              workloads::bernsteinVazirani(4), graph, snap))
    {}

    topology::CouplingGraph graph;
    Rng rng;
    calibration::Snapshot snap;
    MappedCircuit mapped;
};

TEST_F(ExplainTest, BreakdownMultipliesToAnalyticPst)
{
    const PstBreakdown breakdown =
        pstBreakdown(mapped, graph, snap);
    const sim::NoiseModel model(graph, snap);
    EXPECT_NEAR(breakdown.total(),
                sim::analyticPst(mapped.physical, model), 1e-12);
}

TEST_F(ExplainTest, ComponentsAreProbabilities)
{
    const PstBreakdown breakdown =
        pstBreakdown(mapped, graph, snap);
    for (double p :
         {breakdown.twoQubit, breakdown.oneQubit,
          breakdown.readout, breakdown.coherence}) {
        EXPECT_GT(p, 0.0);
        EXPECT_LE(p, 1.0);
    }
    // bv-4 has measures, 1q and 2q gates: all components < 1.
    EXPECT_LT(breakdown.twoQubit, 1.0);
    EXPECT_LT(breakdown.readout, 1.0);
    EXPECT_LT(breakdown.oneQubit, 1.0);
}

TEST_F(ExplainTest, ReportContainsKeySections)
{
    const std::string report =
        explainMapping(mapped, graph, snap);
    EXPECT_NE(report.find("mapping report"), std::string::npos);
    EXPECT_NE(report.find(mapped.policyName),
              std::string::npos);
    EXPECT_NE(report.find("program qubit"), std::string::npos);
    EXPECT_NE(report.find("CNOT-equivalents"),
              std::string::npos);
    EXPECT_NE(report.find("PST estimate"), std::string::npos);
    EXPECT_NE(report.find("inserted SWAPs"), std::string::npos);
}

TEST_F(ExplainTest, EveryProgramQubitListed)
{
    const std::string report =
        explainMapping(mapped, graph, snap);
    // Four program qubits: rows 0..3 exist.
    for (int q = 0; q < 4; ++q) {
        std::string row = "\n";
        row += std::to_string(q);
        row += ' ';
        EXPECT_NE(report.find(row), std::string::npos) << q;
    }
}

TEST_F(ExplainTest, EmptyTwoQubitUsageHandled)
{
    circuit::Circuit trivial(2);
    trivial.h(0).measure(0);
    const auto tiny =
        makeMapper({.name = "baseline"}).map(trivial, graph, snap);
    const std::string report = explainMapping(tiny, graph, snap);
    EXPECT_NE(report.find("PST estimate"), std::string::npos);
    const PstBreakdown breakdown =
        pstBreakdown(tiny, graph, snap);
    EXPECT_DOUBLE_EQ(breakdown.twoQubit, 1.0);
}

} // namespace
} // namespace vaq::core
