/**
 * @file
 * The pruned strongest-subgraph search against the unpruned
 * enumeration it replaced.
 *
 * The oracle below is the plain fixed-root enumeration, kept here and
 * off the production path: it visits every connected k-subset in the
 * library's order, keeps the first strictly-best set (the first set
 * visited is always taken) and ranks the full list for the top-count
 * query. bestConnectedSubgraph and topConnectedSubgraphs must return
 * exactly what it returns, element for element, ties included, on
 * synthetic IBM-Q20 calibration cycles (plain and qubit-aware strength
 * weights, as the VQA allocators build them), all-ties weights,
 * random graphs with zero and negative weights, and the disconnected
 * complements the partitioning study searches.
 *
 * VAQ_EXACTNESS_CYCLES=104 widens the Q20 sweep to the whole seed-7
 * archive (default: 3 cycles).
 */
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <functional>
#include <string>
#include <vector>

#include "calibration/synthetic.hpp"
#include "common/error.hpp"
#include "common/rng.hpp"
#include "graph/subgraph.hpp"
#include "topology/layouts.hpp"

namespace vaq::graph
{
namespace
{

/** Visit every connected k-subset whose minimum id is `root`, in the
 *  library's order: pop the frontier from the back, include, then
 *  forbid. */
void
enumerateFromRoot(const WeightedGraph &graph, int root, std::size_t k,
                  const std::function<void(const std::vector<int> &)>
                      &visit)
{
    std::vector<int> current{root};
    std::vector<bool> inCurrent(
        static_cast<std::size_t>(graph.numNodes()), false);
    std::vector<bool> forbidden(
        static_cast<std::size_t>(graph.numNodes()), false);
    inCurrent[static_cast<std::size_t>(root)] = true;

    std::vector<int> frontier;
    for (const auto &[u, w] : graph.neighbors(root)) {
        (void)w;
        if (u > root)
            frontier.push_back(u);
    }
    std::sort(frontier.begin(), frontier.end());

    const std::function<void(std::vector<int> &)> recurse =
        [&](std::vector<int> &localFrontier) {
            if (current.size() == k) {
                visit(current);
                return;
            }
            std::vector<int> skipped;
            while (!localFrontier.empty()) {
                const int v = localFrontier.back();
                localFrontier.pop_back();
                if (forbidden[static_cast<std::size_t>(v)] ||
                    inCurrent[static_cast<std::size_t>(v)]) {
                    continue;
                }
                current.push_back(v);
                inCurrent[static_cast<std::size_t>(v)] = true;
                std::vector<int> extended = localFrontier;
                for (const auto &[u, w] : graph.neighbors(v)) {
                    (void)w;
                    if (u > current.front() &&
                        !inCurrent[static_cast<std::size_t>(u)] &&
                        !forbidden[static_cast<std::size_t>(u)]) {
                        extended.push_back(u);
                    }
                }
                recurse(extended);
                current.pop_back();
                inCurrent[static_cast<std::size_t>(v)] = false;
                forbidden[static_cast<std::size_t>(v)] = true;
                skipped.push_back(v);
            }
            for (int v : skipped)
                forbidden[static_cast<std::size_t>(v)] = false;
        };
    recurse(frontier);
}

struct OracleResult
{
    std::vector<int> best;               ///< empty: no connected set
    std::vector<std::vector<int>> top;   ///< best `count`, ranked
};

OracleResult
oracle(const WeightedGraph &graph, std::size_t k, std::size_t count,
       SubgraphScore score)
{
    OracleResult result;
    bool haveBest = false;
    double bestScore = 0.0;
    std::vector<std::pair<double, std::vector<int>>> all;
    const auto consider = [&](const std::vector<int> &candidate) {
        // Best: scored in visit order, first strictly-best kept.
        const double s = scoreSubgraph(graph, candidate, score);
        if (!haveBest || s > bestScore) {
            haveBest = true;
            bestScore = s;
            result.best = candidate;
            std::sort(result.best.begin(), result.best.end());
        }
        // Top: scored over the sorted node list.
        std::vector<int> nodes = candidate;
        std::sort(nodes.begin(), nodes.end());
        const double sorted = scoreSubgraph(graph, nodes, score);
        all.emplace_back(sorted, std::move(nodes));
    };
    for (int root = 0; root < graph.numNodes(); ++root) {
        if (k == 1) {
            consider({root});
            continue;
        }
        enumerateFromRoot(graph, root, k, consider);
    }
    const auto kept = all.begin() + static_cast<std::ptrdiff_t>(
                                        std::min(count, all.size()));
    std::partial_sort(all.begin(), kept, all.end(),
                      [](const auto &x, const auto &y) {
                          return x.first > y.first ||
                                 (x.first == y.first &&
                                  x.second < y.second);
                      });
    for (auto it = all.begin(); it != kept; ++it)
        result.top.push_back(it->second);
    return result;
}

/** Every k, both scores, against the oracle; `what` names the case. */
void
expectExact(const WeightedGraph &graph, const std::string &what,
            std::size_t topCount = 48)
{
    const auto n = static_cast<std::size_t>(graph.numNodes());
    for (const SubgraphScore score :
         {SubgraphScore::FullStrength, SubgraphScore::InducedWeight}) {
        for (std::size_t k = 1; k <= n; ++k) {
            SCOPED_TRACE(what + " k=" + std::to_string(k) +
                         (score == SubgraphScore::FullStrength
                              ? " full-strength"
                              : " induced-weight"));
            const OracleResult want = oracle(graph, k, topCount, score);
            if (want.best.empty()) {
                EXPECT_THROW(bestConnectedSubgraph(graph, k, score),
                             VaqError);
                EXPECT_THROW(
                    topConnectedSubgraphs(graph, k, topCount, score),
                    VaqError);
                continue;
            }
            EXPECT_EQ(bestConnectedSubgraph(graph, k, score),
                      want.best);
            EXPECT_EQ(topConnectedSubgraphs(graph, k, topCount, score),
                      want.top);
        }
    }
}

/** Strength graph of a calibration cycle, as the VQA allocators build
 *  it: link success probability, times both endpoints' readout/T1
 *  quality when qubit-aware. */
WeightedGraph
strengthGraph(const topology::CouplingGraph &machine,
              const calibration::Snapshot &snapshot, bool qubitAware)
{
    std::vector<double> quality(
        static_cast<std::size_t>(machine.numQubits()), 1.0);
    if (qubitAware) {
        for (int q = 0; q < machine.numQubits(); ++q) {
            const auto &cal = snapshot.qubit(q);
            quality[static_cast<std::size_t>(q)] =
                (1.0 - cal.readoutError) *
                (0.5 + 0.5 * std::min(1.0, cal.t1Us / 100.0));
        }
    }
    std::vector<WeightedEdge> edges;
    for (std::size_t l = 0; l < machine.linkCount(); ++l) {
        const topology::Link &link = machine.links()[l];
        edges.push_back(WeightedEdge{
            link.a, link.b,
            (1.0 - snapshot.linkError(l)) *
                quality[static_cast<std::size_t>(link.a)] *
                quality[static_cast<std::size_t>(link.b)]});
    }
    return WeightedGraph(machine.numQubits(), edges);
}

std::size_t
sweepCycles()
{
    const char *env = std::getenv("VAQ_EXACTNESS_CYCLES");
    return env != nullptr ? std::stoul(env) : 3;
}

TEST(SubgraphExactness, SyntheticQ20Cycles)
{
    const topology::CouplingGraph q20 = topology::ibmQ20Tokyo();
    const std::size_t cycles = sweepCycles();
    calibration::SyntheticSource source(q20, {}, 7);
    const std::vector<calibration::Snapshot> epochs =
        source.series(std::max<std::size_t>(cycles, 1)).snapshots();
    for (std::size_t c = 0; c < cycles; ++c) {
        for (const bool qubitAware : {false, true}) {
            expectExact(strengthGraph(q20, epochs[c], qubitAware),
                        "cycle " + std::to_string(c) +
                            (qubitAware ? " qubit-aware" : " plain"));
        }
    }
}

TEST(SubgraphExactness, UniformWeightsTieEverywhere)
{
    const topology::CouplingGraph q20 = topology::ibmQ20Tokyo();
    std::vector<WeightedEdge> edges;
    for (const topology::Link &link : q20.links())
        edges.push_back(WeightedEdge{link.a, link.b, 1.0});
    expectExact(WeightedGraph(q20.numQubits(), edges), "uniform q20",
                5);
}

TEST(SubgraphExactness, RandomGraphsWithZeroAndNegativeWeights)
{
    Rng rng(41);
    for (int trial = 0; trial < 12; ++trial) {
        const int n = 8 + trial % 5;
        std::vector<WeightedEdge> edges;
        for (int a = 0; a < n; ++a) {
            for (int b = a + 1; b < n; ++b) {
                if (!rng.bernoulli(0.35))
                    continue;
                // A third zero, a third negative, a third positive;
                // coarse values so equal-score ties are common.
                const double draw = rng.uniform();
                const double weight =
                    draw < 1.0 / 3.0 ? 0.0
                    : draw < 2.0 / 3.0
                        ? -static_cast<double>(rng.uniformInt(4) + 1)
                        : static_cast<double>(rng.uniformInt(4) + 1) /
                              2.0;
                edges.push_back(WeightedEdge{a, b, weight});
            }
        }
        expectExact(WeightedGraph(n, edges),
                    "random " + std::to_string(trial), 6);
    }
}

TEST(SubgraphExactness, DisconnectedPartitionComplements)
{
    // The partitioning study searches the complement of a candidate
    // region, which is often disconnected.
    const topology::CouplingGraph q20 = topology::ibmQ20Tokyo();
    calibration::SyntheticSource source(q20, {}, 7);
    const WeightedGraph full =
        strengthGraph(q20, source.series(1).snapshots().front(), false);
    for (const std::size_t k : {4u, 6u, 8u}) {
        const std::vector<int> region = bestConnectedSubgraph(
            full, k, SubgraphScore::InducedWeight);
        std::vector<int> local(
            static_cast<std::size_t>(q20.numQubits()), -1);
        int next = 0;
        for (int p = 0; p < q20.numQubits(); ++p) {
            if (!std::binary_search(region.begin(), region.end(), p))
                local[static_cast<std::size_t>(p)] = next++;
        }
        std::vector<WeightedEdge> edges;
        for (const WeightedEdge &e : full.edges()) {
            const int a = local[static_cast<std::size_t>(e.a)];
            const int b = local[static_cast<std::size_t>(e.b)];
            if (a >= 0 && b >= 0)
                edges.push_back(WeightedEdge{a, b, e.weight});
        }
        expectExact(WeightedGraph(next, edges),
                    "complement of k=" + std::to_string(k), 8);
    }
    // Two components of different sizes: sizes past the larger one
    // have no connected set.
    expectExact(WeightedGraph(7, {{0, 1, 0.5},
                                  {1, 2, 0.7},
                                  {2, 3, 0.2},
                                  {4, 5, 0.9},
                                  {5, 6, 0.9}}),
                "two components");
}

} // namespace
} // namespace vaq::graph
