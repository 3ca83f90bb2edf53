#include "graph/subgraph.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <set>

#include "common/error.hpp"
#include "common/rng.hpp"

namespace vaq::graph
{
namespace
{

WeightedGraph
pathWithStrongEnd()
{
    // 0-1 weak, 1-2 weak, 2-3 strong, 3-4 strong.
    return WeightedGraph(5, {{0, 1, 0.1},
                             {1, 2, 0.2},
                             {2, 3, 0.9},
                             {3, 4, 0.8}});
}

TEST(Subgraph, ScoreFullStrength)
{
    const WeightedGraph g = pathWithStrongEnd();
    // Nodes 2,3: strengths (0.2+0.9) + (0.9+0.8) = 2.8.
    EXPECT_NEAR(
        scoreSubgraph(g, {2, 3}, SubgraphScore::FullStrength),
        2.8, 1e-12);
}

TEST(Subgraph, ScoreInducedWeight)
{
    const WeightedGraph g = pathWithStrongEnd();
    EXPECT_NEAR(
        scoreSubgraph(g, {2, 3}, SubgraphScore::InducedWeight),
        0.9, 1e-12);
    EXPECT_NEAR(
        scoreSubgraph(g, {2, 3, 4}, SubgraphScore::InducedWeight),
        1.7, 1e-12);
    // Disconnected pair has no induced weight.
    EXPECT_NEAR(
        scoreSubgraph(g, {0, 4}, SubgraphScore::InducedWeight),
        0.0, 1e-12);
}

TEST(Subgraph, ConnectivityCheck)
{
    const WeightedGraph g = pathWithStrongEnd();
    EXPECT_TRUE(isConnectedSubset(g, {1, 2, 3}));
    EXPECT_FALSE(isConnectedSubset(g, {0, 2}));
    EXPECT_TRUE(isConnectedSubset(g, {4}));
    EXPECT_FALSE(isConnectedSubset(g, {}));
}

TEST(Subgraph, BestPicksStrongEnd)
{
    const WeightedGraph g = pathWithStrongEnd();
    EXPECT_EQ(bestConnectedSubgraph(g, 2,
                                    SubgraphScore::InducedWeight),
              (std::vector<int>{2, 3}));
    EXPECT_EQ(bestConnectedSubgraph(g, 3,
                                    SubgraphScore::InducedWeight),
              (std::vector<int>{2, 3, 4}));
}

TEST(Subgraph, BestIsAlwaysConnected)
{
    Rng rng(31);
    for (int trial = 0; trial < 20; ++trial) {
        std::vector<WeightedEdge> edges;
        for (int a = 0; a < 10; ++a) {
            for (int b = a + 1; b < 10; ++b) {
                if (rng.bernoulli(0.35))
                    edges.push_back(
                        {a, b, rng.uniform(0.1, 1.0)});
            }
        }
        const WeightedGraph g(10, edges);
        for (std::size_t k = 1; k <= 5; ++k) {
            std::vector<int> best;
            try {
                best = bestConnectedSubgraph(
                    g, k, SubgraphScore::InducedWeight);
            } catch (const VaqError &) {
                continue; // no connected subset of this size
            }
            EXPECT_EQ(best.size(), k);
            EXPECT_TRUE(isConnectedSubset(g, best));
        }
    }
}

TEST(Subgraph, ExhaustiveOptimalityOnSmallGraphs)
{
    // Brute force over all C(7, 3) subsets as the oracle.
    Rng rng(32);
    std::vector<WeightedEdge> edges;
    for (int a = 0; a < 7; ++a) {
        for (int b = a + 1; b < 7; ++b) {
            if (rng.bernoulli(0.5))
                edges.push_back({a, b, rng.uniform(0.1, 1.0)});
        }
    }
    const WeightedGraph g(7, edges);

    double bruteBest = -1.0;
    for (int a = 0; a < 7; ++a) {
        for (int b = a + 1; b < 7; ++b) {
            for (int c = b + 1; c < 7; ++c) {
                const std::vector<int> nodes{a, b, c};
                if (!isConnectedSubset(g, nodes))
                    continue;
                bruteBest = std::max(
                    bruteBest,
                    scoreSubgraph(g, nodes,
                                  SubgraphScore::InducedWeight));
            }
        }
    }
    const auto best =
        bestConnectedSubgraph(g, 3, SubgraphScore::InducedWeight);
    EXPECT_NEAR(
        scoreSubgraph(g, best, SubgraphScore::InducedWeight),
        bruteBest, 1e-12);
}

TEST(Subgraph, SizeOneReturnsStrongestNode)
{
    const WeightedGraph g = pathWithStrongEnd();
    const auto best = bestConnectedSubgraph(
        g, 1, SubgraphScore::FullStrength);
    // Node 3 has the highest strength 1.7.
    EXPECT_EQ(best, (std::vector<int>{3}));
}

TEST(Subgraph, WholeGraphWhenConnected)
{
    const WeightedGraph g = pathWithStrongEnd();
    EXPECT_EQ(bestConnectedSubgraph(g, 5).size(), 5u);
}

TEST(Subgraph, ThrowsWhenNoConnectedSubsetExists)
{
    const WeightedGraph g(4, {{0, 1, 1.0}, {2, 3, 1.0}});
    EXPECT_THROW(bestConnectedSubgraph(g, 3), VaqError);
    EXPECT_THROW(bestConnectedSubgraph(g, 0), VaqError);
    EXPECT_THROW(bestConnectedSubgraph(g, 5), VaqError);
}

TEST(Subgraph, NegativeScoresStillFindASubgraph)
{
    // Every connected pair scores below zero under both rules; the
    // search must still return the best one rather than none.
    const WeightedGraph g(3, {{0, 1, -2.0}, {1, 2, -3.0}});
    for (const SubgraphScore score :
         {SubgraphScore::FullStrength, SubgraphScore::InducedWeight}) {
        EXPECT_EQ(bestConnectedSubgraph(g, 2, score),
                  (std::vector<int>{0, 1}));
        EXPECT_EQ(topConnectedSubgraphs(g, 2, 5, score),
                  (std::vector<std::vector<int>>{{0, 1}, {1, 2}}));
    }
}

TEST(Subgraph, TopSubgraphsAreSortedAndUnique)
{
    Rng rng(33);
    std::vector<WeightedEdge> edges;
    for (int a = 0; a < 8; ++a) {
        for (int b = a + 1; b < 8; ++b) {
            if (rng.bernoulli(0.5))
                edges.push_back({a, b, rng.uniform(0.1, 1.0)});
        }
    }
    const WeightedGraph g(8, edges);
    const auto top = topConnectedSubgraphs(
        g, 3, 10, SubgraphScore::InducedWeight);
    ASSERT_FALSE(top.empty());
    std::set<std::vector<int>> unique(top.begin(), top.end());
    EXPECT_EQ(unique.size(), top.size());
    for (std::size_t i = 0; i + 1 < top.size(); ++i) {
        EXPECT_GE(scoreSubgraph(g, top[i],
                                SubgraphScore::InducedWeight),
                  scoreSubgraph(g, top[i + 1],
                                SubgraphScore::InducedWeight));
    }
    // The first entry matches bestConnectedSubgraph.
    EXPECT_EQ(top.front(),
              bestConnectedSubgraph(
                  g, 3, SubgraphScore::InducedWeight));
}

TEST(Subgraph, TopSubgraphsAllConnected)
{
    const WeightedGraph g = pathWithStrongEnd();
    for (const auto &nodes : topConnectedSubgraphs(g, 3, 5))
        EXPECT_TRUE(isConnectedSubset(g, nodes));
}

} // namespace
} // namespace vaq::graph
