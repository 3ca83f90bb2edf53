/**
 * @file
 * Search for the strongest connected k-node subgraph.
 *
 * Step 1 of the paper's Algorithm 2 (VQA): "Find the sub-graph SG_k
 * with k nodes that has [the] highest aggregate node strength (ANS),
 * ANS = sum_i d_i". Program qubits are then placed on that subgraph.
 *
 * Two scoring modes are provided as an ablation point:
 *  - FullStrength: ANS exactly as the paper defines it — each member
 *    contributes its node strength in the *full* machine graph.
 *  - InducedWeight: sum of link weights *inside* the subgraph, which
 *    only credits links the mapped program can actually use.
 */
#ifndef VAQ_GRAPH_SUBGRAPH_HPP
#define VAQ_GRAPH_SUBGRAPH_HPP

#include <cstddef>
#include <vector>

#include "graph/weighted_graph.hpp"

namespace vaq::graph
{

/** Scoring rule for subgraph search. */
enum class SubgraphScore
{
    FullStrength, ///< ANS with full-graph node strengths (paper)
    InducedWeight ///< total weight of links inside the subgraph
};

/** Score a node set under the given rule (set need not be connected). */
double scoreSubgraph(const WeightedGraph &graph,
                     const std::vector<int> &nodes,
                     SubgraphScore score);

/** True when the induced subgraph over `nodes` is connected. */
bool isConnectedSubset(const WeightedGraph &graph,
                       const std::vector<int> &nodes);

/**
 * Best connected k-node subgraph under `score`.
 *
 * Uses an exact search over the connected k-subsets when the
 * combination count is small enough (the IBM-Q20 cases all are), and
 * falls back to greedy seeded growth on larger machines. Returns node
 * ids in ascending order.
 *
 * The exact search enumerates connected sets in a fixed order and
 * keeps the first one with the highest score (ties go to the set
 * visited first). It is branch-and-bound: a branch is cut when too
 * few nodes are reachable to complete it, or when an upper bound on
 * every completion's score falls strictly below (by more than a
 * rounding margin) the best score known: the incumbent's, or that of
 * a greedily grown connected set. A cut branch holds only sets
 * scoring below the maximum, which could never have been returned,
 * so the result is the one full enumeration returns, tie included.
 * Search nodes make no heap allocations.
 *
 * @throws VaqError when k is out of range or no connected k-subset
 *         exists.
 */
std::vector<int> bestConnectedSubgraph(
    const WeightedGraph &graph, std::size_t k,
    SubgraphScore score = SubgraphScore::FullStrength);

/**
 * The `count` best-scoring connected k-node subgraphs, best first
 * (fewer are returned when fewer exist). Ranks by score, then by
 * ascending node list. Uses the same exact / greedy strategy split
 * and the same bound as bestConnectedSubgraph, cutting against the
 * count-th best once `count` sets are held, so the output equals the
 * full enumeration's. Used by the machine-partitioning study to rank
 * candidate regions.
 */
std::vector<std::vector<int>> topConnectedSubgraphs(
    const WeightedGraph &graph, std::size_t k, std::size_t count,
    SubgraphScore score = SubgraphScore::FullStrength);

} // namespace vaq::graph

#endif // VAQ_GRAPH_SUBGRAPH_HPP
