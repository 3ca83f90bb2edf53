#include "graph/subgraph.hpp"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <functional>
#include <optional>
#include <queue>

#include "common/error.hpp"

namespace vaq::graph
{

namespace
{

/**
 * Scores node sets exactly as scoreSubgraph does (same terms, same
 * summation order, so the same bits), without its per-call
 * allocation: FullStrength sums node strengths in the order `nodes`
 * lists them, InducedWeight sums member-member edges in edges()
 * order.
 */
class Scorer
{
  public:
    Scorer(const WeightedGraph &graph, SubgraphScore score)
        : _graph(graph),
          _score(score),
          _member(static_cast<std::size_t>(graph.numNodes()), 0)
    {
    }

    double operator()(const std::vector<int> &nodes)
    {
        double total = 0.0;
        if (_score == SubgraphScore::FullStrength) {
            for (int v : nodes)
                total += _graph.nodeStrength(v);
            return total;
        }
        for (int v : nodes)
            _member[static_cast<std::size_t>(v)] = 1;
        for (const WeightedEdge &e : _graph.edges()) {
            if (_member[static_cast<std::size_t>(e.a)] &&
                _member[static_cast<std::size_t>(e.b)]) {
                total += e.weight;
            }
        }
        for (int v : nodes)
            _member[static_cast<std::size_t>(v)] = 0;
        return total;
    }

  private:
    const WeightedGraph &_graph;
    SubgraphScore _score;
    std::vector<char> _member;
};

/**
 * Keeps the first best-scoring set offered. Only a strictly greater
 * score displaces the incumbent, so among tied sets the one visited
 * first wins; the first set offered is always taken, whatever its
 * sign. The bar is the incumbent's score, raised to `floor` (the
 * score of a known connected k-set, when given) so the search cuts
 * from its first node on.
 */
class BestSink
{
  public:
    BestSink(const WeightedGraph &graph, SubgraphScore score,
             std::optional<double> floor)
        : _scorer(graph, score), _floor(floor)
    {
    }

    bool hasBar() const { return !_best.empty() || _floor; }
    double bar() const
    {
        if (_best.empty())
            return *_floor;
        return _floor ? std::max(*_floor, _bestScore) : _bestScore;
    }

    void offer(const std::vector<int> &nodes)
    {
        const double s = _scorer(nodes);
        if (_best.empty() || s > _bestScore) {
            _bestScore = s;
            _best = nodes;
            std::sort(_best.begin(), _best.end());
        }
    }

    std::vector<int> take() { return std::move(_best); }

  private:
    Scorer _scorer;
    std::optional<double> _floor;
    std::vector<int> _best;
    double _bestScore = 0.0;
};

/**
 * The `count` best sets offered under the total order (score
 * descending, then ascending node list), each scored over its
 * sorted node list. Being a total order, the kept list does not
 * depend on the order of the offers. The bar is the count-th score.
 */
class TopSink
{
  public:
    TopSink(const WeightedGraph &graph, SubgraphScore score,
            std::size_t count)
        : _scorer(graph, score), _count(count)
    {
    }

    bool hasBar() const { return _ranked.size() == _count; }
    double bar() const { return _ranked.back().first; }

    void offer(const std::vector<int> &nodes)
    {
        _sorted = nodes;
        std::sort(_sorted.begin(), _sorted.end());
        const double s = _scorer(_sorted);
        const auto ranksAbove = [](double sa, const std::vector<int> &a,
                                   const Entry &b) {
            return sa > b.first || (sa == b.first && a < b.second);
        };
        if (hasBar() && !ranksAbove(s, _sorted, _ranked.back()))
            return;
        const auto at = std::find_if(
            _ranked.begin(), _ranked.end(), [&](const Entry &e) {
                return ranksAbove(s, _sorted, e);
            });
        _ranked.emplace(at, s, _sorted);
        if (_ranked.size() > _count)
            _ranked.pop_back();
    }

    /** Entries best first, with adjacent duplicates (greedy growth
     *  can converge on one set from several seeds) dropped. */
    std::vector<std::vector<int>> take()
    {
        std::vector<std::vector<int>> out;
        for (Entry &entry : _ranked) {
            if (out.empty() || out.back() != entry.second)
                out.push_back(std::move(entry.second));
        }
        return out;
    }

  private:
    using Entry = std::pair<double, std::vector<int>>;

    Scorer _scorer;
    std::size_t _count;
    std::vector<Entry> _ranked;
    std::vector<int> _sorted;
};

/**
 * Exact branch-and-bound over the connected k-node subsets.
 *
 * Enumeration is fixed-root expansion: every connected set is
 * produced exactly once, from its minimum node id (the root), and
 * the frontier (with its duplicates) is popped from the back, taking
 * each candidate in one branch and forbidding it in the rest. The
 * visit order is what breaks score ties, so it is fixed.
 *
 * Two prunes apply at every internal node. With r = k - |current|
 * nodes still to add, the candidates are the nodes reachable from
 * `current` within r steps through allowed nodes (above the root,
 * not forbidden, not yet taken); no other node can join a connected
 * completion.
 *   - Feasibility: fewer than r candidates admit no completion.
 *   - Bound: once the sink holds a bar, UB = score(current) + the r
 *     largest per-candidate keys (see key()), an upper bound on every
 *     completion's score whatever the weights' signs.
 * A subtree is dropped only when UB < bar - margin, so every dropped
 * set scores strictly below the bar and could never have entered the
 * sink; a set tying the bar is always visited. The margin absorbs
 * rounding: each sum has at most 2E + n terms, none larger in
 * magnitude than the graph's total absolute weight.
 */
class BranchAndBound
{
  public:
    BranchAndBound(const WeightedGraph &graph, std::size_t k,
                   SubgraphScore score)
        : _graph(graph),
          _k(k),
          _score(score),
          _strength(graph.nodeStrengths()),
          _stride(std::max<std::size_t>(2 * graph.edgeCount(), 1)),
          _frontier((k + 1) * _stride),
          _skipped((k + 1) * _stride),
          _partial(k + 1, 0.0),
          _inCurrent(static_cast<std::size_t>(graph.numNodes()), 0),
          _forbidden(static_cast<std::size_t>(graph.numNodes()), 0),
          _stamp(static_cast<std::size_t>(graph.numNodes()), 0),
          _reached(static_cast<std::size_t>(graph.numNodes())),
          _keys(static_cast<std::size_t>(graph.numNodes())),
          _inner(static_cast<std::size_t>(graph.numNodes()))
    {
        double absTotal = 0.0;
        for (const WeightedEdge &e : graph.edges())
            absTotal += std::fabs(e.weight);
        if (score == SubgraphScore::FullStrength)
            absTotal *= 2.0;
        _scale = std::max(1.0, absTotal);
        _current.reserve(k);
    }

    template <typename Sink>
    void run(Sink &sink)
    {
        for (int root = 0; root < _graph.numNodes(); ++root) {
            _current.assign(1, root);
            if (_k == 1) {
                sink.offer(_current);
                continue;
            }
            std::size_t len = 0;
            for (const auto &[u, w] : _graph.neighbors(root)) {
                (void)w;
                if (u > root)
                    _frontier[_stride + len++] = u;
            }
            std::sort(_frontier.begin() +
                          static_cast<std::ptrdiff_t>(_stride),
                      _frontier.begin() +
                          static_cast<std::ptrdiff_t>(_stride + len));
            _inCurrent[static_cast<std::size_t>(root)] = 1;
            _partial[1] = gain(root);
            expand(sink, 1, len);
            _inCurrent[static_cast<std::size_t>(root)] = 0;
        }
    }

  private:
    /** Score added by taking v next (v not yet in `current`). */
    double gain(int v) const
    {
        if (_score == SubgraphScore::FullStrength)
            return _strength[static_cast<std::size_t>(v)];
        double g = 0.0;
        for (const auto &[u, w] : _graph.neighbors(v)) {
            if (_inCurrent[static_cast<std::size_t>(u)])
                g += w;
        }
        return g;
    }

    bool allowed(int u, int root) const
    {
        return u > root && !_inCurrent[static_cast<std::size_t>(u)] &&
               !_forbidden[static_cast<std::size_t>(u)];
    }

    /** True when no completion of `current` (size c) can reach the
     *  sink's bar, or none exists. */
    template <typename Sink>
    bool hopeless(const Sink &sink, std::size_t c)
    {
        const std::size_t need = _k - c;
        const bool bounded = sink.hasBar();
        const int root = _current.front();
        ++_epoch;
        // Breadth-first from `current`, `need` levels deep: a node
        // further out cannot join a connected completion of `need`
        // nodes. Virtual queue: `current`, then _reached.
        std::size_t found = 0;
        std::size_t begin = 0;
        std::size_t end = c;
        for (std::size_t depth = 1; depth <= need && begin < end;
             ++depth) {
            for (std::size_t i = begin; i < end; ++i) {
                const int from = i < c ? _current[i] : _reached[i - c];
                for (const auto &[u, w] : _graph.neighbors(from)) {
                    (void)w;
                    auto &stamp = _stamp[static_cast<std::size_t>(u)];
                    if (stamp == _epoch || !allowed(u, root))
                        continue;
                    stamp = _epoch;
                    _reached[found++] = u;
                }
                if (!bounded && found >= need)
                    return false;
            }
            begin = end;
            end = c + found;
        }
        if (found < need)
            return true;
        if (!bounded)
            return false;

        for (std::size_t i = 0; i < found; ++i)
            _keys[i] = key(_reached[i], need);
        const auto first = _keys.begin();
        const auto nth = first + static_cast<std::ptrdiff_t>(need);
        if (found > need) {
            std::nth_element(first, nth,
                             first + static_cast<std::ptrdiff_t>(found),
                             std::greater<double>());
        }
        double upper = _partial[c];
        for (auto it = first; it != nth; ++it)
            upper += *it;
        const double bar = sink.bar();
        const double margin =
            1e-9 * std::max(_scale, std::fabs(bar));
        return upper < bar - margin;
    }

    /**
     * Most that reached node v can add to a completion of `need`
     * nodes. FullStrength: its strength. InducedWeight: its positive
     * weight to `current`, plus half its `need` - 1 largest positive
     * weights to other reached nodes (each edge inside the completion
     * is then credited half from each end).
     */
    double key(int v, std::size_t need)
    {
        if (_score == SubgraphScore::FullStrength)
            return _strength[static_cast<std::size_t>(v)];
        double toCurrent = 0.0;
        std::size_t inner = 0;
        for (const auto &[u, w] : _graph.neighbors(v)) {
            const double pos = std::max(w, 0.0);
            if (_inCurrent[static_cast<std::size_t>(u)])
                toCurrent += pos;
            else if (_stamp[static_cast<std::size_t>(u)] == _epoch)
                _inner[inner++] = pos;
        }
        const std::size_t take = std::min(inner, need - 1);
        const auto first = _inner.begin();
        if (take < inner) {
            std::nth_element(first,
                             first + static_cast<std::ptrdiff_t>(take),
                             first + static_cast<std::ptrdiff_t>(inner),
                             std::greater<double>());
        }
        double half = 0.0;
        for (std::size_t i = 0; i < take; ++i)
            half += _inner[i];
        return toCurrent + 0.5 * half;
    }

    /** Search below `current` (size c), whose frontier is the first
     *  `len` entries of row c of _frontier. */
    template <typename Sink>
    void expand(Sink &sink, std::size_t c, std::size_t len)
    {
        if (c == _k) {
            sink.offer(_current);
            return;
        }
        if (hopeless(sink, c))
            return;

        const int root = _current.front();
        const std::size_t row = c * _stride;
        const std::size_t childRow = row + _stride;
        std::size_t skipped = 0;
        while (len > 0) {
            const int v = _frontier[row + --len];
            if (_forbidden[static_cast<std::size_t>(v)] ||
                _inCurrent[static_cast<std::size_t>(v)]) {
                continue;
            }

            // Branch 1: include v. Its frontier is what is left of
            // this one plus v's allowed neighbours.
            _partial[c + 1] = _partial[c] + gain(v);
            _current.push_back(v);
            _inCurrent[static_cast<std::size_t>(v)] = 1;
            std::copy_n(_frontier.begin() +
                            static_cast<std::ptrdiff_t>(row),
                        len,
                        _frontier.begin() +
                            static_cast<std::ptrdiff_t>(childRow));
            std::size_t childLen = len;
            for (const auto &[u, w] : _graph.neighbors(v)) {
                (void)w;
                if (allowed(u, root))
                    _frontier[childRow + childLen++] = u;
            }
            expand(sink, c + 1, childLen);
            _current.pop_back();
            _inCurrent[static_cast<std::size_t>(v)] = 0;

            // Branch 2: exclude v from the rest of this branch.
            _forbidden[static_cast<std::size_t>(v)] = 1;
            _skipped[row + skipped++] = v;
        }
        for (std::size_t i = 0; i < skipped; ++i)
            _forbidden[static_cast<std::size_t>(_skipped[row + i])] = 0;
    }

    const WeightedGraph &_graph;
    std::size_t _k;
    SubgraphScore _score;
    std::vector<double> _strength;
    double _scale = 1.0;
    /// Row length of _frontier/_skipped: a frontier holds at most one
    /// entry per (member, incident edge) pair, so at most 2E.
    std::size_t _stride;
    std::vector<int> _frontier; ///< one row per depth
    std::vector<int> _skipped;  ///< one row per depth
    std::vector<double> _partial; ///< score of current's prefixes
    std::vector<int> _current;
    std::vector<char> _inCurrent;
    std::vector<char> _forbidden;
    std::vector<std::uint64_t> _stamp; ///< == _epoch: reached
    std::uint64_t _epoch = 0;
    std::vector<int> _reached;
    std::vector<double> _keys;
    std::vector<double> _inner; ///< key() scratch
};

/**
 * Score of some connected k-node set, grown from every node by
 * adding the neighbour that adds most. No set scoring below it can
 * be the best, so the exact search may cut against it from the start.
 */
std::optional<double>
greedyFloor(const WeightedGraph &graph, std::size_t k,
            SubgraphScore score)
{
    const auto n = static_cast<std::size_t>(graph.numNodes());
    const std::vector<double> strength = graph.nodeStrengths();
    Scorer scorer(graph, score);
    // gain[u]: weight from u into the set; touching[u]: u is a
    // neighbour of the set (and may join it).
    std::vector<double> gain(n);
    std::vector<char> touching(n);
    std::vector<char> member(n);
    std::vector<int> set;
    set.reserve(k);
    std::optional<double> floor;
    for (int seed = 0; seed < graph.numNodes(); ++seed) {
        std::fill(gain.begin(), gain.end(), 0.0);
        std::fill(touching.begin(), touching.end(), 0);
        std::fill(member.begin(), member.end(), 0);
        set.clear();
        for (int next = seed; next >= 0 && set.size() < k;) {
            set.push_back(next);
            member[static_cast<std::size_t>(next)] = 1;
            for (const auto &[u, w] : graph.neighbors(next)) {
                gain[static_cast<std::size_t>(u)] += w;
                touching[static_cast<std::size_t>(u)] = 1;
            }
            next = -1;
            double best = 0.0;
            for (std::size_t u = 0; u < n; ++u) {
                if (member[u] || !touching[u])
                    continue;
                const double g = score == SubgraphScore::FullStrength
                                     ? strength[u]
                                     : gain[u];
                if (next < 0 || g > best) {
                    next = static_cast<int>(u);
                    best = g;
                }
            }
        }
        if (set.size() == k) {
            const double s = scorer(set);
            floor = floor ? std::max(*floor, s) : s;
        }
    }
    return floor;
}

/** Greedy growth from a seed, adding the best-scoring neighbour. */
std::vector<int>
greedyGrow(const WeightedGraph &graph, int seed, std::size_t k,
           SubgraphScore score)
{
    std::vector<int> current{seed};
    std::vector<bool> member(
        static_cast<std::size_t>(graph.numNodes()), false);
    member[static_cast<std::size_t>(seed)] = true;

    while (current.size() < k) {
        int best = -1;
        double bestScore = 0.0;
        for (int v : current) {
            for (const auto &[u, w] : graph.neighbors(v)) {
                (void)w;
                if (member[static_cast<std::size_t>(u)])
                    continue;
                std::vector<int> trial = current;
                trial.push_back(u);
                const double s = scoreSubgraph(graph, trial, score);
                if (best < 0 || s > bestScore ||
                    (s == bestScore && u < best)) {
                    bestScore = s;
                    best = u;
                }
            }
        }
        if (best < 0)
            return {}; // component exhausted before reaching k
        current.push_back(best);
        member[static_cast<std::size_t>(best)] = true;
    }
    std::sort(current.begin(), current.end());
    return current;
}

/** Binomial coefficient with saturation (avoids overflow). */
double
choose(std::size_t n, std::size_t k)
{
    if (k > n)
        return 0.0;
    double result = 1.0;
    for (std::size_t i = 0; i < k; ++i) {
        result *= static_cast<double>(n - i) /
                  static_cast<double>(i + 1);
        if (result > 1e12)
            return 1e12;
    }
    return result;
}

/**
 * True when the exact search runs: the combination count is small
 * enough (the IBM-Q20 cases all are; the bound on C(n, k) is loose
 * but cheap). Otherwise greedy growth from every seed stands in.
 */
bool
searchIsExact(const WeightedGraph &graph, std::size_t k)
{
    const auto n = static_cast<std::size_t>(graph.numNodes());
    return choose(n, k) <= 2.5e5 || n <= 20;
}

/** Offer the sink every candidate of the strategy. */
template <typename Sink>
void
search(const WeightedGraph &graph, std::size_t k, SubgraphScore score,
       Sink &sink)
{
    if (searchIsExact(graph, k)) {
        BranchAndBound(graph, k, score).run(sink);
        return;
    }
    for (int seed = 0; seed < graph.numNodes(); ++seed) {
        const std::vector<int> grown = greedyGrow(graph, seed, k, score);
        if (!grown.empty())
            sink.offer(grown);
    }
}

} // namespace

double
scoreSubgraph(const WeightedGraph &graph,
              const std::vector<int> &nodes, SubgraphScore score)
{
    return Scorer(graph, score)(nodes);
}

bool
isConnectedSubset(const WeightedGraph &graph,
                  const std::vector<int> &nodes)
{
    if (nodes.empty())
        return false;
    std::vector<bool> member(
        static_cast<std::size_t>(graph.numNodes()), false);
    for (int v : nodes)
        member[static_cast<std::size_t>(v)] = true;

    std::vector<bool> seen(
        static_cast<std::size_t>(graph.numNodes()), false);
    std::queue<int> frontier;
    frontier.push(nodes.front());
    seen[static_cast<std::size_t>(nodes.front())] = true;
    std::size_t reached = 1;
    while (!frontier.empty()) {
        const int u = frontier.front();
        frontier.pop();
        for (const auto &[v, w] : graph.neighbors(u)) {
            (void)w;
            if (member[static_cast<std::size_t>(v)] &&
                !seen[static_cast<std::size_t>(v)]) {
                seen[static_cast<std::size_t>(v)] = true;
                ++reached;
                frontier.push(v);
            }
        }
    }
    return reached == nodes.size();
}

std::vector<int>
bestConnectedSubgraph(const WeightedGraph &graph, std::size_t k,
                      SubgraphScore score)
{
    const auto n = static_cast<std::size_t>(graph.numNodes());
    require(k >= 1 && k <= n,
            "subgraph size out of range for machine");

    BestSink sink(graph, score,
                  searchIsExact(graph, k) ? greedyFloor(graph, k, score)
                                          : std::nullopt);
    search(graph, k, score, sink);
    std::vector<int> best = sink.take();
    require(!best.empty(),
            "no connected subgraph of the requested size exists");
    return best;
}

std::vector<std::vector<int>>
topConnectedSubgraphs(const WeightedGraph &graph, std::size_t k,
                      std::size_t count, SubgraphScore score)
{
    const auto n = static_cast<std::size_t>(graph.numNodes());
    require(k >= 1 && k <= n,
            "subgraph size out of range for machine");
    require(count >= 1, "need at least one subgraph");

    TopSink sink(graph, score, count);
    search(graph, k, score, sink);
    std::vector<std::vector<int>> out = sink.take();
    require(!out.empty(),
            "no connected subgraph of the requested size exists");
    return out;
}

} // namespace vaq::graph
