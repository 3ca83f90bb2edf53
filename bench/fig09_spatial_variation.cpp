/**
 * @file
 * Fig. 9: spatial layout of IBM-Q20 with the average failure rate
 * of every link (paper: best links 0.02, worst 0.15 = 7.5x spread;
 * worst link Q14-Q18).
 */
#include "bench_util.hpp"

#include <algorithm>

#include "common/table.hpp"

int
main()
{
    using namespace vaq;
    bench::printHeader(
        "Figure 9", "Spatial Variation Across the IBM-Q20 Layout",
        "Average two-qubit failure probability per link over the "
        "whole archive.");

    bench::Q20Environment env;
    const auto &snap = env.averaged;

    TextTable table({"Link", "Avg failure", "Rank"});
    // Rank links weakest-first for the report.
    std::vector<std::size_t> order(env.machine.linkCount());
    for (std::size_t l = 0; l < order.size(); ++l)
        order[l] = l;
    std::sort(order.begin(), order.end(),
              [&](std::size_t x, std::size_t y) {
                  return snap.linkError(x) > snap.linkError(y);
              });
    for (std::size_t rank = 0; rank < order.size(); ++rank) {
        const auto &link = env.machine.links()[order[rank]];
        std::string name = "Q";
        name += std::to_string(link.a);
        name += "-Q";
        name += std::to_string(link.b);
        table.addRow(
            {name, formatDouble(snap.linkError(order[rank]), 3),
             rank == 0 ? "weakest"
                       : (rank + 1 == order.size() ? "strongest"
                                                   : "")});
    }
    std::cout << table.render() << "\n";

    const double worst = snap.linkError(order.front());
    const double best = snap.linkError(order.back());
    std::cout << "best link failure = " << formatDouble(best, 3)
              << " (paper: 0.02), worst = "
              << formatDouble(worst, 3)
              << " (paper: 0.15), spread = "
              << formatDouble(worst / best, 1)
              << "x (paper: 7.5x)\n";
    return 0;
}
