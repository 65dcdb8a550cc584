/**
 * @file
 * Simulated-annealing graph reduction — Algorithm 1 of the paper.
 *
 * The annealer searches over connected k-node induced subgraphs of G,
 * minimizing | AND(S) - AND(G) | (the average-node-degree objective
 * identified in §4.2). Neighbor moves swap one subgraph node for an
 * outside node; worse moves are accepted with probability
 * exp(-(f' - f)/T). Two cooling schedules are supported:
 *  - constant:  T <- alpha * T;
 *  - adaptive:  T <- alpha^(1 + rejects/window) * T — cooling speeds up
 *    as consecutive rejections accumulate, the interpretation of the
 *    paper's "adaptively based on the number of rejected subgraphs".
 */

#ifndef REDQAOA_CORE_SA_REDUCER_HPP
#define REDQAOA_CORE_SA_REDUCER_HPP

#include "common/rng.hpp"
#include "graph/graph.hpp"
#include "graph/subgraph.hpp"

namespace redqaoa {

/** Algorithm 1 knobs. */
struct SaOptions
{
    double t0 = 1.0;       //!< Initial temperature T_0.
    double tf = 1e-3;      //!< Stopping temperature T_f.
    double alpha = 0.95;   //!< Cooling factor.
    bool adaptive = false; //!< Adaptive cooling schedule flag.
    int rejectWindow = 8;  //!< Rejection count normalizer (adaptive).
    int movesPerTemperature = 4; //!< Neighbor proposals per T step.
    int connectivityRetries = 16; //!< Resamples for a connected neighbor.
};

/** Outcome of one annealing run. */
struct SaResult
{
    Subgraph subgraph;     //!< Best connected k-node subgraph found.
    double objective = 0.0; //!< | AND(S) - AND(G) | at the best solution.
    int steps = 0;          //!< Temperature steps executed.
    int accepted = 0;       //!< Accepted moves.
    int rejected = 0;       //!< Rejected moves.
};

/** Simulated-annealing subgraph search (Algorithm 1). */
class SaReducer
{
  public:
    explicit SaReducer(SaOptions opts = {}) : opts_(opts) {}

    /**
     * Run the annealer for a size-@p k connected subgraph of @p g.
     * Requires 1 <= k <= |V| and a connected component of size >= k.
     * The chain is serial and consumes @p rng identically at every
     * thread count, so results never depend on the host's core count.
     */
    SaResult reduce(const Graph &g, int k, Rng &rng) const;

    const SaOptions &options() const { return opts_; }

  private:
    SaOptions opts_;
};

/** | AND(S) - AND(G) |: the Algorithm 1 objective. */
double andObjective(const Graph &subgraph, double target_and);

} // namespace redqaoa

#endif // REDQAOA_CORE_SA_REDUCER_HPP
