/**
 * @file
 * Derivative-free optimizer interface.
 *
 * The paper drives QAOA with COBYLA plus random restarts (§6.4, §6.5).
 * All optimizers here MINIMIZE; QAOA callers hand in -<H_c>. Each run
 * records the best-so-far trace per objective evaluation so the
 * convergence figures (Figs 1 and 20) can be regenerated.
 */

#ifndef REDQAOA_OPT_OPTIMIZER_HPP
#define REDQAOA_OPT_OPTIMIZER_HPP

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "common/rng.hpp"

namespace redqaoa {

/** Objective to minimize. */
using Objective = std::function<double(const std::vector<double> &)>;

/** Result of one optimizer run. */
struct OptResult
{
    std::vector<double> x;       //!< Best point found.
    double value = 0.0;          //!< Objective at the best point.
    int evaluations = 0;         //!< Objective calls consumed.
    std::vector<double> trace;   //!< Objective value per evaluation.
    std::vector<std::vector<double>> iterates; //!< Point per evaluation.
};

/** Common knobs. */
struct OptOptions
{
    int maxEvaluations = 200;
    double initialStep = 0.4; //!< Starting trust radius (radians).
    double tolerance = 1e-6;  //!< Convergence threshold on spread.
};

/** Abstract minimizer. */
class Optimizer
{
  public:
    virtual ~Optimizer() = default;

    /** Minimize @p f starting at @p x0. */
    virtual OptResult minimize(const Objective &f,
                               const std::vector<double> &x0) const = 0;

    /** Identifier for logs (e.g. "cobyla-lite"). */
    virtual std::string name() const = 0;
};

/**
 * Multi-restart driver: runs @p optimizer from @p restarts random
 * starting points drawn by @p sampler; returns every run (the Fig 17
 * protocol reports both the best and the mean across restarts).
 */
std::vector<OptResult> multiRestart(
    const Optimizer &optimizer, const Objective &f, int restarts,
    const std::function<std::vector<double>(Rng &)> &sampler, Rng &rng);

/** Index of the best (lowest value) run. */
std::size_t bestRun(const std::vector<OptResult> &runs);

} // namespace redqaoa

#endif // REDQAOA_OPT_OPTIMIZER_HPP
