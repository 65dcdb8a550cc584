/**
 * @file
 * Uniform interface over the QAOA energy evaluators so landscapes,
 * optimizers, and the Red-QAOA pipeline can mix ideal, noisy, analytic,
 * and light-cone backends without caring which is underneath.
 */

#ifndef REDQAOA_QUANTUM_EVALUATOR_HPP
#define REDQAOA_QUANTUM_EVALUATOR_HPP

#include <memory>
#include <span>
#include <string>
#include <vector>

#include "graph/graph.hpp"
#include "quantum/analytic_p1.hpp"
#include "quantum/batched_kernels.hpp"
#include "quantum/lightcone.hpp"
#include "quantum/maxcut.hpp"
#include "quantum/noise.hpp"
#include "quantum/trajectory.hpp"

namespace redqaoa {

/** Abstract QAOA <H_c> evaluator for a fixed graph. */
class CutEvaluator
{
  public:
    virtual ~CutEvaluator() = default;

    /** Expected cut value of the trial state at @p params. */
    virtual double expectation(const QaoaParams &params) = 0;

    /**
     * Expected cut value at every parameter point, in order. The default
     * fans the points out over the global thread pool when the backend
     * declares expectation() safe to call concurrently (see
     * concurrentSafe) and falls back to a serial loop otherwise; with a
     * 1-thread pool both paths are the same serial loop. Backends with
     * internal mutable state (the noisy trajectory evaluator) override
     * this with a deterministic parallel implementation.
     */
    virtual std::vector<double>
    batchExpectation(std::span<const QaoaParams> params);

    /** Number of qubits the underlying circuit uses. */
    virtual int numQubits() const = 0;

    /** Short backend label for logs. */
    virtual std::string describe() const = 0;

  protected:
    /**
     * True when expectation() may be called from several threads at
     * once. Backends that only read their state during evaluation
     * return true to unlock the parallel batch default.
     */
    virtual bool concurrentSafe() const { return false; }
};

/**
 * Deterministic points on one graph at or above which multi-point
 * surfaces (ExactEvaluator::batchExpectation, EvalEngine::drain) sweep
 * the exact statevector through lane groups: below one full group the
 * padded lanes would do more arithmetic than they save.
 */
constexpr std::size_t kBatchedPointsThreshold =
    static_cast<std::size_t>(batched::kBatchLanes);

/** Exact statevector backend (ideal execution). */
class ExactEvaluator : public CutEvaluator
{
  public:
    explicit ExactEvaluator(const Graph &g) : sim_(g) {}

    /** Shared-artifact variant: reuse a cached cut table for @p g. */
    ExactEvaluator(const Graph &g, std::shared_ptr<const CutTable> table)
        : sim_(g, std::move(table))
    {}

    double expectation(const QaoaParams &params) override
    {
        return sim_.expectation(params);
    }
    int numQubits() const override { return sim_.numQubits(); }
    std::string describe() const override { return "statevector"; }

    /**
     * Multi-point fast path: at or above kBatchedPointsThreshold
     * points the batch is swept through BatchedStateSet lane groups
     * (one pass over the cut table advances kBatchLanes points),
     * byte-identical to the per-point default at every thread count.
     * Landscape grids route through here automatically.
     */
    std::vector<double>
    batchExpectation(std::span<const QaoaParams> params) override;

    /**
     * The batched sweep over non-contiguous points (the engine's
     * drain holds points scattered across job states). Always takes
     * the batched path regardless of count; @p out has points.size()
     * slots. Values are byte-identical to expectation() per point.
     */
    void batchExpectationInto(std::span<const QaoaParams *const> points,
                              std::span<double> out) const;

    /** The underlying simulator (artifact-cache identity checks). */
    const QaoaSimulator &simulator() const { return sim_; }

  protected:
    bool concurrentSafe() const override { return true; }

  private:
    QaoaSimulator sim_;
};

/** Pauli-trajectory noisy backend. */
class NoisyEvaluator : public CutEvaluator
{
  public:
    /**
     * @param shots 0 = exact expectation per trajectory (readout folded
     *        analytically); > 0 = finite measurement statistics, the
     *        realistic mode for landscape experiments (the paper uses
     *        8192 shots). Shot noise is what degrades large noisy
     *        circuits after normalization: gate errors contract the
     *        energy signal while the shot-noise floor stays put.
     */
    NoisyEvaluator(const Graph &g, const NoiseModel &nm,
                   int trajectories = 48, std::uint64_t seed = 99,
                   int shots = 0)
        : sim_(g, nm, trajectories, seed), shots_(shots),
          name_("noisy:" + nm.name)
    {}

    double expectation(const QaoaParams &params) override
    {
        if (shots_ > 0)
            return sim_.sampledExpectation(params, shots_);
        return sim_.expectation(params);
    }

    /**
     * Deterministic parallel batch: the simulator pre-splits one RNG
     * stream per (point, trajectory) serially, then evaluates points
     * concurrently. Results match the serial loop bit-for-bit.
     */
    std::vector<double>
    batchExpectation(std::span<const QaoaParams> params) override
    {
        return sim_.batchExpectation(params, shots_);
    }

    int numQubits() const override { return sim_.numQubits(); }
    std::string describe() const override { return name_; }

  private:
    TrajectorySimulator sim_;
    int shots_;
    std::string name_;
};

/** Closed-form p=1 backend (any graph size). */
class AnalyticEvaluator : public CutEvaluator
{
  public:
    explicit AnalyticEvaluator(const Graph &g)
        : eval_(std::make_shared<const AnalyticP1Evaluator>(g))
    {}

    /** Shared-artifact variant: reuse a cached edge-table evaluator. */
    explicit AnalyticEvaluator(
        std::shared_ptr<const AnalyticP1Evaluator> shared)
        : eval_(std::move(shared))
    {}

    double expectation(const QaoaParams &params) override
    {
        return eval_->expectation(params);
    }
    int numQubits() const override { return eval_->numQubits(); }
    std::string describe() const override { return "analytic-p1"; }

    /** The shared edge table (artifact-cache identity checks). */
    const std::shared_ptr<const AnalyticP1Evaluator> &shared() const
    {
        return eval_;
    }

  protected:
    bool concurrentSafe() const override { return true; }

  private:
    std::shared_ptr<const AnalyticP1Evaluator> eval_;
};

/** Per-edge light-cone backend for large graphs at p >= 1. */
class LightconeCutEvaluator : public CutEvaluator
{
  public:
    LightconeCutEvaluator(const Graph &g, int p, int max_cone_qubits = 20)
        : eval_(std::make_shared<const LightconeEvaluator>(
              g, p, max_cone_qubits))
    {}

    /** Shared-artifact variant: reuse a cached cone decomposition. */
    explicit LightconeCutEvaluator(
        std::shared_ptr<const LightconeEvaluator> shared)
        : eval_(std::move(shared))
    {}

    double expectation(const QaoaParams &params) override
    {
        return eval_->expectation(params);
    }
    int numQubits() const override { return eval_->numQubits(); }
    std::string describe() const override { return "lightcone"; }

    /** The shared decomposition (artifact-cache identity checks). */
    const std::shared_ptr<const LightconeEvaluator> &shared() const
    {
        return eval_;
    }

  protected:
    /**
     * Cone evaluation only reads the precomputed groups; concurrent
     * batch calls compose with the evaluator's internal per-cone
     * parallelism because nested parallel sections run inline.
     */
    bool concurrentSafe() const override { return true; }

  private:
    std::shared_ptr<const LightconeEvaluator> eval_;
};

} // namespace redqaoa

#endif // REDQAOA_QUANTUM_EVALUATOR_HPP
