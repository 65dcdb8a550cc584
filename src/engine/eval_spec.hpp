/**
 * @file
 * EvalSpec: one declarative description of "how should <H_c> be
 * evaluated" — backend family (or Auto), QAOA depth, noise model,
 * trajectory/shot budget, and the statevector qubit cutoff. Every
 * caller that used to hand-construct an evaluator (pipeline stages,
 * landscapes, layerwise drivers, examples, bench figures) now states a
 * spec and lets the backend registry resolve it, so the selection
 * policy lives in exactly one place: resolveBackend().
 */

#ifndef REDQAOA_ENGINE_EVAL_SPEC_HPP
#define REDQAOA_ENGINE_EVAL_SPEC_HPP

#include <cstdint>
#include <string>

#include "graph/graph.hpp"
#include "quantum/noise.hpp"

namespace redqaoa {

/** Concrete evaluator families the backend registry can construct. */
enum class EvalBackend
{
    Auto,        //!< Resolve per (graph, spec); see resolveBackend().
    Statevector, //!< Exact 2^n simulation (ExactEvaluator).
    AnalyticP1,  //!< Closed-form p=1 (AnalyticEvaluator).
    Lightcone,   //!< Per-edge cones (LightconeCutEvaluator).
    Trajectory,  //!< Pauli-trajectory noise (NoisyEvaluator).
};

/** Registry name of a backend ("auto", "statevector", ...). */
const char *backendName(EvalBackend kind);

/** Everything needed to construct (or cache) one evaluator. */
struct EvalSpec
{
    EvalBackend backend = EvalBackend::Auto;
    int layers = 1; //!< QAOA depth p the evaluator will be queried at.
    /**
     * Auto policy: graphs at or below this many nodes use the exact
     * statevector; above it, the closed form at p = 1 and otherwise
     * the light-cone evaluator, for which this value doubles as the
     * cone cap.
     */
    int exactQubitLimit = 16;
    NoiseModel noise;     //!< Non-ideal noise selects Trajectory in Auto.
    int trajectories = 48; //!< Trajectory backend only.
    std::uint64_t seed = 99; //!< Trajectory noise-stream seed.
    int shots = 0;        //!< 0 = exact noisy expectations; > 0 sampled.

    /** Ideal evaluation at depth @p p (Auto size/depth policy). */
    static EvalSpec ideal(int p, int exact_qubit_limit = 16);

    /**
     * Noisy trajectory evaluation under @p nm. Pins the Trajectory
     * backend (not Auto): asking for noisy evaluation means trajectory
     * averaging and shot sampling even when every channel of @p nm is
     * trivial.
     */
    static EvalSpec noisy(const NoiseModel &nm, int p = 1,
                          int trajectories = 48, std::uint64_t seed = 99,
                          int shots = 0);

    /** Copy with a different depth (layerwise drivers). */
    EvalSpec withLayers(int p) const;
};

/**
 * THE backend-selection policy (satellite: one policy, one place).
 * Auto resolves to Trajectory under any non-ideal noise, otherwise to
 * the cheapest exact(ish) ideal backend for (graph, depth):
 * Statevector at or below exactQubitLimit qubits, AnalyticP1 at p = 1,
 * Lightcone above. Non-Auto specs pass through unchanged.
 */
EvalBackend resolveBackend(const EvalSpec &spec, const Graph &g);

/**
 * True when the resolved backend is a pure function of (graph, spec,
 * params) — every backend except Trajectory, whose values depend on
 * the position of the point in the simulator's RNG stream history.
 * Deterministic backends unlock evaluator sharing and point-level
 * memoization in the engine.
 */
bool deterministicBackend(EvalBackend kind);

/**
 * Canonical cache key of the spec once resolved to @p kind: equal keys
 * guarantee evaluators are interchangeable (fields a backend ignores
 * are left out, so e.g. any-depth statevector specs share one entry).
 */
std::string backendCacheKey(const EvalSpec &spec, EvalBackend kind);

} // namespace redqaoa

#endif // REDQAOA_ENGINE_EVAL_SPEC_HPP
