/**
 * @file
 * Backend registry: EvalBackend -> factory map behind every evaluator
 * construction in the repo. The built-in backends (statevector,
 * analytic-p1, lightcone, trajectory) self-register at static-init
 * time; factories receive the graph, the resolved spec, and an
 * optional ArtifactCache so engine-built evaluators share per-graph
 * tables while standalone construction stays dependency-free.
 *
 * makeEvaluator(g, spec) is the one public construction path; examples
 * and bench figures route through it rather than calling evaluator
 * constructors, so the selection policy lives in one place (see
 * resolveBackend()).
 */

#ifndef REDQAOA_ENGINE_BACKEND_REGISTRY_HPP
#define REDQAOA_ENGINE_BACKEND_REGISTRY_HPP

#include <functional>
#include <map>
#include <memory>

#include "engine/eval_spec.hpp"
#include "quantum/evaluator.hpp"

namespace redqaoa {

class ArtifactCache;

/**
 * Constructs one evaluator. @p cache may be nullptr (standalone
 * construction builds private artifacts); when set, the factory pulls
 * shared artifacts from it. The spec's backend is already resolved.
 */
using BackendFactory = std::function<std::unique_ptr<CutEvaluator>(
    const Graph &, const EvalSpec &, ArtifactCache *)>;

class BackendRegistry
{
  public:
    /** Process-wide registry (built-ins registered before main). */
    static BackendRegistry &instance();

    /**
     * Register @p factory for @p kind; registering a kind twice (or
     * Auto, which is a policy, not a backend) throws. Returns true so
     * registration can initialize a static.
     */
    bool add(EvalBackend kind, BackendFactory factory);

    /**
     * Resolve @p spec against @p g (Auto policy) and construct the
     * evaluator, sharing artifacts through @p cache when given.
     * Throws std::out_of_range for kinds nobody registered.
     */
    std::unique_ptr<CutEvaluator> make(const Graph &g,
                                       const EvalSpec &spec,
                                       ArtifactCache *cache = nullptr) const;

  private:
    std::map<EvalBackend, BackendFactory> factories_;
};

/** BackendRegistry::instance().make(...) convenience. */
std::unique_ptr<CutEvaluator> makeEvaluator(const Graph &g,
                                            const EvalSpec &spec,
                                            ArtifactCache *cache = nullptr);

} // namespace redqaoa

#endif // REDQAOA_ENGINE_BACKEND_REGISTRY_HPP
