#include "quantum/evaluator.hpp"

#include "common/thread_pool.hpp"
#include "quantum/batched_state.hpp"

namespace redqaoa {

std::vector<double>
CutEvaluator::batchExpectation(std::span<const QaoaParams> params)
{
    std::vector<double> out(params.size());
    if (concurrentSafe()) {
        parallelFor(params.size(),
                    [&](std::size_t i) { out[i] = expectation(params[i]); });
    } else {
        for (std::size_t i = 0; i < params.size(); ++i)
            out[i] = expectation(params[i]);
    }
    return out;
}

std::vector<double>
ExactEvaluator::batchExpectation(std::span<const QaoaParams> params)
{
    if (params.size() < kBatchedPointsThreshold)
        return CutEvaluator::batchExpectation(params);
    std::vector<const QaoaParams *> pts(params.size());
    for (std::size_t i = 0; i < params.size(); ++i)
        pts[i] = &params[i];
    std::vector<double> out(params.size());
    batchExpectationInto(pts, out);
    return out;
}

void
ExactEvaluator::batchExpectationInto(
    std::span<const QaoaParams *const> points, std::span<double> out) const
{
    const CutTable &table = *sim_.sharedTable();
    batchedCutExpectations(table.codes, table.maxCode, sim_.numQubits(),
                           points, out);
}

} // namespace redqaoa
