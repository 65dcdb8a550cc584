/**
 * @file
 * Output checks. evaluate values must be bit-equal to an in-process
 * EvalEngine on the same inputs; optimize and pipeline payloads must be
 * byte-equal to an in-process ServiceRouter::dispatch of the same
 * request. optimize answers can come from a lane's warm-start store, so
 * the in-process side mirrors the fleet: a router with its own store
 * per lb lane, fed the same requests in the same order.
 */

#ifndef PERFBENCH_VERIFY_HPP
#define PERFBENCH_VERIFY_HPP

#include <cstddef>
#include <string>
#include <vector>

#include "load.hpp"

namespace perfbench {

/** One answered request to check, in the order the fleet received it. */
struct Answered
{
    const Op *op = nullptr;
    const Outcome *outcome = nullptr;
};

struct VerifyReport
{
    std::size_t checked = 0;
    std::size_t mismatched = 0;
    std::string firstMismatch;
};

/**
 * Check every ok answer in @p answered. @p lanes is the fleet's worker
 * count, @p scratch_dir a fresh directory for the mirrored stores,
 * @p threads the number of verifier threads.
 */
VerifyReport verifyAnswers(const std::vector<Answered> &answered, int lanes,
                           const std::string &scratch_dir, int threads);

} // namespace perfbench

#endif // PERFBENCH_VERIFY_HPP
