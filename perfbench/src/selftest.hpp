/**
 * @file
 * Self-tests of the benchmark's own arithmetic and readers: the
 * fixed-percentile pick, the CPU and RSS readers against a known child
 * process, span self time with overlapping children, and the lb-hop
 * subtraction. Every run executes them before measuring.
 */

#ifndef PERFBENCH_SELFTEST_HPP
#define PERFBENCH_SELFTEST_HPP

#include <string>

namespace perfbench {

/** Run every self-test; false with @p failure set on the first miss. */
bool runSelfTests(std::string &failure);

} // namespace perfbench

#endif // PERFBENCH_SELFTEST_HPP
