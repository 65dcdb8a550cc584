#include "core/sa_reducer.hpp"

#include <algorithm>
#include <bit>
#include <cassert>
#include <cmath>
#include <cstdint>
#include <limits>

namespace redqaoa {

double
andObjective(const Graph &subgraph, double target_and)
{
    return std::fabs(subgraph.averageDegree() - target_and);
}

namespace {

/** Mutable annealing state: a k-node subset with its induced edge count. */
class SubsetState
{
  public:
    SubsetState(const Graph &g, const Subgraph &init)
        : g_(g), in_(static_cast<std::size_t>(g.numNodes()), 0),
          members_(init.toOriginal)
    {
        for (Node v : members_)
            in_[static_cast<std::size_t>(v)] = 1;
        edges_ = init.graph.numEdges();
        // Flat CSR adjacency: one contiguous array instead of a vector
        // per node, built once per annealing run. Every proposal walks
        // adjacency 2-3 times, so locality here dominates the chain.
        const auto n = static_cast<std::size_t>(g.numNodes());
        adjOffset_.resize(n + 1);
        adjOffset_[0] = 0;
        for (std::size_t v = 0; v < n; ++v)
            adjOffset_[v + 1] =
                adjOffset_[v] + g.neighbors(static_cast<Node>(v)).size();
        adjFlat_.resize(adjOffset_[n]);
        for (std::size_t v = 0; v < n; ++v) {
            const auto &nbrs = g.neighbors(static_cast<Node>(v));
            std::copy(nbrs.begin(), nbrs.end(),
                      adjFlat_.begin() +
                          static_cast<std::ptrdiff_t>(adjOffset_[v]));
        }
        // Bitset mirror for graphs up to kBitsetNodes: adjacency rows
        // and the member set as 64-bit words, so the per-proposal
        // connectivity BFS expands 64 candidate nodes per operation.
        if (n <= kBitsetNodes) {
            bitWords_ = (n + 63) / 64;
            adjBits_.assign(n * kBitsetWords, 0);
            for (const Edge &e : g.edges()) {
                adjBits_[static_cast<std::size_t>(e.u) * kBitsetWords +
                         static_cast<std::size_t>(e.v) / 64] |=
                    std::uint64_t{1} << (e.v % 64);
                adjBits_[static_cast<std::size_t>(e.v) * kBitsetWords +
                         static_cast<std::size_t>(e.u) / 64] |=
                    std::uint64_t{1} << (e.u % 64);
            }
            inBits_.assign(kBitsetWords, 0);
            for (Node v : members_)
                inBits_[static_cast<std::size_t>(v) / 64] |=
                    std::uint64_t{1} << (v % 64);
        }
    }

    double
    averageDegree() const
    {
        return 2.0 * edges_ / static_cast<double>(members_.size());
    }

    /** Induced edges the subset would gain from @p v (minus @p except). */
    int
    degreeInside(Node v, Node except) const
    {
        int d = 0;
        const Node *it = adjFlat_.data() + adjOffset_[static_cast<
            std::size_t>(v)];
        const Node *end = adjFlat_.data() + adjOffset_[static_cast<
            std::size_t>(v) + 1];
        for (; it != end; ++it)
            if (*it != except && in_[static_cast<std::size_t>(*it)])
                ++d;
        return d;
    }

    /**
     * Is (members - out + in) connected? @p degree_in must be
     * degreeInside(incoming, out). Three tiers, all exact:
     *  1. an incoming node with no edge into the surviving set means
     *     disconnected (unless the set is the single incoming node);
     *  2. local reachability certificate: S\{out} is connected iff all
     *     of out's inside-neighbors are mutually reachable in S\{out}
     *     (any survivor's path to out in S ends at such a neighbor).
     *     The search stops the moment every neighbor is found, so in
     *     sparse graphs it touches a small neighborhood, not the set;
     *  3. when tier 2 finds S\{out} split, a BFS over the full swapped
     *     set decides whether the incoming node re-bridges it.
     * All marks live in epoch-stamped per-thread scratch (one proposal
     * per call used to allocate three vectors), so the check stays
     * allocation-free even when reductions run concurrently on pool
     * workers — the tiers never change the answer, only the work.
     */
    bool
    connectedAfterSwap(Node out, Node incoming, int degree_in) const
    {
        if (members_.size() > 1 && degree_in == 0)
            return false; // Incoming node isolated from the rest.
        if (bitWords_ > 0)
            return connectedAfterSwapBitset(out, incoming);
        struct Scratch
        {
            std::vector<std::uint32_t> mark; //!< Epoch stamps per node.
            std::vector<Node> stack;
            std::uint32_t epoch = 0;
        };
        thread_local Scratch sc;
        const auto n = static_cast<std::size_t>(g_.numNodes());
        if (sc.mark.size() < n)
            sc.mark.assign(n, 0);
        if (sc.epoch >= std::numeric_limits<std::uint32_t>::max() - 4) {
            std::fill(sc.mark.begin(), sc.mark.end(), 0);
            sc.epoch = 0;
        }
        const Node *adj = adjFlat_.data();
        auto nbrBegin = [&](Node v) {
            return adj + adjOffset_[static_cast<std::size_t>(v)];
        };
        auto nbrEnd = [&](Node v) {
            return adj + adjOffset_[static_cast<std::size_t>(v) + 1];
        };

        // --- Tier 2: connect out's inside-neighbors within S\{out}.
        sc.epoch += 2;
        const std::uint32_t wanted = sc.epoch;   // Unfound neighbor.
        const std::uint32_t seen = sc.epoch + 1; // Visited survivor.
        int remaining = 0;
        Node start = -1;
        for (const Node *it = nbrBegin(out); it != nbrEnd(out); ++it) {
            if (in_[static_cast<std::size_t>(*it)]) {
                sc.mark[static_cast<std::size_t>(*it)] = wanted;
                ++remaining;
                start = *it;
            }
        }
        if (remaining <= 1)
            return true; // 0 or 1 surviving component seed: connected
                         // (0 only for the single-node set).
        sc.stack.clear();
        sc.stack.push_back(start);
        sc.mark[static_cast<std::size_t>(start)] = seen;
        --remaining;
        while (!sc.stack.empty() && remaining > 0) {
            Node v = sc.stack.back();
            sc.stack.pop_back();
            for (const Node *it = nbrBegin(v); it != nbrEnd(v); ++it) {
                const Node w = *it;
                if (w == out)
                    continue;
                auto wi = static_cast<std::size_t>(w);
                const std::uint32_t m = sc.mark[wi];
                if (m == wanted) {
                    sc.mark[wi] = seen;
                    if (--remaining == 0)
                        break;
                    sc.stack.push_back(w);
                } else if (m != seen && in_[wi]) {
                    sc.mark[wi] = seen;
                    sc.stack.push_back(w);
                }
            }
        }
        if (remaining == 0)
            return true; // One component holds every neighbor, and the
                         // incoming node attaches (degree_in > 0).

        // --- Tier 3: S\{out} is split; does the incoming node bridge
        // every piece? Full BFS over the swapped set.
        sc.epoch += 2;
        const std::uint32_t in_set = sc.epoch;
        const std::uint32_t visited_m = sc.epoch + 1;
        for (Node v : members_)
            if (v != out)
                sc.mark[static_cast<std::size_t>(v)] = in_set;
        sc.mark[static_cast<std::size_t>(incoming)] = in_set;
        sc.stack.clear();
        sc.stack.push_back(incoming);
        sc.mark[static_cast<std::size_t>(incoming)] = visited_m;
        std::size_t found = 1;
        const std::size_t target = members_.size();
        while (!sc.stack.empty()) {
            Node v = sc.stack.back();
            sc.stack.pop_back();
            for (const Node *it = nbrBegin(v); it != nbrEnd(v); ++it) {
                auto wi = static_cast<std::size_t>(*it);
                if (sc.mark[wi] == in_set) {
                    sc.mark[wi] = visited_m;
                    if (++found == target)
                        return true;
                    sc.stack.push_back(*it);
                }
            }
        }
        return false;
    }

    /** Apply the swap (must be validated by the caller). */
    void
    swap(Node out, Node incoming, int new_edges)
    {
        in_[static_cast<std::size_t>(out)] = 0;
        in_[static_cast<std::size_t>(incoming)] = 1;
        if (bitWords_ > 0) {
            inBits_[static_cast<std::size_t>(out) / 64] &=
                ~(std::uint64_t{1} << (out % 64));
            inBits_[static_cast<std::size_t>(incoming) / 64] |=
                std::uint64_t{1} << (incoming % 64);
        }
        auto it = std::find(members_.begin(), members_.end(), out);
        *it = incoming;
        edges_ = new_edges;
    }

    int edges() const { return edges_; }
    const std::vector<Node> &members() const { return members_; }
    bool
    contains(Node v) const
    {
        return in_[static_cast<std::size_t>(v)] != 0;
    }

  private:
    /** Bitset connectivity kernel cutoff (4 words per adjacency row). */
    static constexpr std::size_t kBitsetNodes = 256;
    static constexpr std::size_t kBitsetWords = kBitsetNodes / 64;

    /**
     * Exact BFS over (members - out + in) with word-parallel frontier
     * expansion: each frontier node ORs its 256-bit adjacency row into
     * the next frontier. Same verdict as the scalar BFS, a fraction of
     * the probes.
     */
    bool
    connectedAfterSwapBitset(Node out, Node incoming) const
    {
        std::uint64_t alive[kBitsetWords];
        for (std::size_t w = 0; w < kBitsetWords; ++w)
            alive[w] = inBits_[w];
        alive[static_cast<std::size_t>(out) / 64] &=
            ~(std::uint64_t{1} << (out % 64));
        alive[static_cast<std::size_t>(incoming) / 64] |=
            std::uint64_t{1} << (incoming % 64);

        std::uint64_t visited[kBitsetWords] = {0, 0, 0, 0};
        std::uint64_t frontier[kBitsetWords] = {0, 0, 0, 0};
        visited[static_cast<std::size_t>(incoming) / 64] =
            std::uint64_t{1} << (incoming % 64);
        frontier[static_cast<std::size_t>(incoming) / 64] = visited[
            static_cast<std::size_t>(incoming) / 64];

        const std::uint64_t *rows = adjBits_.data();
        for (;;) {
            std::uint64_t next[kBitsetWords] = {0, 0, 0, 0};
            for (std::size_t w = 0; w < bitWords_; ++w) {
                std::uint64_t bits = frontier[w];
                while (bits != 0) {
                    const auto v = w * 64 + static_cast<std::size_t>(
                        std::countr_zero(bits));
                    bits &= bits - 1;
                    const std::uint64_t *row = rows + v * kBitsetWords;
                    for (std::size_t x = 0; x < bitWords_; ++x)
                        next[x] |= row[x];
                }
            }
            std::uint64_t any = 0;
            for (std::size_t w = 0; w < bitWords_; ++w) {
                next[w] &= alive[w] & ~visited[w];
                visited[w] |= next[w];
                frontier[w] = next[w];
                any |= next[w];
            }
            if (any == 0)
                break;
        }
        for (std::size_t w = 0; w < bitWords_; ++w)
            if (visited[w] != alive[w])
                return false;
        return true;
    }

    const Graph &g_;
    std::vector<char> in_;
    std::vector<Node> members_;
    int edges_;
    /** CSR adjacency of g_ (offsets + flat neighbor array). */
    std::vector<std::size_t> adjOffset_;
    std::vector<Node> adjFlat_;
    /** Bitset mirror (n <= kBitsetNodes): rows + member mask. */
    std::vector<std::uint64_t> adjBits_;
    std::vector<std::uint64_t> inBits_;
    std::size_t bitWords_ = 0; //!< 0 = bitset kernel disabled.
};

} // namespace

SaResult
SaReducer::reduce(const Graph &g, int k, Rng &rng) const
{
    assert(k >= 1 && k <= g.numNodes());
    const double target_and = g.averageDegree();

    SaResult res;
    Subgraph init = randomConnectedSubgraph(g, k, rng);
    SubsetState state(g, init);

    auto objective = [&](double avg_degree) {
        return std::fabs(avg_degree - target_and);
    };

    double f_current = objective(state.averageDegree());
    std::vector<Node> best_members = state.members();
    double f_best = f_current;

    // Outside pool for proposal sampling.
    std::vector<Node> outside;
    for (Node v = 0; v < g.numNodes(); ++v)
        if (!state.contains(v))
            outside.push_back(v);

    if (outside.empty() || k == g.numNodes()) {
        res.subgraph = std::move(init);
        res.objective = f_current;
        return res;
    }

    int consecutive_rejects = 0;
    for (double t = opts_.t0; t > opts_.tf; ++res.steps) {
        for (int move = 0; move < opts_.movesPerTemperature; ++move) {
            // Propose a connected swap.
            Node out = -1, in = -1;
            int new_edges = 0;
            bool found = false;
            for (int attempt = 0; attempt < opts_.connectivityRetries;
                 ++attempt) {
                Node cand_out =
                    state.members()[rng.index(state.members().size())];
                Node cand_in = outside[rng.index(outside.size())];
                int d_in = state.degreeInside(cand_in, cand_out);
                int e_new = state.edges() -
                            state.degreeInside(cand_out, cand_out) + d_in;
                if (!state.connectedAfterSwap(cand_out, cand_in, d_in))
                    continue;
                out = cand_out;
                in = cand_in;
                new_edges = e_new;
                found = true;
                break;
            }
            if (!found) {
                ++res.rejected;
                ++consecutive_rejects;
                continue;
            }

            double f_neighbor =
                objective(2.0 * new_edges / static_cast<double>(k));
            bool accept = f_neighbor < f_current;
            if (!accept) {
                double p = std::exp(-(f_neighbor - f_current) / t);
                accept = rng.uniform() < p;
            }
            if (accept) {
                state.swap(out, in, new_edges);
                // Maintain the outside pool.
                auto it = std::find(outside.begin(), outside.end(), in);
                *it = out;
                f_current = f_neighbor;
                ++res.accepted;
                consecutive_rejects = 0;
                if (f_current < f_best) {
                    f_best = f_current;
                    best_members = state.members();
                }
            } else {
                ++res.rejected;
                ++consecutive_rejects;
            }
        }

        if (opts_.adaptive) {
            double exponent =
                1.0 + static_cast<double>(consecutive_rejects) /
                          static_cast<double>(opts_.rejectWindow);
            t *= std::pow(opts_.alpha, exponent);
        } else {
            t *= opts_.alpha;
        }
    }

    res.subgraph = inducedSubgraph(g, best_members);
    res.objective = f_best;
    return res;
}

} // namespace redqaoa
